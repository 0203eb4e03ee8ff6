//! `kernel_fast_ck34`: the banded f32 fast path called directly, one
//! thread — the only way it is reachable today (workers instantiate the
//! scalar kernel).

use crate::inputs::Dataset;
use crate::rigs::LANES;
use crate::trace::{phase, Phases};
use crate::workload::{warm_up, Layers, OpResult, Workload};
use rck_pdb::model::CaChain;
use rck_tmalign::{tm_align_with, TmAlignParams};
use std::time::Instant;

/// Golden-set tiers (crates/tmalign/tests/golden.rs): the fast path
/// must track the scalar oracle within `STRICT_EPS` where the oracle
/// scores at least `RELATED`, within `LOOSE_EPS` below, and may not
/// lose a hit at `HIT`.
const RELATED: f64 = 0.45;
const STRICT_EPS: f64 = 0.02;
const LOOSE_EPS: f64 = 0.12;
const HIT: f64 = 0.5;

/// Untimed ops run by every set-up.
const WARMUPS: usize = 1;

pub struct KernelFast;

/// Scalar TM-score (normalised by the shorter chain) of every pair.
pub struct KernelOracle {
    tm: Vec<f64>,
}

pub struct KernelRig {
    chains: Vec<CaChain>,
    pairs: Vec<(usize, usize)>,
}

fn all_pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect()
}

fn sweep(chains: &[CaChain], pairs: &[(usize, usize)], params: &TmAlignParams) -> Vec<f64> {
    pairs
        .iter()
        .map(|&(i, j)| tm_align_with(&chains[i], &chains[j], params).tm_max_norm())
        .collect()
}

/// The tier check of one fast sweep against the oracle.
fn check_tiers(oracle: &[f64], fast: &[f64]) -> Result<(), String> {
    if oracle.len() != fast.len() {
        return Err(format!("{} scores for {} pairs", fast.len(), oracle.len()));
    }
    for (k, (&want, &got)) in oracle.iter().zip(fast).enumerate() {
        // Pruning may only cheapen hopeless pairs: below the related
        // line the fast score may fall short by any amount, never exceed.
        let (off, eps) = if want >= RELATED {
            ((want - got).abs(), STRICT_EPS)
        } else {
            (got - want, LOOSE_EPS)
        };
        if off > eps {
            return Err(format!("pair {k}: oracle TM {want:.4}, fast {got:.4}"));
        }
        if want >= HIT && got < HIT - STRICT_EPS {
            return Err(format!(
                "pair {k}: lost hit (oracle {want:.4}, fast {got:.4})"
            ));
        }
    }
    Ok(())
}

impl KernelFast {
    fn run_one(&self, rig: &KernelRig, oracle: &KernelOracle, phases: &mut Phases) -> OpResult {
        let start = Instant::now();
        let fast = std::hint::black_box(sweep(&rig.chains, &rig.pairs, &TmAlignParams::fast()));
        let end = Instant::now();
        phases.push(("op.compute", start, end));
        let check = phase(phases, "op.verify", || check_tiers(&oracle.tm, &fast));
        OpResult::checked((end - start).as_secs_f64() * 1e3, check)
    }
}

impl Workload for KernelFast {
    type Oracle = KernelOracle;
    type Rig = KernelRig;

    fn oracle(&self, seed: u64) -> KernelOracle {
        let chains = Dataset::Ck34.generate(seed);
        let pairs = all_pairs(chains.len());
        let chunk = pairs.len().div_ceil(LANES);
        let tm = std::thread::scope(|s| {
            let handles: Vec<_> = pairs
                .chunks(chunk)
                .map(|piece| {
                    let chains = &chains;
                    s.spawn(move || sweep(chains, piece, &TmAlignParams::default()))
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("oracle thread"))
                .collect()
        });
        KernelOracle { tm }
    }

    fn setup(
        &self,
        seed: u64,
        oracle: &KernelOracle,
        phases: &mut Phases,
    ) -> Result<KernelRig, String> {
        let chains = phase(phases, "setup.generate", || Dataset::Ck34.generate(seed));
        let pairs = all_pairs(chains.len());
        let rig = KernelRig { chains, pairs };
        warm_up(WARMUPS, || self.run_one(&rig, oracle, &mut Phases::new()))?;
        Ok(rig)
    }

    fn op(&self, rig: &mut KernelRig, oracle: &KernelOracle, phases: &mut Phases) -> OpResult {
        self.run_one(rig, oracle, phases)
    }

    fn finish(
        &self,
        _rig: &mut KernelRig,
        _oracle: &KernelOracle,
        _traced: bool,
        _layers: &mut Layers,
    ) -> Result<(), String> {
        // The kernel's per-op numbers are the global stage counters the
        // runner reads around every op (`tmalign.*`).
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_accept_the_documented_epsilons_and_reject_beyond() {
        assert!(check_tiers(&[0.8, 0.3], &[0.79, 0.41]).is_ok());
        assert!(check_tiers(&[0.8], &[0.77]).is_err(), "strict tier");
        assert!(check_tiers(&[0.3], &[0.43]).is_err(), "loose tier");
        assert!(
            check_tiers(&[0.3], &[0.0]).is_ok(),
            "pruned pairs may score low"
        );
        assert!(check_tiers(&[0.5], &[0.47]).is_err(), "lost hit");
        assert!(check_tiers(&[0.5, 0.6], &[0.5]).is_err(), "length mismatch");
    }

    #[test]
    fn all_pairs_is_the_strict_upper_triangle() {
        assert_eq!(all_pairs(3), vec![(0, 1), (0, 2), (1, 2)]);
        assert_eq!(all_pairs(34).len(), 561);
    }
}
