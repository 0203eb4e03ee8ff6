//! `sim_ck34`: the host cost of reproducing the paper's speedup sweep
//! (Table IV / Fig 6) on the NoC simulator with a warm pair cache.

use crate::inputs::Dataset;
use crate::rigs::LANES;
use crate::trace::{phase, Phases};
use crate::workload::{check_fingerprint, reference_outcomes, warm_up, Layers, OpResult, Workload};
use rck_noc::{SimReport, SimTime};
use rck_serve::chaos::outcomes_fingerprint;
use rck_tmalign::MethodKind;
use rckalign::{all_vs_all, run_all_vs_all, PairCache, RckAlignOptions};
use std::time::Instant;

/// Slave counts of one sweep; 47 is the whole SCC minus the master.
const SLAVES: [usize; 7] = [1, 2, 4, 8, 16, 32, 47];

/// Untimed sweeps run by every set-up.
const WARMUPS: usize = 1;

pub struct SimSweep;

pub struct SimOracle {
    fingerprint: u64,
}

pub struct SimRig {
    cache: PairCache,
    /// Simulated makespans of the first sweep; every later sweep must
    /// reproduce them exactly.
    makespans: Option<Vec<SimTime>>,
    /// Report of the last 47-slave run.
    last47: Option<SimReport>,
    messages: u64,
    bytes: u64,
    host_ms: Vec<f64>,
}

impl SimSweep {
    fn run_one(&self, rig: &mut SimRig, oracle: &SimOracle, phases: &mut Phases) -> OpResult {
        let start = Instant::now();
        let runs: Vec<_> = SLAVES
            .iter()
            .map(|&n| run_all_vs_all(&rig.cache, &RckAlignOptions::paper(n)))
            .collect();
        let end = Instant::now();
        phases.push(("op.compute", start, end));
        let makespans: Vec<SimTime> = runs.iter().map(|r| r.report.makespan).collect();
        let check = phase(phases, "op.verify", || {
            if let Some(first) = &rig.makespans {
                if *first != makespans {
                    return Err(format!(
                        "simulated makespans changed between repeats: {first:?} then {makespans:?}"
                    ));
                }
            }
            if !makespans.windows(2).all(|w| w[1] <= w[0]) {
                return Err(format!("speedup not monotone in slaves: {makespans:?}"));
            }
            let widest = runs.last().expect("non-empty sweep");
            check_fingerprint(&widest.outcomes, oracle.fingerprint)
        });
        rig.messages = runs.iter().map(|r| r.report.total_messages()).sum();
        rig.bytes = runs.iter().map(|r| r.report.total_bytes()).sum();
        rig.last47 = runs.into_iter().last().map(|r| r.report);
        rig.makespans.get_or_insert(makespans);
        let ms = (end - start).as_secs_f64() * 1e3;
        rig.host_ms.push(ms);
        OpResult::checked(ms, check)
    }
}

impl Workload for SimSweep {
    type Oracle = SimOracle;
    type Rig = SimRig;

    fn oracle(&self, seed: u64) -> SimOracle {
        let chains = Dataset::Ck34.generate(seed);
        SimOracle {
            fingerprint: outcomes_fingerprint(&reference_outcomes(&chains, MethodKind::TmAlign)),
        }
    }

    fn setup(&self, seed: u64, oracle: &SimOracle, phases: &mut Phases) -> Result<SimRig, String> {
        let chains = phase(phases, "setup.generate", || Dataset::Ck34.generate(seed));
        let cache = phase(phases, "rig.boot", || {
            let cache = PairCache::new(chains);
            cache.prefill(&all_vs_all(cache.len(), MethodKind::TmAlign), LANES);
            cache
        });
        let mut rig = SimRig {
            cache,
            makespans: None,
            last47: None,
            messages: 0,
            bytes: 0,
            host_ms: Vec::new(),
        };
        warm_up(WARMUPS, || {
            self.run_one(&mut rig, oracle, &mut Phases::new())
        })?;
        rig.host_ms.clear();
        Ok(rig)
    }

    fn op(&self, rig: &mut SimRig, oracle: &SimOracle, phases: &mut Phases) -> OpResult {
        self.run_one(rig, oracle, phases)
    }

    fn finish(
        &self,
        rig: &mut SimRig,
        _oracle: &SimOracle,
        _traced: bool,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let makespans = rig.makespans.as_ref().ok_or("no op completed")?;
        let report = rig.last47.as_ref().ok_or("no op completed")?;
        let secs = |t: SimTime| t.since(SimTime::ZERO).as_secs_f64();
        let (one, widest) = (secs(makespans[0]), secs(makespans[SLAVES.len() - 1]));
        layers.note(format!(
            "simulated CK34 all-vs-all: {one:.1} s on 1 slave, {widest:.2} s on 47 (speedup {:.1}x; paper 36.2x)",
            one / widest
        ));
        layers.set("noc.sim_makespan_s_47", widest);
        layers.set("noc.sim_speedup_47", one / widest);
        // The master never computes; its load is the share of the run
        // it spends moving messages rather than waiting (Fig 7).
        let master = &report.per_core[0];
        layers.set(
            "noc.sim_master_util_47",
            1.0 - master.idle.as_secs_f64() / widest,
        );
        layers.set("noc.messages", rig.messages as f64);
        layers.set("noc.bytes", rig.bytes as f64);
        let host_ms = crate::stats::median(&rig.host_ms).unwrap_or(0.0);
        layers.set(
            "noc.host_us_per_message",
            host_ms * 1e3 / rig.messages.max(1) as f64,
        );
        Ok(())
    }
}
