//! `farm_ck34_tm` and `farm_rs119_rmsd`: all-vs-all through the
//! batch-mode `serve::Master` and two in-process workers.

use crate::inputs::Dataset;
use crate::rigs::{clock_layers, farm_op, OpClock, BATCH_SIZE, LANES};
use crate::trace::{phase, Phases};
use crate::workload::{
    check_count, check_fingerprint, reference_outcomes, warm_up, Layers, OpResult, Workload,
};
use rck_pdb::model::CaChain;
use rck_serve::chaos::outcomes_fingerprint;
use rck_serve::StatsSnapshot;
use rck_tmalign::MethodKind;
use rckalign::{all_vs_all, PairCache};
use std::time::Instant;

pub struct Farm {
    pub dataset: Dataset,
    pub method: MethodKind,
    /// Untimed ops run by every set-up.
    pub warmups: usize,
}

/// The in-process oracle of an all-vs-all dispatch workload.
pub struct DispatchOracle {
    pub fingerprint: u64,
    /// Wall time of the in-process two-thread `prefill`: the compute
    /// floor no dispatch path can beat.
    pub floor_ms: f64,
}

impl DispatchOracle {
    pub fn of(chains: &[CaChain], method: MethodKind) -> DispatchOracle {
        let start = Instant::now();
        let outcomes = reference_outcomes(chains, method);
        let floor_ms = start.elapsed().as_secs_f64() * 1e3;
        DispatchOracle {
            fingerprint: outcomes_fingerprint(&outcomes),
            floor_ms,
        }
    }
}

pub struct FarmRig {
    chains: Vec<CaChain>,
    clocks: Vec<OpClock>,
    /// Master counters of the last op.
    last: Option<StatsSnapshot>,
}

/// Wall time of the same pairs computed in-process on one thread.
fn serial_ms(chains: &[CaChain], method: MethodKind) -> f64 {
    let cache = PairCache::new(chains.to_vec());
    let jobs = all_vs_all(chains.len(), method);
    let start = Instant::now();
    cache.prefill(&jobs, 1);
    start.elapsed().as_secs_f64() * 1e3
}

impl Workload for Farm {
    type Oracle = DispatchOracle;
    type Rig = FarmRig;

    fn oracle(&self, seed: u64) -> DispatchOracle {
        DispatchOracle::of(&self.dataset.generate(seed), self.method)
    }

    fn setup(
        &self,
        seed: u64,
        oracle: &DispatchOracle,
        phases: &mut Phases,
    ) -> Result<FarmRig, String> {
        let chains = phase(phases, "setup.generate", || self.dataset.generate(seed));
        let mut rig = FarmRig {
            chains,
            clocks: Vec::new(),
            last: None,
        };
        warm_up(self.warmups, || self.op(&mut rig, oracle, phases))?;
        rig.clocks.clear();
        Ok(rig)
    }

    fn op(&self, rig: &mut FarmRig, oracle: &DispatchOracle, phases: &mut Phases) -> OpResult {
        let op = match farm_op(&rig.chains, self.method) {
            Ok(op) => op,
            Err(why) => return OpResult::fail(why),
        };
        op.clock.push_phases(phases);
        let pairs = rckalign::pair_count(rig.chains.len()) as u64;
        let stats = &op.run.stats;
        let check = phase(phases, "op.verify", || {
            check_fingerprint(&op.run.outcomes, oracle.fingerprint)?;
            check_count("serve jobs_completed", stats.jobs_completed, pairs)?;
            check_count("serve jobs_requeued", stats.jobs_requeued, 0)?;
            check_count(
                "serve batches_dispatched",
                stats.batches_dispatched,
                pairs.div_ceil(BATCH_SIZE as u64),
            )?;
            check_count(
                "worker jobs_done",
                op.workers.iter().map(|w| w.jobs_done).sum(),
                pairs,
            )
        });
        rig.clocks.push(op.clock);
        rig.last = Some(op.run.stats);
        OpResult::checked(op.clock.compute_ms(), check)
    }

    fn finish(
        &self,
        rig: &mut FarmRig,
        oracle: &DispatchOracle,
        traced: bool,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let stats = rig.last.as_ref().ok_or("no op completed")?;
        let op_ms = clock_layers(&rig.clocks, "serve.boot_ms", "serve.teardown_ms", layers);
        serve_layers(layers, stats, op_ms, oracle.floor_ms);
        if traced {
            let serial = serial_ms(&rig.chains, self.method);
            layers.set("serve.parallel_efficiency", serial / (LANES as f64 * op_ms));
        }
        Ok(())
    }
}

/// The `serve.*` numbers read off one op's final master counters.
pub fn serve_layers(layers: &mut Layers, stats: &StatsSnapshot, op_ms: f64, floor_ms: f64) {
    layers.set("serve.batches_dispatched", stats.batches_dispatched as f64);
    layers.set("serve.jobs_requeued", stats.jobs_requeued as f64);
    layers.set("serve.bytes_tx", stats.bytes_tx as f64);
    layers.set("serve.bytes_rx", stats.bytes_rx as f64);
    layers.set(
        "serve.batch_rtt_mean_ms",
        stats.batch_rtt.mean().unwrap_or(0.0) * 1e3,
    );
    if stats.batches_dispatched > 0 {
        layers.set(
            "serve.overhead_us_per_batch",
            (op_ms - floor_ms) * 1e3 / stats.batches_dispatched as f64,
        );
    }
}
