//! Seeded kill-a-master scenarios for the sharded farm.
//!
//! The single-farm chaos harness ([`rck_serve::chaos`]) kills *workers*;
//! this one kills whole **masters** mid-tile — the failure domain the
//! sharded tier introduces — and checks the frontend requeues the dead
//! master's tiles onto the survivors and still merges a matrix
//! bit-identical to the in-process ground truth.
//!
//! Everything about a scenario derives from its seed: dataset size,
//! tile size, master/worker counts, batch size, and which master (if
//! any) crashes after how many delivered tiles. The report line is
//! deterministic (plan + fingerprint + verdict, no timings or racy
//! counters), so `rck_chaos --shard-seeds --repeat` can demand
//! byte-identical re-runs.

use crate::frontend::{ShardConfig, ShardFrontend};
use crate::master::{run_shard_master, ShardMasterConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rck_serve::chaos::{outcomes_fingerprint, subseed};
use rck_serve::{run_worker_conn, MasterConfig, MemNet, WorkerConfig};
use rck_tmalign::MethodKind;
use rckalign::{run_all_vs_all, tile_partition, PairCache, RckAlignOptions};
use std::time::Duration;

/// A complete seeded shard scenario, fully determined by its seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardScenarioPlan {
    /// The scenario seed everything below derives from.
    pub seed: u64,
    /// Chains in the dataset.
    pub n_chains: usize,
    /// Tile side length of the frontend's partition.
    pub tile_size: usize,
    /// Shard masters.
    pub masters: usize,
    /// Workers connected to each master's farm.
    pub workers_per_master: usize,
    /// Batch size inside each master's farm.
    pub batch_size: usize,
    /// `(master index, tiles delivered before dying)` — `None` runs
    /// fault-free. At most one master dies, so every schedule is
    /// recoverable by the survivors.
    pub kill: Option<(usize, u32)>,
}

impl ShardScenarioPlan {
    /// Derive the whole scenario from `seed`.
    pub fn from_seed(seed: u64) -> ShardScenarioPlan {
        let mut rng = StdRng::seed_from_u64(subseed(seed, 1));
        let n_chains = rng.gen_range(5..=8usize);
        let tile_size = rng.gen_range(2..=4usize);
        let masters = rng.gen_range(2..=3usize);
        let workers_per_master = rng.gen_range(1..=2usize);
        let batch_size = rng.gen_range(2..=5usize);
        // Three out of five seeds kill a master mid-run.
        let kill = (rng.gen_range(0..5u32) < 3)
            .then(|| (rng.gen_range(0..masters), rng.gen_range(0..=2u32)));
        ShardScenarioPlan {
            seed,
            n_chains,
            tile_size,
            masters,
            workers_per_master,
            batch_size,
            kill,
        }
    }

    /// Tiles in the partition this plan induces.
    pub fn total_tiles(&self) -> usize {
        tile_partition(self.n_chains, self.tile_size).len()
    }

    /// One deterministic line describing the schedule.
    pub fn describe(&self) -> String {
        let kill = match self.kill {
            Some((m, after)) => format!("m{m}@{after}"),
            None => "none".to_string(),
        };
        format!(
            "shard seed={:06} chains={} tiles={}x{} masters={} workers={} batch={} kill={}",
            self.seed,
            self.n_chains,
            self.total_tiles(),
            self.tile_size,
            self.masters,
            self.workers_per_master,
            self.batch_size,
            kill,
        )
    }
}

/// Outcome of [`run_shard_scenario`].
#[derive(Debug, Clone)]
pub struct ShardScenarioReport {
    /// The plan that ran.
    pub plan: ShardScenarioPlan,
    /// Whether the merged matrix was bit-identical to the ground truth.
    pub pass: bool,
    /// FNV-1a fingerprint of the merged outcomes.
    pub matrix_fnv: u64,
    /// The canonical, deterministic report line (plan + fingerprint +
    /// verdict).
    pub report_line: String,
    /// Observed shard counters — informative, *not* deterministic
    /// (steal and requeue counts depend on thread interleaving).
    pub observed: String,
}

/// Run one seeded scenario end-to-end over in-memory transports: one
/// frontend, `plan.masters` shard masters each with its own MemNet and
/// worker pool, and (per the plan) one master killed mid-tile.
pub fn run_shard_scenario(plan: &ShardScenarioPlan) -> ShardScenarioReport {
    let chains = {
        let mut c = rck_pdb::datasets::tiny_profile().generate(subseed(plan.seed, 7));
        c.truncate(plan.n_chains);
        c
    };
    let expected = {
        let cache = PairCache::new(chains.clone());
        run_all_vs_all(&cache, &RckAlignOptions::paper(4)).outcomes
    };
    let want_fnv = outcomes_fingerprint(&expected);

    let net = MemNet::new();
    let frontend = ShardFrontend::bind_on(
        net.listener(),
        chains,
        ShardConfig {
            tile_size: plan.tile_size,
            masters: plan.masters,
            method: MethodKind::TmAlign,
            heartbeat_timeout: Duration::from_millis(300),
            tile_timeout: Some(Duration::from_millis(1500)),
            ..ShardConfig::default()
        },
    );
    let stats = frontend.stats();
    let frontend_thread = std::thread::spawn(move || frontend.run());

    let mut master_threads = Vec::new();
    let mut worker_threads = Vec::new();
    for m in 0..plan.masters {
        let worker_net = MemNet::new();
        let conn = match net.connect() {
            Ok(c) => c,
            Err(_) => break, // frontend already done (fully trivial plan)
        };
        let cfg = ShardMasterConfig {
            name: format!("m{m}"),
            serve: MasterConfig {
                batch_size: plan.batch_size,
                heartbeat_timeout: Duration::from_millis(200),
                batch_timeout: Some(Duration::from_millis(700)),
                ..MasterConfig::default()
            },
            heartbeat_interval: Duration::from_millis(50),
            crash_after_tiles: plan
                .kill
                .and_then(|(victim, after)| (victim == m).then_some(after)),
            ..ShardMasterConfig::default()
        };
        for w in 0..plan.workers_per_master {
            let worker_net = worker_net.clone();
            worker_threads.push(std::thread::spawn(move || {
                let Ok(conn) = worker_net.connect() else {
                    return;
                };
                let mut cfg = WorkerConfig::connect_to("127.0.0.1:0".parse().expect("addr"));
                cfg.name = format!("m{m}w{w}");
                cfg.heartbeat_interval = Duration::from_millis(40);
                let _ = run_worker_conn(conn, &cfg);
            }));
        }
        master_threads.push(std::thread::spawn(move || {
            run_shard_master(conn, worker_net.listener(), &cfg)
        }));
    }
    for t in master_threads {
        let _ = t.join().expect("shard master thread");
    }
    for t in worker_threads {
        let _ = t.join();
    }
    let run = frontend_thread.join().expect("frontend thread");

    let (pass, matrix_fnv, verdict) = match run {
        Ok(run) => {
            let got_fnv = outcomes_fingerprint(&run.outcomes);
            if got_fnv == want_fnv {
                (true, got_fnv, "completed matrix=bit-identical".to_string())
            } else {
                (
                    false,
                    got_fnv,
                    format!("completed matrix=DIVERGENT want={want_fnv:#018x}"),
                )
            }
        }
        Err(e) => (false, 0, format!("frontend-error({e})")),
    };
    let report_line = format!("{} → {} fnv={:#018x}", plan.describe(), verdict, matrix_fnv);
    let snap = stats.snapshot();
    let observed = format!(
        "granted={} completed={} requeued={} stolen={} duplicates={} mismatched={} \
         masters_connected={} masters_lost={} store_pairs={}",
        snap.tiles_granted,
        snap.tiles_completed,
        snap.tiles_requeued,
        snap.tiles_stolen,
        snap.duplicate_tiles,
        snap.mismatched_tiles,
        snap.masters_connected,
        snap.masters_lost,
        snap.store_pairs,
    );
    ShardScenarioReport {
        plan: plan.clone(),
        pass,
        matrix_fnv,
        report_line,
        observed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        for seed in 0..50 {
            let a = ShardScenarioPlan::from_seed(seed);
            let b = ShardScenarioPlan::from_seed(seed);
            assert_eq!(a, b);
            assert_eq!(a.describe(), b.describe());
            assert!(a.masters >= 2, "every plan keeps a survivor");
            if let Some((victim, _)) = a.kill {
                assert!(victim < a.masters);
            }
        }
    }

    #[test]
    fn seeds_cover_both_killed_and_clean_schedules() {
        let plans: Vec<ShardScenarioPlan> = (0..40).map(ShardScenarioPlan::from_seed).collect();
        assert!(plans.iter().any(|p| p.kill.is_some()));
        assert!(plans.iter().any(|p| p.kill.is_none()));
    }

    #[test]
    fn a_clean_scenario_completes_bit_identical() {
        // Find a small fault-free plan so the test stays fast.
        let seed = (0..200u64)
            .find(|&s| {
                let p = ShardScenarioPlan::from_seed(s);
                p.kill.is_none() && p.n_chains <= 6 && p.workers_per_master == 1
            })
            .expect("a clean small seed exists");
        let plan = ShardScenarioPlan::from_seed(seed);
        let report = run_shard_scenario(&plan);
        assert!(report.pass, "{}\n{}", report.report_line, report.observed);
    }

    #[test]
    fn a_killed_master_scenario_still_completes_bit_identical() {
        let seed = (0..200u64)
            .find(|&s| {
                let p = ShardScenarioPlan::from_seed(s);
                p.kill.is_some() && p.n_chains <= 6 && p.workers_per_master == 1
            })
            .expect("a killed-master small seed exists");
        let plan = ShardScenarioPlan::from_seed(seed);
        let report = run_shard_scenario(&plan);
        assert!(report.pass, "{}\n{}", report.report_line, report.observed);
    }
}
