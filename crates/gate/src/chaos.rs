//! Seeded fault scenarios for the serving tier.
//!
//! The serve-layer chaos harness ([`rck_serve::chaos`]) proves the batch
//! master's matrix survives worker faults; this module proves the same
//! for the *query plane*: a faulted client connection — frames dropped,
//! corrupted or torn on the way to one tenant — must never corrupt
//! another tenant's stream. Each scenario boots a real gate over the
//! in-memory network, runs clean workers plus (seed-dependent) one
//! crashing worker, and drives several tenants concurrently, one of
//! them through a chaotic connection. The invariant checked:
//!
//! * every query of every **healthy** tenant completes, its partial
//!   stream reassembles into exactly the expanded job set, and its
//!   final ranking is **bit-identical** to the in-process reference
//!   ([`crate::reference_ranking`]);
//! * the faulted tenant may see its session die or its query stall —
//!   but whatever it receives passed the frame checksum, and its fate
//!   has no effect on the others (isolation, not delivery, is the
//!   contract under chaos).

use crate::{rankings_bit_identical, reference_ranking, Gate, GateClient, GateConfig};
use rck_obs::Registry;
use rck_serve::chaos::{
    worker_config, ChaosCounters, FaultPlan, FaultProfile, SessionBehavior, WriteChaos,
};
use rck_serve::proto::QuerySubmit;
use rck_serve::run_worker_conn;
use rck_serve::transport::MemNet;
use rck_tmalign::MethodKind;
use rckalign::chaos::Report;
use rckalign::consensus::Combiner;
use std::time::Duration;

/// What one seeded gate scenario will do (deterministic given the seed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateScenarioPlan {
    /// The seed everything derives from.
    pub seed: u64,
    /// Chains in the resident database.
    pub n_db: usize,
    /// Healthy tenants (each runs one client thread).
    pub n_tenants: usize,
    /// Queries each healthy tenant submits.
    pub queries_per_tenant: usize,
    /// Jobs per dispatched batch.
    pub batch_size: usize,
    /// Whether a crash-after-one-batch worker joins the two clean ones.
    pub crash_worker: bool,
    /// Whether an extra tenant connects through a faulted stream.
    pub faulty_client: bool,
}

impl GateScenarioPlan {
    /// Derive a scenario deterministically from `seed`.
    pub fn from_seed(seed: u64) -> GateScenarioPlan {
        GateScenarioPlan {
            seed,
            n_db: 4 + (subseed(seed, 1) % 4) as usize,
            n_tenants: 2 + (subseed(seed, 2) % 2) as usize,
            queries_per_tenant: 1 + (subseed(seed, 3) % 2) as usize,
            batch_size: 1 + (subseed(seed, 4) % 4) as usize,
            crash_worker: subseed(seed, 5).is_multiple_of(2),
            faulty_client: !subseed(seed, 6).is_multiple_of(4),
        }
    }

    /// Healthy queries the scenario verifies.
    pub fn healthy_queries(&self) -> usize {
        self.n_tenants * self.queries_per_tenant
    }
}

/// Run one seeded scenario end to end over the in-memory network.
pub fn run_gate_scenario(plan: &GateScenarioPlan) -> Report {
    let mut db = rck_pdb::datasets::tiny_profile().generate(subseed(plan.seed, 7));
    db.truncate(plan.n_db);
    // Query chains come from a different seed so they are not database
    // members (a member query still works; a foreign one is the
    // interesting case).
    let queries = rck_pdb::datasets::tiny_profile().generate(subseed(plan.seed, 8));
    let methods = vec![MethodKind::TmAlign];
    let combiner = Combiner::MeanRank;

    let worker_net = MemNet::new();
    let client_net = MemNet::new();
    let gate = Gate::bind_on(
        worker_net.listener(),
        client_net.listener(),
        db.clone(),
        GateConfig {
            batch_size: plan.batch_size,
            heartbeat_timeout: Duration::from_millis(200),
            batch_timeout: Some(Duration::from_millis(800)),
            combiner,
            ..GateConfig::default()
        },
    );
    let handle = gate.handle();
    let gate_thread = std::thread::spawn(move || gate.run());

    // Two clean workers keep the farm live whatever else dies.
    let crasher = (
        SessionBehavior::Crash { after_batches: 1 },
        "crasher".to_string(),
    );
    let workers = (0..2)
        .map(|w| (SessionBehavior::Clean, format!("clean-{w}")))
        .chain(plan.crash_worker.then_some(crasher));
    let mut worker_threads = Vec::new();
    for (behavior, name) in workers {
        let conn = worker_net.connect().expect("worker connect");
        let cfg = worker_config(behavior, name, Duration::from_millis(50));
        worker_threads.push(std::thread::spawn(move || {
            let _ = run_worker_conn(conn, &cfg);
        }));
    }

    // The faulted tenant: gate→client frames pass through a seeded
    // fault plan. Its thread tolerates every failure mode — the
    // scenario only demands it cannot hurt anyone else.
    let faulty_thread = plan.faulty_client.then(|| {
        let profile = FaultProfile {
            drop_pm: 120,
            duplicate_pm: 0,
            corrupt_pm: 120,
            truncate_pm: 80,
            split_pm: 100,
            delay_pm: 80,
        };
        let fault = WriteChaos::new(
            FaultPlan::generate(subseed(plan.seed, 9), &profile),
            ChaosCounters::register(&Registry::new()),
        );
        let conn = client_net
            .connect_chaotic(None, Some(fault))
            .expect("chaotic connect");
        let query = queries[0].clone();
        std::thread::spawn(move || {
            let _ = conn.set_read_timeout(Some(Duration::from_secs(2)));
            let Ok(mut client) = GateClient::connect(conn, "faulty") else {
                return;
            };
            let _ = client.run_query(QuerySubmit {
                tenant: "faulty".to_string(),
                query_id: 1,
                weight: 1,
                methods: vec![MethodKind::TmAlign],
                chain: query,
            });
        })
    });

    // Healthy tenants, one thread each, sequential queries per tenant.
    let mut tenant_threads = Vec::new();
    for t in 0..plan.n_tenants {
        let conn = client_net.connect().expect("client connect");
        let methods = methods.clone();
        let my_queries: Vec<_> = (0..plan.queries_per_tenant)
            .map(|q| queries[1 + (t * plan.queries_per_tenant + q) % (queries.len() - 1)].clone())
            .collect();
        tenant_threads.push(std::thread::spawn(move || {
            let mut client = GateClient::connect(conn, &format!("tenant-{t}"))
                .expect("healthy tenant handshake");
            let mut results = Vec::new();
            for (q, chain) in my_queries.into_iter().enumerate() {
                let outcome = client
                    .run_query(QuerySubmit {
                        tenant: format!("tenant-{t}"),
                        query_id: q as u64,
                        weight: 1 + t as u32,
                        methods: methods.clone(),
                        chain: chain.clone(),
                    })
                    .expect("healthy tenant query");
                results.push((chain, outcome));
            }
            let _ = client.finish();
            results
        }));
    }

    let mut failures = Vec::new();
    let mut bit_identical = 0;
    for (t, thread) in tenant_threads.into_iter().enumerate() {
        match thread.join() {
            Ok(results) => {
                for (q, (chain, outcome)) in results.into_iter().enumerate() {
                    let expect = reference_ranking(&db, &chain, &methods, combiner);
                    match outcome.ranking {
                        Some(ranking) if rankings_bit_identical(&ranking, &expect) => {
                            if outcome.outcomes.len() == db.len() * methods.len() {
                                bit_identical += 1;
                            } else {
                                failures.push(format!(
                                    "tenant {t} query {q}: stream carried {} outcomes, expected {}",
                                    outcome.outcomes.len(),
                                    db.len() * methods.len()
                                ));
                            }
                        }
                        Some(_) => {
                            failures.push(format!("tenant {t} query {q}: ranking diverged"));
                        }
                        None => failures.push(format!(
                            "tenant {t} query {q}: no ranking ({:?})",
                            outcome.rejected
                        )),
                    }
                }
            }
            Err(_) => failures.push(format!("tenant {t}: client thread panicked")),
        }
    }
    let isolated = match faulty_thread {
        Some(thread) => thread.join().is_ok(),
        None => true,
    };
    if !isolated {
        failures.push("faulty tenant thread panicked".to_string());
    }

    handle.drain();
    let _ = gate_thread.join();
    for w in worker_threads {
        let _ = w.join();
    }
    Report {
        line: format!(
            "gate seed {}: {} tenants x {} queries (db {}, batch {}, crash_worker {}, faulty_client {}) -> {}/{} bit-identical, isolation {}",
            plan.seed,
            plan.n_tenants,
            plan.queries_per_tenant,
            plan.n_db,
            plan.batch_size,
            plan.crash_worker,
            plan.faulty_client,
            bit_identical,
            plan.healthy_queries(),
            if isolated { "held" } else { "BROKEN" },
        ),
        pass: failures.is_empty(),
        aborts: false,
        notes: failures.iter().map(|f| format!(": {f}")).collect(),
    }
}

/// SplitMix64 over `seed + (stream + 1) · φ`. Not the mix of
/// `rckalign::chaos::subseed` (that one xors the stream in, without the
/// offset): switching would re-derive every gate plan and change every
/// gate line of the chaos report, so the two stay apart.
fn subseed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_and_varied() {
        assert_eq!(
            GateScenarioPlan::from_seed(3),
            GateScenarioPlan::from_seed(3)
        );
        let plans: Vec<GateScenarioPlan> = (0..16).map(GateScenarioPlan::from_seed).collect();
        assert!(plans.iter().any(|p| p.crash_worker));
        assert!(plans.iter().any(|p| !p.crash_worker));
        assert!(plans.iter().any(|p| p.faulty_client));
    }

    #[test]
    fn one_scenario_end_to_end() {
        let plan = GateScenarioPlan::from_seed(5);
        let report = run_gate_scenario(&plan);
        assert!(report.pass, "failures: {:?}", report.notes);
        let all = plan.healthy_queries();
        assert!(report
            .line
            .contains(&format!("-> {all}/{all} bit-identical")));
    }
}
