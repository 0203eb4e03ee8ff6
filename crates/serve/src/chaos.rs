//! Deterministic chaos: seeded fault plans for the in-memory transport,
//! and end-to-end fault scenarios over an unmodified master and worker.
//!
//! The paper's fault story is one ad-hoc experiment (kill a worker
//! mid-run); production needs the requeue/heartbeat/dedup machinery
//! proven under *systematic, reproducible* fault schedules. Everything
//! here is driven by a single `u64` seed through the workspace's
//! deterministic RNG — no wall-clock sampling, no OS randomness — so any
//! red scenario replays from its seed alone.
//!
//! Layers:
//!
//! * [`FaultProfile`] / [`FaultPlan`] — per-connection-direction
//!   schedules of frame faults (drop, duplicate, corrupt, truncate,
//!   split, delay/reorder), realised from a seed;
//! * [`WriteChaos`] — applies a plan at the write side of a
//!   [`MemConn`](crate::transport::MemConn), counting every injected
//!   fault in `rck_chaos_*` counters on the master's metric registry;
//! * [`ScenarioPlan`] / [`run_scenario`] — a complete seeded scenario:
//!   a dataset, a master over the in-memory transport, worker slots with
//!   crash/hang/slow session scripts, and a [`Verdict`] checked against
//!   the in-process ground truth ([`rckalign::chaos::truth`]).
//!
//! The contract a scenario verifies is the serve layer's core promise:
//! **if the run completes, the matrix is bit-identical to the in-process
//! result; if the fault plan makes completion impossible, the master
//! fails cleanly (abort) — never a wrong matrix, never a deadlock.**

use crate::master::{Master, MasterConfig};
use crate::sync::MutexExt;
use crate::transport::MemNet;
use crate::worker::{run_worker_conn, WorkerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rck_obs::{Counter, Registry};
use rck_tmalign::MethodKind;
use rckalign::chaos::{subseed, truth, Report, Verdict};
use rckalign::loadbalance::JobOrdering;
use rckalign::SimilarityMatrix;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// The benchmark package (`benchmark/`) calls the fingerprint by this path.
pub use rckalign::chaos::outcomes_fingerprint;

/// One frame-level fault, scheduled for a specific write operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The frame never reaches the peer.
    Drop,
    /// The frame is delivered twice.
    Duplicate,
    /// One byte of the frame is XORed with `mask` at a position derived
    /// from `at` (a fraction of the frame length, in 1/256ths).
    Corrupt {
        /// Position numerator (position = `at * len / 256`).
        at: u8,
        /// Non-zero XOR mask.
        mask: u8,
    },
    /// Only a prefix of the frame is delivered (a torn write).
    Truncate {
        /// Kept-prefix numerator (kept = `max(1, at * len / 256)`).
        at: u8,
    },
    /// The frame is delivered in two separate chunks (a split write —
    /// benign, but exercises short-read reassembly on the receiver).
    Split {
        /// Split-point numerator.
        at: u8,
    },
    /// The frame is held back and delivered after the *next* written
    /// frame (reordering).
    Delay,
}

/// Per-mille probabilities for each fault kind on one direction of one
/// connection. Realised into a concrete [`FaultPlan`] by a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultProfile {
    /// Frame-drop probability (‰).
    pub drop_pm: u16,
    /// Duplication probability (‰).
    pub duplicate_pm: u16,
    /// Byte-corruption probability (‰).
    pub corrupt_pm: u16,
    /// Torn-write probability (‰).
    pub truncate_pm: u16,
    /// Split-write probability (‰).
    pub split_pm: u16,
    /// Delay/reorder probability (‰).
    pub delay_pm: u16,
}

impl FaultProfile {
    /// No faults at all.
    pub const CLEAN: FaultProfile = FaultProfile {
        drop_pm: 0,
        duplicate_pm: 0,
        corrupt_pm: 0,
        truncate_pm: 0,
        split_pm: 0,
        delay_pm: 0,
    };

    /// Whether every probability is zero.
    pub fn is_clean(&self) -> bool {
        *self == FaultProfile::CLEAN
    }

    fn total_pm(&self) -> u32 {
        self.drop_pm as u32
            + self.duplicate_pm as u32
            + self.corrupt_pm as u32
            + self.truncate_pm as u32
            + self.split_pm as u32
            + self.delay_pm as u32
    }
}

/// Number of write operations a plan covers; writes beyond it are clean.
/// Generous for the frame counts tiny chaos datasets produce.
const PLAN_OPS: usize = 1024;

/// A realised fault schedule: one optional fault per write-op index.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    actions: Vec<Option<Fault>>,
}

impl FaultPlan {
    /// Realise `profile` into a concrete schedule, deterministically
    /// from `seed`.
    pub fn generate(seed: u64, profile: &FaultProfile) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let actions = (0..PLAN_OPS)
            .map(|_| {
                // Always consume the same number of RNG draws per op so
                // plans with different profiles stay comparable.
                let roll = rng.gen_range(0..1000u32);
                let at = rng.gen_range(0..=255u16) as u8;
                let mask = rng.gen_range(1..=255u16) as u8;
                let mut edge = 0u32;
                let mut pick = |pm: u16| {
                    edge += pm as u32;
                    roll < edge
                };
                if profile.total_pm() == 0 {
                    None
                } else if pick(profile.drop_pm) {
                    Some(Fault::Drop)
                } else if pick(profile.duplicate_pm) {
                    Some(Fault::Duplicate)
                } else if pick(profile.corrupt_pm) {
                    Some(Fault::Corrupt { at, mask })
                } else if pick(profile.truncate_pm) {
                    Some(Fault::Truncate { at })
                } else if pick(profile.split_pm) {
                    Some(Fault::Split { at })
                } else if pick(profile.delay_pm) {
                    Some(Fault::Delay)
                } else {
                    None
                }
            })
            .collect();
        FaultPlan { actions }
    }

    /// A schedule that never faults.
    pub fn clean() -> FaultPlan {
        FaultPlan {
            actions: Vec::new(),
        }
    }

    fn action(&self, op: usize) -> Option<Fault> {
        self.actions.get(op).copied().flatten()
    }

    /// Scheduled (not necessarily fired) faults in the plan.
    pub fn scheduled(&self) -> usize {
        self.actions.iter().flatten().count()
    }
}

/// Counters for every injected fault, registered on the master's
/// per-run metric registry so scenario reports show exactly what was
/// exercised.
#[derive(Debug)]
pub struct ChaosCounters {
    /// Frames silently discarded.
    pub frames_dropped: Arc<Counter>,
    /// Frames delivered twice.
    pub frames_duplicated: Arc<Counter>,
    /// Frames with a byte corrupted.
    pub frames_corrupted: Arc<Counter>,
    /// Frames torn mid-write.
    pub frames_truncated: Arc<Counter>,
    /// Frames split into two chunks.
    pub frames_split: Arc<Counter>,
    /// Frames delayed behind their successor.
    pub frames_delayed: Arc<Counter>,
    /// Worker sessions that crashed by script.
    pub worker_crashes: Arc<Counter>,
    /// Worker sessions that hung by script.
    pub worker_hangs: Arc<Counter>,
    /// Worker sessions running slowed by script.
    pub worker_slowdowns: Arc<Counter>,
}

impl ChaosCounters {
    /// Register the `rck_chaos_*` family on `registry`.
    pub fn register(registry: &Registry) -> Arc<ChaosCounters> {
        Arc::new(ChaosCounters {
            frames_dropped: registry.counter(
                "rck_chaos_frames_dropped_total",
                "frames discarded by fault injection",
            ),
            frames_duplicated: registry.counter(
                "rck_chaos_frames_duplicated_total",
                "frames delivered twice by fault injection",
            ),
            frames_corrupted: registry.counter(
                "rck_chaos_frames_corrupted_total",
                "frames with an injected corrupted byte",
            ),
            frames_truncated: registry.counter(
                "rck_chaos_frames_truncated_total",
                "frames torn mid-write by fault injection",
            ),
            frames_split: registry.counter(
                "rck_chaos_frames_split_total",
                "frames split into separate chunks by fault injection",
            ),
            frames_delayed: registry.counter(
                "rck_chaos_frames_delayed_total",
                "frames reordered behind a later frame by fault injection",
            ),
            worker_crashes: registry.counter(
                "rck_chaos_worker_crashes_total",
                "worker sessions crashed by script",
            ),
            worker_hangs: registry.counter(
                "rck_chaos_worker_hangs_total",
                "worker sessions hung by script",
            ),
            worker_slowdowns: registry.counter(
                "rck_chaos_worker_slowdowns_total",
                "worker sessions slowed by script",
            ),
        })
    }
}

#[derive(Debug)]
struct WriteChaosState {
    plan: FaultPlan,
    op: usize,
    delayed: Vec<Vec<u8>>,
}

/// Fault injection at the write side of one in-memory endpoint. Shared
/// by every clone of the endpoint, so multi-threaded writers (the
/// worker's heartbeat thread) draw from the same schedule.
#[derive(Debug)]
pub struct WriteChaos {
    state: Mutex<WriteChaosState>,
    counters: Arc<ChaosCounters>,
}

impl WriteChaos {
    /// Chaos for one direction, drawing faults from `plan`.
    pub fn new(plan: FaultPlan, counters: Arc<ChaosCounters>) -> Arc<WriteChaos> {
        Arc::new(WriteChaos {
            state: Mutex::new(WriteChaosState {
                plan,
                op: 0,
                delayed: Vec::new(),
            }),
            counters,
        })
    }

    /// Apply the next scheduled action to `frame`, pushing the resulting
    /// chunk(s) into `push` (the underlying pipe).
    pub(crate) fn write_frame(
        &self,
        pipe: &(impl PipeSink + ?Sized),
        frame: &[u8],
    ) -> io::Result<()> {
        let mut st = self.state.lock_recover();
        let action = st.plan.action(st.op);
        st.op += 1;
        match action {
            None => pipe.push_chunk(frame.to_vec())?,
            Some(Fault::Drop) => {
                self.counters.frames_dropped.inc();
            }
            Some(Fault::Duplicate) => {
                self.counters.frames_duplicated.inc();
                pipe.push_chunk(frame.to_vec())?;
                pipe.push_chunk(frame.to_vec())?;
            }
            Some(Fault::Corrupt { at, mask }) => {
                self.counters.frames_corrupted.inc();
                let mut bytes = frame.to_vec();
                if !bytes.is_empty() {
                    let ix = ((at as usize * bytes.len()) / 256).min(bytes.len() - 1);
                    bytes[ix] ^= mask;
                }
                pipe.push_chunk(bytes)?;
            }
            Some(Fault::Truncate { at }) => {
                self.counters.frames_truncated.inc();
                let keep = ((at as usize * frame.len()) / 256).max(1).min(frame.len());
                pipe.push_chunk(frame[..keep].to_vec())?;
            }
            Some(Fault::Split { at }) => {
                self.counters.frames_split.inc();
                let cut = ((at as usize * frame.len()) / 256).clamp(1, frame.len().max(2) - 1);
                pipe.push_chunk(frame[..cut].to_vec())?;
                pipe.push_chunk(frame[cut..].to_vec())?;
            }
            Some(Fault::Delay) => {
                self.counters.frames_delayed.inc();
                st.delayed.push(frame.to_vec());
                return Ok(());
            }
        }
        // Anything held back is delivered *after* the current frame —
        // that is the reordering.
        for held in st.delayed.drain(..) {
            pipe.push_chunk(held)?;
        }
        Ok(())
    }
}

/// The write target [`WriteChaos`] feeds — implemented by the in-memory
/// pipe. A trait so chaos unit tests can capture chunks directly.
pub(crate) trait PipeSink {
    fn push_chunk(&self, chunk: Vec<u8>) -> io::Result<()>;
}

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// What one worker session does, besides the frame faults on its wires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionBehavior {
    /// Serve honestly until Shutdown.
    Clean,
    /// Vanish without replying after receiving this many batches.
    Crash {
        /// Batches answered before the crash.
        after_batches: usize,
    },
    /// Go silent (no replies, no heartbeats) after this many batches,
    /// until the master gives up on the connection.
    Hang {
        /// Batches answered before hanging.
        after_batches: usize,
    },
    /// Serve honestly but sleep this many milliseconds per batch.
    Slow {
        /// Per-batch delay in milliseconds.
        per_batch_ms: u16,
    },
}

impl SessionBehavior {
    fn describe(&self) -> String {
        match self {
            SessionBehavior::Clean => "clean".to_string(),
            SessionBehavior::Crash { after_batches } => format!("crash@{after_batches}"),
            SessionBehavior::Hang { after_batches } => format!("hang@{after_batches}"),
            SessionBehavior::Slow { per_batch_ms } => format!("slow{per_batch_ms}ms"),
        }
    }
}

/// One worker session: behavior plus the fault profiles on both
/// directions of its connection.
#[derive(Debug, Clone)]
pub struct SessionScript {
    /// What the worker itself does.
    pub behavior: SessionBehavior,
    /// Faults on worker → master frames.
    pub c2s: FaultProfile,
    /// Faults on master → worker frames.
    pub s2c: FaultProfile,
    /// Seed the fault plans for this session are realised from.
    pub plan_seed: u64,
}

impl SessionScript {
    /// Whether this session is honest and fault-free on both directions
    /// (the kind of session that guarantees a recoverable schedule).
    pub fn is_clean(&self) -> bool {
        self.behavior == SessionBehavior::Clean && self.c2s.is_clean() && self.s2c.is_clean()
    }
}

/// A complete seeded scenario, fully determined by its seed.
#[derive(Debug, Clone)]
pub struct ScenarioPlan {
    /// The scenario seed everything below derives from.
    pub seed: u64,
    /// Chains in the dataset (pairs = n·(n−1)/2).
    pub n_chains: usize,
    /// Master batch size.
    pub batch_size: usize,
    /// Session scripts per worker slot (`scripts[slot][session]`).
    pub scripts: Vec<Vec<SessionScript>>,
    /// Whether the schedule permits completion (a fault-free immortal
    /// final session exists). Decides the expected verdict.
    pub expect_complete: bool,
}

impl ScenarioPlan {
    /// Derive the whole scenario from `seed`.
    pub fn from_seed(seed: u64) -> ScenarioPlan {
        let mut rng = StdRng::seed_from_u64(subseed(seed, 1));
        let n_chains = rng.gen_range(4..=8usize);
        let batch_size = rng.gen_range(1..=5usize);
        let n_workers = rng.gen_range(1..=3usize);
        // Three out of four seeds describe a recoverable schedule.
        let expect_complete = rng.gen_range(0..4u32) != 0;

        let mut scripts = Vec::with_capacity(n_workers);
        for w in 0..n_workers {
            let mut srng = StdRng::seed_from_u64(subseed(seed, 100 + w as u64));
            let n_sessions = srng.gen_range(1..=3usize);
            let mut sessions = Vec::with_capacity(n_sessions);
            for s in 0..n_sessions {
                let plan_seed = subseed(seed, 10_000 + (w as u64) * 100 + s as u64);
                let behavior = if !expect_complete {
                    // Unrecoverable schedules: nobody ever answers.
                    SessionBehavior::Crash { after_batches: 0 }
                } else {
                    match srng.gen_range(0..6u32) {
                        0 => SessionBehavior::Crash {
                            after_batches: srng.gen_range(0..=2usize),
                        },
                        1 => SessionBehavior::Hang {
                            after_batches: srng.gen_range(0..=2usize),
                        },
                        2 => SessionBehavior::Slow {
                            per_batch_ms: srng.gen_range(5..=25u16),
                        },
                        _ => SessionBehavior::Clean,
                    }
                };
                let wire_faults = srng.gen_bool(0.7);
                let profile = |faulty: bool, srng: &mut StdRng| {
                    if !faulty {
                        return FaultProfile::CLEAN;
                    }
                    FaultProfile {
                        drop_pm: srng.gen_range(0..=60u16),
                        duplicate_pm: srng.gen_range(0..=60u16),
                        corrupt_pm: srng.gen_range(0..=40u16),
                        truncate_pm: srng.gen_range(0..=40u16),
                        split_pm: srng.gen_range(0..=80u16),
                        delay_pm: srng.gen_range(0..=60u16),
                    }
                };
                let c2s = profile(wire_faults, &mut srng);
                let s2c = profile(wire_faults, &mut srng);
                sessions.push(SessionScript {
                    behavior,
                    c2s,
                    s2c,
                    plan_seed,
                });
            }
            scripts.push(sessions);
        }
        if expect_complete {
            // Guarantee recoverability: worker slot 0's final session is
            // immortal and fault-free on both directions.
            let last = scripts[0].last_mut().expect("at least one session");
            *last = SessionScript {
                behavior: SessionBehavior::Clean,
                c2s: FaultProfile::CLEAN,
                s2c: FaultProfile::CLEAN,
                plan_seed: 0,
            };
        }
        ScenarioPlan {
            seed,
            n_chains,
            batch_size,
            scripts,
            expect_complete,
        }
    }

    /// Comparison pairs in the dataset.
    pub fn total_pairs(&self) -> usize {
        self.n_chains * (self.n_chains - 1) / 2
    }

    /// One deterministic line describing the schedule (no timings, no
    /// fired-fault counts — byte-identical across re-runs of the seed).
    pub fn describe(&self) -> String {
        let scripts: Vec<String> = self
            .scripts
            .iter()
            .map(|sessions| {
                sessions
                    .iter()
                    .map(|s| {
                        let mut d = s.behavior.describe();
                        if !s.c2s.is_clean() || !s.s2c.is_clean() {
                            let plan_c2s =
                                FaultPlan::generate(subseed(s.plan_seed, 2), &s.c2s).scheduled();
                            let plan_s2c =
                                FaultPlan::generate(subseed(s.plan_seed, 3), &s.s2c).scheduled();
                            d.push_str(&format!("+wire({plan_c2s}/{plan_s2c})"));
                        }
                        d
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        format!(
            "seed={:06} chains={} pairs={} batch={} workers=[{}] expect={}",
            self.seed,
            self.n_chains,
            self.total_pairs(),
            self.batch_size,
            scripts.join(" | "),
            if self.expect_complete {
                "complete"
            } else {
                "abort"
            },
        )
    }
}

/// The worker every chaos scenario runs: `behavior`'s crash, hang or
/// slowdown script on top of a worker that beats every `heartbeat`.
pub fn worker_config(behavior: SessionBehavior, name: String, heartbeat: Duration) -> WorkerConfig {
    let mut cfg = WorkerConfig::connect_to("127.0.0.1:0".parse().expect("addr"));
    cfg.name = name;
    cfg.heartbeat_interval = heartbeat;
    match behavior {
        SessionBehavior::Clean => {}
        SessionBehavior::Crash { after_batches } => cfg.fail_after_batches = Some(after_batches),
        SessionBehavior::Hang { after_batches } => cfg.hang_after_batches = Some(after_batches),
        SessionBehavior::Slow { per_batch_ms } => {
            cfg.slow_per_batch = Some(Duration::from_millis(per_batch_ms as u64))
        }
    }
    cfg
}

/// Run one seeded scenario end-to-end over the in-memory transport.
///
/// The dataset, master, worker schedule, and fault plans all derive from
/// `plan.seed`; the verdict is checked against the in-process ground
/// truth, outcomes and assembled matrix both.
pub fn run_scenario(plan: &ScenarioPlan) -> Report {
    let (chains, expected_outcomes) = truth(plan.seed, plan.n_chains);
    let expected_matrix = SimilarityMatrix::from_outcomes(chains.len(), &expected_outcomes);
    let want_fnv = outcomes_fingerprint(&expected_outcomes);

    let net = MemNet::new();
    let cfg = MasterConfig {
        batch_size: plan.batch_size,
        method: MethodKind::TmAlign,
        ordering: JobOrdering::LongestFirst,
        heartbeat_timeout: Duration::from_millis(200),
        batch_timeout: Some(Duration::from_millis(700)),
        min_workers: 1,
        ..MasterConfig::default()
    };
    let master = Master::bind_on(net.listener(), chains, cfg);
    let stats = master.stats();
    let counters = ChaosCounters::register(&stats.registry());
    let abort = master.abort_handle();
    let total_pairs = plan.total_pairs() as u64;
    let master_thread = std::thread::spawn(move || master.run());

    let slots: Vec<_> = plan
        .scripts
        .iter()
        .enumerate()
        .map(|(slot, sessions)| {
            let sessions = sessions.clone();
            let net = net.clone();
            let counters = Arc::clone(&counters);
            std::thread::spawn(move || {
                for (s, script) in sessions.iter().enumerate() {
                    let c2s = (!script.c2s.is_clean()).then(|| {
                        WriteChaos::new(
                            FaultPlan::generate(subseed(script.plan_seed, 2), &script.c2s),
                            Arc::clone(&counters),
                        )
                    });
                    let s2c = (!script.s2c.is_clean()).then(|| {
                        WriteChaos::new(
                            FaultPlan::generate(subseed(script.plan_seed, 3), &script.s2c),
                            Arc::clone(&counters),
                        )
                    });
                    let Ok(conn) = net.connect_chaotic(c2s, s2c) else {
                        break; // master gone — nothing left to do
                    };
                    if let SessionBehavior::Slow { .. } = script.behavior {
                        counters.worker_slowdowns.inc();
                    }
                    let name = format!("w{slot}s{s}");
                    let cfg = worker_config(script.behavior, name, Duration::from_millis(40));
                    match run_worker_conn(conn, &cfg) {
                        Ok(report) if !report.failed_by_injection => break, // orderly Shutdown
                        Ok(_) => match script.behavior {
                            SessionBehavior::Crash { .. } => counters.worker_crashes.inc(),
                            SessionBehavior::Hang { .. } => counters.worker_hangs.inc(),
                            _ => {}
                        },
                        Err(_) => {}
                    }
                }
            })
        })
        .collect();
    for slot in slots {
        slot.join().expect("worker slot thread");
    }
    // Every scripted session has ended. If the workload is not done by
    // now it never will be — demand a clean failure from the master.
    if stats.jobs_completed() < total_pairs {
        abort.abort();
    }
    let run = master_thread.join().expect("master thread");

    let verdict = match Verdict::judge(run.as_ref().map(|r| &r.outcomes[..]), want_fnv) {
        // The assembled matrix must agree too, not only the outcomes.
        Verdict::CompletedIdentical { matrix_fnv }
            if run.as_ref().is_ok_and(|r| r.matrix != expected_matrix) =>
        {
            Verdict::CompletedDivergent {
                got_fnv: matrix_fnv,
                want_fnv,
            }
        }
        verdict => verdict,
    };
    // Requeue accounting must balance on every completed run: each
    // dispatched job either completed or was requeued.
    let snap = stats.snapshot();
    let balanced = if matches!(verdict, Verdict::CompletedIdentical { .. }) {
        snap.jobs_dispatched == snap.jobs_completed + snap.jobs_requeued
    } else {
        true
    };
    let line = format!(
        "{} → {}{}",
        plan.describe(),
        verdict.describe(),
        if balanced { "" } else { " UNBALANCED" },
    );
    let observed = format!(
        "dropped={} duplicated={} corrupted={} truncated={} split={} delayed={} crashes={} hangs={} \
         slowdowns={} | dispatched={} completed={} requeued={} stale={} decode_errors={} \
         mismatched={} workers_lost={}",
        counters.frames_dropped.get(),
        counters.frames_duplicated.get(),
        counters.frames_corrupted.get(),
        counters.frames_truncated.get(),
        counters.frames_split.get(),
        counters.frames_delayed.get(),
        counters.worker_crashes.get(),
        counters.worker_hangs.get(),
        counters.worker_slowdowns.get(),
        snap.jobs_dispatched,
        snap.jobs_completed,
        snap.jobs_requeued,
        snap.stale_results,
        snap.decode_errors,
        snap.mismatched_results,
        snap.workers_lost,
    );
    Report {
        line,
        pass: verdict.passes(plan.expect_complete) && balanced,
        aborts: !plan.expect_complete,
        notes: vec![format!(" observed: {observed}")],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex as StdMutex;

    struct Capture(StdMutex<Vec<Vec<u8>>>);

    impl PipeSink for Capture {
        fn push_chunk(&self, chunk: Vec<u8>) -> io::Result<()> {
            self.0.lock().unwrap().push(chunk);
            Ok(())
        }
    }

    fn counters() -> Arc<ChaosCounters> {
        ChaosCounters::register(&Registry::new())
    }

    #[test]
    fn plans_are_deterministic_per_seed() {
        let profile = FaultProfile {
            drop_pm: 50,
            duplicate_pm: 50,
            corrupt_pm: 50,
            truncate_pm: 50,
            split_pm: 50,
            delay_pm: 50,
        };
        let a = FaultPlan::generate(9, &profile);
        let b = FaultPlan::generate(9, &profile);
        assert_eq!(a.actions, b.actions);
        assert!(a.scheduled() > 0, "300‰ over 1024 ops never fired");
        let c = FaultPlan::generate(10, &profile);
        assert_ne!(a.actions, c.actions, "different seeds, same plan");
    }

    #[test]
    fn write_chaos_applies_the_planned_faults() {
        let plan = FaultPlan {
            actions: vec![
                None,
                Some(Fault::Drop),
                Some(Fault::Duplicate),
                Some(Fault::Split { at: 128 }),
                Some(Fault::Delay),
                None,
            ],
        };
        let counters = counters();
        let chaos = WriteChaos::new(plan, Arc::clone(&counters));
        let sink = Capture(StdMutex::new(Vec::new()));
        for tag in 0..6u8 {
            chaos.write_frame(&sink, &[tag; 8]).unwrap();
        }
        let chunks = sink.0.into_inner().unwrap();
        // op0 delivered; op1 dropped; op2 twice; op3 split in two;
        // op5 delivered then the delayed op4 after it.
        let expect: Vec<Vec<u8>> = vec![
            vec![0; 8],
            vec![2; 8],
            vec![2; 8],
            vec![3; 4],
            vec![3; 4],
            vec![5; 8],
            vec![4; 8],
        ];
        assert_eq!(chunks, expect);
        assert_eq!(counters.frames_dropped.get(), 1);
        assert_eq!(counters.frames_duplicated.get(), 1);
        assert_eq!(counters.frames_split.get(), 1);
        assert_eq!(counters.frames_delayed.get(), 1);
    }

    #[test]
    fn scenario_plans_are_reproducible_and_varied() {
        for seed in 0..40u64 {
            let a = ScenarioPlan::from_seed(seed);
            let b = ScenarioPlan::from_seed(seed);
            assert_eq!(a.describe(), b.describe(), "seed {seed} not reproducible");
            if a.expect_complete {
                assert!(
                    a.scripts[0].last().unwrap().is_clean(),
                    "seed {seed}: recoverable plan lacks a clean final session"
                );
            }
        }
        let descriptions: std::collections::HashSet<String> = (0..40)
            .map(|s| ScenarioPlan::from_seed(s).describe())
            .collect();
        assert!(descriptions.len() > 30, "seeds barely vary the schedule");
        assert!(
            (0..40).any(|s| !ScenarioPlan::from_seed(s).expect_complete),
            "no unrecoverable schedule in the first 40 seeds"
        );
    }
}
