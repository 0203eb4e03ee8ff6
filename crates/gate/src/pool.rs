//! The gate's worker pool: the worker plane of the serving tier.
//!
//! Pool workers are the *unchanged* rck-serve workers
//! ([`rck_serve::run_worker_conn`]): they handshake, receive
//! [`rck_serve::proto::JobBatch`]s and answer with
//! [`rck_serve::proto::ResultBatch`]s, never knowing whether a batch
//! came from an offline all-vs-all master or from a query run. The
//! connection loop and its fault machinery — handshake, in-flight
//! ledger, heartbeat deadlines, requeue on loss, `answers_exactly`
//! acceptance, the deadline monitor — are [`rck_serve::dispatch`]'s, the
//! same code the master runs, so the serving tier inherits the same
//! promise: the outcomes that reach a ranking are bit-identical to an
//! in-process run, no matter how many workers die.
//!
//! This module is only the gate's [`WorkSource`] policy: the next batch
//! is not `queue.pop_front()` but a two-step pick — the stride scheduler
//! ([`crate::sched`]) chooses a *tenant*, then that tenant's runs are
//! round-robined — which is what makes the farm's capacity weighted-fair
//! under multi-tenant contention; accepted outcomes are appended to their
//! run, streamed to subscribers as partials, and folded into the final
//! ranking when the run completes.
//!
//! Runs are keyed by their query fingerprint, which each `QueryBatch`
//! carries. A run is in its tenant's round-robin once, exactly while it
//! has pending batches: a grant puts it back at the end only if batches
//! remain, and a requeue puts it back only if none were pending. The
//! tenant's stride backlog counts the same pending batches, so a picked
//! tenant always has a batch to claim.

use crate::{GateShared, GateState};
use rck_pdb::model::CaChain;
use rck_serve::dispatch::{Dispatch, Event, WorkSource};
use rck_serve::proto::{self, Frame};
use rck_serve::MutexExt;
use rckalign::{PairJob, PairOutcome};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// One dispatchable batch of a query run.
#[derive(Clone)]
pub(crate) struct QueryBatch {
    /// The run's query fingerprint: its key in `GateState::runs`.
    fingerprint: u64,
    jobs: Vec<PairJob>,
    /// The run's query chain. Every run's lives at the virtual index
    /// `db.len()`, so a worker is re-sent it when the slot changes hands.
    chain: Arc<CaChain>,
}

impl AsRef<[PairJob]> for QueryBatch {
    fn as_ref(&self) -> &[PairJob] {
        &self.jobs
    }
}

/// The gate's dispatch policy: stride-pick a tenant, round-robin its
/// runs; partial streaming, run completion.
impl WorkSource for GateShared {
    const TAG: &'static str = "[rck-gate]";
    type State = GateState;
    type Unit = QueryBatch;

    fn state(&self) -> &Mutex<GateState> {
        &self.state
    }

    fn wake(&self) -> &Condvar {
        &self.work_available
    }

    fn dispatch(state: &mut GateState) -> &mut Dispatch<QueryBatch> {
        &mut state.dispatch
    }

    fn heartbeat_timeout(&self) -> Duration {
        self.cfg.heartbeat_timeout
    }

    /// The database plus the query's virtual index, so every chain index
    /// a batch can carry is in range.
    fn n_chains(&self) -> u32 {
        self.db.len() as u32 + 1
    }

    fn idle(&self, state: &GateState) -> bool {
        state.dispatch.draining() && state.runs.is_empty()
    }

    /// A tenant's backlog counts its runs' pending batches, and each run
    /// with pending batches is in its round-robin, so a picked tenant
    /// always has a batch to claim.
    fn next_unit(&self, state: &mut GateState, _worker_id: u32) -> Option<QueryBatch> {
        let tenant = state.sched.pick()?;
        let batch = claim_tenant_batch(state, &tenant)?;
        self.stats.on_jobs_dispatched(&tenant, batch.jobs.len());
        self.stats
            .queue_depth
            .set(state.sched.total_backlog() as i64);
        Some(batch)
    }

    fn chain(&self, batch: &QueryBatch, ix: u32) -> Option<Arc<CaChain>> {
        let query = (ix as usize == self.db.len()).then_some(&batch.chain);
        self.db.get(ix as usize).or(query).cloned()
    }

    /// The dispatcher settles each batch once, so its outcomes are new to
    /// the run: they are appended and stream to every subscriber as a
    /// partial.
    fn accept(
        &self,
        state: &mut GateState,
        _worker_id: u32,
        batch: QueryBatch,
        outcomes: Vec<PairOutcome>,
        _rtt: Duration,
    ) -> bool {
        let Some(run) = state.runs.get_mut(&batch.fingerprint) else {
            // A run retires only once every batch of it is settled.
            return false;
        };
        self.stats.jobs_completed.add(outcomes.len() as u64);
        run.outcomes.extend_from_slice(&outcomes);
        if !run.first_result_seen {
            run.first_result_seen = true;
            self.stats
                .first_result
                .observe(run.started_at.elapsed().as_secs_f64());
        }
        let partial_done = run.outcomes.len() as u32;
        let partial_total = run.total_jobs as u32;
        for sub in &run.subscribers {
            self.stats.partials_streamed.inc();
            sub.outbox.push(Frame::QueryPartial(proto::QueryPartial {
                query_id: sub.query_id,
                done: partial_done,
                total: partial_total,
                outcomes: outcomes.clone(),
            }));
        }
        let complete = run.outcomes.len() == run.total_jobs;
        if complete {
            complete_run(state, self, batch.fingerprint);
        }
        complete
    }

    /// Put a batch back at the front of its run's queue; a run whose
    /// batches were all out rejoins its tenant's round-robin.
    fn requeue(&self, state: &mut GateState, batch: QueryBatch) {
        let Some(run) = state.runs.get_mut(&batch.fingerprint) else {
            return;
        };
        self.stats.jobs_requeued.add(batch.jobs.len() as u64);
        let rejoins = run.pending.is_empty();
        run.pending.push_front(batch.jobs);
        let tenant = run.tenant.clone();
        if state.sched.backlog(&tenant) == 0 {
            // Its last batch was out, so the scheduler may have let the
            // tenant go: it rejoins under its run's weight.
            state.sched.set_weight(&tenant, run.weight);
        }
        state.sched.add_backlog(&tenant, 1);
        if rejoins {
            state
                .tenant_runs
                .entry(tenant)
                .or_default()
                .push_back(batch.fingerprint);
        }
        self.stats
            .queue_depth
            .set(state.sched.total_backlog() as i64);
    }

    fn observe(&self, event: Event<'_>) {
        match event {
            Event::DecodeError => self.stats.decode_errors.inc(),
            Event::WorkerConnected(..) => self.stats.workers_connected.inc(),
            Event::WorkerLost(_) => self.stats.workers_lost.inc(),
            Event::ChainsShipped(n) => self.stats.chains_shipped.add(n as u64),
            Event::Window(batches) => self.stats.window.raise_to(batches as i64),
            Event::StaleResult => self.stats.stale_results.inc(),
            Event::MismatchedResult => self.stats.mismatched_results.inc(),
            // The gate keeps no byte or gap statistics.
            _ => {}
        }
    }
}

/// Pop the next pending batch of `tenant`'s least-recently-served run;
/// the run takes another turn only if batches remain.
fn claim_tenant_batch(state: &mut GateState, tenant: &str) -> Option<QueryBatch> {
    let turns = state.tenant_runs.get_mut(tenant)?;
    let fingerprint = turns.pop_front()?;
    let run = state.runs.get_mut(&fingerprint)?;
    let jobs = run.pending.pop_front()?;
    if !run.pending.is_empty() {
        turns.push_back(fingerprint);
    } else if turns.is_empty() {
        // The tenant's last pending batch: it leaves the round-robin.
        state.tenant_runs.remove(tenant);
    }
    Some(QueryBatch {
        fingerprint,
        jobs,
        chain: Arc::clone(&run.chain),
    })
}

/// Fold a finished run's outcomes into the final ranking, stream the
/// terminal [`rck_serve::proto::QueryDone`] to every subscriber, and
/// retire the run.
fn complete_run(state: &mut GateState, shared: &GateShared, fingerprint: u64) {
    let Some(run) = state.runs.remove(&fingerprint) else {
        return;
    };
    if let Some(binding) = shared.store.lock_recover().as_ref() {
        // Persist the run's outcomes under (db chain, query content)
        // keys. `o.j` is the query's *virtual* index, so the key's second
        // half comes from the run's content hash, not the binding; the
        // store's idempotence skips the pairs it satisfied at submission.
        // One slice append: one store lock and one log write per run.
        binding.record_keys(run.outcomes.iter().map(|o| {
            let key = binding.key_for(binding.hash_of(o.i as usize), run.content_hash, o.method);
            (key, o)
        }));
    }
    let ranking = crate::ranking_from_outcomes(
        shared.db.len(),
        &run.outcomes,
        &run.methods,
        shared.cfg.combiner,
    );
    for sub in &run.subscribers {
        sub.outbox.push(Frame::QueryDone(proto::QueryDone {
            query_id: sub.query_id,
            ranking: ranking.clone(),
        }));
    }
    shared
        .stats
        .on_query_completed(run.started_at.elapsed().as_secs_f64());
    if state.runs_of(&run.tenant) == 0 {
        shared.stats.forget_tenant(&run.tenant);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Outbox;
    use crate::{Gate, GateConfig};
    use rck_pdb::datasets::tiny_profile;
    use rck_serve::dispatch::{self, BatchFate};
    use rck_serve::proto::{QuerySubmit, ResultBatch};
    use rck_serve::MemNet;
    use rck_tmalign::MethodKind;

    /// Every schedule of one query's three one-job batches over two pool
    /// workers, under the gate's own pick and counters (DESIGN.md §16).
    #[test]
    fn every_reachable_batch_lifecycle_state_holds_its_invariants() {
        let chains = tiny_profile().generate(3);
        let (db, query) = (chains[..3].to_vec(), chains[3].clone());
        let make = || {
            let cfg = GateConfig {
                batch_size: 1,
                ..GateConfig::default()
            };
            let net = MemNet::new();
            let gate = Gate::bind_on(net.listener(), net.listener(), db.clone(), cfg);
            let submit = QuerySubmit {
                tenant: "t".into(),
                query_id: 1,
                weight: 1,
                methods: vec![MethodKind::TmAlign],
                chain: query.clone(),
            };
            crate::submit_query(&gate.shared, submit, &Outbox::new());
            Arc::clone(&gate.shared)
        };
        let all: Vec<(u32, u32)> = (0..3).map(|i| (i, 3)).collect();
        let explored = rck_serve::explore::run(make, |shared, state| {
            let pairs = |jobs: &[PairJob]| jobs.iter().map(|j| (j.i, j.j)).collect();
            // A completed run is retired with every pair done.
            let run = state.runs.values().next();
            rck_serve::explore::View {
                queued: run.map_or(Vec::new(), |r| r.pending.iter().map(|b| pairs(b)).collect()),
                done: run.map_or(all.clone(), |r| {
                    r.outcomes.iter().map(|o| (o.i, o.j)).collect()
                }),
                dispatched: shared.stats.jobs_dispatched.get(),
                completed: shared.stats.jobs_completed.get(),
                requeued: shared.stats.jobs_requeued.get(),
            }
        });
        assert_eq!(explored.violations, Vec::<String>::new());
        assert_eq!((explored.states, explored.transitions), (8_499, 20_261));
    }

    /// A gate with one-job batches and one run of tenant `t` per query,
    /// submitted in order.
    fn one_tenant(queries: &[CaChain]) -> Arc<GateShared> {
        let cfg = GateConfig {
            batch_size: 1,
            ..GateConfig::default()
        };
        let db = tiny_profile().generate(5);
        let gate = Gate::bind_on(MemNet::new().listener(), MemNet::new().listener(), db, cfg);
        for (query_id, chain) in (0..).zip(queries) {
            let submit = QuerySubmit {
                tenant: "t".into(),
                query_id,
                weight: 1,
                methods: vec![MethodKind::TmAlign],
                chain: chain.clone(),
            };
            crate::submit_query(&gate.shared, submit, &Outbox::new());
        }
        Arc::clone(&gate.shared)
    }

    /// Grant `n` batches through the gate's pick; each batch with the
    /// position of its query in `queries`.
    fn grant(shared: &GateShared, queries: &[CaChain], n: usize) -> (Vec<usize>, Vec<QueryBatch>) {
        let mut state = shared.state.lock_recover();
        let batches: Vec<QueryBatch> = (0..n)
            .map_while(|_| shared.next_unit(&mut state, 0))
            .collect();
        let runs = batches
            .iter()
            .map(|b| {
                queries
                    .iter()
                    .position(|q| *q == *b.chain)
                    .expect("a query")
            })
            .collect();
        (runs, batches)
    }

    /// A requeue does not hand its run a second round-robin turn: two
    /// runs still alternate after one of them gets a batch back.
    #[test]
    fn a_requeued_run_keeps_one_round_robin_turn() {
        let queries = tiny_profile().generate(6)[..2].to_vec();
        let shared = one_tenant(&queries);
        let (first, mut out) = grant(&shared, &queries, 2);
        assert_eq!(first, [0, 1]);
        shared.requeue(&mut shared.state.lock_recover(), out.swap_remove(0));
        let (next, _) = grant(&shared, &queries, 6);
        assert_eq!(next, [0, 1, 0, 1, 0, 1]);
    }

    /// A run whose every batch is out leaves the round-robin, and a
    /// requeue brings it back: the batch is granted again.
    #[test]
    fn a_fully_granted_run_rejoins_the_round_robin_on_requeue() {
        let queries = tiny_profile().generate(6)[..1].to_vec();
        let shared = one_tenant(&queries);
        let (runs, mut out) = grant(&shared, &queries, 100);
        assert_eq!(runs.len(), 8, "one batch per database chain");
        let last = out.pop().expect("a batch");
        let jobs = last.jobs.clone();
        shared.requeue(&mut shared.state.lock_recover(), last);
        let (again, batches) = grant(&shared, &queries, 100);
        assert_eq!(again, [0]);
        assert_eq!(batches[0].jobs, jobs);
    }

    /// `n` one-query tenants each submit, are granted and are answered,
    /// one after another, on a gate over `db`; returns the gate's state.
    fn churn_tenants(db: Vec<CaChain>, query: &CaChain, n: u64) -> Arc<GateShared> {
        let gate = Gate::bind_on(
            MemNet::new().listener(),
            MemNet::new().listener(),
            db,
            GateConfig::default(),
        );
        let shared = Arc::clone(&gate.shared);
        let outbox = Outbox::new();
        for k in 0..n {
            let submit = QuerySubmit {
                tenant: format!("tenant-{k}"),
                query_id: k,
                weight: 1 + (k % 3) as u32,
                methods: vec![MethodKind::TmAlign],
                chain: query.clone(),
            };
            crate::submit_query(&shared, submit, &outbox);
            if shared.state.lock_recover().runs.is_empty() {
                continue; // answered at submission
            }
            let (batch_id, batch) = dispatch::claim(&*shared, 0, true).expect("one batch");
            // Its last batch is out, its query is not answered yet: the
            // tenant's series stay.
            let text = shared.stats.registry().render();
            for name in [
                "rck_gate_tenant_queries_total",
                "rck_gate_tenant_jobs_total",
            ] {
                let series = format!("{name}{{tenant=\"tenant-{k}\"}}");
                assert!(text.contains(&series), "{series} gone before the answer");
            }
            let outcomes = batch
                .jobs
                .iter()
                .map(|job| rckalign::PairOutcome {
                    i: job.i,
                    j: job.j,
                    method: job.method,
                    similarity: 0.5,
                    rmsd: 1.0,
                    aligned_len: 1,
                    ops: 1,
                })
                .collect();
            let fate = dispatch::accept_results(&*shared, 0, ResultBatch { batch_id, outcomes });
            assert!(matches!(fate, BatchFate::Accepted(_)), "query {k}");
        }
        assert_eq!(shared.stats.queries_completed(), n);
        shared
    }

    /// Tenants that come and go leave nothing behind: after 1 000
    /// one-query tenants each submit, are granted and are answered, the
    /// round-robin and the stride scheduler hold no tenant.
    #[test]
    fn departed_tenants_leave_the_round_robin_and_the_scheduler() {
        let chains = tiny_profile().generate(3);
        let shared = churn_tenants(chains[..1].to_vec(), &chains[1], 1_000);
        let state = shared.state.lock_recover();
        assert!(state.runs.is_empty(), "every run retired");
        assert_eq!(state.tenant_runs.len(), 0, "round-robin queues left");
        assert_eq!(state.sched.tenants(), 0, "scheduler tenants left");
    }

    /// Departed tenants leave no labelled series either, whether their
    /// query was scheduled (its series stay until it is answered) or
    /// answered at submission (empty database).
    #[test]
    fn departed_tenants_leave_no_labelled_series() {
        let chains = tiny_profile().generate(3);
        for db in [chains[..1].to_vec(), Vec::new()] {
            let shared = churn_tenants(db, &chains[1], 1_000);
            let text = shared.stats.registry().render();
            assert!(text.contains("rck_gate_queries_submitted_total 1000"));
            assert!(!text.contains("tenant="), "tenant series left:\n{text}");
        }
    }

    /// A worker answering the wrong jobs is refused: nothing reaches the
    /// run, the batch is requeued, the worker is lost.
    #[test]
    fn byzantine_results_are_requeued_not_accepted() {
        let db = tiny_profile().generate(3);
        let gate = Gate::bind_on(
            MemNet::new().listener(),
            MemNet::new().listener(),
            db,
            GateConfig {
                batch_size: 64,
                ..GateConfig::default()
            },
        );
        let shared = Arc::clone(&gate.shared);
        let outbox = Outbox::new();
        crate::submit_query(
            &shared,
            QuerySubmit {
                tenant: "t".into(),
                query_id: 1,
                weight: 1,
                methods: vec![MethodKind::TmAlign],
                chain: tiny_profile().generate(4)[0].clone(),
            },
            &outbox,
        );
        let (batch_id, batch) = dispatch::claim(&*shared, 0, true).expect("one batch staged");
        let jobs = batch.jobs;
        let alien = rckalign::PairOutcome {
            i: 1000,
            j: 1001,
            method: MethodKind::TmAlign,
            similarity: 1.0,
            rmsd: 0.0,
            aligned_len: 1,
            ops: 1,
        };
        let fate = dispatch::accept_results(
            &*shared,
            0,
            ResultBatch {
                batch_id,
                outcomes: vec![alien; jobs.len()],
            },
        );
        assert!(matches!(fate, BatchFate::Lost));
        let state = shared.state.lock_recover();
        let run = state.runs.values().next().expect("run survives");
        assert!(run.outcomes.is_empty(), "alien outcomes must not land");
        assert_eq!(run.pending.len(), 1, "batch requeued");
        drop(state);
        assert_eq!(shared.stats.jobs_requeued(), jobs.len() as u64);
    }
}
