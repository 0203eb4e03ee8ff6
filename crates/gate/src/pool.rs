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
//! under multi-tenant contention; accepted outcomes are deduplicated per
//! run, streamed to subscribers as partials, and folded into the final
//! ranking when the run completes.

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
    run_id: u64,
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
/// runs; per-run dedup, partial streaming, run completion.
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

    fn next_unit(&self, state: &mut GateState, _worker_id: u32) -> Option<QueryBatch> {
        // A stale pick (the tenant's runs were requeued or completed
        // between backlog accounting and now) just tries again.
        while let Some(tenant) = state.sched.pick() {
            if let Some(batch) = claim_tenant_batch(state, &tenant) {
                self.stats.on_jobs_dispatched(&tenant, batch.jobs.len());
                self.stats
                    .queue_depth
                    .set(state.sched.total_backlog() as i64);
                return Some(batch);
            }
        }
        None
    }

    fn chain(&self, batch: &QueryBatch, ix: u32) -> Option<Arc<CaChain>> {
        let query = (ix as usize == self.db.len()).then_some(&batch.chain);
        self.db.get(ix as usize).or(query).cloned()
    }

    /// Each `(i, j, method)` is accepted once per run; fresh outcomes
    /// stream to every subscriber as a partial.
    fn accept(
        &self,
        state: &mut GateState,
        _worker_id: u32,
        batch: QueryBatch,
        outcomes: Vec<PairOutcome>,
        _rtt: Duration,
    ) -> bool {
        let Some(run) = state.runs.get_mut(&batch.run_id) else {
            // The run completed via a requeued copy of this same batch.
            return false;
        };
        let mut fresh = Vec::new();
        for o in outcomes {
            if run.done.insert((o.i, o.j, o.method.code())) {
                run.outcomes.push(o);
                fresh.push(o);
            }
        }
        self.stats.jobs_completed.add(fresh.len() as u64);
        if !fresh.is_empty() {
            if !run.first_result_seen {
                run.first_result_seen = true;
                self.stats
                    .first_result
                    .observe(run.started_at.elapsed().as_secs_f64());
            }
            let partial_done = run.done.len() as u32;
            let partial_total = run.total_jobs as u32;
            for sub in &run.subscribers {
                self.stats.partials_streamed.inc();
                sub.outbox.push(Frame::QueryPartial(proto::QueryPartial {
                    query_id: sub.query_id,
                    done: partial_done,
                    total: partial_total,
                    outcomes: fresh.clone(),
                }));
            }
        }
        let complete = run.done.len() == run.total_jobs;
        if complete {
            complete_run(state, self, batch.run_id);
        }
        complete
    }

    /// Put a batch back at the front of its run's queue.
    fn requeue(&self, state: &mut GateState, batch: QueryBatch) {
        let Some(run) = state.runs.get_mut(&batch.run_id) else {
            return;
        };
        self.stats.jobs_requeued.add(batch.jobs.len() as u64);
        run.pending.push_front(batch.jobs);
        let tenant = run.tenant.clone();
        state.sched.add_backlog(&tenant, 1);
        state
            .tenant_runs
            .entry(tenant)
            .or_default()
            .push_back(batch.run_id);
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
            // The gate keeps no byte, stale, mismatch or gap statistics.
            _ => {}
        }
    }
}

/// Pop the next pending batch of `tenant`'s least-recently-served run.
fn claim_tenant_batch(state: &mut GateState, tenant: &str) -> Option<QueryBatch> {
    let queue = state.tenant_runs.get_mut(tenant)?;
    while let Some(run_id) = queue.pop_front() {
        let Some(run) = state.runs.get_mut(&run_id) else {
            continue; // completed run; stale round-robin entry
        };
        let Some(jobs) = run.pending.pop_front() else {
            continue; // fully dispatched run; stale entry
        };
        if !run.pending.is_empty() {
            queue.push_back(run_id);
        }
        return Some(QueryBatch {
            run_id,
            jobs,
            chain: Arc::clone(&run.chain),
        });
    }
    None
}

/// Fold a finished run's outcomes into the final ranking, stream the
/// terminal [`rck_serve::proto::QueryDone`] to every subscriber, and
/// retire the run.
fn complete_run(state: &mut GateState, shared: &GateShared, run_id: u64) {
    let Some(run) = state.runs.remove(&run_id) else {
        return;
    };
    state.coalesce.remove(&run.query_hash);
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
