//! # rck-gate
//!
//! A multi-tenant **online query-serving tier** in front of the rck-serve
//! worker farm: where [`rck_serve::Master`] runs one all-vs-all batch
//! workload to completion, the gate is a long-running daemon that holds a
//! resident structure database and answers a stream of one-vs-all
//! queries from many concurrent clients.
//!
//! The paper's offline workload ("compare these N structures against
//! each other, once") is what the farm was built for; the serving tier
//! is its online complement ("here is one new structure — rank the
//! database against it, now"), reusing the same wire protocol
//! ([`rck_serve::proto`], kinds 7–10), the same workers, stateless
//! across connections ([`rck_serve::run_worker_conn`]), and the same
//! result-combining machinery ([`rckalign::consensus`]). Design points:
//!
//! * **two planes, one protocol** — workers connect to a worker-plane
//!   listener and speak the unchanged JobBatch/ResultBatch dialect;
//!   clients connect to a query-plane listener and speak
//!   QuerySubmit/QueryPartial/QueryDone/QueryReject after the same
//!   Hello/Welcome handshake;
//! * **weighted-fair scheduling** — each query expands into pair-job
//!   batches queued per tenant; a deterministic stride scheduler
//!   ([`sched`]) picks the next batch so a flooding tenant cannot starve
//!   a light one beyond its weight;
//! * **admission control** — a tenant over its inflight-query cap, or a
//!   gate over its global backlog bound, refuses with an explicit
//!   [`rck_serve::QueryReject`] instead of queueing unboundedly;
//! * **coalescing** — a submission whose (query, methods) fingerprint
//!   matches an already-running query attaches to it as an extra
//!   subscriber: one computation, every subscriber streamed;
//! * **exactness under faults** — the pool is a policy over the same
//!   [`rck_serve::dispatch`] core the master runs (requeue /
//!   [`rck_serve::proto::answers_exactly`] / dedup guards), so the
//!   ranking a client reassembles is bit-identical to an in-process
//!   [`rckalign::onevsall`] run even across worker crashes; a faulted
//!   *client* connection only unsubscribes itself — other tenants'
//!   streams are untouched.
//!
//! ```no_run
//! use rck_gate::{Gate, GateClient, GateConfig};
//! use rck_serve::{MemNet, WorkerConfig};
//!
//! let db = rck_pdb::datasets::tiny_profile().generate(42);
//! let workers = MemNet::new();
//! let clients = MemNet::new();
//! let gate = Gate::bind_on(workers.listener(), clients.listener(), db, GateConfig::default());
//! let handle = gate.handle();
//! let worker_conn = workers.connect().unwrap();
//! std::thread::spawn(move || {
//!     let cfg = WorkerConfig::connect_to(std::net::SocketAddr::from(([127, 0, 0, 1], 0)));
//!     rck_serve::run_worker_conn(worker_conn, &cfg)
//! });
//! let t = std::thread::spawn(move || gate.run());
//! let mut client = GateClient::connect(clients.connect().unwrap(), "cli").unwrap();
//! // ... client.run_query(...) ...
//! handle.drain();
//! t.join().unwrap();
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod pool;
pub mod sched;
pub mod session;
pub mod stats;

pub use client::{GateClient, QueryEvent, QueryOutcome};
pub use stats::{GateSnapshot, GateStats};

use rck_pdb::model::CaChain;
use rck_serve::dispatch::{self, Dispatch, Plane};
use rck_serve::proto::{Frame, QueryDone, QueryPartial, QueryReject, QuerySubmit};
use rck_serve::transport::{Listener, TcpChannelListener};
use rck_serve::MutexExt;
use rck_tmalign::MethodKind;
use rckalign::consensus::{Combiner, Consensus};
use rckalign::onevsall::one_vs_all_jobs;
use rckalign::{
    batch_jobs, chain_content_hash, fnv1a64, KeyHasher, PairJob, PairOutcome, StoreBinding,
};
use sched::StrideSched;
use session::{Outbox, Subscriber};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Gate configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateConfig {
    /// Version tag of the resident database, folded into query
    /// fingerprints so coalescing never joins queries across reloads.
    pub db_version: u64,
    /// Pair jobs per dispatched batch.
    pub batch_size: usize,
    /// Most queries one tenant may have admitted-but-unanswered at once;
    /// submissions beyond it are refused.
    pub max_inflight_per_tenant: usize,
    /// Most staged batches across all tenants; submissions that would be
    /// queued behind a longer backlog are refused.
    pub max_queue_depth: usize,
    /// Silence window after which a pool worker is declared dead and its
    /// batches are requeued.
    pub heartbeat_timeout: Duration,
    /// Upper bound on how long heartbeats may keep one dispatched batch
    /// alive (see [`rck_serve::MasterConfig::batch_timeout`]).
    pub batch_timeout: Option<Duration>,
    /// How per-method scores fold into the final ranking.
    pub combiner: Combiner,
    /// Version of the comparison kernels, folded into query fingerprints
    /// (coalescing must never join queries across a kernel change) and
    /// into every persistent-store key the gate reads or writes.
    pub kernel_version: u32,
}

impl Default for GateConfig {
    fn default() -> GateConfig {
        GateConfig {
            db_version: 1,
            batch_size: 8,
            max_inflight_per_tenant: 8,
            max_queue_depth: 1024,
            heartbeat_timeout: Duration::from_millis(1000),
            batch_timeout: None,
            combiner: Combiner::MeanRank,
            kernel_version: rck_tmalign::KERNEL_VERSION,
        }
    }
}

/// Final accounting of a finished gate run.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Frozen counters at shutdown.
    pub stats: GateSnapshot,
}

/// One query being computed: its job queue, accepted outcomes and the
/// client streams subscribed to its progress.
pub(crate) struct QueryRun {
    pub(crate) tenant: String,
    pub(crate) query_hash: u64,
    /// Content hash of the query chain alone (no methods, no versions) —
    /// one half of every persistent-store key this run reads or writes.
    pub(crate) content_hash: u64,
    pub(crate) chain: Arc<CaChain>,
    pub(crate) methods: Vec<MethodKind>,
    pub(crate) pending: VecDeque<Vec<PairJob>>,
    /// `(i, j, method)` of every accepted outcome: the gate's own jobs
    /// (a result frame answers exactly what was dispatched), so the key
    /// hasher serves.
    pub(crate) done: HashSet<(u32, u32, u8), KeyHasher>,
    pub(crate) outcomes: Vec<PairOutcome>,
    pub(crate) total_jobs: usize,
    pub(crate) subscribers: Vec<Subscriber>,
    pub(crate) started_at: Instant,
    pub(crate) first_result_seen: bool,
}

/// The mutable gate state (guarded by the `Mutex` in [`GateShared`]).
pub(crate) struct GateState {
    pub(crate) runs: HashMap<u64, QueryRun>,
    /// Per-tenant round-robin of runs that still have pending batches
    /// (entries may be stale after requeues; consumers skip them).
    pub(crate) tenant_runs: HashMap<String, VecDeque<u64>>,
    pub(crate) sched: StrideSched,
    /// Query fingerprint → running query, for coalescing duplicates.
    pub(crate) coalesce: HashMap<u64, u64>,
    /// Ledger of batches out on pool workers, the connections of both
    /// planes, id counters, the halt and drain flags.
    pub(crate) dispatch: Dispatch<pool::QueryBatch>,
    /// Each client session's outbox, flushed at the end of a drain.
    pub(crate) outboxes: HashMap<u32, Arc<Outbox>>,
    pub(crate) next_run_id: u64,
}

/// Everything the gate's threads share.
pub(crate) struct GateShared {
    pub(crate) state: Mutex<GateState>,
    pub(crate) work_available: Condvar,
    /// The resident database, one allocation (wire identity) per chain.
    pub(crate) db: Vec<Arc<CaChain>>,
    pub(crate) cfg: GateConfig,
    pub(crate) stats: Arc<GateStats>,
    /// Persistent result store attached by [`Gate::with_store`]:
    /// consulted at submission (stored pairs never reach the scheduler)
    /// and appended to when a run completes.
    pub(crate) store: Mutex<Option<Arc<StoreBinding>>>,
}

/// A bound, not-yet-running gate.
pub struct Gate {
    worker_listener: Box<dyn Listener>,
    client_listener: Box<dyn Listener>,
    shared: Arc<GateShared>,
}

/// Drains or stops a running [`Gate`] from another thread.
#[derive(Clone)]
pub struct GateHandle {
    shared: Arc<GateShared>,
}

impl GateHandle {
    /// Graceful shutdown: new submissions are refused with an explicit
    /// QueryReject, admitted queries run to completion and stream their
    /// final rankings, then [`Gate::run`] returns. Idempotent.
    pub fn drain(&self) {
        dispatch::drain(&*self.shared);
    }

    /// Hard stop: abandon queued work and wind every thread down.
    /// Clients see their connections close; use [`GateHandle::drain`]
    /// for the orderly path. Idempotent.
    pub fn stop(&self) {
        dispatch::abort(&*self.shared);
    }

    /// Live counters of the running gate.
    pub fn stats(&self) -> Arc<GateStats> {
        Arc::clone(&self.shared.stats)
    }
}

impl Gate {
    /// Bind both planes on TCP and stage the resident database. Port 0
    /// picks a free port; read the result back with
    /// [`Gate::worker_addr`] / [`Gate::client_addr`].
    pub fn bind(
        worker_addr: SocketAddr,
        client_addr: SocketAddr,
        db: Vec<CaChain>,
        cfg: GateConfig,
    ) -> io::Result<Gate> {
        let workers = TcpChannelListener::bind(worker_addr)?;
        let clients = TcpChannelListener::bind(client_addr)?;
        Ok(Gate::bind_on(Box::new(workers), Box::new(clients), db, cfg))
    }

    /// Stage the gate on already-bound transport listeners — the seam
    /// the tests and the chaos harness use to run the unmodified gate
    /// over the deterministic in-memory network.
    pub fn bind_on(
        worker_listener: Box<dyn Listener>,
        client_listener: Box<dyn Listener>,
        db: Vec<CaChain>,
        cfg: GateConfig,
    ) -> Gate {
        Gate {
            worker_listener,
            client_listener,
            shared: Arc::new(GateShared {
                state: Mutex::new(GateState {
                    runs: HashMap::new(),
                    tenant_runs: HashMap::new(),
                    sched: StrideSched::new(),
                    coalesce: HashMap::new(),
                    dispatch: Dispatch::new(cfg.heartbeat_timeout, cfg.batch_timeout),
                    outboxes: HashMap::new(),
                    next_run_id: 0,
                }),
                work_available: Condvar::new(),
                db: db.into_iter().map(Arc::new).collect(),
                cfg,
                stats: Arc::new(GateStats::new()),
                store: Mutex::new(None),
            }),
        }
    }

    /// Attach a persistent result store (bound over this gate's resident
    /// database). Submissions then warm-start: every `(db chain, query)`
    /// pair the store already holds under the binding's kernel version
    /// is accepted up front and only the misses are scheduled; an
    /// entirely-stored query is answered without touching a worker.
    /// Completed runs append their outcomes back.
    pub fn with_store(self, binding: Arc<StoreBinding>) -> Gate {
        *self.shared.store.lock_recover() = Some(binding);
        self
    }

    /// The worker plane's bound address.
    ///
    /// # Panics
    /// Panics on transports without a socket address (the in-memory one).
    pub fn worker_addr(&self) -> SocketAddr {
        self.worker_listener
            .local_addr()
            .expect("worker transport has no socket address")
    }

    /// The query plane's bound address.
    ///
    /// # Panics
    /// Panics on transports without a socket address (the in-memory one).
    pub fn client_addr(&self) -> SocketAddr {
        self.client_listener
            .local_addr()
            .expect("client transport has no socket address")
    }

    /// Live counters — clone before [`Gate::run`] to watch a run.
    pub fn stats(&self) -> Arc<GateStats> {
        Arc::clone(&self.shared.stats)
    }

    /// A handle that drains or stops the run from another thread.
    pub fn handle(&self) -> GateHandle {
        GateHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve both planes until [`GateHandle::stop`], or until a
    /// [`GateHandle::drain`] has been requested and every admitted query
    /// is answered. Returns the final counters.
    pub fn run(self) -> GateReport {
        let shared = &*self.shared;
        let planes = [
            Plane::workers(&*self.worker_listener),
            Plane {
                listener: &*self.client_listener,
                serve: session::serve_client,
            },
        ];
        // Wind down: idle client sessions are parked in a read, so closing
        // their connections releases them — which, after a settled drain,
        // each session's writer does itself once it has flushed its
        // outbox (the last QueryDone may still be in it), so the abort
        // that closes every other connection lets go of theirs first.
        let wind_down = || {
            let mut guard = shared.state.lock_recover();
            let state = &mut *guard;
            if !state.dispatch.halted() {
                for (id, outbox) in state.outboxes.drain() {
                    outbox.close();
                    state.dispatch.release(id);
                }
            }
            drop(guard);
            dispatch::abort(shared);
        };
        let _ = dispatch::run(shared, &planes, |_| false, wind_down);
        GateReport {
            stats: shared.stats.snapshot(),
        }
    }
}

/// Fingerprint of a submission for coalescing: FNV-1a 64 over the exact
/// chain bytes (name, sequence, f64 coordinate bits), the method codes,
/// the database version and the kernel version. Bit-exact coordinates
/// feed bit-exact hashes, matching the service's fidelity contract; the
/// kernel version keeps coalescing (and the warm-start path through the
/// persistent store) from ever joining results across a kernel change.
///
/// The chain bytes are exactly what [`chain_content_hash`] folds, so the
/// fingerprint continues from that hash: a query's chain is folded once,
/// for both its fingerprint and its store keys.
pub fn query_fingerprint(
    content_hash: u64,
    methods: &[MethodKind],
    db_version: u64,
    kernel_version: u32,
) -> u64 {
    let mut h = content_hash;
    for m in methods {
        h = fnv1a64(h, &[m.code()]);
    }
    h = fnv1a64(h, &db_version.to_le_bytes());
    fnv1a64(h, &kernel_version.to_le_bytes())
}

/// The reference ranking the gate must reproduce bit-identically: run
/// the query against the database in-process and fold per-method scores
/// with `combiner`. Tests and the chaos harness compare gate output
/// against this.
pub fn reference_ranking(
    db: &[CaChain],
    query: &CaChain,
    methods: &[MethodKind],
    combiner: Combiner,
) -> Vec<(u32, f64)> {
    let n = db.len();
    let jobs = one_vs_all_jobs(n, n + 1, methods);
    let mut all: Vec<CaChain> = db.to_vec();
    all.push(query.clone());
    let outcomes: Vec<PairOutcome> = jobs
        .iter()
        .map(|job| {
            let score = job
                .method
                .instantiate()
                .compare(&all[job.i as usize], &all[job.j as usize]);
            PairOutcome {
                i: job.i,
                j: job.j,
                method: job.method,
                similarity: score.similarity,
                rmsd: score.rmsd.unwrap_or(f64::NAN),
                aligned_len: score.aligned_len as u32,
                ops: score.ops,
            }
        })
        .collect();
    ranking_from_outcomes(n, &outcomes, methods, combiner)
}

/// Fold accepted outcomes into the final ranking rows of a
/// [`rck_serve::QueryDone`]: consensus neighbours of the query (virtual
/// index `n`), best first, indices narrowed back to `u32`.
pub fn ranking_from_outcomes(
    n: usize,
    outcomes: &[PairOutcome],
    methods: &[MethodKind],
    combiner: Combiner,
) -> Vec<(u32, f64)> {
    if outcomes.is_empty() {
        return Vec::new();
    }
    Consensus::from_outcomes(n + 1, outcomes, methods)
        .ranked_neighbours(n, combiner)
        .into_iter()
        .map(|(ix, score)| (ix as u32, score))
        .collect()
}

/// Handle one [`QuerySubmit`]: admission control, coalescing, job
/// expansion. Every terminal answer (reject, immediate done) goes out
/// through `outbox`; accepted queries subscribe it for streaming.
pub(crate) fn submit_query(shared: &GateShared, q: QuerySubmit, outbox: &Arc<Outbox>) {
    let reject = |reason: &str| {
        shared.stats.queries_rejected.inc();
        outbox.push(Frame::QueryReject(QueryReject {
            query_id: q.query_id,
            reason: reason.to_string(),
        }));
    };
    let state = shared.state.lock_recover();
    let closed = state.dispatch.draining() || state.dispatch.halted();
    drop(state);
    if closed {
        reject("gate draining");
        return;
    }
    if q.methods.is_empty() {
        reject("no methods requested");
        return;
    }
    // A run counts each (pair, method) once, so a repeated method would
    // leave it short of its job total forever.
    if let Some(m) = (1..q.methods.len()).find_map(|k| {
        let m = q.methods[k];
        q.methods[..k].contains(&m).then_some(m)
    }) {
        reject(&format!("method {} requested twice", m.name()));
        return;
    }
    if q.chain.is_empty() {
        reject("empty query chain");
        return;
    }
    let content_hash = chain_content_hash(&q.chain);
    let hash = query_fingerprint(
        content_hash,
        &q.methods,
        shared.cfg.db_version,
        shared.cfg.kernel_version,
    );
    let n = shared.db.len();
    let mut state = shared.state.lock_recover();

    // Coalesce: attach to an identical running query instead of paying
    // for the computation twice. The catch-up partial replays what the
    // run has already streamed, so a late subscriber still reassembles
    // the complete outcome set.
    if let Some(&run_id) = state.coalesce.get(&hash) {
        if let Some(run) = state.runs.get_mut(&run_id) {
            shared.stats.queries_coalesced.inc();
            if !run.outcomes.is_empty() {
                shared.stats.partials_streamed.inc();
                outbox.push(Frame::QueryPartial(QueryPartial {
                    query_id: q.query_id,
                    done: run.done.len() as u32,
                    total: run.total_jobs as u32,
                    outcomes: run.outcomes.clone(),
                }));
            }
            run.subscribers.push(Subscriber {
                query_id: q.query_id,
                outbox: Arc::clone(outbox),
            });
            return;
        }
    }

    // Admission control: explicit refusal beats unbounded queueing.
    let tenant_active = state.runs.values().filter(|r| r.tenant == q.tenant).count();
    if tenant_active >= shared.cfg.max_inflight_per_tenant {
        drop(state);
        reject(&format!("tenant {} over inflight cap", q.tenant));
        return;
    }
    if state.sched.total_backlog() >= shared.cfg.max_queue_depth {
        drop(state);
        reject("gate queue full");
        return;
    }

    let jobs = one_vs_all_jobs(n, n + 1, &q.methods);
    shared.stats.on_query_submitted(&q.tenant);
    if jobs.is_empty() {
        // Empty database: the ranking is trivially empty, answer now.
        drop(state);
        shared.stats.on_query_completed(0.0);
        outbox.push(Frame::QueryDone(QueryDone {
            query_id: q.query_id,
            ranking: Vec::new(),
        }));
        return;
    }
    // Warm start: satisfy whatever the persistent store already holds
    // for this (db chain, query, method, kernel) key set; only genuine
    // misses are expanded into scheduled batches.
    let store = shared.store.lock_recover().clone();
    let (outcomes, misses) = match &store {
        // `job.j` is the query's virtual index: its half of the key is
        // the query's content hash, not one of the binding's.
        Some(binding) => binding.split_by(&jobs, |job| {
            binding.key_for(binding.hash_of(job.i as usize), content_hash, job.method)
        }),
        None => (Vec::new(), jobs.clone()),
    };
    let done: HashSet<_, KeyHasher> = outcomes
        .iter()
        .map(|o| (o.i, o.j, o.method.code()))
        .collect();

    if misses.is_empty() {
        // Every pair was store-resident: the query never touches a
        // worker. Answer with the final ranking right away.
        drop(state);
        let ranking = ranking_from_outcomes(n, &outcomes, &q.methods, shared.cfg.combiner);
        shared.stats.on_query_completed(0.0);
        outbox.push(Frame::QueryDone(QueryDone {
            query_id: q.query_id,
            ranking,
        }));
        return;
    }
    if !outcomes.is_empty() {
        // Stream the store-satisfied outcomes as a catch-up partial, the
        // same shape a late coalesced subscriber receives.
        shared.stats.partials_streamed.inc();
        outbox.push(Frame::QueryPartial(QueryPartial {
            query_id: q.query_id,
            done: done.len() as u32,
            total: jobs.len() as u32,
            outcomes: outcomes.clone(),
        }));
    }

    let batches: VecDeque<Vec<PairJob>> = batch_jobs(&misses, shared.cfg.batch_size.max(1)).into();
    let run_id = state.next_run_id;
    state.next_run_id += 1;
    state.sched.set_weight(&q.tenant, q.weight);
    state.sched.add_backlog(&q.tenant, batches.len());
    state
        .tenant_runs
        .entry(q.tenant.clone())
        .or_default()
        .push_back(run_id);
    state.coalesce.insert(hash, run_id);
    state.runs.insert(
        run_id,
        QueryRun {
            tenant: q.tenant,
            query_hash: hash,
            content_hash,
            chain: Arc::new(q.chain),
            methods: q.methods,
            total_jobs: jobs.len(),
            pending: batches,
            done,
            outcomes,
            subscribers: vec![Subscriber {
                query_id: q.query_id,
                outbox: Arc::clone(outbox),
            }],
            started_at: Instant::now(),
            first_result_seen: false,
        },
    );
    shared
        .stats
        .queue_depth
        .set(state.sched.total_backlog() as i64);
    drop(state);
    shared.work_available.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_pdb::datasets::tiny_profile;

    fn submit(tenant: &str, query_id: u64, chain: CaChain) -> QuerySubmit {
        QuerySubmit {
            tenant: tenant.to_string(),
            query_id,
            weight: 1,
            methods: vec![MethodKind::TmAlign],
            chain,
        }
    }

    fn memnet_gate(cfg: GateConfig) -> (Gate, Arc<GateShared>) {
        let db = tiny_profile().generate(5);
        let gate = Gate::bind_on(
            rck_serve::MemNet::new().listener(),
            rck_serve::MemNet::new().listener(),
            db,
            cfg,
        );
        let shared = Arc::clone(&gate.shared);
        (gate, shared)
    }

    #[test]
    fn fingerprint_separates_chains_methods_and_versions() {
        let chains = tiny_profile().generate(9);
        let m = [MethodKind::TmAlign];
        let hash = |k: usize| chain_content_hash(&chains[k]);
        let base = query_fingerprint(hash(0), &m, 1, 1);
        assert_eq!(base, query_fingerprint(hash(0), &m, 1, 1));
        assert_ne!(base, query_fingerprint(hash(1), &m, 1, 1));
        assert_ne!(base, query_fingerprint(hash(0), &m, 2, 1));
        assert_ne!(base, query_fingerprint(hash(0), &m, 1, 2));
        assert_ne!(
            base,
            query_fingerprint(hash(0), &[MethodKind::KabschRmsd], 1, 1)
        );
    }

    /// Continuing from the content hash is the byte-wise fingerprint the
    /// gate has always computed: every RS119 chain, every method list of
    /// up to three codes (repeats and orders included), two versions.
    #[test]
    fn fingerprint_is_the_byte_wise_formula() {
        fn byte_wise(chain: &CaChain, methods: &[MethodKind], db: u64, kv: u32) -> u64 {
            let mut h = fnv1a64(0, chain.name.as_bytes());
            for aa in &chain.seq {
                h = fnv1a64(h, &[aa.index()]);
            }
            for c in &chain.coords {
                h = fnv1a64(h, &c.x.to_bits().to_le_bytes());
                h = fnv1a64(h, &c.y.to_bits().to_le_bytes());
                h = fnv1a64(h, &c.z.to_bits().to_le_bytes());
            }
            for m in methods {
                h = fnv1a64(h, &[m.code()]);
            }
            h = fnv1a64(h, &db.to_le_bytes());
            fnv1a64(h, &kv.to_le_bytes())
        }
        let all = [
            MethodKind::TmAlign,
            MethodKind::KabschRmsd,
            MethodKind::ContactMap,
        ];
        let mut lists: Vec<Vec<MethodKind>> = vec![Vec::new()];
        for len in 1..=3 {
            let longer: Vec<_> = lists
                .iter()
                .filter(|l| l.len() == len - 1)
                .flat_map(|l| all.iter().map(move |&m| [l.as_slice(), &[m]].concat()))
                .collect();
            lists.extend(longer);
        }
        assert_eq!(lists.len(), 1 + 3 + 9 + 27);
        for chain in &rck_pdb::datasets::rs119_profile().generate(2013) {
            let hash = chain_content_hash(chain);
            for methods in &lists {
                for (db, kv) in [(1, 1), (7, rck_tmalign::KERNEL_VERSION)] {
                    assert_eq!(
                        query_fingerprint(hash, methods, db, kv),
                        byte_wise(chain, methods, db, kv),
                        "{} {methods:?}",
                        chain.name
                    );
                }
            }
        }
    }

    #[test]
    fn submission_expands_into_scheduled_batches() {
        let (_gate, shared) = memnet_gate(GateConfig {
            batch_size: 2,
            ..GateConfig::default()
        });
        let chain = tiny_profile().generate(6)[0].clone();
        let outbox = Outbox::new();
        submit_query(&shared, submit("lab-a", 1, chain), &outbox);
        let state = shared.state.lock_recover();
        assert_eq!(state.runs.len(), 1);
        let run = state.runs.values().next().unwrap();
        // db of 8 chains → 8 jobs → 4 batches of 2.
        assert_eq!(run.total_jobs, 8);
        assert_eq!(run.pending.len(), 4);
        assert_eq!(state.sched.backlog("lab-a"), 4);
        assert_eq!(shared.stats.snapshot().queries_submitted, 1);
    }

    #[test]
    fn duplicate_submissions_coalesce_into_one_run() {
        let (_gate, shared) = memnet_gate(GateConfig::default());
        let chain = tiny_profile().generate(6)[0].clone();
        let a = Outbox::new();
        let b = Outbox::new();
        submit_query(&shared, submit("lab-a", 1, chain.clone()), &a);
        submit_query(&shared, submit("lab-b", 2, chain), &b);
        let state = shared.state.lock_recover();
        assert_eq!(state.runs.len(), 1);
        assert_eq!(state.runs.values().next().unwrap().subscribers.len(), 2);
        drop(state);
        assert_eq!(shared.stats.queries_coalesced(), 1);
    }

    #[test]
    fn admission_rejects_over_cap_and_when_draining() {
        let (gate, shared) = memnet_gate(GateConfig {
            max_inflight_per_tenant: 1,
            ..GateConfig::default()
        });
        let chains = tiny_profile().generate(6);
        let outbox = Outbox::new();
        submit_query(&shared, submit("lab-a", 1, chains[0].clone()), &outbox);
        submit_query(&shared, submit("lab-a", 2, chains[1].clone()), &outbox);
        assert_eq!(shared.stats.queries_rejected(), 1);
        gate.handle().drain();
        submit_query(&shared, submit("lab-b", 3, chains[2].clone()), &outbox);
        assert_eq!(shared.stats.queries_rejected(), 2);
        let rejects: Vec<String> = outbox
            .drain_for_tests()
            .into_iter()
            .filter_map(|f| match f {
                Frame::QueryReject(r) => Some(r.reason),
                _ => None,
            })
            .collect();
        assert_eq!(rejects.len(), 2);
        assert!(rejects[0].contains("inflight cap"));
        assert!(rejects[1].contains("draining"));
    }

    #[test]
    fn a_repeated_method_is_refused_before_it_runs() {
        let (_gate, shared) = memnet_gate(GateConfig::default());
        let chain = tiny_profile().generate(6)[0].clone();
        let outbox = Outbox::new();
        let mut q = submit("lab-a", 1, chain);
        q.methods = vec![
            MethodKind::TmAlign,
            MethodKind::KabschRmsd,
            MethodKind::TmAlign,
        ];
        submit_query(&shared, q, &outbox);
        assert!(shared.state.lock_recover().runs.is_empty());
        assert_eq!(shared.stats.queries_rejected(), 1);
        assert_eq!(shared.stats.snapshot().queries_submitted, 0);
        match outbox.drain_for_tests().as_slice() {
            [Frame::QueryReject(r)] => {
                assert_eq!(r.query_id, 1);
                assert_eq!(r.reason, "method tm-align requested twice");
            }
            other => panic!("expected one reject, got {other:?}"),
        }
    }

    fn scratch_binding(name: &str, db: &[CaChain]) -> Arc<StoreBinding> {
        let dir =
            std::env::temp_dir().join(format!("rck-gate-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = rck_store::Store::open(
            dir.join("store.rckstore"),
            rck_store::StoreConfig::on_registry(rck_obs::Registry::new()),
        )
        .unwrap();
        Arc::new(StoreBinding::new(store, db))
    }

    /// Compute `(db chain, query)` outcomes in-process and persist them
    /// under the gate's store keys — a stand-in for a prior run.
    fn prestore(binding: &StoreBinding, db: &[CaChain], query: &CaChain, jobs: &[PairJob]) {
        let qhash = chain_content_hash(query);
        for job in jobs {
            let score = job.method.instantiate().compare(&db[job.i as usize], query);
            let outcome = PairOutcome {
                i: job.i,
                j: job.j,
                method: job.method,
                similarity: score.similarity,
                rmsd: score.rmsd.unwrap_or(f64::NAN),
                aligned_len: score.aligned_len as u32,
                ops: score.ops,
            };
            let key = binding.key_for(binding.hash_of(job.i as usize), qhash, job.method);
            assert!(binding.record_key(key, &outcome));
        }
    }

    #[test]
    fn fully_stored_query_is_answered_without_a_run() {
        let (gate, shared) = memnet_gate(GateConfig::default());
        let db: Vec<CaChain> = shared.db.iter().map(|c| (**c).clone()).collect();
        let query = tiny_profile().generate(6)[0].clone();
        let methods = vec![MethodKind::TmAlign];
        let jobs = one_vs_all_jobs(db.len(), db.len() + 1, &methods);
        let binding = scratch_binding("full", &db);
        prestore(&binding, &db, &query, &jobs);
        let _gate = gate.with_store(Arc::clone(&binding));
        let outbox = Outbox::new();
        submit_query(&shared, submit("lab-a", 1, query.clone()), &outbox);
        let state = shared.state.lock_recover();
        assert!(state.runs.is_empty(), "no run scheduled");
        assert_eq!(state.sched.total_backlog(), 0);
        drop(state);
        let frames = outbox.drain_for_tests();
        let Some(Frame::QueryDone(done)) = frames.last() else {
            panic!("expected terminal QueryDone, got {} frames", frames.len());
        };
        let want = reference_ranking(&db, &query, &methods, GateConfig::default().combiner);
        assert_eq!(done.ranking.len(), want.len());
        for ((gi, gs), (wi, ws)) in done.ranking.iter().zip(&want) {
            assert_eq!(gi, wi);
            assert_eq!(gs.to_bits(), ws.to_bits(), "ranking not bit-identical");
        }
    }

    #[test]
    fn partially_stored_query_schedules_only_the_misses() {
        let (gate, shared) = memnet_gate(GateConfig {
            batch_size: 1,
            ..GateConfig::default()
        });
        let db: Vec<CaChain> = shared.db.iter().map(|c| (**c).clone()).collect();
        let query = tiny_profile().generate(6)[1].clone();
        let methods = vec![MethodKind::TmAlign];
        let jobs = one_vs_all_jobs(db.len(), db.len() + 1, &methods);
        let stored = &jobs[..3];
        let binding = scratch_binding("partial", &db);
        prestore(&binding, &db, &query, stored);
        let _gate = gate.with_store(binding);
        let outbox = Outbox::new();
        submit_query(&shared, submit("lab-a", 1, query), &outbox);
        let state = shared.state.lock_recover();
        let run = state.runs.values().next().expect("run scheduled");
        assert_eq!(run.done.len(), stored.len(), "stored pairs pre-accepted");
        assert_eq!(run.outcomes.len(), stored.len());
        assert_eq!(run.total_jobs, jobs.len());
        let pending: usize = run.pending.iter().map(|b| b.len()).sum();
        assert_eq!(pending, jobs.len() - stored.len(), "only misses staged");
        drop(state);
        // The subscriber got a catch-up partial carrying the store hits.
        let frames = outbox.drain_for_tests();
        let Some(Frame::QueryPartial(p)) = frames.first() else {
            panic!("expected catch-up QueryPartial");
        };
        assert_eq!(p.outcomes.len(), stored.len());
        assert_eq!(p.total as usize, jobs.len());
    }

    #[test]
    fn reference_ranking_is_sorted_and_complete() {
        let chains = tiny_profile().generate(11);
        let (query, db) = chains.split_last().unwrap();
        let ranking = reference_ranking(db, query, &[MethodKind::TmAlign], Combiner::MeanRank);
        assert_eq!(ranking.len(), db.len());
        for pair in ranking.windows(2) {
            assert!(pair[0].1 >= pair[1].1, "ranking not descending");
        }
    }
}
