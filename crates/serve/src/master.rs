//! The rck-serve master: job generation, FIFO batch policy and result
//! assembly over the shared dispatcher.
//!
//! Everything about *connections* — handshake, in-flight ledger,
//! heartbeat deadlines, requeue on loss, [`answers_exactly`] acceptance,
//! the deadline monitor — lives once in [`crate::dispatch`]. This module
//! is the [`WorkSource`] policy the offline farm plugs into it: a FIFO
//! queue of batches behind the [`MasterConfig::min_workers`] barrier,
//! and — in feed mode — per-tile credit with a [`TileDone`] streamed out
//! the moment a tile's last pair lands. Each pair is accepted once
//! because the dispatcher hands `accept` each unit's answer once, so the
//! policy appends what it is given. Batch mode ([`Master::bind_on`])
//! stages the whole all-vs-all workload up front; feed mode
//! ([`Master::bind_feed_on`]) takes tiles incrementally; both are the
//! same policy over the same queue. The final [`SimilarityMatrix`] is
//! complete and exact no matter how many workers die mid-run.
//!
//! [`answers_exactly`]: crate::proto::answers_exactly

use crate::dispatch::{self, Dispatch, Event, Plane, WorkSource};
use crate::proto;
use crate::stats::{ServeStats, StatsSnapshot};
use crate::sync::MutexExt;
use crate::transport::{Listener, TcpChannelListener};
use rck_pdb::model::CaChain;
use rck_tmalign::MethodKind;
use rckalign::loadbalance::{order_jobs, JobOrdering};
use rckalign::{all_vs_all, batch_jobs, PairJob, PairOutcome, SimilarityMatrix, StoreBinding};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Duration;

/// Master configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MasterConfig {
    /// Address to listen on; port 0 picks a free port.
    pub addr: SocketAddr,
    /// Jobs per dispatched batch.
    pub batch_size: usize,
    /// Comparison method the farm runs.
    pub method: MethodKind,
    /// Queue ordering before batching (longest-first by default — the
    /// makespan heuristic the simulator's load-balance ablation vindicates).
    pub ordering: JobOrdering,
    /// Silence window after which a worker is declared dead and its
    /// batches are requeued.
    pub heartbeat_timeout: Duration,
    /// Upper bound on how long heartbeats may keep one dispatched batch
    /// alive. `None` (the default) trusts heartbeats indefinitely; the
    /// chaos harness sets it so a worker whose results are lost on the
    /// wire — while its heartbeats still flow — gets its batch requeued
    /// instead of stalling the run.
    pub batch_timeout: Option<Duration>,
    /// Hold dispatch until this many workers have connected.
    pub min_workers: usize,
}

impl Default for MasterConfig {
    fn default() -> MasterConfig {
        MasterConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            batch_size: 16,
            method: MethodKind::TmAlign,
            ordering: JobOrdering::LongestFirst,
            heartbeat_timeout: Duration::from_millis(1000),
            batch_timeout: None,
            min_workers: 1,
        }
    }
}

/// Result of a completed service run.
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// The assembled similarity matrix — identical to what an in-process
    /// [`rckalign::run_all_vs_all`] over the same dataset produces.
    pub matrix: SimilarityMatrix,
    /// Accepted outcomes, sorted by `(i, j)`.
    pub outcomes: Vec<PairOutcome>,
    /// Final counters.
    pub stats: StatsSnapshot,
}

/// A completed tile streamed out of a feed-mode master
/// ([`Master::bind_feed_on`]) as soon as its last pair is accepted.
#[derive(Debug, Clone)]
pub struct TileDone {
    /// The tile id the work was submitted under.
    pub tile_id: u32,
    /// Every outcome of the tile, sorted by `(i, j)`.
    pub outcomes: Vec<PairOutcome>,
}

/// Progress of one submitted tile in a feed-mode master.
struct TileProgress {
    remaining: usize,
    outcomes: Vec<PairOutcome>,
}

/// The shared work-queue state (guarded by the `Mutex` in `Shared`).
struct Work {
    queue: VecDeque<Vec<PairJob>>,
    /// Ledger of batches out on workers, connection handles, id counters.
    dispatch: Dispatch<Vec<PairJob>>,
    /// Accepted outcomes, one per pair.
    outcomes: Vec<PairOutcome>,
    total_pairs: usize,
    finished: bool,
    /// Feed mode only: more tiles may still arrive, so running out of
    /// accepted pairs does not finish the run. Classic mode stages the
    /// whole workload at bind and keeps this `false` forever.
    accepting: bool,
    /// Feed mode: which submitted tile each pair belongs to, pending or
    /// done.
    tile_of: HashMap<(u32, u32), u32>,
    /// Feed mode: per-tile completion progress.
    tiles: HashMap<u32, TileProgress>,
    /// Feed mode: completed tiles are streamed here as soon as their
    /// last pair is accepted. `None` in classic mode, and once the
    /// [`Master`] is gone — the receiver then sees the disconnect.
    tile_tx: Option<mpsc::Sender<TileDone>>,
}

impl Work {
    fn check_finished(&mut self) {
        if !self.accepting && self.outcomes.len() == self.total_pairs {
            self.finished = true;
        }
    }

    /// Stream a finished tile out, its outcomes sorted by `(i, j)`.
    fn emit_tile(&self, tile_id: u32, mut outcomes: Vec<PairOutcome>) {
        let Some(tx) = &self.tile_tx else { return };
        outcomes.sort_by_key(|o| (o.i, o.j));
        let _ = tx.send(TileDone { tile_id, outcomes });
    }
}

struct Shared {
    work: Mutex<Work>,
    available: Condvar,
    /// Index → chain: the whole staged dataset in batch mode; grown
    /// sparsely from tile grants in feed mode, where a shard master may
    /// only ever see a corner of the dataset. Either way a chain is one
    /// allocation for the run — its identity on worker connections.
    chains: Mutex<HashMap<u32, Arc<CaChain>>>,
    stats: Arc<ServeStats>,
    cfg: MasterConfig,
    /// Persistent result store attached by [`Master::with_store`]:
    /// consulted before dispatch (stored pairs never reach the queue)
    /// and appended to after assembly.
    store: Mutex<Option<Arc<StoreBinding>>>,
}

impl Shared {
    /// A master over `queue` (already batched). `tile_tx` selects feed
    /// mode: the run stays open for more tiles until the feed closes.
    fn new(
        cfg: MasterConfig,
        chains: HashMap<u32, Arc<CaChain>>,
        queue: VecDeque<Vec<PairJob>>,
        tile_tx: Option<mpsc::Sender<TileDone>>,
    ) -> Arc<Shared> {
        let total_pairs = queue.iter().map(Vec::len).sum();
        let accepting = tile_tx.is_some();
        Arc::new(Shared {
            work: Mutex::new(Work {
                queue,
                dispatch: Dispatch::new(cfg.heartbeat_timeout, cfg.batch_timeout),
                outcomes: Vec::with_capacity(total_pairs),
                total_pairs,
                finished: !accepting && total_pairs == 0,
                accepting,
                tile_of: HashMap::new(),
                tiles: HashMap::new(),
                tile_tx,
            }),
            available: Condvar::new(),
            chains: Mutex::new(chains),
            stats: Arc::new(ServeStats::new()),
            cfg,
            store: Mutex::new(None),
        })
    }
}

/// The master's dispatch policy: FIFO batches behind the `min_workers`
/// barrier, tile credit in feed mode.
impl WorkSource for Shared {
    const TAG: &'static str = "[rck-serve]";
    type State = Work;
    type Unit = Vec<PairJob>;

    fn state(&self) -> &Mutex<Work> {
        &self.work
    }

    fn wake(&self) -> &Condvar {
        &self.available
    }

    fn dispatch(work: &mut Work) -> &mut Dispatch<Vec<PairJob>> {
        &mut work.dispatch
    }

    fn heartbeat_timeout(&self) -> Duration {
        self.cfg.heartbeat_timeout
    }

    fn n_chains(&self) -> u32 {
        self.chains.lock_recover().len() as u32
    }

    /// Finished, or drained: inflight batches may still land.
    fn idle(&self, work: &Work) -> bool {
        work.finished || work.dispatch.draining()
    }

    fn next_unit(&self, work: &mut Work, _worker_id: u32) -> Option<Vec<PairJob>> {
        if self.stats.workers_connected() < self.cfg.min_workers as u64 {
            return None;
        }
        let jobs = work.queue.pop_front()?;
        self.stats.on_batch_dispatched(jobs.len());
        Some(jobs)
    }

    fn chain(&self, _jobs: &Vec<PairJob>, ix: u32) -> Option<Arc<CaChain>> {
        self.chains.lock_recover().get(&ix).cloned()
    }

    fn accept(
        &self,
        work: &mut Work,
        worker_id: u32,
        _jobs: Vec<PairJob>,
        outcomes: Vec<PairOutcome>,
        rtt: Duration,
    ) -> bool {
        self.stats.batch_rtt.observe(rtt.as_secs_f64());
        self.stats.on_batch_completed(worker_id, outcomes.len());
        for o in outcomes {
            work.outcomes.push(o);
            // Feed mode: credit the pair to its tile.
            let Some(&tile_id) = work.tile_of.get(&(o.i, o.j)) else {
                continue;
            };
            let Some(progress) = work.tiles.get_mut(&tile_id) else {
                continue;
            };
            progress.outcomes.push(o);
            progress.remaining -= 1;
            if progress.remaining == 0 {
                if let Some(p) = work.tiles.remove(&tile_id) {
                    work.emit_tile(tile_id, p.outcomes);
                }
            }
        }
        work.check_finished();
        work.finished
    }

    fn requeue(&self, work: &mut Work, jobs: Vec<PairJob>) {
        self.stats.on_batch_requeued(jobs.len());
        work.queue.push_front(jobs);
    }

    fn observe(&self, event: Event<'_>) {
        let stats = &self.stats;
        match event {
            Event::Tx(bytes) => stats.bytes_tx.add(bytes as u64),
            Event::Rx(bytes) => stats.bytes_rx.add(bytes as u64),
            Event::ChainsShipped(n) => stats.chains_shipped.add(n as u64),
            Event::DecodeError => stats.decode_errors.inc(),
            Event::WorkerConnected(id, name) => stats.on_worker_connected(id, name),
            Event::WorkerLost(id) => stats.on_worker_lost(id),
            Event::StaleResult => stats.stale_results.inc(),
            Event::MismatchedResult => stats.mismatched_results.inc(),
            Event::HeartbeatGap(gap) => stats.heartbeat_gap.observe(gap.as_secs_f64()),
            Event::Window(batches) => stats.window.raise_to(batches as i64),
        }
    }
}

/// A bound, not-yet-running service master.
pub struct Master {
    listener: Box<dyn Listener>,
    shared: Arc<Shared>,
}

/// The end of the farm, on every path out of [`Master::run`]: a feed's
/// [`TileDone`] receiver drains what was streamed and then disconnects.
impl Drop for Master {
    fn drop(&mut self) {
        self.shared.work.lock_recover().tile_tx = None;
    }
}

/// Cancels a running [`Master`] from another thread: the run stops
/// dispatching, handler threads drain on their read timeouts, and
/// [`Master::run`] returns `Err(Interrupted)` instead of a partial
/// matrix. The chaos driver pulls this lever once every scripted worker
/// session has ended with the workload still incomplete — an
/// unrecoverable schedule must fail *cleanly*, never deadlock.
#[derive(Clone)]
pub struct AbortHandle {
    shared: Arc<Shared>,
}

impl AbortHandle {
    /// Stop the run. Idempotent; safe from any thread.
    pub fn abort(&self) {
        dispatch::abort(&*self.shared);
    }

    /// Drain the run instead of killing it: no new batches are
    /// dispatched, inflight batches are allowed to finish (still under
    /// their deadlines), workers then receive an orderly Shutdown, and
    /// [`Master::run`] returns the *partial* matrix assembled so far
    /// rather than an error. Idempotent; safe from any thread. This is
    /// the SIGINT path of the serving bins — connections are never
    /// dropped mid-stream.
    pub fn drain(&self) {
        dispatch::drain(&*self.shared);
    }
}

/// Feeds tiles of work into a running feed-mode master
/// ([`Master::bind_feed_on`]) from another thread. Clone freely.
#[derive(Clone)]
pub struct FeedHandle {
    shared: Arc<Shared>,
}

impl FeedHandle {
    /// Submit one tile: the chains it brings — those of its references
    /// no earlier tile brought — and the pair jobs it owns. Jobs are
    /// batched onto the dispatch queue immediately; once the last of the
    /// tile's pairs is accepted, a [`TileDone`] carrying the tile's
    /// `(i, j)`-sorted outcomes is emitted on the receiver `bind_feed_on`
    /// returned. Each grant is answered exactly once: a tile id still
    /// pending, a pair already submitted (pending or done) and a job
    /// referencing a chain no tile brought are all refused
    /// (`InvalidData`, nothing queued) — the feeder is out of step with
    /// its peer.
    pub fn submit_tile(
        &self,
        tile_id: u32,
        chains: proto::ChainTable,
        jobs: Vec<PairJob>,
    ) -> io::Result<()> {
        let mut held = self.shared.chains.lock_recover();
        for (ix, chain) in chains {
            // First arrival wins, so a chain keeps one identity.
            held.entry(ix).or_insert(chain);
        }
        let referenced = rckalign::chain_indices(&jobs);
        if let Some(ix) = referenced.iter().find(|ix| !held.contains_key(ix)) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("tile {tile_id} references chain {ix} it was never granted"),
            ));
        }
        drop(held);
        let mut work = self.shared.work.lock_recover();
        // A session is granted a tile once and a pair once (a tile past
        // its cap costs its master the session), so a repeat is a feeder
        // out of step, not a race to answer: refused, none of it kept.
        let mut entered = 0;
        let repeat = work.tiles.contains_key(&tile_id)
            || !jobs
                .iter()
                .all(|job| match work.tile_of.entry((job.i, job.j)) {
                    Entry::Vacant(slot) => {
                        slot.insert(tile_id);
                        entered += 1;
                        true
                    }
                    Entry::Occupied(_) => false,
                });
        if repeat {
            for job in &jobs[..entered] {
                work.tile_of.remove(&(job.i, job.j));
            }
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("tile {tile_id} repeats a grant this feed already holds"),
            ));
        }
        work.total_pairs += jobs.len();
        for batch in batch_jobs(&jobs, self.shared.cfg.batch_size.max(1)) {
            work.queue.push_back(batch);
        }
        if jobs.is_empty() {
            work.emit_tile(tile_id, Vec::new());
        } else {
            let progress = TileProgress {
                remaining: jobs.len(),
                outcomes: Vec::new(),
            };
            work.tiles.insert(tile_id, progress);
        }
        drop(work);
        self.shared.available.notify_all();
        Ok(())
    }

    /// Close the feed: no more tiles will arrive, so the master finishes
    /// (and [`Master::run`] returns) once every submitted pair has an
    /// accepted outcome. Idempotent.
    pub fn close(&self) {
        let mut work = self.shared.work.lock_recover();
        work.accepting = false;
        work.check_finished();
        drop(work);
        self.shared.available.notify_all();
    }

    /// Live counters of the master this handle feeds.
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.shared.stats)
    }
}

impl Master {
    /// Bind the service TCP socket and stage the all-vs-all workload over
    /// `chains`. No jobs are dispatched until [`Master::run`].
    pub fn bind(chains: Vec<CaChain>, cfg: MasterConfig) -> io::Result<Master> {
        let listener = TcpChannelListener::bind(cfg.addr)?;
        Ok(Master::bind_on(Box::new(listener), chains, cfg))
    }

    /// Stage the workload on an already-bound transport listener — the
    /// seam the chaos harness uses to run the unmodified master over the
    /// deterministic in-memory network ([`crate::transport::MemNet`]).
    pub fn bind_on(listener: Box<dyn Listener>, chains: Vec<CaChain>, cfg: MasterConfig) -> Master {
        let mut jobs = all_vs_all(chains.len(), cfg.method);
        order_jobs(&mut jobs, &chains, cfg.ordering);
        let queue: VecDeque<Vec<PairJob>> = if jobs.is_empty() {
            VecDeque::new()
        } else {
            batch_jobs(&jobs, cfg.batch_size.max(1)).into()
        };
        let chains = (0u32..).zip(chains.into_iter().map(Arc::new)).collect();
        Master {
            listener,
            shared: Shared::new(cfg, chains, queue, None),
        }
    }

    /// Bind a **feed-mode** master on an already-bound listener: nothing
    /// is staged up front. Tiles of jobs arrive incrementally through the
    /// returned [`FeedHandle`] while the worker pool stays connected
    /// across tiles, and each completed tile is streamed out on the
    /// [`TileDone`] receiver the moment its last pair is accepted — the
    /// engine a `rck-shard` master runs its granted tiles on. The run
    /// finishes once the feed is closed ([`FeedHandle::close`]) *and*
    /// every submitted pair has an accepted outcome; [`Master::run`] then
    /// returns the [`ServeRun`] merged over everything fed. Chains are
    /// kept in a sparse table grown from tile submissions (a shard master
    /// may only ever see a corner of the dataset), so
    /// [`Master::with_store`] — which pre-resolves a staged workload — is
    /// a no-op here; the shard frontend owns store integration instead.
    pub fn bind_feed_on(
        listener: Box<dyn Listener>,
        cfg: MasterConfig,
    ) -> (Master, FeedHandle, mpsc::Receiver<TileDone>) {
        let (tile_tx, tile_rx) = mpsc::channel();
        let shared = Shared::new(cfg, HashMap::new(), VecDeque::new(), Some(tile_tx));
        let feed = FeedHandle {
            shared: Arc::clone(&shared),
        };
        (Master { listener, shared }, feed, tile_rx)
    }

    /// Attach a persistent result store before [`Master::run`]: every
    /// staged job the store already holds is satisfied immediately (its
    /// outcome accepted as if a worker had answered it, bit-identical to
    /// the run that stored it) and the remaining misses are rebatched,
    /// so a warm farm dispatches only the genuinely new pairs. Outcomes
    /// computed by the run are appended back on completion.
    pub fn with_store(self, binding: Arc<StoreBinding>) -> Master {
        {
            let mut work = self.shared.work.lock_recover();
            let staged: Vec<PairJob> = std::mem::take(&mut work.queue)
                .into_iter()
                .flatten()
                .collect();
            let (hits, misses) = binding.split(&staged);
            work.outcomes.extend(hits);
            if !misses.is_empty() {
                work.queue = batch_jobs(&misses, self.shared.cfg.batch_size.max(1)).into();
            }
            work.check_finished();
        }
        *self.shared.store.lock_recover() = Some(binding);
        self
    }

    /// The bound address (with the real port when `addr` asked for 0).
    ///
    /// # Panics
    /// Panics on transports without a socket address (the in-memory one).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener
            .local_addr()
            // rck-lint: allow(panic) — documented panic: only the in-memory transport lacks an address
            .expect("transport has no socket address")
    }

    /// Live counters — clone the handle before [`Master::run`] to watch a
    /// run (e.g. fault-injection tests polling for requeues).
    pub fn stats(&self) -> Arc<ServeStats> {
        Arc::clone(&self.shared.stats)
    }

    /// A handle that cancels the run from another thread.
    pub fn abort_handle(&self) -> AbortHandle {
        AbortHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until every pair has an accepted outcome, then shut workers
    /// down and return the assembled matrix. Returns
    /// `Err(ErrorKind::Interrupted)` if aborted first.
    pub fn run(self) -> io::Result<ServeRun> {
        let planes = [Plane::workers(&*self.listener)];
        dispatch::run(&*self.shared, &planes, |_| false, || {})?;

        let mut work = self.shared.work.lock_recover();
        if !work.finished && !work.dispatch.draining() {
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "service run aborted before completion",
            ));
        }
        let mut outcomes = std::mem::take(&mut work.outcomes);
        drop(work);
        outcomes.sort_by_key(|o| (o.i, o.j));
        let binding = self.shared.store.lock_recover().clone();
        if let Some(binding) = binding {
            binding.absorb(&outcomes, Shared::TAG);
        }
        // Size the matrix to the highest chain index held: the dataset in
        // batch mode, the corner of it a feed was granted.
        let last = self.shared.chains.lock_recover().keys().max().copied();
        let n = last.map_or(0, |ix| ix as usize + 1);
        let matrix = SimilarityMatrix::from_outcomes(n, &outcomes);
        Ok(ServeRun {
            matrix,
            outcomes,
            stats: self.shared.stats.snapshot(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_pdb::datasets::tiny_profile;
    use std::collections::HashSet;

    /// Every schedule of three one-job batches over two workers, under
    /// the master's own FIFO policy and counters (DESIGN.md §16).
    #[test]
    fn every_reachable_batch_lifecycle_state_holds_its_invariants() {
        let cfg = MasterConfig {
            batch_size: 1,
            ..MasterConfig::default()
        };
        let batches = || {
            all_vs_all(3, MethodKind::TmAlign)
                .chunks(1)
                .map(<[_]>::to_vec)
                .collect()
        };
        let make = || Shared::new(cfg.clone(), HashMap::new(), batches(), None);
        let explored = crate::explore::run(make, |shared, work| crate::explore::View {
            queued: work
                .queue
                .iter()
                .map(|b| b.iter().map(|j| (j.i, j.j)).collect())
                .collect(),
            done: work.outcomes.iter().map(|o| (o.i, o.j)).collect(),
            dispatched: shared.stats.jobs_dispatched.get(),
            completed: shared.stats.jobs_completed.get(),
            requeued: shared.stats.jobs_requeued.get(),
        });
        assert_eq!(explored.violations, Vec::<String>::new());
        assert_eq!((explored.states, explored.transitions), (8_499, 18_291));
    }

    #[test]
    fn bind_stages_the_workload_without_dispatching() {
        let chains = tiny_profile().generate(1);
        let master = Master::bind(chains, MasterConfig::default()).unwrap();
        assert_ne!(master.local_addr().port(), 0);
        let work = master.shared.work.lock().unwrap();
        assert_eq!(work.total_pairs, 28);
        let staged: usize = work.queue.iter().map(|b| b.len()).sum();
        assert_eq!(staged, 28);
        assert!(!work.finished);
        assert_eq!(master.stats().jobs_completed(), 0);
    }

    #[test]
    fn empty_dataset_finishes_immediately() {
        let master = Master::bind(Vec::new(), MasterConfig::default()).unwrap();
        let run = master.run().unwrap();
        assert!(run.outcomes.is_empty());
        assert_eq!(run.matrix.len(), 0);
        assert_eq!(run.stats.jobs_dispatched, 0);
    }

    #[test]
    fn longest_first_ordering_front_loads_big_pairs() {
        let chains = tiny_profile().generate(3);
        let cfg = MasterConfig {
            batch_size: 1,
            ..MasterConfig::default()
        };
        let master = Master::bind(chains.clone(), cfg).unwrap();
        let work = master.shared.work.lock().unwrap();
        let cost = |jobs: &Vec<PairJob>| {
            let j = jobs[0];
            chains[j.i as usize].len() as u64 * chains[j.j as usize].len() as u64
        };
        let first = cost(work.queue.front().unwrap());
        let last = cost(work.queue.back().unwrap());
        assert!(first >= last, "queue not longest-first: {first} < {last}");
    }

    #[test]
    fn drain_returns_a_partial_run_instead_of_an_error() {
        let chains = tiny_profile().generate(2);
        let n = chains.len();
        let master = Master::bind(chains, MasterConfig::default()).unwrap();
        let handle = master.abort_handle();
        let t = std::thread::spawn(move || master.run());
        std::thread::sleep(Duration::from_millis(30));
        handle.drain();
        let run = t
            .join()
            .unwrap()
            .expect("drained run yields partial results");
        assert!(run.outcomes.is_empty(), "no workers ever connected");
        assert_eq!(run.matrix.len(), n);
    }

    fn scratch_binding(name: &str, chains: &[CaChain]) -> Arc<StoreBinding> {
        let dir =
            std::env::temp_dir().join(format!("rck-serve-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let store = rck_store::Store::open(
            dir.join("store.rckstore"),
            rck_store::StoreConfig::on_registry(rck_obs::Registry::new()),
        )
        .unwrap();
        Arc::new(StoreBinding::new(store, chains))
    }

    #[test]
    fn with_store_preseeds_stored_pairs_and_rebatches_misses() {
        let chains = tiny_profile().generate(4);
        let binding = scratch_binding("preseed", &chains);
        // Precompute a third of the workload into the store.
        let cache = rckalign::PairCache::new(chains.clone()).with_store(Arc::clone(&binding));
        let jobs = all_vs_all(chains.len(), MethodKind::TmAlign);
        let stored = &jobs[..jobs.len() / 3];
        cache.prefill(stored, 2);
        let master = Master::bind(chains, MasterConfig::default())
            .unwrap()
            .with_store(Arc::clone(&binding));
        let work = master.shared.work.lock().unwrap();
        assert_eq!(
            work.outcomes.len(),
            stored.len(),
            "stored pairs accepted up front"
        );
        let queued: usize = work.queue.iter().map(|b| b.len()).sum();
        assert_eq!(queued, jobs.len() - stored.len(), "only misses staged");
        assert!(!work.finished);
    }

    #[test]
    fn fully_stored_workload_finishes_without_any_worker() {
        let chains = tiny_profile().generate(5);
        let binding = scratch_binding("full", &chains);
        let cache = rckalign::PairCache::new(chains.clone()).with_store(Arc::clone(&binding));
        let jobs = all_vs_all(chains.len(), MethodKind::TmAlign);
        cache.prefill(&jobs, 4);
        let expected: Vec<PairOutcome> = jobs.iter().map(|j| cache.get_or_compute(j)).collect();
        let master = Master::bind(chains, MasterConfig::default())
            .unwrap()
            .with_store(binding);
        // No worker ever connects; the store satisfies everything.
        let run = master.run().unwrap();
        assert_eq!(run.outcomes.len(), jobs.len());
        for (got, want) in run.outcomes.iter().zip(&expected) {
            assert_eq!((got.i, got.j), (want.i, want.j));
            assert_eq!(got.similarity.to_bits(), want.similarity.to_bits());
            assert_eq!(got.ops, want.ops);
        }
        assert_eq!(run.stats.jobs_dispatched, 0, "nothing hit the wire");
    }

    #[test]
    fn feed_mode_completes_tiles_over_a_memnet_worker() {
        use crate::transport::MemNet;
        use crate::worker::{run_worker_conn, WorkerConfig};

        let chains = tiny_profile().generate(6);
        let n = chains.len();
        let cfg = MasterConfig {
            batch_size: 4,
            ..MasterConfig::default()
        };
        let net = MemNet::new();
        let (master, feed, tiles_rx) = Master::bind_feed_on(net.listener(), cfg);
        let run_thread = std::thread::spawn(move || master.run());
        let worker_conn = net.connect().unwrap();
        let worker = std::thread::spawn(move || {
            let mut wcfg = WorkerConfig::connect_to("127.0.0.1:0".parse().unwrap());
            wcfg.heartbeat_interval = Duration::from_millis(40);
            run_worker_conn(worker_conn, &wcfg)
        });

        let tiles = rckalign::tile_partition(n, 3);
        assert!(tiles.len() >= 2, "want multiple tiles in the feed");
        for t in &tiles {
            let jobs = t.jobs(MethodKind::TmAlign);
            let grant = proto::build_tile_grant(t.id, jobs, &chains);
            feed.submit_tile(grant.tile_id, grant.chains, grant.jobs)
                .unwrap();
        }

        // Every tile completes, each exactly once, with sorted outcomes.
        let mut seen = HashSet::new();
        let mut tile_results = Vec::new();
        for _ in 0..tiles.len() {
            let done = tiles_rx
                .recv_timeout(Duration::from_secs(10))
                .expect("tile completion");
            assert!(seen.insert(done.tile_id), "tile completed twice");
            assert!(done
                .outcomes
                .windows(2)
                .all(|w| (w[0].i, w[0].j) < (w[1].i, w[1].j)));
            tile_results.push(done.outcomes);
        }
        feed.close();
        let run = run_thread.join().unwrap().expect("feed run completes");
        let _ = worker.join();

        // The fed master's merged result is bit-identical to the
        // in-process reference over the same dataset.
        let cache = rckalign::PairCache::new(chains.clone());
        let expected =
            rckalign::run_all_vs_all(&cache, &rckalign::RckAlignOptions::paper(2)).outcomes;
        let want = rckalign::chaos::outcomes_fingerprint(&expected);
        assert_eq!(run.matrix.len(), n);
        assert_eq!(rckalign::chaos::outcomes_fingerprint(&run.outcomes), want);
        assert_eq!(
            run.matrix,
            SimilarityMatrix::from_outcomes(n, &expected),
            "fed matrix diverges from single-process reference"
        );
        // And so is merge-on-read over the streamed tiles.
        let merged: Vec<PairOutcome> = rckalign::merge_outcomes(tile_results);
        assert_eq!(rckalign::chaos::outcomes_fingerprint(&merged), want);
    }

    /// A re-grant of a tile still pending, a pending pair under a new
    /// tile id and a tile overlapping a pending one are all refused with
    /// nothing queued, as a chain that was never granted is; the pending
    /// grant is then answered exactly once.
    #[test]
    fn feed_mode_refuses_a_regrant_of_a_still_pending_tile() {
        use crate::transport::MemNet;
        use crate::worker::{run_worker_conn, WorkerConfig};

        let chains = tiny_profile().generate(8);
        let net = MemNet::new();
        let (master, feed, tiles_rx) =
            Master::bind_feed_on(net.listener(), MasterConfig::default());
        let run_thread = std::thread::spawn(move || master.run());
        let refused = |tile_id: u32, chains: proto::ChainTable, jobs: Vec<PairJob>| {
            let err = feed
                .submit_tile(tile_id, chains, jobs)
                .expect_err("a repeated grant is refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        };

        // Before any worker exists every pair of the tile is pending.
        let tiles = rckalign::tile_partition(chains.len(), 4);
        let grant =
            proto::build_tile_grant(tiles[0].id, tiles[0].jobs(MethodKind::TmAlign), &chains);
        let n_jobs = grant.jobs.len();
        feed.submit_tile(grant.tile_id, grant.chains, grant.jobs.clone())
            .unwrap();
        refused(grant.tile_id, Vec::new(), grant.jobs.clone());
        refused(grant.tile_id + 100, Vec::new(), grant.jobs[..1].to_vec());
        let other =
            proto::build_tile_grant(tiles[1].id, tiles[1].jobs(MethodKind::TmAlign), &chains);
        let mut overlapping = other.jobs.clone();
        overlapping.push(grant.jobs[0]);
        refused(other.tile_id, other.chains.clone(), overlapping);
        assert_eq!(feed.stats().snapshot().jobs_dispatched, 0);

        let worker_conn = net.connect().unwrap();
        let worker = std::thread::spawn(move || {
            let wcfg = WorkerConfig::connect_to("127.0.0.1:0".parse().unwrap());
            run_worker_conn(worker_conn, &wcfg)
        });
        let done = tiles_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the one grant is answered");
        assert_eq!((done.tile_id, done.outcomes.len()), (grant.tile_id, n_jobs));
        // The refused overlap left nothing behind: its tile goes through.
        feed.submit_tile(other.tile_id, other.chains, other.jobs.clone())
            .unwrap();
        let done = tiles_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the other tile is answered");
        assert_eq!(done.tile_id, other.tile_id);

        feed.close();
        let run = run_thread.join().unwrap().expect("feed run completes");
        let _ = worker.join();
        assert!(tiles_rx.try_recv().is_err(), "one TileDone per grant");
        assert_eq!(run.outcomes.len(), n_jobs + other.jobs.len());
        assert_eq!(run.stats.jobs_dispatched, run.outcomes.len() as u64);
    }

    /// A pair already answered is not answered again: a re-grant of a
    /// completed tile, or a new tile id carrying one of its pairs, is
    /// refused with nothing dispatched and no second `TileDone`.
    #[test]
    fn feed_mode_refuses_a_tile_whose_pairs_are_already_answered() {
        use crate::transport::MemNet;
        use crate::worker::{run_worker_conn, WorkerConfig};

        let chains = tiny_profile().generate(7);
        let net = MemNet::new();
        let (master, feed, tiles_rx) =
            Master::bind_feed_on(net.listener(), MasterConfig::default());
        let run_thread = std::thread::spawn(move || master.run());
        let worker_conn = net.connect().unwrap();
        let worker = std::thread::spawn(move || {
            let wcfg = WorkerConfig::connect_to("127.0.0.1:0".parse().unwrap());
            run_worker_conn(worker_conn, &wcfg)
        });

        let tile = &rckalign::tile_partition(chains.len(), 4)[0];
        let grant = proto::build_tile_grant(tile.id, tile.jobs(MethodKind::TmAlign), &chains);
        let n_jobs = grant.jobs.len();
        feed.submit_tile(grant.tile_id, grant.chains.clone(), grant.jobs.clone())
            .unwrap();
        let first = tiles_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("first completion");
        assert_eq!(
            (first.tile_id, first.outcomes.len()),
            (grant.tile_id, n_jobs)
        );

        let dispatched_before = feed.stats().snapshot().jobs_dispatched;
        for (tile_id, jobs) in [
            (grant.tile_id, grant.jobs.clone()),
            (grant.tile_id + 100, grant.jobs[..1].to_vec()),
        ] {
            let err = feed
                .submit_tile(tile_id, grant.chains.clone(), jobs)
                .expect_err("a done pair is refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        assert_eq!(feed.stats().snapshot().jobs_dispatched, dispatched_before);

        feed.close();
        let run = run_thread.join().unwrap().expect("feed run completes");
        let _ = worker.join();
        assert!(tiles_rx.try_recv().is_err(), "one TileDone per grant");
        assert_eq!(run.outcomes.len(), n_jobs);
    }

    #[test]
    fn feed_mode_with_empty_feed_finishes_on_close() {
        use crate::transport::MemNet;
        let net = MemNet::new();
        let (master, feed, _tiles_rx) =
            Master::bind_feed_on(net.listener(), MasterConfig::default());
        let t = std::thread::spawn(move || master.run());
        feed.close();
        let run = t.join().unwrap().expect("empty feed finishes");
        assert!(run.outcomes.is_empty());
        assert_eq!(run.matrix.len(), 0);
    }

    /// `run()` must return as soon as the last result is accepted: the
    /// deadline monitor is woken by the finish, not left napping a
    /// quarter heartbeat window (250 ms here).
    #[test]
    fn run_returns_promptly_after_the_last_result() {
        use crate::transport::MemNet;
        use crate::worker::{run_worker_conn, WorkerConfig};

        let chains = tiny_profile().generate(9);
        let pairs = (chains.len() * (chains.len() - 1) / 2) as u64;
        let cfg = MasterConfig {
            heartbeat_timeout: Duration::from_secs(1),
            ..MasterConfig::default()
        };
        let net = MemNet::new();
        let master = Master::bind_on(net.listener(), chains, cfg);
        let stats = master.stats();
        let run_thread = std::thread::spawn(move || {
            let run = master.run();
            (run, std::time::Instant::now())
        });
        let worker_conn = net.connect().unwrap();
        let worker = std::thread::spawn(move || {
            let wcfg = WorkerConfig::connect_to("127.0.0.1:0".parse().unwrap());
            run_worker_conn(worker_conn, &wcfg)
        });
        while stats.jobs_completed() < pairs {
            std::thread::sleep(Duration::from_micros(200));
        }
        let completed_at = std::time::Instant::now();
        let (run, returned_at) = run_thread.join().unwrap();
        run.expect("run completes");
        let _ = worker.join();
        let teardown = returned_at.saturating_duration_since(completed_at);
        assert!(
            teardown < Duration::from_millis(50),
            "run() returned {teardown:?} after the last result"
        );
    }

    #[test]
    fn abort_fails_a_run_with_no_workers() {
        let chains = tiny_profile().generate(2);
        let master = Master::bind(chains, MasterConfig::default()).unwrap();
        let abort = master.abort_handle();
        let t = std::thread::spawn(move || master.run());
        std::thread::sleep(Duration::from_millis(30));
        abort.abort();
        let err = t
            .join()
            .unwrap()
            .expect_err("aborted run must not return a matrix");
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
    }
}
