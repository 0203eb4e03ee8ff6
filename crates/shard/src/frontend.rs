//! The shard frontend: a master-of-masters over the tile dialect.
//!
//! The frontend owns the full dataset and the tile partition
//! ([`rckalign::tile_partition`]); shard masters own workers. Each
//! connecting master is dealt an **ownership queue** of tiles
//! ([`rckalign::assign_tiles`]) and pulls work with credits
//! ([`rck_serve::StealRequest`]): one credit buys one
//! [`rck_serve::TileGrant`] — from its own queue, from the orphan pool of
//! requeued tiles, or *stolen* from the tail of the longest other queue.
//! Results are merged on read with [`rckalign::merge_outcomes`], so the
//! matrix is bit-identical to [`rckalign::run_all_vs_all`] however tiles
//! were dealt, stolen, or re-granted.
//!
//! The frontend is a [`WorkSource`] on [`rck_serve::dispatch`]'s one
//! connection loop in the tile [`Dialect`]: the unit is a tile keyed by
//! its id, and the master's credits size its window. Every fault is the
//! dispatcher's: a master whose connection fails, that is silent past
//! [`ShardConfig::heartbeat_timeout`], or that holds a tile past
//! [`ShardConfig::tile_timeout`] is lost, and its tiles are orphaned.

use crate::stats::{ShardSnapshot, ShardStats};
use rck_pdb::model::CaChain;
use rck_serve::dispatch::{self, Dialect, Dispatch, Event, Plane, WorkSource};
use rck_serve::transport::TcpChannelListener;
use rck_serve::{Listener, MutexExt};
use rck_tmalign::MethodKind;
use rckalign::{
    assign_tiles, merge_outcomes, tile_partition, PairJob, PairOutcome, SimilarityMatrix,
    StoreBinding,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Frontend configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardConfig {
    /// Address to listen on for shard masters; port 0 picks a free port.
    pub addr: SocketAddr,
    /// Side length of the square-ish tiles the pair matrix is cut into.
    pub tile_size: usize,
    /// Expected number of masters — the number of ownership queues the
    /// tiles are dealt across. More masters than slots share queues;
    /// fewer leave queues to be drained by stealing.
    pub masters: usize,
    /// Comparison method the farm runs.
    pub method: MethodKind,
    /// Silence window after which a master is declared dead and its
    /// tiles are requeued.
    pub heartbeat_timeout: Duration,
    /// Upper bound on how long one granted tile may stay unanswered.
    /// `None` (the default) trusts heartbeats; the chaos harness sets it
    /// so a master whose results are lost while its heartbeats still
    /// flow is declared lost and its tiles re-granted instead of
    /// stalling the run. Set it above the slowest tile.
    pub tile_timeout: Option<Duration>,
    /// Liveness bound: if tiles remain while **no** master is connected
    /// — every master died without a replacement, or none ever showed
    /// up — for this long, [`ShardFrontend::run`] fails with
    /// `ErrorKind::TimedOut` instead of polling forever. `None` (the
    /// default) derives the bound as `8 × heartbeat_timeout`;
    /// `Some(Duration::MAX)` waits forever.
    pub stall_timeout: Option<Duration>,
}

impl Default for ShardConfig {
    fn default() -> ShardConfig {
        ShardConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            tile_size: 4,
            masters: 2,
            method: MethodKind::TmAlign,
            heartbeat_timeout: Duration::from_millis(1000),
            tile_timeout: None,
            stall_timeout: None,
        }
    }
}

impl ShardConfig {
    /// The effective no-masters liveness bound (§15.3): explicit
    /// `stall_timeout`, or `8 × heartbeat_timeout` when unset.
    fn effective_stall_timeout(&self) -> Duration {
        self.stall_timeout
            .unwrap_or_else(|| self.heartbeat_timeout.saturating_mul(8))
    }
}

/// Result of a completed sharded run.
#[derive(Debug, Clone)]
pub struct ShardRun {
    /// The merged similarity matrix — bit-identical to a single-master
    /// [`rckalign::run_all_vs_all`] over the same dataset.
    pub matrix: SimilarityMatrix,
    /// Merged outcomes, sorted by `(i, j)`, duplicates dropped.
    pub outcomes: Vec<PairOutcome>,
    /// Final counters.
    pub stats: ShardSnapshot,
}

/// One dispatchable tile: its id and its job set.
#[derive(Clone)]
struct Tile {
    id: u32,
    jobs: Arc<[PairJob]>,
}

impl AsRef<[PairJob]> for Tile {
    fn as_ref(&self) -> &[PairJob] {
        &self.jobs
    }
}

/// The shared scheduling state (guarded by the `Mutex` in `Shared`).
struct State {
    /// Per-slot ownership queues of not-yet-granted tiles.
    queues: Vec<VecDeque<u32>>,
    /// Requeued tiles (lost master) — granted before anything is stolen.
    orphans: VecDeque<u32>,
    /// Effective job set per tile (store hits already removed).
    tile_jobs: HashMap<u32, Arc<[PairJob]>>,
    /// Tiles out on masters, connections, id counters.
    dispatch: Dispatch<Tile>,
    /// Tiles with an accepted result (or fully answered by the store).
    done: HashSet<u32>,
    /// Accepted per-tile outcome lists (plus store-hit lists), merged on
    /// read at the end of the run.
    results: Vec<Vec<PairOutcome>>,
    /// Tiles without an accepted result.
    remaining: usize,
}

/// The frontend's half of the dispatcher: the tile policy and what the
/// run needs beside it.
struct Shared {
    state: Mutex<State>,
    /// Wakes waiting connections and the deadline monitor.
    wake: Condvar,
    chains: Vec<Arc<CaChain>>,
    stats: Arc<ShardStats>,
    cfg: ShardConfig,
    /// Persistent result store attached by [`ShardFrontend::with_store`]:
    /// consulted per tile before any grant and appended to on completion.
    store: Mutex<Option<Arc<StoreBinding>>>,
}

/// The tile policy: pick own queue → orphans → steal, merge on accept,
/// orphan on requeue; credits size each master's window.
impl WorkSource for Shared {
    const TAG: &'static str = "[rck-shard]";
    const DIALECT: Dialect = Dialect::Tiles;
    type State = State;
    type Unit = Tile;

    fn state(&self) -> &Mutex<State> {
        &self.state
    }

    fn wake(&self) -> &Condvar {
        &self.wake
    }

    fn dispatch(state: &mut State) -> &mut Dispatch<Tile> {
        &mut state.dispatch
    }

    fn heartbeat_timeout(&self) -> Duration {
        self.cfg.heartbeat_timeout
    }

    fn n_chains(&self) -> u32 {
        self.chains.len() as u32
    }

    fn idle(&self, state: &State) -> bool {
        state.remaining == 0
    }

    /// Masters take ownership slots in connection order.
    fn next_unit(&self, state: &mut State, master_id: u32) -> Option<Tile> {
        let slot = master_id as usize % self.cfg.masters.max(1);
        let (id, stolen) = pick_tile(state, slot)?;
        self.stats.on_tile_granted(stolen);
        let jobs = state.tile_jobs.get(&id).cloned().unwrap_or_default();
        Some(Tile { id, jobs })
    }

    fn key(tile: &Tile, _fresh: u64) -> u64 {
        tile.id.into()
    }

    fn chain(&self, _tile: &Tile, ix: u32) -> Option<Arc<CaChain>> {
        self.chains.get(ix as usize).cloned()
    }

    fn accept(
        &self,
        state: &mut State,
        master_id: u32,
        tile: Tile,
        outcomes: Vec<PairOutcome>,
        rtt: Duration,
    ) -> bool {
        if !state.done.insert(tile.id) {
            self.stats.duplicate_tiles.inc();
            return false;
        }
        // Merged (sorted, deduplicated) on read, when the run returns.
        state.results.push(outcomes);
        state.remaining -= 1;
        self.stats
            .on_tile_completed(master_id, Some(rtt.as_secs_f64()));
        state.remaining == 0
    }

    fn requeue(&self, state: &mut State, tile: Tile) {
        self.stats.tiles_requeued.inc();
        state.orphans.push_back(tile.id);
    }

    fn observe(&self, event: Event<'_>) {
        let stats = &self.stats;
        match event {
            Event::WorkerConnected(id, name) => stats.on_master_connected(id, name),
            Event::WorkerLost(_) => stats.masters_lost.inc(),
            Event::StaleResult => stats.duplicate_tiles.inc(),
            Event::MismatchedResult => stats.mismatched_tiles.inc(),
            // The frontend keeps no wire, gap or window statistics.
            _ => {}
        }
    }
}

/// A bound, not-yet-running shard frontend.
pub struct ShardFrontend {
    listener: Box<dyn Listener>,
    shared: Arc<Shared>,
}

/// Cancels a running [`ShardFrontend`] from another thread.
#[derive(Clone)]
pub struct ShardAbortHandle {
    shared: Arc<Shared>,
}

impl ShardAbortHandle {
    /// Stop the run. Idempotent; safe from any thread.
    pub fn abort(&self) {
        dispatch::abort(&*self.shared);
    }
}

impl ShardFrontend {
    /// Bind the frontend TCP socket and stage the tile partition over
    /// `chains`. Nothing is granted until [`ShardFrontend::run`].
    pub fn bind(chains: Vec<CaChain>, cfg: ShardConfig) -> io::Result<ShardFrontend> {
        let listener = TcpChannelListener::bind(cfg.addr)?;
        Ok(ShardFrontend::bind_on(Box::new(listener), chains, cfg))
    }

    /// Stage the partition on an already-bound transport listener — the
    /// seam the tests and the chaos harness use to run the unmodified
    /// frontend over the in-memory network.
    pub fn bind_on(
        listener: Box<dyn Listener>,
        chains: Vec<CaChain>,
        cfg: ShardConfig,
    ) -> ShardFrontend {
        let tiles = tile_partition(chains.len(), cfg.tile_size);
        let queues: Vec<VecDeque<u32>> = assign_tiles(&tiles, cfg.masters)
            .into_iter()
            .map(VecDeque::from)
            .collect();
        let tile_jobs = tiles
            .iter()
            .map(|t| (t.id, t.jobs(cfg.method).into()))
            .collect();
        let state = State {
            queues,
            orphans: VecDeque::new(),
            tile_jobs,
            dispatch: Dispatch::new(cfg.heartbeat_timeout, cfg.tile_timeout),
            done: HashSet::new(),
            results: Vec::new(),
            remaining: tiles.len(),
        };
        ShardFrontend {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                wake: Condvar::new(),
                chains: chains.into_iter().map(Arc::new).collect(),
                stats: Arc::new(ShardStats::new()),
                cfg,
                store: Mutex::new(None),
            }),
        }
    }

    /// Attach a persistent result store before [`ShardFrontend::run`]:
    /// every pair the store already holds is answered without dispatch
    /// (bit-identical to the run that stored it). Fully-stored tiles are
    /// completed immediately — a fully-stored dataset finishes with no
    /// masters at all — and partially-stored tiles are granted with only
    /// their misses. Outcomes computed by the run are appended back on
    /// completion.
    pub fn with_store(self, binding: Arc<StoreBinding>) -> ShardFrontend {
        {
            let mut state = self.shared.state.lock_recover();
            let tile_ids: Vec<u32> = state.tile_jobs.keys().copied().collect();
            let mut hit_total = 0usize;
            for t in tile_ids {
                let (hits, misses) = binding.split(&state.tile_jobs[&t]);
                if hits.is_empty() {
                    continue;
                }
                hit_total += hits.len();
                state.results.push(hits);
                if misses.is_empty() {
                    state.done.insert(t);
                    state.remaining -= 1;
                } else {
                    state.tile_jobs.insert(t, misses.into());
                }
            }
            // Fully stored tiles stay queued: `pick_tile` drops done ones.
            self.shared.stats.store_pairs.add(hit_total as u64);
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

    /// Live counters — clone the handle before [`ShardFrontend::run`] to
    /// watch a run.
    pub fn stats(&self) -> Arc<ShardStats> {
        Arc::clone(&self.shared.stats)
    }

    /// A handle that cancels the run from another thread.
    pub fn abort_handle(&self) -> ShardAbortHandle {
        ShardAbortHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serve until every tile has an accepted result, then shut masters
    /// down and return the merged matrix. Returns
    /// `Err(ErrorKind::Interrupted)` if aborted first, and
    /// `Err(ErrorKind::TimedOut)` if no master was connected for the
    /// stall bound with tiles outstanding.
    pub fn run(self) -> io::Result<ShardRun> {
        // The no-masters stall bound (§15.3): tiles outstanding and no
        // master connected for that long end the run.
        let stall = self.shared.cfg.effective_stall_timeout();
        let (mut alone_since, mut stalled) = (None::<Instant>, false);
        let stalls = |state: &State| {
            if state.dispatch.connected() > 0 {
                alone_since = None;
                return false;
            }
            stalled = alone_since.get_or_insert_with(Instant::now).elapsed() > stall;
            stalled
        };
        let planes = [Plane::workers(&*self.listener)];
        dispatch::run(&*self.shared, &planes, stalls, || {})?;

        let mut state = self.shared.state.lock_recover();
        if state.remaining > 0 {
            if stalled {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "sharded run stalled: no master connected for {:?} \
                         with {} tiles outstanding",
                        self.shared.cfg.effective_stall_timeout(),
                        state.remaining
                    ),
                ));
            }
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "sharded run aborted before completion",
            ));
        }
        let results = std::mem::take(&mut state.results);
        drop(state);
        let outcomes = merge_outcomes(results);
        let binding = self.shared.store.lock_recover().clone();
        if let Some(binding) = binding {
            binding.absorb(&outcomes, Shared::TAG);
        }
        let matrix = SimilarityMatrix::from_outcomes(self.shared.chains.len(), &outcomes);
        Ok(ShardRun {
            matrix,
            outcomes,
            stats: self.shared.stats.snapshot(),
        })
    }
}

/// Pick the next grantable tile for `slot`: own queue, then the orphan
/// pool, then steal from the *tail* of the longest other queue (the tail
/// is the work its owner would reach last, minimising contention).
/// Tiles already done are skipped and dropped.
fn pick_tile(state: &mut State, slot: usize) -> Option<(u32, bool)> {
    while let Some(t) = state.queues[slot].pop_front() {
        if !state.done.contains(&t) {
            return Some((t, false));
        }
    }
    while let Some(t) = state.orphans.pop_front() {
        if !state.done.contains(&t) {
            return Some((t, false));
        }
    }
    loop {
        let victim = (0..state.queues.len())
            .filter(|&q| q != slot)
            .max_by_key(|&q| state.queues[q].len())?;
        let t = state.queues[victim].pop_back()?;
        if !state.done.contains(&t) {
            return Some((t, true));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_queues(queues: Vec<Vec<u32>>) -> State {
        State {
            queues: queues.into_iter().map(VecDeque::from).collect(),
            orphans: VecDeque::new(),
            tile_jobs: HashMap::new(),
            dispatch: Dispatch::new(Duration::from_secs(1), None),
            done: HashSet::new(),
            results: Vec::new(),
            remaining: 0,
        }
    }

    #[test]
    fn pick_prefers_own_queue_then_orphans_then_steals_from_tail() {
        let mut state = state_with_queues(vec![vec![0], vec![1, 2, 3]]);
        state.orphans.push_back(9);
        assert_eq!(
            pick_tile(&mut state, 0),
            Some((0, false)),
            "own queue first"
        );
        assert_eq!(pick_tile(&mut state, 0), Some((9, false)), "orphans next");
        assert_eq!(
            pick_tile(&mut state, 0),
            Some((3, true)),
            "steal takes the victim's tail"
        );
        assert_eq!(pick_tile(&mut state, 1), Some((1, false)));
        assert_eq!(pick_tile(&mut state, 1), Some((2, false)));
        assert_eq!(pick_tile(&mut state, 1), None, "nothing left anywhere");
    }

    #[test]
    fn pick_skips_completed_tiles() {
        let mut state = state_with_queues(vec![vec![0, 1], vec![2]]);
        state.done.insert(0);
        state.done.insert(2);
        assert_eq!(pick_tile(&mut state, 0), Some((1, false)));
        assert_eq!(
            pick_tile(&mut state, 0),
            None,
            "completed steal target dropped"
        );
    }

    #[test]
    fn steal_picks_the_longest_victim() {
        let mut state = state_with_queues(vec![vec![], vec![1], vec![2, 3, 4]]);
        assert_eq!(pick_tile(&mut state, 0), Some((4, true)));
    }

    #[test]
    fn empty_dataset_finishes_at_bind() {
        let net = rck_serve::MemNet::new();
        let fe = ShardFrontend::bind_on(net.listener(), Vec::new(), ShardConfig::default());
        let run = fe.run().expect("empty run completes with no masters");
        assert_eq!(run.outcomes.len(), 0);
        assert_eq!(run.matrix.len(), 0);
    }

    #[test]
    fn stall_bound_defaults_to_eight_heartbeat_timeouts() {
        let cfg = ShardConfig::default();
        assert_eq!(
            cfg.effective_stall_timeout(),
            cfg.heartbeat_timeout.saturating_mul(8)
        );
        let explicit = ShardConfig {
            stall_timeout: Some(Duration::from_secs(3)),
            ..ShardConfig::default()
        };
        assert_eq!(explicit.effective_stall_timeout(), Duration::from_secs(3));
    }

    #[test]
    fn a_run_no_master_ever_joins_fails_with_timed_out() {
        let net = rck_serve::MemNet::new();
        let chains = rck_pdb::datasets::tiny_profile().generate(17);
        let cfg = ShardConfig {
            heartbeat_timeout: Duration::from_millis(40),
            stall_timeout: Some(Duration::from_millis(150)),
            ..ShardConfig::default()
        };
        let fe = ShardFrontend::bind_on(net.listener(), chains, cfg);
        let err = fe
            .run()
            .expect_err("a run with work but no masters must not hang");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
        assert!(
            err.to_string().contains("tiles outstanding"),
            "error names the outstanding work: {err}"
        );
    }
}
