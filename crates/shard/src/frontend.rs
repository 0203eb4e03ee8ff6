//! The shard frontend: a master-of-masters over the tile dialect.
//!
//! The frontend owns the full dataset and the tile partition
//! ([`rckalign::tile_partition`]); shard masters own workers. Each
//! connecting master is dealt an **ownership queue** of tiles
//! (interleaved by [`rckalign::assign_tiles`]) and pulls work with
//! credit frames ([`rck_serve::StealRequest`]): one credit buys one
//! [`rck_serve::TileGrant`] — from the master's own queue, from the
//! orphan pool of requeued tiles, or *stolen* from the tail of the
//! longest other queue once everything nearer has drained. Tile results
//! are verified against the tile's job set, deduplicated (steal races
//! and late requeued results legitimately produce the same tile twice),
//! and merged on read with [`rckalign::merge_outcomes`] — so the final
//! matrix is bit-identical to a single-master [`rckalign::run_all_vs_all`]
//! no matter how tiles were dealt, stolen, or re-granted.
//!
//! The failure machinery is [`rck_serve::dispatch`]'s — the same
//! [`Ledger`] deadline rule, handshake and monitor loop the master and
//! the gate run — applied one level up. Masters pull work with credits
//! and hold several tiles at once, a dialect the dispatcher's
//! one-batch-per-worker connection loop would have to branch on, so the
//! frontend keeps its own reader loop and credit policy:
//!
//! * **connection loss** — a failed read or write on a master's
//!   connection requeues every tile that master held to the orphan pool
//!   and drains its ownership queue there too;
//! * **heartbeat deadline** — a master holding tiles and silent past
//!   [`ShardConfig::heartbeat_timeout`] is declared dead the same way;
//! * **tile deadline** — with [`ShardConfig::tile_timeout`] set, a
//!   granted tile unanswered past the cap is re-granted even while its
//!   master's heartbeats still flow.

use crate::stats::{ShardSnapshot, ShardStats};
use rck_pdb::model::CaChain;
use rck_serve::dispatch::{self, send, Expiry, Ledger};
use rck_serve::proto::{self, answers_exactly, Frame, Resident, TileGrant, TileResult, Welcome};
use rck_serve::transport::TcpChannelListener;
use rck_serve::{Conn, Listener, MutexExt};
use rck_tmalign::MethodKind;
use rckalign::{
    assign_tiles, merge_outcomes, tile_partition, PairJob, PairOutcome, SimilarityMatrix,
    StoreBinding,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
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
    /// flow gets its tiles re-granted instead of stalling the run.
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

/// One connected shard master.
struct MasterLink {
    writer: Arc<Mutex<Box<dyn Conn>>>,
    /// Chains granted on this connection, so a [`TileGrant`] brings only
    /// what its master lacks; held from cutting a grant's table until it
    /// is written, so tables arrive in cut order.
    resident: Arc<Mutex<Resident>>,
    slot: usize,
    alive: bool,
}

/// The shared scheduling state (guarded by the `Mutex` in `Shared`).
struct State {
    /// Per-slot ownership queues of not-yet-granted tiles.
    queues: Vec<VecDeque<u32>>,
    /// Requeued tiles (dead master, expired deadline) — granted before
    /// anything is stolen.
    orphans: VecDeque<u32>,
    /// Effective job set per tile (store hits already removed).
    tile_jobs: HashMap<u32, Vec<PairJob>>,
    /// Granted-but-unanswered tiles, by tile id, owned by master id.
    granted: Ledger<u32, ()>,
    completed: HashSet<u32>,
    /// Accepted per-tile outcome lists (plus store-hit lists), merged on
    /// read at the end of the run.
    results: Vec<Vec<PairOutcome>>,
    /// Masters whose credit could not be served yet (nothing grantable).
    pending_credits: VecDeque<u32>,
    masters: HashMap<u32, MasterLink>,
    /// Tiles without an accepted result.
    remaining: usize,
    finished: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Wakes the deadline monitor when the run finishes or aborts.
    wake: Condvar,
    chains: Vec<Arc<CaChain>>,
    stats: Arc<ShardStats>,
    cfg: ShardConfig,
    next_master_id: AtomicU32,
    next_slot: AtomicU32,
    aborted: AtomicBool,
    /// Set by the monitor when the no-masters liveness bound expired
    /// with tiles outstanding — `run` reports `TimedOut`, not
    /// `Interrupted`.
    stalled: AtomicBool,
    /// Persistent result store attached by [`ShardFrontend::with_store`]:
    /// consulted per tile before any grant and appended to on completion.
    store: Mutex<Option<Arc<StoreBinding>>>,
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
        self.shared.aborted.store(true, Ordering::SeqCst);
        let state = self.shared.state.lock_recover();
        let writers: Vec<Arc<Mutex<Box<dyn Conn>>>> = state
            .masters
            .values()
            .map(|l| Arc::clone(&l.writer))
            .collect();
        drop(state);
        for w in writers {
            w.lock_recover().shutdown();
        }
        self.shared.wake.notify_all();
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
        let tile_jobs: HashMap<u32, Vec<PairJob>> =
            tiles.iter().map(|t| (t.id, t.jobs(cfg.method))).collect();
        let remaining = tiles.len();
        let state = State {
            queues,
            orphans: VecDeque::new(),
            tile_jobs,
            granted: Ledger::new(cfg.heartbeat_timeout, cfg.tile_timeout),
            completed: HashSet::new(),
            results: Vec::new(),
            pending_credits: VecDeque::new(),
            masters: HashMap::new(),
            remaining,
            finished: remaining == 0,
        };
        ShardFrontend {
            listener,
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                wake: Condvar::new(),
                chains: chains.into_iter().map(Arc::new).collect(),
                stats: Arc::new(ShardStats::new()),
                cfg,
                next_master_id: AtomicU32::new(0),
                next_slot: AtomicU32::new(0),
                aborted: AtomicBool::new(false),
                stalled: AtomicBool::new(false),
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
            let mut fully = HashSet::new();
            let mut hit_total = 0usize;
            for t in tile_ids {
                let (hits, misses) = binding.split(&state.tile_jobs[&t]);
                if hits.is_empty() {
                    continue;
                }
                hit_total += hits.len();
                state.results.push(hits);
                if misses.is_empty() {
                    state.completed.insert(t);
                    state.remaining -= 1;
                    fully.insert(t);
                } else {
                    state.tile_jobs.insert(t, misses);
                }
            }
            for q in &mut state.queues {
                q.retain(|t| !fully.contains(t));
            }
            if state.remaining == 0 {
                state.finished = true;
            }
            self.shared.stats.on_store_pairs(hit_total);
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
    /// `Err(ErrorKind::Interrupted)` if aborted first.
    pub fn run(self) -> io::Result<ShardRun> {
        let monitor = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || monitor_masters(&shared))
        };
        let shared = Arc::clone(&self.shared);
        let handlers = dispatch::accept_until(
            &*self.listener,
            || {
                self.shared.state.lock_recover().finished
                    || self.shared.aborted.load(Ordering::SeqCst)
            },
            move |conn| serve_master(&shared, conn),
        )?;
        if monitor.join().is_err() {
            return Err(io::Error::other("shard monitor thread panicked"));
        }
        for h in handlers {
            let _ = h.join();
        }

        let mut state = self.shared.state.lock_recover();
        if !state.finished {
            if self.shared.stalled.load(Ordering::SeqCst) {
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
            binding.absorb(&outcomes, "[rck-shard]");
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
/// Tiles already completed (a requeued tile whose late original result
/// was accepted meanwhile) are skipped and dropped.
fn pick_tile(state: &mut State, slot: usize) -> Option<(u32, bool)> {
    while let Some(t) = state.queues[slot].pop_front() {
        if !state.completed.contains(&t) {
            return Some((t, false));
        }
    }
    while let Some(t) = state.orphans.pop_front() {
        if !state.completed.contains(&t) {
            return Some((t, false));
        }
    }
    loop {
        let victim = (0..state.queues.len())
            .filter(|&q| q != slot)
            .max_by_key(|&q| state.queues[q].len())?;
        let t = state.queues[victim].pop_back()?;
        if !state.completed.contains(&t) {
            return Some((t, true));
        }
    }
}

/// Answer one credit from `master_id` with a grant, a Shutdown (run
/// finished), or by parking the credit until a requeue frees work.
fn serve_credit(shared: &Shared, master_id: u32) {
    let mut state = shared.state.lock_recover();
    let Some(link) = state.masters.get(&master_id) else {
        return;
    };
    if !link.alive {
        return;
    }
    let slot = link.slot;
    let writer = Arc::clone(&link.writer);
    let resident = Arc::clone(&link.resident);
    if state.finished {
        drop(state);
        let _ = send(&writer, &Frame::Shutdown);
        return;
    }
    let Some((tile_id, stolen)) = pick_tile(&mut state, slot) else {
        state.pending_credits.push_back(master_id);
        return;
    };
    let jobs = state.tile_jobs.get(&tile_id).cloned().unwrap_or_default();
    state.granted.grant(tile_id, master_id, (), Instant::now());
    drop(state);
    shared.stats.on_tile_granted(stolen);
    let mut resident = resident.lock_recover();
    let chains = resident.delta(&jobs, |ix| shared.chains.get(ix as usize).cloned());
    let grant = Frame::TileGrant(TileGrant {
        tile_id,
        chains,
        jobs,
    });
    // Credits of one master are served from several threads, and a
    // grant's table assumes the previous one arrived.
    // rck-lint: allow(lock_across_io)
    let sent = send(&writer, &grant);
    drop(resident);
    if sent.is_err() {
        lose_master(shared, master_id);
    }
}

/// Serve parked credits while grantable work (or a finished run to
/// announce) exists. Called after every requeue event.
fn serve_pending(shared: &Shared) {
    loop {
        let mut state = shared.state.lock_recover();
        if state.pending_credits.is_empty() {
            return;
        }
        let has_work = state.finished
            || !state.orphans.is_empty()
            || state.queues.iter().any(|q| !q.is_empty());
        if !has_work {
            return;
        }
        let Some(master_id) = state.pending_credits.pop_front() else {
            return;
        };
        drop(state);
        serve_credit(shared, master_id);
    }
}

/// Accept or reject one tile result from `master_id`.
fn handle_result(shared: &Shared, master_id: u32, result: TileResult) {
    let TileResult { tile_id, outcomes } = result;
    let mut state = shared.state.lock_recover();
    if state.completed.contains(&tile_id) {
        // A steal race or a late answer to a re-granted tile: both
        // computed the identical pure function, so dropping is safe.
        shared.stats.on_duplicate_tile();
        return;
    }
    let Some(jobs) = state.tile_jobs.get(&tile_id) else {
        drop(state);
        shared.stats.on_mismatched_tile();
        lose_master(shared, master_id);
        return;
    };
    if !answers_exactly(jobs, &outcomes) {
        // Wrong job set answered — requeue the tile and drop the sender
        // (a master this confused cannot be trusted with more work).
        if state.granted.settle(&tile_id).is_some() {
            state.orphans.push_back(tile_id);
            shared.stats.on_tiles_requeued(1);
        }
        drop(state);
        shared.stats.on_mismatched_tile();
        lose_master(shared, master_id);
        serve_pending(shared);
        return;
    }
    let rtt = state
        .granted
        .settle(&tile_id)
        .map(|g| g.granted_at.elapsed().as_secs_f64());
    state.completed.insert(tile_id);
    let mut sorted = outcomes;
    sorted.sort_by_key(|o| (o.i, o.j));
    state.results.push(sorted);
    state.remaining -= 1;
    shared.stats.on_tile_completed(master_id, rtt);
    if state.remaining == 0 {
        state.finished = true;
        state.pending_credits.clear();
        let writers: Vec<Arc<Mutex<Box<dyn Conn>>>> = state
            .masters
            .values()
            .filter(|l| l.alive)
            .map(|l| Arc::clone(&l.writer))
            .collect();
        drop(state);
        shared.wake.notify_all();
        for w in writers {
            let _ = send(&w, &Frame::Shutdown);
        }
    }
}

/// Declare `master_id` dead: requeue its granted tiles to the orphan
/// pool, drain its ownership queue there too (a replacement master on
/// the same slot re-earns work through the pool), and shut its
/// connection so its handler's pending read unblocks. Idempotent.
fn lose_master(shared: &Shared, master_id: u32) {
    let mut state = shared.state.lock_recover();
    let Some(link) = state.masters.get_mut(&master_id) else {
        return;
    };
    if !link.alive {
        return;
    }
    link.alive = false;
    let slot = link.slot;
    let writer = Arc::clone(&link.writer);
    let its = state.granted.revoke_owner(master_id);
    state.orphans.extend(its.iter().map(|&(t, ())| t));
    let drained: Vec<u32> = state.queues[slot].drain(..).collect();
    state.orphans.extend(drained);
    state.pending_credits.retain(|&m| m != master_id);
    drop(state);
    if !its.is_empty() {
        shared.stats.on_tiles_requeued(its.len());
    }
    shared.stats.on_master_lost();
    writer.lock_recover().shutdown();
    serve_pending(shared);
}

/// Deadline monitor: declare silent masters dead, re-grant tiles whose
/// cap expired, and bound the run's liveness — a run with tiles
/// outstanding and no master connected (none ever arrived, or every one
/// died without a replacement) can make no progress, so past the stall
/// bound it is failed rather than left polling forever. Runs until the
/// run finishes, aborts, or stalls out.
fn monitor_masters(shared: &Shared) {
    let stall_limit = shared.cfg.effective_stall_timeout();
    let mut no_masters_since: Option<Instant> = None;
    dispatch::monitor_deadlines(
        &shared.state,
        &shared.wake,
        shared.cfg.heartbeat_timeout,
        |state| state.finished || shared.aborted.load(Ordering::SeqCst),
        |mut state, now| {
            let mut silent = Vec::new();
            let mut capped = 0;
            for (tile, master_id, expiry) in state.granted.expired(now) {
                match expiry {
                    Expiry::Silent => silent.push(master_id),
                    Expiry::Capped => {
                        state.granted.settle(&tile);
                        state.orphans.push_back(tile);
                        capped += 1;
                    }
                }
            }
            // Losing a master and serving parked credits write to
            // sockets: not under the state lock.
            drop(state);
            for id in silent {
                lose_master(shared, id);
            }
            if capped > 0 {
                shared.stats.on_tiles_requeued(capped);
                serve_pending(shared);
            }
            let state = shared.state.lock_recover();
            if state.finished || state.masters.values().any(|l| l.alive) {
                no_masters_since = None;
            } else if no_masters_since.get_or_insert(now).elapsed() > stall_limit {
                shared.stalled.store(true, Ordering::SeqCst);
                shared.aborted.store(true, Ordering::SeqCst);
            }
            state
        },
    );
}

/// Per-connection handler: handshake, then consume credits, results and
/// heartbeats until the run finishes or the master is lost.
fn serve_master(shared: &Shared, mut conn: Box<dyn Conn>) {
    // A master that never speaks must not pin this thread forever.
    let _ = conn.set_read_timeout(Some(shared.cfg.heartbeat_timeout * 2));
    let Some(master_id) = welcome_master(shared, &mut conn) else {
        conn.shutdown();
        return;
    };

    while let Ok((frame, _)) = proto::read_frame(&mut conn) {
        {
            let mut state = shared.state.lock_recover();
            state.granted.touch(master_id, Instant::now());
        }
        match frame {
            Frame::Heartbeat(_) => {}
            // The connection identifies the sender; the frame's own
            // master_id is informational.
            Frame::StealRequest(_) => serve_credit(shared, master_id),
            Frame::TileResult(result) => handle_result(shared, master_id, result),
            Frame::Shutdown => break,
            _ => break,
        }
        if shared.aborted.load(Ordering::SeqCst) {
            break;
        }
    }

    let finished = shared.state.lock_recover().finished;
    if !finished && !shared.aborted.load(Ordering::SeqCst) {
        lose_master(shared, master_id);
    }
    conn.shutdown();
}

/// Handshake with a connecting master and register its link; returns
/// the assigned master id.
fn welcome_master(shared: &Shared, conn: &mut Box<dyn Conn>) -> Option<u32> {
    // Decode errors are logged by the handshake; the frontend keeps no
    // wire counters of its own.
    let (welcome, name) = dispatch::handshake(
        "[rck-shard]",
        |_| {},
        conn,
        || Welcome {
            worker_id: shared.next_master_id.fetch_add(1, Ordering::Relaxed),
            n_chains: shared.chains.len() as u32,
        },
    )?;
    let master_id = welcome.worker_id;
    let slot =
        shared.next_slot.fetch_add(1, Ordering::Relaxed) as usize % shared.cfg.masters.max(1);
    let writer = Arc::new(Mutex::new(conn.try_clone().ok()?));
    let mut state = shared.state.lock_recover();
    state.masters.insert(
        master_id,
        MasterLink {
            writer,
            resident: Arc::default(),
            slot,
            alive: true,
        },
    );
    state.granted.touch(master_id, Instant::now());
    drop(state);
    shared.stats.on_master_connected(master_id, &name);
    Some(master_id)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state_with_queues(queues: Vec<Vec<u32>>) -> State {
        State {
            queues: queues.into_iter().map(VecDeque::from).collect(),
            orphans: VecDeque::new(),
            tile_jobs: HashMap::new(),
            granted: Ledger::new(Duration::from_secs(1), None),
            completed: HashSet::new(),
            results: Vec::new(),
            pending_credits: VecDeque::new(),
            masters: HashMap::new(),
            remaining: 0,
            finished: false,
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
        state.completed.insert(0);
        state.completed.insert(2);
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
