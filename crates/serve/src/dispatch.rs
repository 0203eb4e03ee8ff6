//! The one fault-tolerant dispatcher every tier is a policy over.
//!
//! The paper's `rckskel` writes the FARM dispatch/collect logic once and
//! lets applications plug jobs into it; this module is the service-side
//! equivalent. It owns the fault machinery exactly once:
//!
//! * [`Ledger`] — the in-flight table, with the single deadline rule
//!   `min(max(last_signal, granted_at) + heartbeat_timeout,
//!   granted_at + cap)`;
//! * [`handshake`] / [`hello`] — the Hello/Welcome/version exchange,
//!   server and client side;
//! * [`Session`] — the client half of a connection, the mirror of
//!   [`serve_worker`]: Hello, the shared write half, the parked heartbeat
//!   thread and its progress counter, byte accounting; the worker and the
//!   shard master are frame handlers over it;
//! * [`run`] — a tier's whole run: the deadline monitor, one accept loop
//!   over every [`Plane`] (a listener and its connection handler), and
//!   the join of both, under one halt ([`abort`]) and one [`drain`];
//! * [`serve_worker`] — the connection loop (handshake → fill the window
//!   → collect a result → accept or requeue → lose), generic over a
//!   [`WorkSource`] that supplies only policy; it cuts every chain table
//!   from the connection's [`Resident`] set and keeps a window of units
//!   on it.
//!
//! `serve::master` (batch and feed mode), `gate::pool` and the shard
//! frontend are the four [`WorkSource`] impls. They differ on the wire
//! only by [`Dialect`]: job batches under a window sized from measured
//! service, or tiles under a window the peer sizes with credits. Every
//! tier's units expire by the same rule and an expired unit costs its
//! owner the connection.
//!
//! Requeued work can race its original worker, so acceptance is guarded
//! three times: a result frame must answer a unit its connection still
//! holds in the ledger, its outcomes must answer exactly the jobs that
//! unit dispatched ([`answers_exactly`]; anything else requeues what the
//! worker holds and drops it), and the policy deduplicates per pair.

use crate::proto::{
    self, answers_exactly, ChainTable, Frame, FrameError, Heartbeat, Hello, JobBatch, Resident,
    ResultBatch, TileGrant, TileResult, Welcome, PROTOCOL_VERSION,
};
use crate::sync::MutexExt;
use crate::transport::{Conn, Listener};
use rck_pdb::model::CaChain;
use rckalign::{PairJob, PairOutcome};
use std::collections::HashMap;
use std::hash::Hash;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// One unit out on an owner.
#[derive(Debug)]
pub struct Granted<U> {
    /// What was handed out.
    pub unit: U,
    /// The worker (or shard master) holding it.
    pub owner: u32,
    /// When it was handed out.
    pub granted_at: Instant,
}

/// The in-flight table: which unit is out on which owner, and when each
/// stops being trusted.
///
/// A liveness signal extends every unit of its owner by one
/// `heartbeat_timeout`, but never past `granted_at + cap`: a heartbeat
/// proves the owner is alive, not that the unit is making progress.
/// Deadlines are derived on read, so [`Ledger::touch`] is O(1).
#[derive(Debug)]
pub struct Ledger<K, U> {
    heartbeat_timeout: Duration,
    cap: Option<Duration>,
    units: HashMap<K, Granted<U>>,
    last_signal: HashMap<u32, Instant>,
}

impl<K: Copy + Eq + Hash, U> Ledger<K, U> {
    /// An empty ledger under the given silence window and per-unit cap.
    pub fn new(heartbeat_timeout: Duration, cap: Option<Duration>) -> Ledger<K, U> {
        Ledger {
            heartbeat_timeout,
            cap,
            units: HashMap::new(),
            last_signal: HashMap::new(),
        }
    }

    /// Record `unit` as out on `owner` under `key`.
    pub fn grant(&mut self, key: K, owner: u32, unit: U, now: Instant) {
        self.units.insert(
            key,
            Granted {
                unit,
                owner,
                granted_at: now,
            },
        );
    }

    /// Record a liveness signal from `owner`; returns the gap since its
    /// previous one.
    pub fn touch(&mut self, owner: u32, now: Instant) -> Option<Duration> {
        self.last_signal
            .insert(owner, now)
            .map(|prev| now.duration_since(prev))
    }

    /// Take the unit `owner` holds under `key` out of flight. `None`
    /// means the key is stale for `owner`: already settled, revoked and
    /// requeued, or granted again to another owner since.
    pub fn settle(&mut self, key: &K, owner: u32) -> Option<Granted<U>> {
        match self.units.get(key) {
            Some(g) if g.owner == owner => self.units.remove(key),
            _ => None,
        }
    }

    /// Take every unit `owner` holds out of flight.
    pub fn revoke_owner(&mut self, owner: u32) -> Vec<(K, U)> {
        self.units
            .extract_if(|_, g| g.owner == owner)
            .map(|(key, g)| (key, g.unit))
            .collect()
    }

    /// Whether `owner` has a unit in flight.
    fn holds(&self, owner: u32) -> bool {
        self.units.values().any(|g| g.owner == owner)
    }

    /// Every unit past its deadline at `now`, with its owner: silent for
    /// a whole window, or past its cap however recent the last signal
    /// (its job or result traffic is being lost). The grant time floors
    /// the silence window, so a unit handed to a long-idle owner is not
    /// born expired.
    pub fn expired(&self, now: Instant) -> Vec<(K, u32)> {
        let past = |from: Instant, window: Duration| {
            from.checked_add(window)
                .is_some_and(|deadline| deadline <= now)
        };
        self.units
            .iter()
            .filter(|(_, g)| {
                let heard = self
                    .last_signal
                    .get(&g.owner)
                    .map_or(g.granted_at, |&t| t.max(g.granted_at));
                past(heard, self.heartbeat_timeout)
                    || self.cap.is_some_and(|cap| past(g.granted_at, cap))
            })
            .map(|(&key, g)| (key, g.owner))
            .collect()
    }

    /// Whether nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }
}

/// The dispatcher's own bookkeeping. A tier embeds it in its
/// mutex-guarded state so policy state and ledger sit under one lock:
/// one acquisition per dispatch and one per accept.
pub struct Dispatch<U> {
    /// Batches out on workers, keyed by batch id.
    ledger: Ledger<u64, U>,
    /// Write-half clones of the connections on every plane, by
    /// connection id, so the monitor and an abort can unblock a handler
    /// parked in a read.
    streams: HashMap<u32, Box<dyn Conn>>,
    next_batch_id: u64,
    next_conn_id: u32,
    /// Set by [`abort`]: dispatch nothing, wait for nothing.
    halted: bool,
    /// Set by [`drain`]: the tier's `idle` says what may still finish.
    draining: bool,
}

impl<U> Dispatch<U> {
    /// Fresh bookkeeping under the tier's silence window and batch cap.
    pub fn new(heartbeat_timeout: Duration, cap: Option<Duration>) -> Dispatch<U> {
        Dispatch {
            ledger: Ledger::new(heartbeat_timeout, cap),
            streams: HashMap::new(),
            next_batch_id: 0,
            next_conn_id: 0,
            halted: false,
            draining: false,
        }
    }

    /// Whether the run was aborted.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Whether the run was asked to drain.
    pub fn draining(&self) -> bool {
        self.draining
    }

    /// A fresh id for a connection that has just said a valid Hello.
    pub fn mint(&mut self) -> u32 {
        self.next_conn_id += 1;
        self.next_conn_id - 1
    }

    /// Hold a write-half clone of connection `id` so the monitor and an
    /// abort can reach it. A connection that arrives after an abort is
    /// shut at once.
    pub fn hold(&mut self, id: u32, conn: Box<dyn Conn>) {
        if self.halted {
            conn.shutdown();
        }
        self.streams.insert(id, conn);
    }

    /// Let go of connection `id` (its handler is leaving).
    pub fn release(&mut self, id: u32) {
        self.streams.remove(&id);
    }

    /// Connections past their handshake whose handler is still running.
    pub fn connected(&self) -> usize {
        self.streams.len()
    }
}

/// How a tier's units cross the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dialect {
    /// [`JobBatch`] out under a fresh batch id, [`ResultBatch`] back; the
    /// dispatcher sizes the window from measured service.
    Batches,
    /// [`TileGrant`] out under the unit's own id, [`TileResult`] back; the
    /// peer sizes the window — one `StealRequest` credit buys one grant.
    Tiles,
}

impl Dialect {
    /// The frame that hands `jobs` out under `key`.
    fn grant(self, key: u64, chains: ChainTable, jobs: Vec<PairJob>) -> Frame {
        match self {
            Dialect::Batches => Frame::JobBatch(JobBatch {
                batch_id: key,
                chains,
                jobs,
            }),
            // A tile's key is its u32 tile id (`WorkSource::key`).
            Dialect::Tiles => Frame::TileGrant(TileGrant {
                tile_id: key as u32,
                chains,
                jobs,
            }),
        }
    }

    /// The answer `frame` carries in this dialect, under its grant's key;
    /// `None` for any other frame.
    fn answer(self, frame: Frame) -> Option<ResultBatch> {
        match (self, frame) {
            (Dialect::Batches, Frame::ResultBatch(rb)) => Some(rb),
            (Dialect::Tiles, Frame::TileResult(TileResult { tile_id, outcomes })) => {
                Some(ResultBatch {
                    batch_id: tile_id.into(),
                    outcomes,
                })
            }
            _ => None,
        }
    }
}

/// What the dispatcher reports to a tier's stats.
#[derive(Debug, Clone, Copy)]
pub enum Event<'a> {
    /// Bytes written to a peer.
    Tx(usize),
    /// Bytes read from a peer.
    Rx(usize),
    /// Chains put into one dispatched batch's chain table.
    ChainsShipped(usize),
    /// A frame failed to decode (torn, corrupted, out of sync).
    DecodeError,
    /// A worker completed the handshake under this id and name.
    WorkerConnected(u32, &'a str),
    /// A worker holding work was declared dead.
    WorkerLost(u32),
    /// A result frame answered a batch id no longer in flight.
    StaleResult,
    /// A result frame did not answer its batch's jobs.
    MismatchedResult,
    /// Gap between two liveness signals of one worker.
    HeartbeatGap(Duration),
    /// A fed connection's window opened at, or changed to, this many
    /// batches.
    Window(usize),
}

/// Everything a tier supplies to [`serve_worker`]: where its state
/// lives, what to dispatch next, and what to do with answers. All
/// `state` arguments are the tier's state with its mutex already held.
pub trait WorkSource: Sync {
    /// Log prefix, e.g. `"[rck-serve]"`.
    const TAG: &'static str;
    /// The frames the tier's peers speak.
    const DIALECT: Dialect = Dialect::Batches;
    /// The tier's mutex-guarded state (embeds a [`Dispatch`]).
    type State;
    /// One dispatchable unit, viewable as the jobs it dispatches;
    /// cloned once per dispatch (the ledger keeps one).
    type Unit: Clone + AsRef<[PairJob]>;

    /// The tier's state mutex.
    fn state(&self) -> &Mutex<Self::State>;
    /// The condvar claimers and the monitor wait on.
    fn wake(&self) -> &Condvar;
    /// The dispatcher bookkeeping embedded in `state`.
    fn dispatch(state: &mut Self::State) -> &mut Dispatch<Self::Unit>;
    /// Silence window after which a worker is declared dead.
    fn heartbeat_timeout(&self) -> Duration;
    /// `n_chains` announced in the Welcome.
    fn n_chains(&self) -> u32;

    /// Nothing more will be dispatched; units in flight may still land.
    fn idle(&self, state: &Self::State) -> bool;
    /// The next unit to hand out on `worker_id`'s connection, or `None`
    /// to wait for one.
    fn next_unit(&self, state: &mut Self::State, worker_id: u32) -> Option<Self::Unit>;
    /// The key `unit` is granted and answered under, given the next
    /// unused batch id: that id, unless the unit brings its own.
    fn key(_unit: &Self::Unit, fresh: u64) -> u64 {
        fresh
    }
    /// The chain `unit`'s jobs reference under `ix` (called without the
    /// lock); one allocation ships to a connection once.
    fn chain(&self, unit: &Self::Unit, ix: u32) -> Option<Arc<CaChain>>;
    /// Accept outcomes that answer `unit` exactly (the policy dedups per
    /// pair). Returns whether waiters should be woken.
    fn accept(
        &self,
        state: &mut Self::State,
        worker_id: u32,
        unit: Self::Unit,
        outcomes: Vec<PairOutcome>,
        rtt: Duration,
    ) -> bool;
    /// Put a revoked or refused unit back at the front of its queue.
    fn requeue(&self, state: &mut Self::State, unit: Self::Unit);
    /// Count an [`Event`] in the tier's stats.
    fn observe(&self, event: Event<'_>);
}

/// Server side of Hello/Welcome: read the peer's Hello, check the
/// protocol version, answer with the Welcome `welcome` mints once the
/// Hello is valid. Returns the Welcome sent and the peer's name, or
/// `None` when the peer must be dropped.
pub fn handshake(
    tag: &str,
    observe: impl Fn(Event<'_>),
    conn: &mut Box<dyn Conn>,
    welcome: impl FnOnce() -> Welcome,
) -> Option<(Welcome, String)> {
    let frame = match proto::read_frame(conn) {
        Ok((frame, n)) => {
            observe(Event::Rx(n));
            frame
        }
        Err(e) => {
            if e.is_decode_error() {
                observe(Event::DecodeError);
                eprintln!("{tag} handshake decode error: {e}");
            }
            return None;
        }
    };
    let Frame::Hello(Hello {
        protocol_version,
        worker_name,
    }) = frame
    else {
        return None;
    };
    if protocol_version != PROTOCOL_VERSION {
        return None;
    }
    let welcome = welcome();
    let n = proto::write_frame(conn, &Frame::Welcome(welcome)).ok()?;
    observe(Event::Tx(n));
    Some((welcome, worker_name))
}

/// Client side of Hello/Welcome. Returns the Welcome plus the bytes
/// written and read.
pub fn hello(conn: &mut Box<dyn Conn>, name: &str) -> io::Result<(Welcome, usize, usize)> {
    let tx = proto::write_frame(
        conn,
        &Frame::Hello(Hello {
            protocol_version: PROTOCOL_VERSION,
            worker_name: name.to_string(),
        }),
    )?;
    match proto::read_frame(conn)? {
        (Frame::Welcome(welcome), rx) => Ok((welcome, tx, rx)),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "expected Welcome after Hello",
        )),
    }
}

/// What a [`Session`] shares with its heartbeat thread.
struct Link {
    writer: Mutex<Box<dyn Conn>>,
    progress: AtomicU64,
    bytes_tx: AtomicU64,
    bytes_rx: AtomicU64,
    silent: AtomicBool,
}

impl Link {
    fn send(&self, frame: &Frame) -> io::Result<()> {
        let mut w = self.writer.lock_recover();
        // The write half is shared between threads by design; frames must
        // not interleave mid-write.
        // rck-lint: allow(lock_across_io)
        let n = proto::write_frame(&mut *w, frame)?;
        self.bytes_tx.fetch_add(n as u64, Ordering::Relaxed);
        Ok(())
    }
}

/// The client half of a dispatcher connection: what a peer of
/// [`serve_worker`] (or of the shard frontend) owns besides its frame
/// handler. [`Session::open`] says Hello and starts a heartbeat thread
/// that reports the session's progress counter every `interval` over a
/// write half shared with [`Session::send`]. The thread is parked, not
/// asleep, so [`Session::close`] ends the session at once. Reads stay
/// with the caller's own handle of the connection.
pub struct Session {
    id: u32,
    link: Arc<Link>,
    heartbeat: JoinHandle<()>,
}

impl Session {
    /// Handshake as `name` over `conn` and start heartbeating.
    pub fn open(conn: &mut Box<dyn Conn>, name: &str, interval: Duration) -> io::Result<Session> {
        let (Welcome { worker_id: id, .. }, tx, rx) = hello(conn, name)?;
        let link = Arc::new(Link {
            writer: Mutex::new(conn.try_clone()?),
            progress: AtomicU64::new(0),
            bytes_tx: AtomicU64::new(tx as u64),
            bytes_rx: AtomicU64::new(rx as u64),
            silent: AtomicBool::new(false),
        });
        let heartbeat = {
            let link = Arc::clone(&link);
            std::thread::spawn(move || loop {
                std::thread::park_timeout(interval);
                if link.silent.load(Ordering::Relaxed) {
                    break;
                }
                let beat = Frame::Heartbeat(Heartbeat {
                    worker_id: id,
                    completed: link.progress.load(Ordering::Relaxed),
                });
                if link.send(&beat).is_err() {
                    break; // peer gone; the reader notices too
                }
            })
        };
        Ok(Session {
            id,
            link,
            heartbeat,
        })
    }

    /// The id the dispatcher assigned in its Welcome.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Write one frame on the shared write half.
    pub fn send(&self, frame: &Frame) -> io::Result<()> {
        self.link.send(frame)
    }

    /// Read the next frame from the caller's handle of the connection.
    pub fn read(&self, conn: &mut Box<dyn Conn>) -> Result<Frame, FrameError> {
        let (frame, n) = proto::read_frame(conn)?;
        self.link.bytes_rx.fetch_add(n as u64, Ordering::Relaxed);
        Ok(frame)
    }

    /// Add `n` to the progress the heartbeats report; returns the total.
    pub fn advance(&self, n: u64) -> u64 {
        self.link.progress.fetch_add(n, Ordering::Relaxed) + n
    }

    /// Units completed so far.
    pub fn progress(&self) -> u64 {
        self.link.progress.load(Ordering::Relaxed)
    }

    /// Stop heartbeating with the connection left open, so only the
    /// dispatcher's deadline rule can notice (the hang hook).
    pub fn go_silent(&self) {
        self.link.silent.store(true, Ordering::Relaxed);
        self.heartbeat.thread().unpark();
    }

    /// Tear the connection down from any thread; the caller's pending
    /// read returns (the crash hook).
    pub fn shutdown(&self) {
        self.link.writer.lock_recover().shutdown();
    }

    /// End the session: wake and join the heartbeat thread. Returns the
    /// bytes written and read over the session's life.
    pub fn close(self) -> (u64, u64) {
        self.go_silent();
        let _ = self.heartbeat.join();
        let (tx, rx) = (&self.link.bytes_tx, &self.link.bytes_rx);
        (tx.load(Ordering::Relaxed), rx.load(Ordering::Relaxed))
    }
}

/// Whether `src` is done: halted, or idle with nothing left in flight.
/// A run's accept loop and its monitor both run until this holds.
fn settled<S: WorkSource>(src: &S, state: &mut S::State) -> bool {
    let d = S::dispatch(state);
    let (halted, empty) = (d.halted, d.ledger.is_empty());
    halted || (src.idle(state) && empty)
}

/// Hard stop: dispatch nothing more, shut every connection on every
/// plane so each handler parked in a read returns (a worker's units are
/// requeued on the way out), and wake every waiter. Idempotent; safe
/// from any thread.
pub fn abort<S: WorkSource>(src: &S) {
    let mut state = src.state().lock_recover();
    let d = S::dispatch(&mut state);
    d.halted = true;
    for conn in d.streams.values() {
        conn.shutdown();
    }
    drop(state);
    src.wake().notify_all();
}

/// Graceful stop: the tier's `idle` decides what may still finish. The
/// flag is set under the state lock, so no waiter can check it and then
/// miss the notify. Idempotent; safe from any thread.
pub fn drain<S: WorkSource>(src: &S) {
    S::dispatch(&mut src.state().lock_recover()).draining = true;
    src.wake().notify_all();
}

/// A listener and the handler every connection it accepts runs.
pub struct Plane<'a, S> {
    /// Where the plane's connections arrive.
    pub listener: &'a dyn Listener,
    /// What each accepted connection runs, on a thread of its own.
    pub serve: fn(&S, Box<dyn Conn>),
}

impl<'a, S: WorkSource> Plane<'a, S> {
    /// The plane whose connections run [`serve_worker`].
    pub fn workers(listener: &'a dyn Listener) -> Plane<'a, S> {
        Plane {
            listener,
            serve: serve_worker::<S>,
        }
    }
}

/// A tier's whole run. Start the deadline monitor and accept on every
/// plane until the source is settled (halted, or idle with nothing in
/// flight) or the tier's own `done` holds, which aborts the run; then
/// wake every waiter, call `wind_down` and join the monitor and every
/// handler. An accept error is logged and the run keeps serving the
/// connections it has: it ends by its own rule. Fails only if the
/// monitor panicked.
pub fn run<S: WorkSource>(
    src: &S,
    planes: &[Plane<'_, S>],
    mut done: impl FnMut(&S::State) -> bool,
    wind_down: impl FnOnce(),
) -> io::Result<()> {
    std::thread::scope(|scope| {
        let monitor = scope.spawn(|| monitor_workers(src));
        let mut handlers = Vec::new();
        loop {
            let mut state = src.state().lock_recover();
            if settled(src, &mut state) {
                break;
            }
            if done(&state) {
                drop(state);
                abort(src);
                break;
            }
            drop(state);
            let mut quiet = true;
            for plane in planes {
                match plane.listener.poll_accept() {
                    Ok(Some(conn)) => {
                        let serve = plane.serve;
                        handlers.push(scope.spawn(move || serve(src, conn)));
                        quiet = false;
                    }
                    Ok(None) => {}
                    Err(e) => eprintln!("{} accept failed: {e}", S::TAG),
                }
            }
            if quiet {
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        src.wake().notify_all();
        wind_down();
        let monitor = monitor.join();
        for handler in handlers {
            let _ = handler.join();
        }
        monitor.map_err(|_| io::Error::other(format!("{} deadline monitor panicked", S::TAG)))
    })
}

/// The deadline monitor: requeue every unit of an owner with an expired
/// one and shut its connection so the handler's pending read returns,
/// until the source is settled. Between sweeps it waits on the source's
/// condvar for at most a quarter heartbeat window, so whoever finishes
/// or aborts the run and notifies it ends the monitor at once.
fn monitor_workers<S: WorkSource>(src: &S) {
    let tick = (src.heartbeat_timeout() / 4).max(Duration::from_millis(5));
    let mut state = src.state().lock_recover();
    loop {
        for (_, worker_id) in S::dispatch(&mut state).ledger.expired(Instant::now()) {
            // A second expired unit of the same worker finds nothing
            // left to requeue.
            if requeue_worker(src, &mut state, worker_id) {
                src.observe(Event::WorkerLost(worker_id));
                src.wake().notify_all();
            }
            if let Some(conn) = S::dispatch(&mut state).streams.get(&worker_id) {
                conn.shutdown();
            }
        }
        if settled(src, &mut state) {
            break;
        }
        state = src
            .wake()
            .wait_timeout(state, tick)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    }
    drop(state);
    src.wake().notify_all();
}

/// What became of one dispatched batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchFate {
    /// Result accepted; the ledger's grant time of the batch it settled.
    Accepted(Instant),
    /// The frame answered a batch id no longer in flight (a replay, or a
    /// requeue race); counted and dropped. Whatever this worker holds
    /// is still outstanding.
    Stale,
    /// Connection gone; in-flight work already requeued.
    Lost,
}

/// The window bounds: the measured service time one connection's queue
/// should span, and the most batches it may hold. Depth must cover
/// scheduling latency, not lane count: on `farm_rs119_rmsd` (≈ 6 µs of
/// compute per batch, ≈ 40 µs per thread hand-off) a fixed window of
/// 2 / 3 / 8 / 32 bought −11 / −26 / −43 / −49 % of `op_p25_ms`; `COVER`
/// of 250 µs – 1 ms measured alike (−44 to −47 %), 100 µs only −28 %.
const COVER: Duration = Duration::from_micros(500);
const CAP: usize = 32;

/// Batches a connection may hold: as many as span one [`COVER`] at its
/// measured `service` time per batch, at least one, at most [`CAP`]. A
/// peer that has answered nothing is not fed ahead, and batches of
/// `COVER` or longer (TM-align: ≈ 11 ms) go out one at a time — the
/// paper's dynamic FARM balance, grant for grant.
fn window(service: Option<Duration>) -> usize {
    let spans = |s: Duration| COVER.as_nanos().div_ceil(s.as_nanos().max(1));
    service.map_or(1, |s| spans(s).min(CAP as u128) as usize)
}

/// Per-connection handler: handshake, then dispatch/collect until the
/// source stops or the worker is lost.
pub fn serve_worker<S: WorkSource>(src: &S, mut conn: Box<dyn Conn>) {
    // A worker that never speaks must not pin this thread forever.
    let _ = conn.set_read_timeout(Some(src.heartbeat_timeout().saturating_mul(2)));
    let welcome = || Welcome {
        worker_id: S::dispatch(&mut src.state().lock_recover()).mint(),
        n_chains: src.n_chains(),
    };
    let greeted = handshake(S::TAG, |e| src.observe(e), &mut conn, welcome);
    let Some((Welcome { worker_id, .. }, name)) = greeted else {
        // The peer may be blocked mid-handshake on a frame that will
        // never come (e.g. its Hello was eaten by a fault plan) — tear
        // the connection down so it finds out.
        conn.shutdown();
        return;
    };
    src.observe(Event::WorkerConnected(worker_id, &name));
    // A credited peer opens its own window; a fed one starts at one.
    let credited = S::DIALECT == Dialect::Tiles;
    if !credited {
        src.observe(Event::Window(1));
    }
    if let Ok(clone) = conn.try_clone() {
        S::dispatch(&mut src.state().lock_recover()).hold(worker_id, clone);
    }
    // A new worker may satisfy a dispatch barrier.
    src.wake().notify_all();

    // Every path below that gives up on a unit ends the connection, so
    // what its worker holds never has to be revised.
    let mut resident = Resident::default();
    let (mut held, mut room) = (0, usize::from(!credited));
    let (mut service, mut last_accept) = (None::<Duration>, None::<Instant>);
    loop {
        // Fill the window; wait for work only while holding nothing.
        if held < room {
            if let Some((key, unit)) = claim(src, worker_id, held == 0) {
                let jobs = unit.as_ref().to_vec();
                let chains = resident.delta(&jobs, |ix| src.chain(&unit, ix));
                src.observe(Event::ChainsShipped(chains.len()));
                let frame = S::DIALECT.grant(key, chains, jobs);
                match proto::write_frame(&mut conn, &frame) {
                    Ok(n) => src.observe(Event::Tx(n)),
                    Err(_) => {
                        lose_worker(src, worker_id);
                        break;
                    }
                }
                held += 1;
                continue;
            }
            if held == 0 {
                // Source finished or stopping: orderly goodbye (best-effort
                // — the connection may already be gone).
                if let Ok(n) = proto::write_frame(&mut conn, &Frame::Shutdown) {
                    src.observe(Event::Tx(n));
                }
                break;
            }
        }
        let granted_at = match collect_result(src, &mut conn, worker_id) {
            Some(Heard::Accepted(granted_at)) => granted_at,
            Some(Heard::Credit) => {
                room += 1;
                continue;
            }
            None => break,
        };
        held -= 1;
        if credited {
            // The credit that bought the unit is spent; the peer's next
            // one reopens the room.
            room -= 1;
            continue;
        }
        // Service time, ¾ old + ¼ new: how long the batch had the worker to
        // itself — since its grant, or the last acceptance if it queued.
        let now = Instant::now();
        let since = last_accept.map_or(granted_at, |t| t.max(granted_at));
        let sample = now.saturating_duration_since(since);
        service = Some(service.map_or(sample, |s| (s * 3 + sample) / 4));
        last_accept = Some(now);
        let earned = window(service);
        if std::mem::replace(&mut room, earned) != earned {
            src.observe(Event::Window(earned));
        }
    }

    S::dispatch(&mut src.state().lock_recover()).release(worker_id);
    // Closing here (not just dropping our handle) guarantees the peer's
    // pending reads unblock even while other clones of this connection
    // are still alive elsewhere.
    conn.shutdown();
}

/// Claim the next unit for `worker_id` and enter it in the ledger, or
/// `None` once the source is halted or idle. While the policy has
/// nothing to hand out it blocks if `wait` (the connection holds
/// nothing) and returns `None` otherwise (results are due: go read).
pub fn claim<S: WorkSource>(src: &S, worker_id: u32, wait: bool) -> Option<(u64, S::Unit)> {
    let mut state = src.state().lock_recover();
    let unit = loop {
        // A connection that holds work the ledger no longer knows was
        // given up on by the monitor: it is fed nothing more.
        let d = S::dispatch(&mut state);
        let revoked = !wait && !d.ledger.holds(worker_id);
        if revoked || d.halted || src.idle(&state) {
            return None;
        }
        match src.next_unit(&mut state, worker_id) {
            Some(unit) => break unit,
            None if !wait => return None,
            None => {}
        }
        state = src
            .wake()
            .wait_timeout(state, Duration::from_millis(50))
            .unwrap_or_else(PoisonError::into_inner)
            .0;
    };
    let d = S::dispatch(&mut state);
    let key = S::key(&unit, d.next_batch_id);
    d.next_batch_id += 1;
    d.ledger.grant(key, worker_id, unit.clone(), Instant::now());
    Some((key, unit))
}

/// What [`collect_result`] heard before it returned.
enum Heard {
    /// A unit was answered and accepted; the ledger's grant time.
    Accepted(Instant),
    /// A credited peer made room for one more unit.
    Credit,
}

/// Read frames until one outstanding unit is answered or a credit
/// arrives (heartbeats refresh the deadlines along the way); `None` once
/// the worker is lost.
fn collect_result<S: WorkSource>(
    src: &S,
    conn: &mut Box<dyn Conn>,
    worker_id: u32,
) -> Option<Heard> {
    loop {
        match proto::read_frame(conn) {
            Ok((frame, n)) => {
                src.observe(Event::Rx(n));
                match frame {
                    Frame::Heartbeat(_) => refresh_deadlines(src, worker_id),
                    Frame::StealRequest(_) if S::DIALECT == Dialect::Tiles => {
                        refresh_deadlines(src, worker_id);
                        return Some(Heard::Credit);
                    }
                    frame => match S::DIALECT.answer(frame) {
                        Some(rb) => match accept_results(src, worker_id, rb) {
                            BatchFate::Accepted(granted_at) => {
                                return Some(Heard::Accepted(granted_at))
                            }
                            BatchFate::Stale => {}
                            BatchFate::Lost => return None,
                        },
                        // Anything else out of sequence: drop the worker.
                        None => break,
                    },
                }
            }
            Err(e) => {
                // Connection-level failures (EOF, reset, timeout) are the
                // expected way workers die; anything else means the byte
                // stream itself is bad — a torn frame, a checksum
                // mismatch, garbage where a header should be. Those are
                // counted and logged: a rising decode-error rate is a
                // wire-protocol bug, not worker churn.
                if e.is_decode_error() {
                    src.observe(Event::DecodeError);
                    eprintln!("{} worker {worker_id}: decode error: {e}", S::TAG);
                }
                break;
            }
        }
    }
    lose_worker(src, worker_id);
    None
}

/// A heartbeat: extend every deadline of `worker_id` (up to the cap).
fn refresh_deadlines<S: WorkSource>(src: &S, worker_id: u32) {
    let gap = {
        let mut state = src.state().lock_recover();
        S::dispatch(&mut state)
            .ledger
            .touch(worker_id, Instant::now())
    };
    if let Some(gap) = gap {
        src.observe(Event::HeartbeatGap(gap));
    }
}

/// Accept a result frame: only if its unit is still in flight on this
/// worker and only if its outcomes answer exactly the jobs that unit
/// dispatched; the policy then accepts each pair at most once.
pub fn accept_results<S: WorkSource>(src: &S, worker_id: u32, rb: ResultBatch) -> BatchFate {
    let now = Instant::now();
    let mut state = src.state().lock_recover();
    let ledger = &mut S::dispatch(&mut state).ledger;
    if let Some(gap) = ledger.touch(worker_id, now) {
        src.observe(Event::HeartbeatGap(gap));
    }
    let Some(batch) = ledger.settle(&rb.batch_id, worker_id) else {
        src.observe(Event::StaleResult);
        return BatchFate::Stale;
    };
    if !answers_exactly(batch.unit.as_ref(), &rb.outcomes) {
        // A structurally valid frame carrying the wrong jobs: a byzantine
        // or desynced worker. Its outcomes must never reach the result —
        // requeue the batch and all else it holds, and drop the connection.
        src.observe(Event::MismatchedResult);
        src.requeue(&mut state, batch.unit);
        requeue_worker(src, &mut state, worker_id);
        drop(state);
        eprintln!(
            "{} worker {worker_id}: result frame for batch {} does not answer its jobs",
            S::TAG,
            rb.batch_id
        );
        src.observe(Event::WorkerLost(worker_id));
        src.wake().notify_all();
        return BatchFate::Lost;
    }
    let rtt = now.duration_since(batch.granted_at);
    let wake = src.accept(&mut state, worker_id, batch.unit, rb.outcomes, rtt);
    drop(state);
    if wake {
        src.wake().notify_all();
    }
    BatchFate::Accepted(batch.granted_at)
}

/// Declare a worker dead: requeue its in-flight batches and wake anyone
/// waiting for work. Counted as lost only when it actually held work —
/// the monitor and the handler can both observe the same death, and
/// only the first to requeue scores it.
fn lose_worker<S: WorkSource>(src: &S, worker_id: u32) {
    let requeued = {
        let mut state = src.state().lock_recover();
        requeue_worker(src, &mut state, worker_id)
    };
    if requeued {
        src.observe(Event::WorkerLost(worker_id));
        src.wake().notify_all();
    }
}

/// Requeue every batch `worker_id` holds; returns whether it held any.
fn requeue_worker<S: WorkSource>(src: &S, state: &mut S::State, worker_id: u32) -> bool {
    let units = S::dispatch(state).ledger.revoke_owner(worker_id);
    let any = !units.is_empty();
    for (_, unit) in units {
        src.requeue(state, unit);
    }
    any
}

#[cfg(test)]
mod tests {
    use super::*;

    const HB: Duration = Duration::from_millis(100);
    const CAP: Duration = Duration::from_millis(250);

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn heartbeats_extend_a_unit_only_up_to_the_cap() {
        let t0 = Instant::now();
        let mut ledger: Ledger<u64, &str> = Ledger::new(HB, Some(CAP));
        ledger.grant(1, 7, "unit", t0);
        assert_eq!(ledger.expired(t0 + ms(99)), vec![]);
        assert_eq!(ledger.expired(t0 + ms(100)), vec![(1, 7)]);
        // A signal every 80 ms keeps it alive past the plain window ...
        for beat in [80, 160, 240] {
            ledger.touch(7, t0 + ms(beat));
        }
        assert_eq!(ledger.expired(t0 + ms(249)), vec![]);
        // ... but not past the cap, however recent the last signal.
        assert_eq!(ledger.expired(t0 + ms(250)), vec![(1, 7)]);
        // Without a cap the same signals would carry it to 340 ms.
        let mut uncapped: Ledger<u64, &str> = Ledger::new(HB, None);
        uncapped.grant(1, 7, "unit", t0);
        uncapped.touch(7, t0 + ms(240));
        assert_eq!(uncapped.expired(t0 + ms(339)), vec![]);
        assert_eq!(uncapped.expired(t0 + ms(340)), vec![(1, 7)]);
    }

    #[test]
    fn a_unit_granted_to_a_long_idle_owner_is_not_born_expired() {
        let t0 = Instant::now();
        let mut ledger: Ledger<u64, ()> = Ledger::new(HB, None);
        ledger.touch(3, t0);
        let later = t0 + Duration::from_secs(10);
        ledger.grant(1, 3, (), later);
        assert_eq!(ledger.expired(later), vec![]);
        assert_eq!(ledger.expired(later + ms(99)), vec![]);
        assert_eq!(ledger.expired(later + ms(100)), vec![(1, 3)]);
    }

    #[test]
    fn revoke_owner_returns_exactly_that_owners_units() {
        let t0 = Instant::now();
        let mut ledger: Ledger<u64, &str> = Ledger::new(HB, None);
        ledger.grant(1, 10, "a", t0);
        ledger.grant(2, 11, "b", t0);
        ledger.grant(3, 10, "c", t0);
        assert!(ledger.holds(10));
        let mut revoked = ledger.revoke_owner(10);
        revoked.sort_unstable();
        assert_eq!(revoked, vec![(1, "a"), (3, "c")]);
        assert!(!ledger.holds(10) && ledger.holds(11));
        assert_eq!(ledger.revoke_owner(10), vec![], "nothing left to revoke");
        assert!(!ledger.is_empty(), "the other owner's unit stays");
        assert_eq!(
            ledger.settle(&2, 11).map(|g| (g.owner, g.unit)),
            Some((11, "b"))
        );
        assert!(ledger.is_empty());
    }

    #[test]
    fn settling_an_unknown_key_reports_stale() {
        let t0 = Instant::now();
        let mut ledger: Ledger<u64, &str> = Ledger::new(HB, None);
        assert!(ledger.settle(&9, 1).is_none(), "never granted");
        ledger.grant(9, 1, "x", t0);
        assert!(ledger.settle(&9, 1).is_some());
        assert!(ledger.settle(&9, 1).is_none(), "already settled");
        ledger.grant(4, 1, "y", t0);
        ledger.revoke_owner(1);
        assert!(ledger.settle(&4, 1).is_none(), "revoked and requeued");
    }

    /// A tile keeps its key across re-grants, so a late answer from the
    /// owner it was revoked from must not settle the new owner's grant.
    #[test]
    fn a_key_granted_again_settles_only_for_its_new_owner() {
        let t0 = Instant::now();
        let mut ledger: Ledger<u64, &str> = Ledger::new(HB, None);
        ledger.grant(5, 1, "tile", t0);
        assert_eq!(ledger.revoke_owner(1), vec![(5, "tile")]);
        ledger.grant(5, 2, "tile", t0);
        assert!(ledger.settle(&5, 1).is_none(), "the revoked owner is stale");
        assert!(ledger.holds(2), "the new owner's grant stands");
        assert_eq!(ledger.settle(&5, 2).map(|g| g.owner), Some(2));
    }

    #[test]
    fn each_dialect_answers_only_its_own_result_frame() {
        let outcomes = Vec::new();
        let tile = Frame::TileResult(TileResult {
            tile_id: 7,
            outcomes: outcomes.clone(),
        });
        let batch = Frame::ResultBatch(ResultBatch {
            batch_id: 7,
            outcomes,
        });
        let keyed = |rb: Option<ResultBatch>| rb.map(|rb| rb.batch_id);
        assert_eq!(keyed(Dialect::Tiles.answer(tile.clone())), Some(7));
        assert_eq!(keyed(Dialect::Batches.answer(batch.clone())), Some(7));
        assert_eq!(keyed(Dialect::Batches.answer(tile)), None);
        assert_eq!(keyed(Dialect::Tiles.answer(batch)), None);
        assert!(matches!(
            Dialect::Tiles.grant(7, Vec::new(), Vec::new()),
            Frame::TileGrant(TileGrant { tile_id: 7, .. })
        ));
        assert!(matches!(
            Dialect::Batches.grant(7, Vec::new(), Vec::new()),
            Frame::JobBatch(JobBatch { batch_id: 7, .. })
        ));
    }

    /// The whole dispatch policy: no sample → 1; a batch that takes one
    /// `COVER` or longer → 1 (the coarse path, `farm_ck34_tm`'s ≈ 11 ms
    /// batches, dispatches exactly as stop-and-wait did); faster peers
    /// deepen monotonically up to `CAP`.
    #[test]
    fn the_window_spans_one_cover_of_measured_service() {
        let us = Duration::from_micros;
        assert_eq!(window(None), 1, "an unproven peer is not fed ahead");
        assert_eq!(window(Some(COVER)), 1);
        assert_eq!(window(Some(ms(11))), 1, "a TM-align batch");
        assert_eq!(window(Some(Duration::MAX)), 1);
        assert_eq!(window(Some(COVER - us(1))), 2);
        assert_eq!(window(Some(COVER / 4)), 4);
        assert_eq!(window(Some(us(1))), super::CAP);
        assert_eq!(window(Some(Duration::ZERO)), super::CAP);
        let mut previous = super::CAP;
        for service in 1..=COVER.as_micros() as u64 + 10 {
            let w = window(Some(us(service)));
            assert!((1..=previous).contains(&w), "{service} µs → {w}");
            previous = w;
        }
        assert_eq!(previous, 1);
    }

    #[test]
    fn touch_reports_the_gap_between_signals() {
        let t0 = Instant::now();
        let mut ledger: Ledger<u64, ()> = Ledger::new(HB, None);
        assert_eq!(ledger.touch(1, t0), None);
        assert_eq!(ledger.touch(1, t0 + ms(30)), Some(ms(30)));
        assert_eq!(ledger.touch(2, t0 + ms(40)), None, "per owner");
    }
}
