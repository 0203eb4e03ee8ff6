//! The discrete-event engine.
//!
//! Each simulated core runs its program on its own OS thread, but threads
//! take strict turns, and **ownership is the synchronisation**: the whole
//! scheduler state (`Sched` — clocks, statuses, barriers, resources,
//! links, memory controllers, trace) is a *baton*, one `Box` that exactly
//! one thread holds at a time. Only the holder runs, so only the holder
//! can touch the state, and it needs no lock to do so. Every inter-core
//! action (send, receive, barrier, memory or resource use) first *passes*
//! the baton to the *ready core with the smallest virtual time* (ties by
//! core id) so that actions execute in virtual-time order: if that core
//! is the holder itself it simply carries on; otherwise the baton goes
//! down that core's lane — one `std::sync::mpsc` channel per core — and
//! the holder sleeps on its own lane until the baton comes back. One
//! hand-off wakes exactly one thread. This makes the simulation fully
//! deterministic — independent of host thread scheduling — while letting
//! user programs be written as plain straight-line code (no hand-rolled
//! state machines).
//!
//! The next core is found by a scan over at most 48 entries, not a heap:
//! what the previous design (one mutex, one condvar shared by all cores)
//! paid for was wake-ups, not the scan. Replacing it with the baton and
//! nothing else took `check_claims` from 110 s wall / 90 s sys to
//! 36 s / 9 s on two hardware threads with every printed byte unchanged
//! (CHANGES.md, PR 22).
//!
//! A run that cannot continue — no ready core while some are blocked, or
//! a program that panics — sends `Wake::Abort` down every lane, so
//! every sleeping thread ends with the same message.
//!
//! Message passing is modelled after RCCE's one-sided MPB protocol:
//! a send and its matching receive rendezvous; the transfer is charged as
//! chunked MPB copies on both sides plus mesh-hop latency (see
//! [`crate::config::NocConfig`]). A core polling many partners
//! ([`CoreCtx::recv_any`]) pays a per-probe cost for every partner scanned
//! in round-robin order — the master-side overhead of the paper's FARM —
//! but the *engine* never busy-loops: wake-up times are computed directly,
//! so simulated seconds of polling cost nothing to simulate.

use crate::config::NocConfig;
use crate::stats::{CoreStats, SimReport};
use crate::time::{SimDuration, SimTime};
use crate::topology::CoreId;
use crate::trace::{TraceBuffer, TraceEvent, TraceKind};
use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;

/// A program to run on one simulated core.
pub type CoreProgram<'env> = Box<dyn FnOnce(&mut CoreCtx) + Send + 'env>;

/// Identifier of a contended shared resource (NFS disk, memory
/// controller, …). Resources are FCFS servers created on first use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceId(pub usize);

/// What a core is waiting for. The baton's holder is `Ready` too: nobody
/// else can look while it runs.
#[derive(Debug, Clone, PartialEq)]
enum Status {
    /// Runnable: holds the baton or wants it.
    Ready,
    /// Posted a send to `to`, waiting for the receiver.
    BlockedSend { to: usize },
    /// Waiting for a send from any of `from`.
    BlockedRecv { from: Vec<usize> },
    /// Waiting at a barrier.
    BlockedBarrier,
    /// Program finished.
    Done,
}

#[derive(Debug)]
struct CoreState {
    time: SimTime,
    status: Status,
    stats: CoreStats,
    /// Round-robin cursor for `recv_any` polling order.
    rr_cursor: usize,
    /// Message delivered while blocked in recv.
    inbox: Option<(usize, Vec<u8>)>,
    /// Payload held while blocked in send.
    outbox: Option<Vec<u8>>,
    /// Virtual time at which the current blocking op was posted.
    posted_at: SimTime,
}

impl CoreState {
    fn new(status: Status) -> CoreState {
        CoreState {
            time: SimTime::ZERO,
            status,
            stats: CoreStats::default(),
            rr_cursor: 0,
            inbox: None,
            outbox: None,
            posted_at: SimTime::ZERO,
        }
    }
}

#[derive(Debug, Default)]
struct BarrierState {
    arrived: Vec<usize>,
    max_time: SimTime,
}

/// The scheduler state — the baton. Whoever owns the `Box` is the one
/// thread running; everyone else is asleep on their lane.
struct Sched {
    cores: Vec<CoreState>,
    barriers: HashMap<Vec<usize>, BarrierState>,
    resources: Vec<SimTime>,
    /// Next-free time of each directed mesh link (only populated when
    /// link contention is modelled).
    links: HashMap<(usize, usize), SimTime>,
    /// Per-iMC next-free times (off-chip memory, FCFS per controller).
    memory_controllers: Vec<SimTime>,
    trace: Option<TraceBuffer>,
}

/// What arrives on a sleeping core's lane.
enum Wake {
    /// The baton: it is your turn.
    Run(Box<Sched>),
    /// The run failed elsewhere; panic with this message.
    Abort(String),
}

/// What every core thread shares: nothing that changes.
struct Shared {
    cfg: NocConfig,
    /// `lanes[i]` wakes core `i`.
    lanes: Vec<Sender<Wake>>,
}

impl Shared {
    /// Pass the baton to the ready core with the smallest `(time, id)` —
    /// the one place the next core is chosen. Returns the baton when it
    /// stays with the caller: `me` is that core, or every core is done.
    /// Panics the simulation on deadlock.
    fn hand_off(&self, s: Box<Sched>, me: Option<usize>) -> Option<Box<Sched>> {
        let next = s
            .cores
            .iter()
            .enumerate()
            .filter(|(_, c)| c.status == Status::Ready)
            .min_by_key(|(i, c)| (c.time, *i))
            .map(|(i, _)| i);
        match next {
            Some(i) if me == Some(i) => Some(s),
            Some(i) => {
                let sent = self.lanes[i].send(Wake::Run(s));
                assert!(sent.is_ok(), "ready core {} is not listening", CoreId(i));
                None
            }
            None if s.cores.iter().all(|c| c.status == Status::Done) => Some(s),
            None => {
                let stuck: Vec<String> = s
                    .cores
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.status != Status::Done)
                    .map(|(i, c)| format!("{}: {:?} @ {}", CoreId(i), c.status, c.time))
                    .collect();
                let msg = format!(
                    "simulation deadlock: no runnable core; blocked: [{}]",
                    stuck.join(", ")
                );
                self.abort_sleepers(&msg);
                panic!("{msg}");
            }
        }
    }

    /// End the run: every sleeping core panics with `msg`. (The lanes of
    /// cores that already finished are closed; that is not an error.)
    fn abort_sleepers(&self, msg: &str) {
        for lane in &self.lanes {
            let _ = lane.send(Wake::Abort(msg.to_string()));
        }
    }
}

/// Handle through which a core program interacts with the simulated chip.
pub struct CoreCtx {
    id: usize,
    shared: Arc<Shared>,
    /// Where the baton (or an abort) arrives while this core sleeps.
    lane: Receiver<Wake>,
    /// The baton: `Some` exactly while this core's thread is running.
    sched: Option<Box<Sched>>,
}

const HOLDER: &str = "a running core holds the baton";

impl CoreCtx {
    /// This core's id.
    pub fn id(&self) -> CoreId {
        CoreId(self.id)
    }

    /// Number of cores on the chip.
    pub fn core_count(&self) -> usize {
        self.shared.cfg.topology.core_count()
    }

    /// The chip configuration.
    pub fn config(&self) -> &NocConfig {
        &self.shared.cfg
    }

    /// Current virtual time of this core.
    pub fn now(&self) -> SimTime {
        self.sched.as_deref().expect(HOLDER).cores[self.id].time
    }

    /// Spend `dur` of virtual time computing.
    pub fn compute(&mut self, dur: SimDuration) {
        let c = &mut self.sched.as_deref_mut().expect(HOLDER).cores[self.id];
        c.time += dur;
        c.stats.busy += dur;
    }

    /// Spend the virtual time of `ops` kernel operations computing
    /// (converted through the chip's calibrated cost model).
    pub fn compute_ops(&mut self, ops: u64) {
        let dur = self.shared.cfg.ops_to_duration(ops);
        self.compute(dur);
    }

    /// Advance local time without counting it as busy (e.g. modelling a
    /// fixed environment-setup delay).
    pub fn advance_idle(&mut self, dur: SimDuration) {
        let c = &mut self.sched.as_deref_mut().expect(HOLDER).cores[self.id];
        c.time += dur;
        c.stats.idle += dur;
    }

    /// Take `status` and let the earliest ready core run; returns once
    /// this core holds the baton again — at once if it is still the
    /// earliest. All interaction ops call `pass(Status::Ready)` first so
    /// that they execute in virtual-time order, and `pass(Blocked…)` to
    /// wait for a partner, who makes this core `Ready` again.
    fn pass(&mut self, status: Status) {
        let mut s = self.sched.take().expect(HOLDER);
        s.cores[self.id].status = status;
        self.sched = self.shared.hand_off(s, Some(self.id));
        if self.sched.is_none() {
            self.sleep();
        }
    }

    /// Sleep on this core's lane until the baton arrives.
    fn sleep(&mut self) {
        match self.lane.recv().expect("the lanes outlive the cores") {
            Wake::Run(s) => self.sched = Some(s),
            Wake::Abort(msg) => panic!("{msg}"),
        }
    }

    /// Synchronous send, RCCE-style: blocks until the matching receive has
    /// happened and the data has been pushed through the MPB.
    pub fn send(&mut self, dst: CoreId, payload: Vec<u8>) {
        assert!(dst.0 < self.core_count(), "send to invalid core {dst}");
        assert_ne!(dst.0, self.id, "core {dst} cannot send to itself");
        self.pass(Status::Ready);
        let s = self.sched.as_deref_mut().expect(HOLDER);

        let receiver_matches = match &s.cores[dst.0].status {
            Status::BlockedRecv { from } => from.contains(&self.id),
            _ => false,
        };
        if receiver_matches {
            // We keep the baton; the receiver was made Ready and will
            // get it in time order.
            complete_transfer(&self.shared.cfg, s, self.id, dst.0, payload);
        } else {
            // Post the send and wait for a receiver to take it.
            let me = &mut s.cores[self.id];
            me.outbox = Some(payload);
            me.posted_at = me.time;
            self.pass(Status::BlockedSend { to: dst.0 });
        }
    }

    /// Receive the next message from a specific core.
    pub fn recv_from(&mut self, src: CoreId) -> Vec<u8> {
        self.recv_filtered(&[src.0]).1
    }

    /// Receive the next message from any of `srcs`, with round-robin
    /// polling accounting (the FARM master's collection loop). Returns the
    /// actual sender and the payload.
    pub fn recv_any(&mut self, srcs: &[CoreId]) -> (CoreId, Vec<u8>) {
        assert!(!srcs.is_empty(), "recv_any needs at least one source");
        let ids: Vec<usize> = srcs.iter().map(|c| c.0).collect();
        let (src, payload) = self.recv_filtered(&ids);
        (CoreId(src), payload)
    }

    fn recv_filtered(&mut self, srcs: &[usize]) -> (usize, Vec<u8>) {
        for &s in srcs {
            assert!(s < self.core_count(), "recv from invalid core {s}");
            assert_ne!(s, self.id, "core cannot receive from itself");
        }
        self.pass(Status::Ready);
        let s = self.sched.as_deref_mut().expect(HOLDER);

        // A sender may already be parked waiting for us. Pick the one that
        // posted earliest; break ties in round-robin order from the
        // cursor (this is what a polling master would find first).
        let rr = s.cores[self.id].rr_cursor;
        let candidate = srcs
            .iter()
            .enumerate()
            .filter(|&(_, &c)| {
                matches!(&s.cores[c].status, Status::BlockedSend { to } if *to == self.id)
            })
            .min_by_key(|&(pos, &c)| (s.cores[c].posted_at, rr_distance(pos, rr, srcs.len())))
            .map(|(_, &c)| c);

        match candidate {
            Some(sender) => {
                let payload = s.cores[sender].outbox.take().expect("sender holds payload");
                if srcs.len() > 1 {
                    charge_probes(&self.shared.cfg, s, self.id, srcs, sender);
                }
                complete_transfer(&self.shared.cfg, s, sender, self.id, payload);
                s.cores[self.id].inbox.take().expect("transfer delivered")
            }
            None => {
                let me = &mut s.cores[self.id];
                me.posted_at = me.time;
                self.pass(Status::BlockedRecv {
                    from: srcs.to_vec(),
                });
                let s = self.sched.as_deref_mut().expect(HOLDER);
                let sender = s.cores[self.id]
                    .inbox
                    .as_ref()
                    .map(|(src, _)| *src)
                    .expect("woken with a message");
                if srcs.len() > 1 {
                    charge_probes(&self.shared.cfg, s, self.id, srcs, sender);
                }
                s.cores[self.id].inbox.take().expect("just checked")
            }
        }
    }

    /// Barrier across `group` (which must include this core). All
    /// participants leave at the max arrival time plus the configured
    /// barrier cost.
    pub fn barrier(&mut self, group: &[CoreId]) {
        let mut key: Vec<usize> = group.iter().map(|c| c.0).collect();
        key.sort_unstable();
        key.dedup();
        assert!(key.contains(&self.id), "barrier group must include caller");
        if key.len() == 1 {
            return;
        }
        self.pass(Status::Ready);
        let s = self.sched.as_deref_mut().expect(HOLDER);
        let my_time = s.cores[self.id].time;
        let entry = s.barriers.entry(key.clone()).or_default();
        entry.arrived.push(self.id);
        entry.max_time = entry.max_time.max(my_time);
        if entry.arrived.len() == key.len() {
            // Last arrival releases everyone (and carries on itself).
            let done = s.barriers.remove(&key).expect("just inserted");
            let release = done.max_time + self.shared.cfg.cycles(self.shared.cfg.barrier_cycles);
            let group = done.arrived.len() as u32;
            for &c in &done.arrived {
                let core = &mut s.cores[c];
                core.stats.idle += release.since(core.time);
                core.time = release;
                core.status = Status::Ready;
            }
            if let Some(trace) = &mut s.trace {
                trace.push(TraceEvent {
                    at: release,
                    kind: TraceKind::Barrier { group },
                });
            }
        } else {
            self.pass(Status::BlockedBarrier);
        }
    }

    /// Read or write `len` bytes of off-chip memory through this core's
    /// quadrant memory controller (one of the SCC's four iMCs). Requests
    /// from cores of the same quadrant queue FCFS behind each other —
    /// concurrent loads contend, loads in different quadrants do not.
    pub fn read_memory(&mut self, len: usize) {
        let mc = self.shared.cfg.topology.memory_controller_of(self.id());
        let service = self.shared.cfg.dram_time(len);
        self.pass(Status::Ready);
        let s = self.sched.as_deref_mut().expect(HOLDER);
        let now = s.cores[self.id].time;
        let start = now.max(s.memory_controllers[mc]);
        let finish = start + service;
        s.memory_controllers[mc] = finish;
        let c = &mut s.cores[self.id];
        c.stats.idle += start.since(now);
        c.stats.comm += service;
        c.time = finish;
    }

    /// Use a shared FCFS resource for `service` time: wait until the
    /// resource is free, then occupy it. Models the MCPC's NFS disk
    /// controller and similar contended servers.
    pub fn use_resource(&mut self, res: ResourceId, service: SimDuration) {
        self.pass(Status::Ready);
        let s = self.sched.as_deref_mut().expect(HOLDER);
        if s.resources.len() <= res.0 {
            s.resources.resize(res.0 + 1, SimTime::ZERO);
        }
        let now = s.cores[self.id].time;
        let start = now.max(s.resources[res.0]);
        let finish = start + service;
        s.resources[res.0] = finish;
        let c = &mut s.cores[self.id];
        c.stats.idle += start.since(now);
        c.stats.busy += service;
        c.time = finish;
        if let Some(trace) = &mut s.trace {
            trace.push(TraceEvent {
                at: finish,
                kind: TraceKind::Resource {
                    id: res.0.min(u32::MAX as usize) as u32,
                    core: CoreId(self.id),
                },
            });
        }
    }
}

/// How many sources a receiver polling `n` sources round-robin from
/// cursor `rr` scans before it reaches position `pos`.
fn rr_distance(pos: usize, rr: usize, n: usize) -> usize {
    (pos + n - rr % n) % n
}

/// Charge the receiver for scanning `srcs` in round-robin order until it
/// hits `sender`, and advance its cursor past the match. Only multi-source
/// receives pay this: a single-source receive is a blocking flag wait, not
/// a polling loop.
fn charge_probes(cfg: &NocConfig, s: &mut Sched, me: usize, srcs: &[usize], sender: usize) {
    let pos = srcs.iter().position(|&x| x == sender).unwrap_or(0);
    let n = srcs.len();
    let c = &mut s.cores[me];
    let scanned = rr_distance(pos, c.rr_cursor, n) + 1;
    c.rr_cursor = (pos + 1) % n;
    c.stats.probes += scanned as u64;
    let cost = cfg.cycles(cfg.probe_cycles * scanned as u64);
    c.time += cost;
    c.stats.comm += cost;
}

/// Perform a matched transfer from `src` to `dst`, updating both cores'
/// clocks and stats. Both end `Ready`: one of them is the caller, the
/// other was parked and now waits for the baton.
fn complete_transfer(cfg: &NocConfig, s: &mut Sched, src: usize, dst: usize, payload: Vec<u8>) {
    let len = payload.len();
    let hops = cfg.topology.hops(CoreId(src), CoreId(dst));
    let copy = cfg.copy_time(len);
    let net = cfg.network_time(len, hops);

    let t_src = s.cores[src].time;
    let t_dst = s.cores[dst].time;
    let mut start = t_src.max(t_dst);

    // Optional congestion model: the message occupies every link on its
    // XY route for its serialisation time; it cannot start before all of
    // them are free.
    if cfg.link_contention && hops > 0 {
        let route = cfg.topology.xy_route(CoreId(src), CoreId(dst));
        let occupancy = cfg.link_time(len);
        for link in &route {
            if let Some(&free_at) = s.links.get(link) {
                start = start.max(free_at);
            }
        }
        let busy_until = start + occupancy;
        for link in route {
            s.links.insert(link, busy_until);
        }
    }

    // Whichever side arrived first sat idle until the rendezvous.
    let sender_finish = start + copy;
    let receiver_finish = start + copy + net + copy;

    {
        let sc = &mut s.cores[src];
        sc.stats.idle += start.since(t_src);
        sc.stats.comm += copy;
        sc.stats.msgs_sent += 1;
        sc.stats.bytes_sent += len as u64;
        sc.time = sender_finish;
        sc.status = Status::Ready;
    }
    {
        let dc = &mut s.cores[dst];
        dc.stats.idle += start.since(t_dst);
        dc.stats.comm += receiver_finish.since(start);
        dc.stats.msgs_recv += 1;
        dc.stats.bytes_recv += len as u64;
        dc.time = receiver_finish;
        dc.inbox = Some((src, payload));
        dc.status = Status::Ready;
    }
    if let Some(trace) = &mut s.trace {
        trace.push(TraceEvent {
            at: receiver_finish,
            kind: TraceKind::Message {
                src: CoreId(src),
                dst: CoreId(dst),
                bytes: len.min(u32::MAX as usize) as u32,
            },
        });
    }
}

/// The simulator entry point.
pub struct Simulator {
    cfg: NocConfig,
}

impl Simulator {
    /// Create a simulator for the given chip configuration.
    pub fn new(cfg: NocConfig) -> Simulator {
        Simulator { cfg }
    }

    /// Run one program per core (index = core id). Cores with `None` stay
    /// idle and finish immediately. Returns the timing report.
    ///
    /// # Panics
    /// Panics if more programs than cores are supplied, if the simulated
    /// programs deadlock, or if any program panics.
    pub fn run(&self, programs: Vec<Option<CoreProgram<'_>>>) -> SimReport {
        self.run_inner(programs, None).0
    }

    /// Like [`Simulator::run`], additionally recording up to
    /// `trace_capacity` completion events (message transfers, barrier
    /// releases, resource grants) for post-mortem analysis.
    pub fn run_traced(
        &self,
        programs: Vec<Option<CoreProgram<'_>>>,
        trace_capacity: usize,
    ) -> (SimReport, Vec<TraceEvent>) {
        let (report, trace) = self.run_inner(programs, Some(trace_capacity));
        (report, trace.expect("trace was requested").into_events())
    }

    fn run_inner(
        &self,
        mut programs: Vec<Option<CoreProgram<'_>>>,
        trace_capacity: Option<usize>,
    ) -> (SimReport, Option<TraceBuffer>) {
        let n = self.cfg.topology.core_count();
        assert!(
            programs.len() <= n,
            "{} programs for {} cores",
            programs.len(),
            n
        );
        programs.resize_with(n, || None);

        // Idle cores are Done from the start.
        let cores = programs.iter().map(|p| match p {
            Some(_) => CoreState::new(Status::Ready),
            None => CoreState::new(Status::Done),
        });
        let start = Box::new(Sched {
            cores: cores.collect(),
            barriers: HashMap::new(),
            resources: Vec::new(),
            links: HashMap::new(),
            memory_controllers: vec![SimTime::ZERO; crate::topology::Topology::MEMORY_CONTROLLERS],
            trace: trace_capacity.map(TraceBuffer::with_capacity),
        });
        let (lanes, sleepers): (Vec<_>, Vec<_>) = (0..n).map(|_| channel()).unzip();
        let shared = Arc::new(Shared {
            cfg: self.cfg.clone(),
            lanes,
        });

        let last = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (i, (program, lane)) in programs.into_iter().zip(sleepers).enumerate() {
                let Some(program) = program else { continue };
                let mut ctx = CoreCtx {
                    id: i,
                    shared: Arc::clone(&shared),
                    lane,
                    sched: None,
                };
                handles.push(scope.spawn(move || {
                    ctx.sleep(); // until the first turn
                    match catch_unwind(AssertUnwindSafe(|| program(&mut ctx))) {
                        // The last core to finish returns the baton.
                        Ok(()) => {
                            let mut s = ctx.sched.take().expect(HOLDER);
                            s.cores[i].status = Status::Done;
                            ctx.shared.hand_off(s, None)
                        }
                        Err(e) => {
                            // A panic of the program's own ends the others;
                            // an abort passing through holds no baton.
                            if ctx.sched.is_some() {
                                ctx.shared.abort_sleepers(&format!(
                                    "core {} panicked: {}",
                                    CoreId(i),
                                    panic_message(e.as_ref())
                                ));
                            }
                            resume_unwind(e)
                        }
                    }
                }));
            }
            // With nothing to run the baton comes straight back.
            let mut last = shared.hand_off(start, None);
            for h in handles {
                match h.join() {
                    Ok(returned) => last = last.or(returned),
                    Err(e) => resume_unwind(e),
                }
            }
            last
        });

        let mut s = last.expect("the last core to finish returns the baton");
        let makespan = s
            .cores
            .iter()
            .map(|c| c.time)
            .max()
            .unwrap_or(SimTime::ZERO);
        let report = SimReport {
            makespan,
            per_core: s.cores.iter().map(|c| c.stats).collect(),
        };
        (report, s.trace.take())
    }
}

fn panic_message(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic>".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NocConfig {
        NocConfig::scc()
    }

    fn ids(v: &[usize]) -> Vec<CoreId> {
        v.iter().map(|&i| CoreId(i)).collect()
    }

    /// Drive `run` on a thread of its own and wait at most 5 s for it to
    /// return or panic: a lost wake-up in a hand-off design hangs rather
    /// than fails. `Err` carries the panic message.
    fn within_5s(run: impl FnOnce() -> SimReport + Send + 'static) -> Result<SimReport, String> {
        let (tx, rx) = channel();
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(run));
            let _ = tx.send(outcome.map_err(|e| panic_message(e.as_ref())));
        });
        rx.recv_timeout(std::time::Duration::from_secs(5))
            .expect("the run neither returned nor failed within 5 s")
    }

    #[test]
    fn empty_run_finishes_instantly() {
        let report = Simulator::new(cfg()).run(vec![]);
        assert_eq!(report.makespan, SimTime::ZERO);
        assert_eq!(report.total_messages(), 0);
    }

    #[test]
    fn single_core_compute_time() {
        let c = cfg();
        let expect = c.ops_to_duration(1000);
        let report = Simulator::new(c).run(vec![Some(Box::new(|ctx: &mut CoreCtx| {
            ctx.compute_ops(1000);
        }))]);
        assert_eq!(report.makespan, SimTime::ZERO + expect);
        assert_eq!(report.per_core[0].busy, expect);
    }

    #[test]
    fn ping_pong_timing() {
        let c = cfg();
        let payload = vec![7u8; 100];
        let copy = c.copy_time(100);
        let net = c.network_time(100, c.topology.hops(CoreId(0), CoreId(1)));
        let expect_recv = SimTime::ZERO + copy + net + copy;
        let report = Simulator::new(c).run(vec![
            Some(Box::new({
                let payload = payload.clone();
                move |ctx: &mut CoreCtx| {
                    ctx.send(CoreId(1), payload);
                }
            })),
            Some(Box::new(move |ctx: &mut CoreCtx| {
                let msg = ctx.recv_from(CoreId(0));
                assert_eq!(msg, vec![7u8; 100]);
                assert_eq!(ctx.now(), expect_recv);
            })),
        ]);
        assert_eq!(report.per_core[0].msgs_sent, 1);
        assert_eq!(report.per_core[1].msgs_recv, 1);
        assert_eq!(report.per_core[1].bytes_recv, 100);
    }

    #[test]
    fn rendezvous_works_in_both_arrival_orders() {
        // Receiver first (sender computes), then sender first.
        for (sender_delay, receiver_delay) in [(5_000u64, 0u64), (0, 5_000)] {
            let report = Simulator::new(cfg()).run(vec![
                Some(Box::new(move |ctx: &mut CoreCtx| {
                    ctx.compute_ops(sender_delay);
                    ctx.send(CoreId(1), vec![1, 2, 3]);
                })),
                Some(Box::new(move |ctx: &mut CoreCtx| {
                    ctx.compute_ops(receiver_delay);
                    let m = ctx.recv_from(CoreId(0));
                    assert_eq!(m, vec![1, 2, 3]);
                })),
            ]);
            assert_eq!(report.total_messages(), 1);
        }
    }

    #[test]
    fn messages_from_same_sender_arrive_in_order() {
        let report = Simulator::new(cfg()).run(vec![
            Some(Box::new(|ctx: &mut CoreCtx| {
                for k in 0..10u8 {
                    ctx.send(CoreId(1), vec![k]);
                }
            })),
            Some(Box::new(|ctx: &mut CoreCtx| {
                for k in 0..10u8 {
                    let m = ctx.recv_from(CoreId(0));
                    assert_eq!(m, vec![k]);
                }
            })),
        ]);
        assert_eq!(report.total_messages(), 10);
    }

    #[test]
    fn recv_any_takes_earliest_poster() {
        // Core 2 posts its send earlier in virtual time than core 1.
        let report = Simulator::new(cfg()).run(vec![
            Some(Box::new(|ctx: &mut CoreCtx| {
                let (src1, m1) = ctx.recv_any(&ids(&[1, 2]));
                let (src2, m2) = ctx.recv_any(&ids(&[1, 2]));
                assert_eq!(src1, CoreId(2));
                assert_eq!(m1, vec![2]);
                assert_eq!(src2, CoreId(1));
                assert_eq!(m2, vec![1]);
            })),
            Some(Box::new(|ctx: &mut CoreCtx| {
                ctx.compute_ops(100_000); // arrives later
                ctx.send(CoreId(0), vec![1]);
            })),
            Some(Box::new(|ctx: &mut CoreCtx| {
                ctx.send(CoreId(0), vec![2]);
            })),
        ]);
        assert!(report.per_core[0].probes >= 2);
    }

    #[test]
    fn recv_any_round_robin_breaks_ties() {
        // Both senders post "at the same time" (no compute). The master
        // should alternate fairly thanks to the cursor.
        let seen = std::sync::Mutex::new(Vec::new());
        Simulator::new(cfg()).run(vec![
            Some(Box::new(|ctx: &mut CoreCtx| {
                for _ in 0..4 {
                    let (src, _) = ctx.recv_any(&ids(&[1, 2]));
                    seen.lock().unwrap().push(src.0);
                }
            })),
            Some(Box::new(|ctx: &mut CoreCtx| {
                for _ in 0..2 {
                    ctx.send(CoreId(0), vec![1]);
                }
            })),
            Some(Box::new(|ctx: &mut CoreCtx| {
                for _ in 0..2 {
                    ctx.send(CoreId(0), vec![2]);
                }
            })),
        ]);
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 4);
        assert!(seen.contains(&1) && seen.contains(&2));
    }

    #[test]
    fn recv_any_scans_round_robin_from_the_cursor_for_any_source_count() {
        // Three sources, so the source count does not divide 2^64. The
        // first receive leaves the cursor behind core 2; cores 1 and 2
        // then post at the same virtual time (they leave one barrier
        // together), and a master scanning on from the cursor wraps
        // around to core 1 first.
        let seen = std::sync::Mutex::new(Vec::new());
        Simulator::new(cfg()).run(vec![
            Some(Box::new(|ctx: &mut CoreCtx| {
                let srcs = ids(&[1, 2, 3]);
                seen.lock().unwrap().push(ctx.recv_any(&srcs).0 .0);
                ctx.compute_ops(50_000_000);
                seen.lock().unwrap().push(ctx.recv_any(&srcs).0 .0);
                seen.lock().unwrap().push(ctx.recv_any(&srcs).0 .0);
            })),
            Some(Box::new(|ctx: &mut CoreCtx| {
                ctx.barrier(&ids(&[1, 2]));
                ctx.send(CoreId(0), vec![1]);
            })),
            Some(Box::new(|ctx: &mut CoreCtx| {
                ctx.send(CoreId(0), vec![2]);
                ctx.barrier(&ids(&[1, 2]));
                ctx.send(CoreId(0), vec![2]);
            })),
            None,
        ]);
        assert_eq!(seen.into_inner().unwrap(), vec![2, 1, 2]);
    }

    #[test]
    fn barrier_synchronises_times() {
        let after = std::sync::Mutex::new(Vec::new());
        Simulator::new(cfg()).run(vec![
            Some(Box::new(|ctx: &mut CoreCtx| {
                ctx.compute_ops(10);
                ctx.barrier(&ids(&[0, 1, 2]));
                after.lock().unwrap().push(ctx.now());
            })),
            Some(Box::new(|ctx: &mut CoreCtx| {
                ctx.compute_ops(100_000);
                ctx.barrier(&ids(&[0, 1, 2]));
                after.lock().unwrap().push(ctx.now());
            })),
            Some(Box::new(|ctx: &mut CoreCtx| {
                ctx.barrier(&ids(&[0, 1, 2]));
                after.lock().unwrap().push(ctx.now());
            })),
        ]);
        let times = after.into_inner().unwrap();
        assert_eq!(times.len(), 3);
        assert!(times.windows(2).all(|w| w[0] == w[1]), "{times:?}");
    }

    #[test]
    fn singleton_barrier_is_noop() {
        let report = Simulator::new(cfg()).run(vec![Some(Box::new(|ctx: &mut CoreCtx| {
            ctx.barrier(&[CoreId(0)]);
        }))]);
        assert_eq!(report.makespan, SimTime::ZERO);
    }

    #[test]
    fn resource_contention_serialises() {
        let c = cfg();
        let service = SimDuration::from_secs_f64(1.0);
        let report = Simulator::new(c).run(vec![
            Some(Box::new(move |ctx: &mut CoreCtx| {
                ctx.use_resource(ResourceId(0), service);
            })),
            Some(Box::new(move |ctx: &mut CoreCtx| {
                ctx.use_resource(ResourceId(0), service);
            })),
            Some(Box::new(move |ctx: &mut CoreCtx| {
                ctx.use_resource(ResourceId(0), service);
            })),
        ]);
        // Three 1-second jobs on one FCFS server take 3 seconds.
        assert_eq!(report.makespan, SimTime::ZERO + service.saturating_mul(3));
    }

    #[test]
    fn independent_resources_run_in_parallel() {
        let service = SimDuration::from_secs_f64(1.0);
        let report = Simulator::new(cfg()).run(vec![
            Some(Box::new(move |ctx: &mut CoreCtx| {
                ctx.use_resource(ResourceId(0), service);
            })),
            Some(Box::new(move |ctx: &mut CoreCtx| {
                ctx.use_resource(ResourceId(1), service);
            })),
        ]);
        assert_eq!(report.makespan, SimTime::ZERO + service);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            Simulator::new(cfg()).run(vec![
                Some(Box::new(|ctx: &mut CoreCtx| {
                    let mut total = 0u64;
                    for _ in 0..5 {
                        let (src, m) = ctx.recv_any(&ids(&[1, 2, 3]));
                        total += m[0] as u64 + src.0 as u64;
                        ctx.compute_ops(123);
                    }
                    assert!(total > 0);
                })),
                Some(Box::new(|ctx: &mut CoreCtx| {
                    ctx.compute_ops(77);
                    ctx.send(CoreId(0), vec![1]);
                    ctx.send(CoreId(0), vec![2]);
                })),
                Some(Box::new(|ctx: &mut CoreCtx| {
                    ctx.compute_ops(200);
                    ctx.send(CoreId(0), vec![3]);
                })),
                Some(Box::new(|ctx: &mut CoreCtx| {
                    ctx.send(CoreId(0), vec![4]);
                    ctx.compute_ops(500);
                    ctx.send(CoreId(0), vec![5]);
                })),
            ])
        };
        let a = run();
        let b = run();
        assert_eq!(a.makespan, b.makespan);
        for (x, y) in a.per_core.iter().zip(&b.per_core) {
            assert_eq!(x, y);
        }
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected() {
        let _ = Simulator::new(cfg()).run(vec![
            Some(Box::new(|ctx: &mut CoreCtx| {
                let _ = ctx.recv_from(CoreId(1));
            })),
            Some(Box::new(|ctx: &mut CoreCtx| {
                let _ = ctx.recv_from(CoreId(0));
            })),
        ]);
    }

    // Every way a run can end, driven through `within_5s`. The first
    // three rows pass under the mutex-and-condvar engine this one
    // replaced as well; the fourth is the baton's keep-it path.

    #[test]
    #[should_panic(expected = "boom")]
    fn program_panic_propagates() {
        let outcome = within_5s(|| {
            Simulator::new(cfg()).run(vec![
                Some(Box::new(|_ctx: &mut CoreCtx| {
                    panic!("boom");
                })),
                Some(Box::new(|ctx: &mut CoreCtx| {
                    // Would wait forever if the panic were not propagated.
                    let _ = ctx.recv_from(CoreId(0));
                })),
            ])
        });
        panic!("{}", outcome.expect_err("core 0 panicked"));
    }

    #[test]
    fn program_panic_reaches_cores_parked_in_recv_any_and_at_a_barrier() {
        let outcome = within_5s(|| {
            Simulator::new(cfg()).run(vec![
                Some(Box::new(|ctx: &mut CoreCtx| {
                    let _ = ctx.recv_any(&ids(&[1, 2]));
                })),
                Some(Box::new(|ctx: &mut CoreCtx| {
                    ctx.barrier(&ids(&[1, 2]));
                })),
                Some(Box::new(|ctx: &mut CoreCtx| {
                    ctx.compute_ops(1_000);
                    panic!("boom");
                })),
            ])
        });
        // `run` ends with the lowest-numbered failing core's message:
        // core 0's, which was told who failed.
        assert_eq!(outcome.unwrap_err(), "core rck02 panicked: boom");
    }

    #[test]
    fn deadlock_report_names_every_blocked_core_and_no_finished_one() {
        let outcome = within_5s(|| {
            Simulator::new(cfg()).run(vec![
                Some(Box::new(|ctx: &mut CoreCtx| {
                    let _ = ctx.recv_from(CoreId(1));
                })),
                Some(Box::new(|ctx: &mut CoreCtx| {
                    ctx.send(CoreId(2), vec![1]);
                })),
                Some(Box::new(|ctx: &mut CoreCtx| {
                    ctx.barrier(&ids(&[2, 4]));
                })),
                Some(Box::new(|ctx: &mut CoreCtx| {
                    ctx.compute_ops(1_000_000); // the last to run
                })),
            ])
        });
        let msg = outcome.unwrap_err();
        assert!(msg.starts_with("simulation deadlock: no runnable core; blocked: ["));
        for blocked in [
            "rck00: BlockedRecv { from: [1] } @ ",
            "rck01: BlockedSend { to: 2 } @ ",
            "rck02: BlockedBarrier @ ",
        ] {
            assert!(msg.contains(blocked), "{msg}");
        }
        assert!(!msg.contains("rck03") && !msg.contains("rck04"), "{msg}");
    }

    #[test]
    fn runs_return_whichever_core_finishes_last() {
        // The last finisher is core 2, behind an idle core.
        let c = cfg();
        let long = c.ops_to_duration(1_000_000);
        let report = within_5s(|| {
            Simulator::new(cfg()).run(vec![
                Some(Box::new(|ctx: &mut CoreCtx| ctx.compute_ops(10))),
                None,
                Some(Box::new(|ctx: &mut CoreCtx| {
                    let _ = ctx.recv_from(CoreId(4));
                    ctx.compute_ops(1_000_000);
                })),
                None,
                Some(Box::new(|ctx: &mut CoreCtx| ctx.send(CoreId(2), vec![]))),
            ])
        })
        .unwrap();
        assert_eq!(report.per_core.len(), c.topology.core_count());
        assert_eq!(report.per_core[2].busy, long);
        assert_eq!(report.per_core[1], CoreStats::default());
        assert!(report.makespan > SimTime::ZERO + long);
        assert_eq!(report.total_messages(), 1);

        let empty = within_5s(|| Simulator::new(cfg()).run(vec![])).unwrap();
        assert_eq!(empty.makespan, SimTime::ZERO);
        assert_eq!(empty.per_core.len(), c.topology.core_count());
    }

    #[test]
    fn a_core_that_stays_the_earliest_keeps_running() {
        // 47 cores wait in a barrier; core 0 is the only ready core for
        // 10 000 operations in a row, then releases them.
        let service = SimDuration(1_000);
        let report = within_5s(move || {
            let everyone = ids(&(0..48).collect::<Vec<_>>());
            let programs = (0..48)
                .map(|i| {
                    let everyone = everyone.clone();
                    Some(Box::new(move |ctx: &mut CoreCtx| {
                        if i == 0 {
                            for _ in 0..10_000 {
                                ctx.use_resource(ResourceId(0), service);
                            }
                        }
                        ctx.barrier(&everyone);
                    }) as CoreProgram)
                })
                .collect();
            Simulator::new(cfg()).run(programs)
        })
        .unwrap();
        assert_eq!(report.per_core[0].busy, service.saturating_mul(10_000));
        assert_eq!(
            report.per_core[47].idle,
            report.makespan.since(SimTime::ZERO)
        );
    }

    #[test]
    fn farm_pattern_distributes_all_jobs() {
        // Minimal master-slaves round: master sends one job to each slave,
        // collects one result from each.
        let n_slaves = 5usize;
        let slaves: Vec<usize> = (1..=n_slaves).collect();
        let results = std::sync::Mutex::new(Vec::new());
        let report = {
            let mut programs: Vec<Option<CoreProgram>> = Vec::new();
            let slaves2 = slaves.clone();
            let results = &results;
            programs.push(Some(Box::new(move |ctx: &mut CoreCtx| {
                for &sl in &slaves2 {
                    ctx.send(CoreId(sl), vec![sl as u8]);
                }
                for _ in 0..n_slaves {
                    let (src, m) = ctx.recv_any(&ids(&slaves2));
                    results.lock().unwrap().push((src.0, m[0]));
                }
            })));
            for _ in 0..n_slaves {
                programs.push(Some(Box::new(move |ctx: &mut CoreCtx| {
                    let m = ctx.recv_from(CoreId(0));
                    ctx.compute_ops(m[0] as u64 * 1000);
                    ctx.send(CoreId(0), vec![m[0] * 2]);
                })));
            }
            Simulator::new(cfg()).run(programs)
        };
        let mut results = results.into_inner().unwrap();
        results.sort_unstable();
        assert_eq!(results.len(), n_slaves);
        for (i, (src, val)) in results.iter().enumerate() {
            assert_eq!(*src, i + 1);
            assert_eq!(*val as usize, (i + 1) * 2);
        }
        assert_eq!(report.total_messages(), 2 * n_slaves as u64);
    }

    #[test]
    fn idle_time_accounted_for_late_sender() {
        let c = cfg();
        let wait = c.ops_to_duration(1_000_000);
        let report = Simulator::new(c).run(vec![
            Some(Box::new(|ctx: &mut CoreCtx| {
                ctx.compute_ops(1_000_000);
                ctx.send(CoreId(1), vec![0]);
            })),
            Some(Box::new(|ctx: &mut CoreCtx| {
                let _ = ctx.recv_from(CoreId(0));
            })),
        ]);
        // Receiver idled for (at least) the sender's compute time.
        assert!(report.per_core[1].idle >= wait);
    }

    #[test]
    fn run_traced_records_messages() {
        let (report, trace) = Simulator::new(cfg()).run_traced(
            vec![
                Some(Box::new(|ctx: &mut CoreCtx| {
                    ctx.send(CoreId(1), vec![1, 2, 3]);
                    ctx.barrier(&[CoreId(0), CoreId(1)]);
                })),
                Some(Box::new(|ctx: &mut CoreCtx| {
                    let _ = ctx.recv_from(CoreId(0));
                    ctx.use_resource(ResourceId(3), SimDuration::from_secs_f64(0.5));
                    ctx.barrier(&[CoreId(0), CoreId(1)]);
                })),
            ],
            100,
        );
        assert_eq!(report.total_messages(), 1);
        let kinds: Vec<_> = trace.iter().map(|e| e.kind).collect();
        assert!(kinds.iter().any(|k| matches!(
            k,
            crate::trace::TraceKind::Message {
                src: CoreId(0),
                dst: CoreId(1),
                bytes: 3
            }
        )));
        assert!(kinds.iter().any(|k| matches!(
            k,
            crate::trace::TraceKind::Resource {
                id: 3,
                core: CoreId(1)
            }
        )));
        assert!(kinds
            .iter()
            .any(|k| matches!(k, crate::trace::TraceKind::Barrier { group: 2 })));
        // Trace is ordered by completion time.
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
    }

    #[test]
    fn trace_capacity_is_respected() {
        let (_, trace) = Simulator::new(cfg()).run_traced(
            vec![
                Some(Box::new(|ctx: &mut CoreCtx| {
                    for _ in 0..10 {
                        ctx.send(CoreId(1), vec![0]);
                    }
                })),
                Some(Box::new(|ctx: &mut CoreCtx| {
                    for _ in 0..10 {
                        let _ = ctx.recv_from(CoreId(0));
                    }
                })),
            ],
            4,
        );
        assert_eq!(trace.len(), 4);
    }

    #[test]
    fn link_contention_serialises_shared_links() {
        // Two large same-direction transfers share the (0,0)→(1,0) link:
        // with contention on, the second must wait out the first's
        // serialisation time.
        let mut c = cfg();
        c.link_contention = true;
        let len = 1_000_000usize;
        let run = |c: NocConfig| {
            Simulator::new(c).run(vec![
                Some(Box::new(move |ctx: &mut CoreCtx| {
                    ctx.send(CoreId(4), vec![0u8; len]); // tile 0 → tile 2
                }) as CoreProgram),
                Some(Box::new(move |ctx: &mut CoreCtx| {
                    ctx.send(CoreId(5), vec![0u8; len]); // tile 0 → tile 2
                })),
                None,
                None,
                Some(Box::new(move |ctx: &mut CoreCtx| {
                    let _ = ctx.recv_from(CoreId(0));
                })),
                Some(Box::new(move |ctx: &mut CoreCtx| {
                    let _ = ctx.recv_from(CoreId(1));
                })),
            ])
        };
        let contended = run(c).makespan;
        let free = run(cfg()).makespan;
        assert!(
            contended > free,
            "contended {contended} should exceed contention-free {free}"
        );
        // The gap is at least one link-serialisation time.
        let one_link = cfg().link_time(len);
        assert!(contended.since(free) >= SimDuration(one_link.0 / 2));
    }

    #[test]
    fn link_contention_leaves_disjoint_routes_alone() {
        // Transfers on opposite mesh rows share no links: contention
        // modelling must not slow them down.
        let mut c = cfg();
        c.link_contention = true;
        let len = 500_000usize;
        let run = |c: NocConfig| {
            let mut programs: Vec<Option<CoreProgram>> = (0..48).map(|_| None).collect();
            programs[0] = Some(Box::new(move |ctx: &mut CoreCtx| {
                ctx.send(CoreId(4), vec![0u8; len]); // row 0 eastwards
            }));
            programs[4] = Some(Box::new(move |ctx: &mut CoreCtx| {
                let _ = ctx.recv_from(CoreId(0));
            }));
            programs[36] = Some(Box::new(move |ctx: &mut CoreCtx| {
                ctx.send(CoreId(40), vec![0u8; len]); // row 3 eastwards
            }));
            programs[40] = Some(Box::new(move |ctx: &mut CoreCtx| {
                let _ = ctx.recv_from(CoreId(36));
            }));
            Simulator::new(c).run(programs)
        };
        assert_eq!(run(c).makespan, run(cfg()).makespan);
    }

    #[test]
    fn memory_controllers_serialise_within_a_quadrant() {
        // Cores 0 and 2 share quadrant 0 of the SCC: their loads queue.
        let c = cfg();
        let service = c.dram_time(1_000_000);
        let report = Simulator::new(c).run(vec![
            Some(Box::new(move |ctx: &mut CoreCtx| {
                ctx.read_memory(1_000_000);
            })),
            None,
            Some(Box::new(move |ctx: &mut CoreCtx| {
                ctx.read_memory(1_000_000);
            })),
        ]);
        assert_eq!(
            report.makespan,
            SimTime::ZERO + service + service,
            "same-quadrant loads must queue"
        );
    }

    #[test]
    fn memory_controllers_parallel_across_quadrants() {
        // Core 0 (quadrant 0) and core 47 (quadrant 3) load concurrently.
        let c = cfg();
        let service = c.dram_time(1_000_000);
        let mut programs: Vec<Option<CoreProgram>> = (0..48).map(|_| None).collect();
        programs[0] = Some(Box::new(move |ctx: &mut CoreCtx| {
            ctx.read_memory(1_000_000);
        }));
        programs[47] = Some(Box::new(move |ctx: &mut CoreCtx| {
            ctx.read_memory(1_000_000);
        }));
        let report = Simulator::new(c).run(programs);
        assert_eq!(report.makespan, SimTime::ZERO + service);
    }

    #[test]
    #[should_panic(expected = "cannot send to itself")]
    fn self_send_rejected() {
        let _ = Simulator::new(cfg()).run(vec![Some(Box::new(|ctx: &mut CoreCtx| {
            ctx.send(CoreId(0), vec![]);
        }))]);
    }
}
