//! Pass 5: the batch-lifecycle model checker.
//!
//! The dispatcher's requeue/dedup logic promises an accounting identity
//! — every dispatched job is eventually counted exactly once as
//! completed, duplicate, or requeued — and the chaos harness asserts it
//! *per run*. This pass proves it *per reachable state*: a small
//! abstract model of the batch lifecycle (windowed dispatch to an owner,
//! result delivery in any order, duplicated late delivery, heartbeat,
//! timeout + requeue of everything the owner holds, abort) is
//! exhaustively enumerated and two invariants are checked in every
//! state:
//!
//! * **accounting** — `dispatched == completed + duplicates + requeued
//!   + jobs in flight`;
//! * **conservation** — every job is in exactly one of {queued,
//!   in-flight, done}, and no non-terminal, non-aborted state is stuck
//!   (empty queue, nothing in flight, jobs missing).
//!
//! The model's transition table is not hard-coded: each transition is
//! tied to an *anchor* — the function or stats handle that implements it —
//! either in the shared dispatcher core (`crates/serve/src/dispatch.rs`)
//! or in one of the [`POLICIES`] layered on it (the master's FIFO queue,
//! the gate's stride pick, the shard frontend's tile pick). The table is
//! extracted and the model explored once per policy, under that policy's
//! [`Window`], so every tier built on the dispatcher is covered by
//! construction. A missing anchor is a finding in itself,
//! *and* disables that behavior in the model, so the checker reproduces
//! the bug the drift would cause — delete the requeue accounting and the
//! model exhibits a stuck, unaccounted state.

use crate::lexer::{self, TokKind};
use crate::{Finding, Pass, Workspace};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The shared dispatcher core: ledger, deadlines, requeue, acceptance.
pub const DISPATCH_RS: &str = "crates/serve/src/dispatch.rs";

/// One `WorkSource` policy over the dispatcher core and the anchors that
/// witness its half of the transition table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Policy {
    /// Source file of the `WorkSource` impl.
    pub file: &'static str,
    /// Stats method or handle counting dispatched jobs.
    pub dispatched: &'static str,
    /// Stats handle counting duplicate outcomes, where the tier has one.
    pub duplicates: Option<&'static str>,
    /// Stats method or handle counting requeued jobs.
    pub requeued: &'static str,
    /// How many units one owner may hold.
    pub window: Window,
}

/// How many units the dispatcher lets one owner hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Window {
    /// Sized from measured service: one until the owner has answered,
    /// then deeper (the model lets a proven owner hold two).
    Measured,
    /// Sized by the owner's credits: a shard master keeps its prefetch
    /// outstanding whether or not it has answered.
    Credits(usize),
}

/// Every tier that plugs into the dispatcher's worker loop.
pub const POLICIES: &[Policy] = &[
    Policy {
        file: "crates/serve/src/master.rs",
        dispatched: "on_batch_dispatched",
        duplicates: Some("duplicate_results"),
        requeued: "on_batch_requeued",
        window: Window::Measured,
    },
    Policy {
        file: "crates/gate/src/pool.rs",
        dispatched: "on_jobs_dispatched",
        duplicates: None,
        requeued: "jobs_requeued",
        window: Window::Measured,
    },
    Policy {
        file: "crates/shard/src/frontend.rs",
        dispatched: "on_tile_granted",
        duplicates: Some("duplicate_tiles"),
        requeued: "tiles_requeued",
        window: Window::Credits(2),
    },
];

/// Behavioral flags, each witnessed by an anchor in the dispatcher core
/// or the policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionTable {
    /// Dispatch increments the dispatched counter
    /// (policy anchor: [`Policy::dispatched`]).
    pub dispatch_counts_jobs: bool,
    /// Results for retired batch ids are dropped, not accepted
    /// (core anchors: `settle`, `StaleResult`).
    pub accept_requires_inflight: bool,
    /// Accepted pairs are deduplicated against the done set
    /// (policy anchors: `done.insert`, [`Policy::duplicates`]).
    pub dedup_on_accept: bool,
    /// A timed-out batch goes back on the queue and is counted
    /// (core anchor: `requeue_worker`; policy anchor:
    /// [`Policy::requeued`]).
    pub timeout_requeues: bool,
    /// Heartbeats refresh the deadline (core anchor:
    /// `refresh_deadlines`).
    pub heartbeat_refreshes: bool,
    /// No new batches are dispatched after abort (core anchors: `abort`,
    /// `halted` — the halt is the dispatcher's, for every policy).
    pub abort_stops_dispatch: bool,
    /// How many batches one worker may hold (the policy's
    /// [`Policy::window`]; not an anchor).
    pub window: Window,
}

impl TransitionTable {
    /// The table the shipped master is supposed to implement.
    pub fn correct() -> TransitionTable {
        TransitionTable {
            dispatch_counts_jobs: true,
            accept_requires_inflight: true,
            dedup_on_accept: true,
            timeout_requeues: true,
            heartbeat_refreshes: true,
            abort_stops_dispatch: true,
            window: Window::Measured,
        }
    }
}

/// Statistics from an exhaustive run, printed in the report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelStats {
    /// Distinct reachable states.
    pub states: usize,
    /// Transitions taken during enumeration.
    pub transitions: usize,
}

/// Run the pass: per policy, extract the table from the dispatcher core
/// plus the policy file, then model-check it. The reported statistics
/// are summed over the policies.
pub fn check(ws: &Workspace) -> (Vec<Finding>, Option<ModelStats>) {
    let missing = |file: &str| {
        Finding::at(
            Pass::Model,
            file,
            0,
            "source missing — cannot extract the transition table".to_string(),
        )
    };
    let Some(core) = ws.read(DISPATCH_RS) else {
        return (vec![missing(DISPATCH_RS)], None);
    };
    let mut findings = Vec::new();
    let mut total = ModelStats {
        states: 0,
        transitions: 0,
    };
    for policy in POLICIES {
        let Some(src) = ws.read(policy.file) else {
            findings.push(missing(policy.file));
            continue;
        };
        let (table, anchors) = extract_table(&core, &src, policy);
        let (violations, stats) = explore(table, policy.file);
        findings.extend(anchors);
        findings.extend(violations);
        total.states += stats.states;
        total.transitions += stats.transitions;
    }
    findings.sort();
    findings.dedup();
    (findings, Some(total))
}

/// Non-test identifiers of `src`, plus whether it contains the exact
/// `done.insert(` call shape of the dedup site.
fn anchors_in(src: &str) -> (BTreeSet<String>, bool) {
    let lexed = lexer::lex(src);
    let idents = lexed
        .toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && !t.in_test)
        .map(|t| t.text.clone())
        .collect();
    let has_done_insert = lexed.toks.windows(4).any(|w| {
        !w[0].in_test
            && w[0].text == "done"
            && w[1].text == "."
            && w[2].text == "insert"
            && w[3].text == "("
    });
    (idents, has_done_insert)
}

/// Extract the transition table of `policy` from the dispatcher core
/// and the policy's source. Every absent anchor produces a finding
/// against the file that should hold it and clears its flag.
pub fn extract_table(
    core: &str,
    policy_src: &str,
    policy: &Policy,
) -> (TransitionTable, Vec<Finding>) {
    let (core_idents, _) = anchors_in(core);
    let (policy_idents, has_done_insert) = anchors_in(policy_src);
    let in_core = |anchor: &str| core_idents.contains(anchor);
    let in_policy = |anchor: &str| policy_idents.contains(anchor);

    let mut findings = Vec::new();
    // Each behavior lists its (file, anchor, present) witnesses.
    let mut witnessed = |why: &str, anchors: &[(&str, &str, bool)]| -> bool {
        for (file, anchor, _) in anchors.iter().filter(|(_, _, present)| !present) {
            findings.push(Finding::at(
                Pass::Model,
                *file,
                0,
                format!("transition-table anchor missing: `{anchor}` — {why}"),
            ));
        }
        anchors.iter().all(|(_, _, present)| *present)
    };

    let mut dedup = vec![(policy.file, "done.insert", has_done_insert)];
    if let Some(hook) = policy.duplicates {
        dedup.push((policy.file, hook, in_policy(hook)));
    }
    let table = TransitionTable {
        dispatch_counts_jobs: witnessed(
            "dispatched jobs would go uncounted",
            &[(policy.file, policy.dispatched, in_policy(policy.dispatched))],
        ),
        accept_requires_inflight: witnessed(
            "late results for retired batch ids would be accepted twice",
            &[
                (DISPATCH_RS, "settle", in_core("settle")),
                (DISPATCH_RS, "StaleResult", in_core("StaleResult")),
            ],
        ),
        dedup_on_accept: witnessed(
            "replayed pairs would be double-counted as completed",
            &dedup,
        ),
        timeout_requeues: witnessed(
            "a dead worker's batches would be lost and the run would hang",
            &[
                (DISPATCH_RS, "requeue_worker", in_core("requeue_worker")),
                (policy.file, policy.requeued, in_policy(policy.requeued)),
            ],
        ),
        heartbeat_refreshes: witnessed(
            "heartbeats would not keep a slow worker's batch alive",
            &[(
                DISPATCH_RS,
                "refresh_deadlines",
                in_core("refresh_deadlines"),
            )],
        ),
        abort_stops_dispatch: witnessed(
            "abort would not stop the dispatcher",
            &[
                (DISPATCH_RS, "abort", in_core("abort")),
                (DISPATCH_RS, "halted", in_core("halted")),
            ],
        ),
        window: policy.window,
    };
    (table, findings)
}

// ------------------------------------------------------------ the model

/// Three jobs in three seed batches over two workers — enough for one
/// worker to hold two batches, and so to exercise out-of-order answers,
/// a revocation of several batches at once, requeue races, duplicate
/// delivery, and abort while staying exhaustively small.
const ALL_JOBS: u8 = 0b111;
const SEED_BATCHES: [u8; 3] = [0b001, 0b010, 0b100];
const WORKERS: usize = 2;
/// Dispatch budget (in jobs) bounding requeue cycles.
const DISPATCH_CAP: u32 = 9;
/// Findings reported per invariant before summarizing.
const MAX_REPORTS: usize = 3;

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct State {
    queue: Vec<u8>,
    /// Batches out on workers, each with the worker that holds it.
    inflight: Vec<(u8, usize)>,
    /// Workers a result has been accepted from (under a measured
    /// window; a credited one never changes it).
    proven: [bool; WORKERS],
    /// Retired result frames that may still be delivered (late or
    /// duplicated). At most one pending ghost bounds the state space.
    ghosts: Vec<u8>,
    done: u8,
    /// Jobs actually handed out — model bookkeeping that enforces
    /// [`DISPATCH_CAP`] even when the table under test fails to count
    /// (the counter under test is `dispatched`, which may drift).
    handed_out: u32,
    dispatched: u32,
    completed: u32,
    duplicates: u32,
    requeued: u32,
    aborted: bool,
}

impl State {
    fn initial() -> State {
        State {
            queue: SEED_BATCHES.to_vec(),
            inflight: Vec::new(),
            proven: [false; WORKERS],
            ghosts: Vec::new(),
            done: 0,
            handed_out: 0,
            dispatched: 0,
            completed: 0,
            duplicates: 0,
            requeued: 0,
            aborted: false,
        }
    }

    fn jobs_inflight(&self) -> u32 {
        self.inflight.iter().map(|(b, _)| b.count_ones()).sum()
    }

    fn jobs_queued(&self) -> u8 {
        self.queue.iter().fold(0, |m, b| m | b)
    }

    fn held_by(&self, worker: usize) -> usize {
        self.inflight.iter().filter(|(_, w)| *w == worker).count()
    }

    /// How many batches `worker` may hold under `window`.
    fn window(&self, worker: usize, window: Window) -> usize {
        match window {
            Window::Measured => 1 + usize::from(self.proven[worker]),
            Window::Credits(n) => n,
        }
    }
}

/// Exhaustively explore the model under `table`, checking invariants in
/// every reachable state. Violations are reported against `file`.
pub fn explore(table: TransitionTable, file: &str) -> (Vec<Finding>, ModelStats) {
    let mut seen: BTreeSet<State> = BTreeSet::new();
    let mut frontier: VecDeque<State> = VecDeque::new();
    let mut violations: Vec<String> = Vec::new();
    let mut transitions = 0usize;

    let start = State::initial();
    seen.insert(start.clone());
    frontier.push_back(start);

    while let Some(s) = frontier.pop_front() {
        check_state(&s, &mut violations);
        for next in successors(&s, table, &mut violations) {
            transitions += 1;
            if seen.insert(next.clone()) {
                frontier.push_back(next);
            }
        }
    }

    violations.sort();
    violations.dedup();
    let findings = summarize(violations, file);
    (
        findings,
        ModelStats {
            states: seen.len(),
            transitions,
        },
    )
}

fn check_state(s: &State, violations: &mut Vec<String>) {
    let accounted = s.completed + s.duplicates + s.requeued + s.jobs_inflight();
    if s.dispatched != accounted {
        violations.push(format!(
            "accounting broken: dispatched={} but completed({}) + duplicates({}) + requeued({}) + in-flight({}) = {} [state: {}]",
            s.dispatched,
            s.completed,
            s.duplicates,
            s.requeued,
            s.jobs_inflight(),
            accounted,
            describe(s)
        ));
    }
    let queued = s.jobs_queued();
    let inflight = s.inflight.iter().fold(0u8, |m, (b, _)| m | b);
    let overlap = (queued & inflight) | (queued & s.done) | (inflight & s.done);
    let union = queued | inflight | s.done;
    if overlap != 0 || union != ALL_JOBS {
        violations.push(format!(
            "job conservation broken: queued={queued:03b} in-flight={inflight:03b} done={:03b} must partition {ALL_JOBS:03b} [state: {}]",
            s.done,
            describe(s)
        ));
    }
    if s.queue.is_empty() && s.inflight.is_empty() && s.done != ALL_JOBS && !s.aborted {
        violations.push(format!(
            "stuck state: queue and in-flight empty but jobs {:03b} never finished [state: {}]",
            ALL_JOBS & !s.done,
            describe(s)
        ));
    }
}

fn successors(s: &State, table: TransitionTable, violations: &mut Vec<String>) -> Vec<State> {
    let mut out = Vec::new();

    // Dispatch the batch at the head of the queue to a worker with room
    // in its window.
    if let Some(&batch) = s.queue.first() {
        let allowed = !s.aborted || !table.abort_stops_dispatch;
        if allowed && s.handed_out + batch.count_ones() <= DISPATCH_CAP {
            if s.aborted {
                violations.push(format!(
                    "dispatch after abort: batch {batch:03b} dispatched while aborted [state: {}]",
                    describe(s)
                ));
            }
            for worker in (0..WORKERS).filter(|&w| s.held_by(w) < s.window(w, table.window)) {
                let mut n = s.clone();
                n.queue.remove(0);
                n.inflight.push((batch, worker));
                n.inflight.sort_unstable();
                n.handed_out += batch.count_ones();
                if table.dispatch_counts_jobs {
                    n.dispatched += batch.count_ones();
                }
                out.push(n);
            }
        }
    }

    // A worker answers one of the batches it holds, in any order.
    for (k, &(batch, worker)) in s.inflight.iter().enumerate() {
        let mut n = s.clone();
        n.inflight.remove(k);
        n.proven[worker] = table.window == Window::Measured;
        accept(&mut n, batch, table.dedup_on_accept);
        if n.ghosts.is_empty() {
            // The network may replay this result frame later.
            n.ghosts.push(batch);
        }
        out.push(n.clone());
        n.ghosts.clear();
        out.push(n);
    }

    // A worker times out: everything it holds is revoked at once, and
    // whoever connects in its place has answered nothing.
    for worker in (0..WORKERS).filter(|&w| s.held_by(w) > 0) {
        let mut n = s.clone();
        n.proven[worker] = false;
        n.inflight.retain(|&(_, w)| w != worker);
        let revoked = s.inflight.iter().filter(|&&(_, w)| w == worker);
        for &(batch, _) in revoked.clone() {
            if table.timeout_requeues {
                n.queue.push(batch);
                n.requeued += batch.count_ones();
            }
        }
        if !n.ghosts.is_empty() {
            out.push(n);
            continue;
        }
        // The presumed-dead worker may still answer any one of them.
        for &(batch, _) in revoked {
            let mut n = n.clone();
            n.ghosts.push(batch);
            out.push(n);
        }
    }

    // A retired result frame arrives (late answer or duplicate).
    if let Some(&ghost) = s.ghosts.first() {
        let mut n = s.clone();
        n.ghosts.remove(0);
        if !table.accept_requires_inflight {
            accept(&mut n, ghost, table.dedup_on_accept);
        }
        out.push(n);
    }

    // Heartbeat: refreshes a deadline; accounting-neutral, so it is the
    // identity on the abstract state (anchor drift is caught in
    // `extract_table`, not here).
    let _ = table.heartbeat_refreshes;

    // Abort.
    if !s.aborted {
        let mut n = s.clone();
        n.aborted = true;
        out.push(n);
    }

    out
}

/// Result acceptance: per job, first completion counts, replays count
/// as duplicates (when dedup is on) or corrupt `completed` (when off).
fn accept(s: &mut State, batch: u8, dedup: bool) {
    for job in 0..3u8 {
        let bit = 1 << job;
        if batch & bit == 0 {
            continue;
        }
        if s.done & bit == 0 {
            s.done |= bit;
            s.completed += 1;
        } else if dedup {
            s.duplicates += 1;
        } else {
            s.completed += 1;
        }
    }
}

fn describe(s: &State) -> String {
    format!(
        "queue={:?} inflight={:?} proven={:?} ghosts={:?} done={:03b} aborted={}",
        s.queue, s.inflight, s.proven, s.ghosts, s.done, s.aborted
    )
}

fn summarize(violations: Vec<String>, file: &str) -> Vec<Finding> {
    // Cap per invariant class (the text before the first ':'), so a
    // flood of one violation kind cannot crowd the others out of the
    // report.
    let mut findings = Vec::new();
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    let mut extra: BTreeMap<String, usize> = BTreeMap::new();
    for v in violations {
        let class = v.split(':').next().unwrap_or("violation").to_string();
        let n = counts.entry(class.clone()).or_insert(0);
        *n += 1;
        if *n <= MAX_REPORTS {
            findings.push(Finding::at(Pass::Model, file, 0, v));
        } else {
            *extra.entry(class).or_insert(0) += 1;
        }
    }
    for (class, n) in extra {
        findings.push(Finding::at(
            Pass::Model,
            file,
            0,
            format!("... and {n} more `{class}` model violations"),
        ));
    }
    findings.sort();
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_table_has_no_violations() {
        let (findings, stats) = explore(TransitionTable::correct(), "x.rs");
        assert_eq!(findings, vec![], "{findings:?}");
        assert!(stats.states > 50, "model too small: {stats:?}");
    }

    #[test]
    fn exploration_is_deterministic() {
        let (f1, s1) = explore(TransitionTable::correct(), "x.rs");
        let (f2, s2) = explore(TransitionTable::correct(), "x.rs");
        assert_eq!(f1, f2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn missing_requeue_accounting_is_a_stuck_state() {
        let table = TransitionTable {
            timeout_requeues: false,
            ..TransitionTable::correct()
        };
        let (findings, _) = explore(table, "x.rs");
        assert!(
            findings.iter().any(|f| f.message.contains("stuck state")),
            "{findings:?}"
        );
        assert!(findings
            .iter()
            .any(|f| f.message.contains("conservation broken")));
    }

    #[test]
    fn uncounted_dispatch_breaks_accounting() {
        let table = TransitionTable {
            dispatch_counts_jobs: false,
            ..TransitionTable::correct()
        };
        let (findings, _) = explore(table, "x.rs");
        assert!(findings
            .iter()
            .any(|f| f.message.contains("accounting broken")));
    }

    #[test]
    fn accepting_stale_results_breaks_invariants() {
        let table = TransitionTable {
            accept_requires_inflight: false,
            ..TransitionTable::correct()
        };
        let (findings, _) = explore(table, "x.rs");
        assert!(!findings.is_empty(), "stale acceptance must be caught");
    }

    #[test]
    fn anchor_extraction_drives_the_table() {
        let core = "fn a() { ledger.settle(k); src.observe(Event::StaleResult); \
                    requeue_worker(src, st, id); refresh_deadlines(src, id); \
                    if d.halted {} } fn abort() { d.halted = true; }";
        let master = "fn b() { stats.on_batch_dispatched(n); work.done.insert(k); \
                      stats.duplicate_results.add(d); stats.on_batch_requeued(n); }";
        let (table, findings) = extract_table(core, master, &POLICIES[0]);
        assert_eq!(table, TransitionTable::correct());
        assert_eq!(findings, vec![]);

        // A drifted policy is blamed on the policy file ...
        let bad = master.replace("stats.on_batch_requeued(n);", "");
        let (table, findings) = extract_table(core, &bad, &POLICIES[0]);
        assert!(!table.timeout_requeues);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, POLICIES[0].file);
        assert!(findings[0].message.contains("on_batch_requeued"));

        // ... a drifted core on the dispatcher, for every policy.
        let bad = core.replace("requeue_worker(src, st, id);", "");
        let (table, findings) = extract_table(&bad, master, &POLICIES[0]);
        assert!(!table.timeout_requeues);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].file, DISPATCH_RS);

        // The halt is the dispatcher's alone: no policy can lose it, and
        // a core without it is blamed on `dispatch.rs` for every policy.
        let bad = core.replace("fn abort()", "fn stop()");
        for policy in POLICIES {
            let (table, findings) = extract_table(&bad, master, policy);
            assert!(!table.abort_stops_dispatch);
            assert!(findings
                .iter()
                .any(|f| f.file == DISPATCH_RS && f.message.contains("`abort`")));
        }

        // The gate policy has its own hook names and no duplicates hook.
        let gate = "fn c() { stats.on_jobs_dispatched(t, n); run.done.insert(k); \
                    stats.jobs_requeued.add(n); }";
        let (table, findings) = extract_table(core, gate, &POLICIES[1]);
        assert_eq!(table, TransitionTable::correct());
        assert_eq!(findings, vec![]);

        // The shard frontend's tiles are granted against credits.
        let shard = "fn d() { stats.on_tile_granted(s); state.done.insert(t); \
                     stats.duplicate_tiles.inc(); stats.tiles_requeued.inc(); }";
        let (table, findings) = extract_table(core, shard, &POLICIES[2]);
        let credited = TransitionTable {
            window: Window::Credits(2),
            ..TransitionTable::correct()
        };
        assert_eq!(table, credited);
        assert_eq!(findings, vec![]);
    }

    #[test]
    fn a_credited_window_explores_clean_and_holds_its_credits() {
        let credited = TransitionTable {
            window: Window::Credits(2),
            ..TransitionTable::correct()
        };
        let (findings, stats) = explore(credited, "x.rs");
        assert_eq!(findings, vec![], "{findings:?}");
        let (_, measured) = explore(TransitionTable::correct(), "x.rs");
        assert_ne!(stats, measured, "credits change what an owner may hold");
        // Without requeue accounting the credited lifecycle sticks too.
        let broken = TransitionTable {
            timeout_requeues: false,
            ..credited
        };
        let (findings, _) = explore(broken, "x.rs");
        assert!(findings.iter().any(|f| f.message.contains("stuck state")));
    }
}
