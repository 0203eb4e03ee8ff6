//! Every schedule of a small batch lifecycle, run on the real dispatcher
//! (DESIGN.md §16).
//!
//! Where [`crate::chaos`] drives whole runs through seeded fault
//! schedules, [`run`] enumerates every schedule of one configuration,
//! breadth first: three one-job units, two connection slots under the
//! dispatcher's window, at most 9 jobs handed out and at most one
//! pending *ghost* (a late or replayed result frame). Each step calls what
//! a connection handler or the deadline monitor calls —
//! [`dispatch::try_claim`], [`dispatch::accept_results`],
//! [`dispatch::sweep_expired`], [`dispatch::abort`], [`dispatch::drain`] —
//! on the tier's own [`WorkSource`], and every reachable state is checked:
//! the tier's counters balance against the ledger, every job is queued,
//! in flight or done exactly once, the ledger holds what the connections
//! hold, nothing is granted after an abort, and no live state is stuck.
//! States are re-created by replaying their path from a fresh source; a
//! replay that reaches another state is itself a violation.

use crate::dispatch::{self, BatchFate, Claim, Dialect, Event, WorkSource};
use crate::proto::ResultBatch;
use crate::sync::MutexExt;
use rckalign::{PairJob, PairOutcome};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Instant;

/// Connection slots.
const SLOTS: usize = 2;
/// Jobs handed out along one path, at most; bounds requeue cycles.
const BUDGET: usize = 9;

/// A tier's canonical view of its own state, read by its test.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct View {
    /// Units waiting for a grant, in grant order, each as its pairs.
    pub queued: Vec<Vec<(u32, u32)>>,
    /// Pairs with an accepted answer, in any order, one entry per
    /// accepted outcome: a pair accepted twice shows twice and breaks
    /// conservation.
    pub done: Vec<(u32, u32)>,
    /// The tier's dispatched-jobs counter.
    pub dispatched: u64,
    /// The tier's completed-jobs counter.
    pub completed: u64,
    /// The tier's requeued-jobs counter.
    pub requeued: u64,
}

/// What an exploration reached and found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Explored {
    /// Distinct reachable states.
    pub states: usize,
    /// Transitions taken (refused grants not counted).
    pub transitions: usize,
    /// Invariant violations, the first of each kind with a count of the
    /// rest; empty when the tier holds.
    pub violations: Vec<String>,
}

/// A result frame that may still arrive: its sender, key and jobs.
type Ghost = (u32, u64, Vec<PairJob>);

/// One connection as its peer sees it.
#[derive(Debug)]
struct Slot {
    id: u32,
    held: Vec<(u64, Vec<PairJob>)>,
    /// Whether an accepted answer has opened its measured window to two
    /// (a credited window is two throughout).
    proven: bool,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Grant(usize),
    Answer(usize, usize),
    Mismatch(usize, usize),
    Timeout(usize),
    Ghost,
    Abort,
    Drain,
}

/// One reachable state: a source and what its peers hold.
struct World<S> {
    src: Arc<S>,
    slots: [Slot; SLOTS],
    ghost: Option<Ghost>,
    handed_out: usize,
    /// Virtual time of the last sweep; every deadline falls behind it.
    clock: Instant,
}

fn pairs(jobs: &[PairJob]) -> Vec<(u32, u32)> {
    jobs.iter().map(|j| (j.i, j.j)).collect()
}

/// A frame answering `jobs` under `key`; `wrong` answers other jobs.
fn answer(key: u64, jobs: &[PairJob], wrong: bool) -> ResultBatch {
    let outcome = |job: &PairJob| PairOutcome {
        i: job.i,
        j: job.j + if wrong { 1000 } else { 0 },
        method: job.method,
        similarity: 0.5,
        rmsd: 1.0,
        aligned_len: 1,
        ops: 1,
    };
    ResultBatch {
        batch_id: key,
        outcomes: jobs.iter().map(outcome).collect(),
    }
}

/// Slot `s`'s peer connects. Ids the dispatcher mints of another residue
/// go to peers that leave before their first frame, so the slot's id is
/// ≡ `s` (mod [`SLOTS`]) and a policy dealing by connection order deals
/// it the same share every time.
fn connect<S: WorkSource>(src: &S, s: usize) -> Slot {
    let mut state = src.state().lock_recover();
    let id = loop {
        let id = S::dispatch(&mut state).mint();
        if id as usize % SLOTS == s {
            break id;
        }
    };
    drop(state);
    src.observe(Event::WorkerConnected(id, "explorer"));
    Slot {
        id,
        held: Vec::new(),
        proven: false,
    }
}

impl<S: WorkSource> World<S> {
    fn new(src: Arc<S>) -> World<S> {
        World {
            slots: std::array::from_fn(|s| connect(&*src, s)),
            src,
            ghost: None,
            handed_out: 0,
            clock: Instant::now(),
        }
    }

    /// The dispatcher's halt and drain flags, and whether a unit is in
    /// flight.
    fn flags(&self) -> (bool, bool, bool) {
        let mut state = self.src.state().lock_recover();
        let d = S::dispatch(&mut state);
        (d.halted(), d.draining(), !d.ledger.is_empty())
    }

    /// What may happen next. A slot is granted up to its window: one unit
    /// until it has an accepted answer, then two; credits keep two out
    /// regardless. After an abort or a drain only grants are followed:
    /// answers, timeouts and ghosts read neither flag.
    fn steps(&self) -> Vec<Step> {
        let (halted, draining, _) = self.flags();
        let mut steps = Vec::new();
        for (s, slot) in self.slots.iter().enumerate() {
            let window = match S::DIALECT {
                Dialect::Batches => 1 + usize::from(slot.proven),
                Dialect::Tiles => 2,
            };
            if slot.held.len() < window && self.handed_out < BUDGET {
                steps.push(Step::Grant(s));
            }
            if halted || draining {
                continue;
            }
            for k in 0..slot.held.len() {
                steps.extend([Step::Answer(s, k), Step::Mismatch(s, k)]);
            }
            if !slot.held.is_empty() {
                steps.push(Step::Timeout(s));
            }
        }
        if !(halted || draining) {
            steps.extend(self.ghost.is_some().then_some(Step::Ghost));
            steps.extend([Step::Abort, Step::Drain]);
        }
        steps
    }

    /// Take `step`: the frames it leaves able to arrive later, or `None`
    /// for a grant the dispatcher refused.
    fn apply(&mut self, step: Step) -> Option<Vec<Ghost>> {
        let src = &*self.src;
        let accepted = |fate| matches!(fate, BatchFate::Accepted(_));
        match step {
            Step::Grant(s) => {
                let slot = &mut self.slots[s];
                let mut state = src.state().lock_recover();
                let wait = slot.held.is_empty();
                let Claim::Granted(key, unit) = dispatch::try_claim(src, &mut state, slot.id, wait)
                else {
                    return None;
                };
                self.handed_out += unit.as_ref().len();
                slot.held.push((key, unit.as_ref().to_vec()));
            }
            Step::Answer(s, k) => {
                let slot = &mut self.slots[s];
                let (key, jobs) = slot.held.remove(k);
                let frame = answer(key, &jobs, false);
                if accepted(dispatch::accept_results(src, slot.id, frame)) {
                    slot.proven = S::DIALECT == Dialect::Batches;
                }
                return Some(vec![(slot.id, key, jobs)]);
            }
            Step::Mismatch(s, k) => {
                let slot = &self.slots[s];
                let (key, jobs) = &slot.held[k];
                dispatch::accept_results(src, slot.id, answer(*key, jobs, true));
                self.slots[s] = connect(src, s);
            }
            Step::Timeout(s) => {
                // Past every deadline of slot `s`, while the others beat.
                self.clock = self.clock.max(Instant::now()) + src.heartbeat_timeout();
                let mut state = src.state().lock_recover();
                for (_, other) in self.slots.iter().enumerate().filter(|&(o, _)| o != s) {
                    S::dispatch(&mut state).ledger.touch(other.id, self.clock);
                }
                dispatch::sweep_expired(src, &mut state, self.clock);
                drop(state);
                let dead = std::mem::replace(&mut self.slots[s], connect(src, s));
                let ghosts = dead
                    .held
                    .into_iter()
                    .map(|(key, jobs)| (dead.id, key, jobs));
                return Some(ghosts.collect());
            }
            Step::Ghost => {
                let (owner, key, jobs) = self.ghost.take()?;
                dispatch::accept_results(src, owner, answer(key, &jobs, false));
            }
            Step::Abort => dispatch::abort(src),
            Step::Drain => dispatch::drain(src),
        }
        Some(Vec::new())
    }

    /// The state's identity. An owner is its slot, or [`SLOTS`] once its
    /// connection is gone; a ledger key is the pairs it holds, all a
    /// fresh batch id says.
    fn key(&self, view: &View) -> u64 {
        let owner = |id| self.slots.iter().position(|s| s.id == id).unwrap_or(SLOTS);
        let mut state = self.src.state().lock_recover();
        let d = S::dispatch(&mut state);
        let units = d.ledger.units.values();
        let mut ledger: Vec<_> = units
            .map(|g| (pairs(g.unit.as_ref()), owner(g.owner)))
            .collect();
        let flags = (d.halted(), d.draining());
        drop(state);
        ledger.sort_unstable();
        let slots: Vec<_> = (self.slots.iter())
            .map(|slot| {
                let mut held: Vec<_> = slot.held.iter().map(|(_, jobs)| pairs(jobs)).collect();
                held.sort_unstable();
                (held, slot.proven)
            })
            .collect();
        let ghost = self
            .ghost
            .as_ref()
            .map(|(id, _, jobs)| (owner(*id), pairs(jobs)));
        let mut view = view.clone();
        view.done.sort_unstable();
        let mut h = DefaultHasher::new();
        (ledger, flags, slots, ghost).hash(&mut h);
        (self.handed_out, view).hash(&mut h);
        h.finish()
    }

    /// Push every state invariant but stuckness that fails.
    fn check(&self, view: &View, all: &[(u32, u32)], out: &mut Vec<String>) {
        let state = || format!("slots={:?} ghost={:?} {view:?}", self.slots, self.ghost);
        let mut guard = self.src.state().lock_recover();
        let units = &S::dispatch(&mut guard).ledger.units;
        let mut ledger: Vec<_> = units.iter().map(|(&key, g)| (g.owner, key)).collect();
        let in_flight: Vec<_> = units
            .values()
            .flat_map(|g| pairs(g.unit.as_ref()))
            .collect();
        drop(guard);
        let accounted = view.completed + view.requeued + in_flight.len() as u64;
        if view.dispatched != accounted {
            out.push(format!(
                "accounting: dispatched {} ≠ completed {} + requeued {} + in flight {} [{}]",
                view.dispatched,
                view.completed,
                view.requeued,
                in_flight.len(),
                state()
            ));
        }
        let mut placed = [view.queued.concat(), in_flight, view.done.clone()].concat();
        placed.sort_unstable();
        if placed != all {
            out.push(format!(
                "conservation: queued, in flight and done hold {placed:?}, not {all:?} [{}]",
                state()
            ));
        }
        if view.done.len() as u64 != view.completed {
            out.push(format!(
                "completions: done and completed differ [{}]",
                state()
            ));
        }
        let held = self
            .slots
            .iter()
            .map(|s| s.held.iter().map(|&(key, _)| (s.id, key)));
        let mut held: Vec<_> = held.flatten().collect();
        held.sort_unstable();
        ledger.sort_unstable();
        if held != ledger {
            out.push(format!(
                "ledger: it holds {ledger:?}, the connections {held:?} [{}]",
                state()
            ));
        }
    }
}

/// A reached state: how to replay it and what to try from it.
struct Node {
    parent: usize,
    step: Option<(Step, Option<usize>)>,
    steps: Vec<Step>,
    /// Set when only a grant can move the run on: the state, described.
    needs_grant: Option<String>,
}

/// One transition's end: its key and, when the key was new as its level
/// began, the node and the violations its state shows.
type Child = (u64, Option<(Node, Vec<String>)>);

/// Explore every schedule of the configuration over the sources `make`
/// builds, each with the three units staged; `view` reads the tier's
/// canonical state with its lock held. Each breadth-first level is
/// expanded on a few threads and merged in node order, so the result does
/// not depend on how many.
pub fn run<S, M, V>(make: M, view: V) -> Explored
where
    S: WorkSource,
    M: Fn() -> Arc<S> + Sync,
    V: Fn(&S, &mut S::State) -> View + Sync,
{
    let look = |w: &World<S>| view(&w.src, &mut w.src.state().lock_recover());
    let replay = |nodes: &[Node], mut at: usize| {
        let mut path = Vec::new();
        while let Some(step) = nodes[at].step {
            path.push(step);
            at = nodes[at].parent;
        }
        let mut world = World::new(make());
        for (step, ghost) in path.into_iter().rev() {
            let ghosts = world.apply(step).unwrap_or_default();
            world.ghost = ghost.map(|g| ghosts[g].clone()).or(world.ghost.take());
        }
        world
    };
    let root = World::new(make());
    let root_view = look(&root);
    let mut all = [root_view.queued.concat(), root_view.done].concat();
    all.sort_unstable();
    // A state's key, its node, and the invariants it breaks.
    let visit = |w: &World<S>, parent: usize, step| {
        let v = look(w);
        let mut found = Vec::new();
        w.check(&v, &all, &mut found);
        let (halted, draining, in_flight) = w.flags();
        let mut done = v.done.clone();
        done.sort_unstable();
        let live = !(halted || draining || in_flight) && done != all;
        let needs_grant = (live && w.handed_out < BUDGET)
            .then(|| format!("slots={:?} ghost={:?} {v:?}", w.slots, w.ghost));
        let steps = w.steps();
        let node = Node {
            parent,
            step,
            steps,
            needs_grant,
        };
        (w.key(&v), node, found)
    };
    // Take every step of node `at`, each from a replay of it.
    let expand = |nodes: &[Node], keys: &[u64], seen: &HashSet<u64>, at: usize| {
        let (mut found, mut children, mut granted) = (Vec::new(), Vec::<Child>::new(), false);
        for (n, &step) in nodes[at].steps.iter().enumerate() {
            let mut world = replay(nodes, at);
            if n == 0 && world.key(&look(&world)) != keys[at] {
                found.push(format!("replay: the path to state {at} reached another"));
            }
            let had_ghost = world.ghost.is_some();
            let Some(ghosts) = world.apply(step) else {
                continue;
            };
            if matches!(step, Step::Grant(_)) {
                granted = true;
                if world.flags().0 {
                    found.push(format!("abort: a unit was granted after it ({step:?})"));
                }
            }
            // A new ghost only where none is pending: none, or any one.
            let choices = if had_ghost { 0 } else { ghosts.len() };
            for choice in std::iter::once(None).chain((0..choices).map(Some)) {
                if !had_ghost {
                    world.ghost = choice.map(|g| ghosts[g].clone());
                }
                let key = world.key(&look(&world));
                let new = !seen.contains(&key);
                let child = new.then(|| visit(&world, at, Some((step, choice))));
                children.push((key, child.map(|(_, node, found)| (node, found))));
            }
        }
        if let (Some(state), false) = (&nodes[at].needs_grant, granted) {
            found.push(format!("stuck: no grant enabled [{state}]"));
        }
        (found, children)
    };

    let (key, root, mut violations) = visit(&root, 0, None);
    let (mut nodes, mut keys, mut seen) = (vec![root], vec![key], HashSet::from([key]));
    let (mut level, mut transitions) = (vec![0], 0);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(4));
    while !level.is_empty() {
        let mut expanded: Vec<_> = std::thread::scope(|scope| {
            let (nodes, keys, seen, level, expand) = (&nodes, &keys, &seen, &level, &expand);
            let workers: Vec<_> = (0..threads)
                .map(|t| {
                    let mine = level.iter().skip(t).step_by(threads);
                    scope.spawn(move || {
                        let expanded = mine.map(|&at| (at, expand(nodes, keys, seen, at)));
                        expanded.collect::<Vec<_>>()
                    })
                })
                .collect();
            let joined = workers.into_iter().map(|w| w.join());
            joined
                .flat_map(|r| r.unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        expanded.sort_unstable_by_key(|&(at, _)| at);
        let mut next = Vec::new();
        for (_, (found, children)) in expanded {
            violations.extend(found);
            for (key, child) in children {
                transitions += 1;
                if let (true, Some((node, found))) = (seen.insert(key), child) {
                    violations.extend(found);
                    nodes.push(node);
                    keys.push(key);
                    next.push(nodes.len() - 1);
                }
            }
        }
        level = next;
    }
    // The first violation of each kind (the text before its `:`), with a
    // count of the rest.
    let mut kinds: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for v in violations {
        let kind = v.split(':').next().unwrap_or_default().to_string();
        kinds.entry(kind).or_insert((v, 0)).1 += 1;
    }
    let violations = kinds.into_values();
    Explored {
        states: seen.len(),
        transitions,
        violations: violations.map(|(v, n)| format!("{v} (×{n})")).collect(),
    }
}
