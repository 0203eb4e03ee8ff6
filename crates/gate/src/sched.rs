//! Weighted-fair tenant scheduling: a deterministic stride scheduler.
//!
//! Every tenant carries a *pass* value; the runnable tenant with the
//! lowest pass is picked next and charged `STRIDE_ONE / weight`, so over
//! any contention window tenants receive worker dispatches proportional
//! to their weights. Two properties matter to the gate:
//!
//! * **no starvation** — a backlogged tenant's pass stays fixed while
//!   others advance, so it is picked after a bounded number of foreign
//!   dispatches (at most `Σ weights / weight` of them per own dispatch);
//! * **determinism** — equal passes break ties by tenant name, so a
//!   given submission order always produces the same dispatch order
//!   (the chaos harness and the fairness tests rely on this).
//!
//! The scheduler is pure bookkeeping over (weight, pass, backlog): it
//! never touches clocks, sockets or locks, which is what makes the
//! fairness property unit-testable in isolation.

use std::collections::HashMap;

/// Pass charged to a weight-1 tenant per pick. `u64::MAX / STRIDE_ONE`
/// picks before overflow — not reachable in any real run.
pub const STRIDE_ONE: u64 = 1 << 20;

#[derive(Debug, Clone)]
struct Tenant {
    weight: u32,
    pass: u64,
    backlog: usize,
}

/// Deterministic weighted-fair queue over named tenants.
#[derive(Debug, Default)]
pub struct StrideSched {
    tenants: HashMap<String, Tenant>,
    /// Where a tenant joins while none is backlogged.
    base: u64,
    /// The lowest pass let go since the scheduler was last idle.
    gone: Option<u64>,
}

impl StrideSched {
    /// An empty scheduler.
    pub fn new() -> StrideSched {
        StrideSched::default()
    }

    /// The pass a joining tenant starts at: the lowest backlogged one.
    fn floor(&self) -> u64 {
        self.tenants
            .values()
            .filter(|t| t.backlog > 0)
            .map(|t| t.pass)
            .min()
            .unwrap_or(self.base)
    }

    /// Set (or update) a tenant's weight; zero is clamped to one. A new
    /// tenant starts at the floor so it cannot claim credit for time it
    /// was not queued.
    pub fn set_weight(&mut self, tenant: &str, weight: u32) {
        let floor = self.floor();
        let entry = self.tenants.entry(tenant.to_string()).or_insert(Tenant {
            weight: 1,
            pass: floor,
            backlog: 0,
        });
        entry.weight = weight.max(1);
        // Re-joining after an idle period also re-anchors the pass:
        // an idle tenant must not have accumulated a huge head start.
        if entry.backlog == 0 {
            entry.pass = entry.pass.max(floor);
        }
    }

    /// Add `n` units of backlog (pending batches) to a tenant. Unknown
    /// tenants are created with weight 1.
    pub fn add_backlog(&mut self, tenant: &str, n: usize) {
        if !self.tenants.contains_key(tenant) {
            self.set_weight(tenant, 1);
        }
        if let Some(t) = self.tenants.get_mut(tenant) {
            t.backlog += n;
        }
    }

    /// This tenant's current backlog.
    pub fn backlog(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, |t| t.backlog)
    }

    /// Total backlog across all tenants — the gate's admission bound.
    pub fn total_backlog(&self) -> usize {
        self.tenants.values().map(|t| t.backlog).sum()
    }

    /// Pick the next tenant to dispatch for: lowest pass among tenants
    /// with backlog, ties broken by name. Consumes one unit of backlog
    /// and charges the tenant's pass.
    ///
    /// When the pick drains a tenant, every tenant without backlog that
    /// the floor has reached leaves, as it would rejoin there like a
    /// newcomer; one still ahead stays, so a tenant served ahead of the
    /// others waits for them on its return, across an idle spell too, as
    /// when every tenant was kept.
    pub fn pick(&mut self) -> Option<String> {
        let name = self
            .tenants
            .iter()
            .filter(|(_, t)| t.backlog > 0)
            .min_by(|(na, ta), (nb, tb)| ta.pass.cmp(&tb.pass).then_with(|| na.cmp(nb)))
            .map(|(name, _)| name.clone())?;
        let t = self.tenants.get_mut(&name)?;
        t.backlog -= 1;
        t.pass += STRIDE_ONE / t.weight as u64;
        if t.backlog == 0 {
            let held = || self.tenants.values();
            let busy = held().filter(|t| t.backlog > 0).map(|t| t.pass).min();
            // Idle, the floor is the lowest pass held or let go in the
            // spell just ended, so one that was behind keeps its place.
            let lowest = held().map(|t| t.pass).chain(self.gone).min();
            let floor = busy.or(lowest).unwrap_or(self.base);
            let leaving = held().filter(|t| t.backlog == 0 && t.pass <= floor);
            let gone = leaving.map(|t| t.pass).min();
            self.tenants.retain(|_, t| t.backlog > 0 || t.pass > floor);
            match busy {
                Some(_) => self.gone = self.gone.into_iter().chain(gone).min(),
                None => (self.base, self.gone) = (floor, None),
            }
        }
        Some(name)
    }
}

#[cfg(test)]
impl StrideSched {
    /// How many tenants the scheduler holds.
    pub(crate) fn tenants(&self) -> usize {
        self.tenants.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_counts(sched: &mut StrideSched, picks: usize) -> HashMap<String, usize> {
        let mut counts = HashMap::new();
        for _ in 0..picks {
            let Some(t) = sched.pick() else { break };
            *counts.entry(t).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn picks_follow_weights_proportionally() {
        let mut s = StrideSched::new();
        s.set_weight("heavy", 3);
        s.set_weight("light", 1);
        s.add_backlog("heavy", 400);
        s.add_backlog("light", 400);
        let counts = drain_counts(&mut s, 400);
        let heavy = counts["heavy"] as f64;
        let light = counts["light"] as f64;
        let ratio = heavy / light;
        assert!((2.8..=3.2).contains(&ratio), "weight ratio off: {ratio}");
    }

    #[test]
    fn flooding_tenant_cannot_starve_a_light_one() {
        let mut s = StrideSched::new();
        s.set_weight("flood", 1);
        s.set_weight("tenant-b", 1);
        // The flooder queues a mountain first; the light tenant arrives
        // late with 5 batches and must still be serviced promptly.
        s.add_backlog("flood", 10_000);
        for _ in 0..50 {
            assert_eq!(s.pick().unwrap(), "flood");
        }
        s.set_weight("tenant-b", 1);
        s.add_backlog("tenant-b", 5);
        let mut picks_until_b_done = 0;
        let mut b_done = 0;
        while b_done < 5 {
            picks_until_b_done += 1;
            if s.pick().unwrap() == "tenant-b" {
                b_done += 1;
            }
        }
        // Equal weights: the light tenant alternates with the flooder,
        // finishing its 5 batches within ~10 picks — never behind the
        // flooder's 9950 remaining.
        assert!(
            picks_until_b_done <= 11,
            "light tenant starved: {picks_until_b_done} picks for 5 batches"
        );
    }

    #[test]
    fn late_joiner_does_not_bank_idle_credit() {
        let mut s = StrideSched::new();
        s.set_weight("a", 1);
        s.add_backlog("a", 100);
        for _ in 0..60 {
            s.pick();
        }
        s.set_weight("b", 1);
        s.add_backlog("b", 100);
        // b starts at a's current pass, not zero: the next picks must
        // alternate rather than hand b a 60-pick monopoly.
        let counts = drain_counts(&mut s, 20);
        assert!(counts["a"] >= 9, "a starved by late joiner: {counts:?}");
    }

    #[test]
    fn deterministic_and_name_tiebroken() {
        let run = || {
            let mut s = StrideSched::new();
            s.set_weight("b", 2);
            s.set_weight("a", 1);
            s.add_backlog("b", 10);
            s.add_backlog("a", 10);
            (0..20).filter_map(|_| s.pick()).collect::<Vec<_>>()
        };
        let first = run();
        assert_eq!(first, run());
        assert_eq!(first[0], "a", "equal pass must tie-break by name");
    }

    #[test]
    fn a_drained_tenant_is_held_only_while_ahead_of_the_floor() {
        let mut s = StrideSched::new();
        s.add_backlog("a", 1);
        s.add_backlog("b", 3);
        assert_eq!(s.pick().as_deref(), Some("a"));
        assert_eq!(s.tenants(), 2, "a drained a stride ahead of b");
        // Back at once, a waits for b to draw level.
        s.add_backlog("a", 1);
        let order: Vec<String> = std::iter::from_fn(|| s.pick()).collect();
        assert_eq!(order, ["b", "a", "b", "b"]);
        // Idle: a's pass, the lowest, is the floor; b, a stride ahead,
        // is still held.
        assert_eq!(s.tenants(), 1);
        // A newcomer joins at that floor, behind b's stride; c leaves
        // behind b, so b is still held, and the idle floor is c's pass.
        s.add_backlog("c", 1);
        s.add_backlog("b", 1);
        let order: Vec<String> = std::iter::from_fn(|| s.pick()).collect();
        assert_eq!(order, ["c", "b"]);
        assert_eq!(s.tenants(), 1);
        s.add_backlog("c", 1);
        s.add_backlog("b", 1);
        let order: Vec<String> = std::iter::from_fn(|| s.pick()).collect();
        assert_eq!(order, ["c", "b"], "c kept its place behind b");
    }

    #[test]
    fn zero_weight_is_clamped_and_backlog_tracks() {
        let mut s = StrideSched::new();
        s.set_weight("t", 0);
        s.add_backlog("t", 2);
        assert_eq!(s.backlog("t"), 2);
        assert_eq!(s.total_backlog(), 2);
        assert_eq!(s.pick().as_deref(), Some("t"));
        assert_eq!(s.pick().as_deref(), Some("t"));
        assert_eq!(s.total_backlog(), 0);
        assert_eq!(s.pick(), None);
    }
}
