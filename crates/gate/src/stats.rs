//! Gate counters: the `rck_gate_*` metric family.
//!
//! [`GateStats`] is the serving tier's analogue of
//! [`rck_serve::ServeStats`]: handles into a private
//! [`rck_obs::Registry`], so the same numbers that feed the loadgen and
//! report tooling are available as a Prometheus text dump at any point
//! of a run. The registry is per-instance — tests assert exact values on
//! isolated gates, and a loadgen process may boot several.

use rck_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, DEFAULT_LATENCY_BOUNDS};
use std::sync::Arc;

/// Live counters for one gate instance, shared behind an `Arc` with
/// every thread the gate runs. Code counts an event by calling its
/// handle where the event happens; a method exists only where one event
/// must move two handles, or a handle and a per-tenant family, together.
#[derive(Debug)]
pub struct GateStats {
    registry: Arc<Registry>,
    pub(crate) queries_submitted: Arc<Counter>,
    pub(crate) queries_completed: Arc<Counter>,
    pub(crate) queries_rejected: Arc<Counter>,
    pub(crate) queries_coalesced: Arc<Counter>,
    pub(crate) partials_streamed: Arc<Counter>,
    pub(crate) jobs_dispatched: Arc<Counter>,
    pub(crate) jobs_completed: Arc<Counter>,
    pub(crate) jobs_requeued: Arc<Counter>,
    pub(crate) stale_results: Arc<Counter>,
    pub(crate) mismatched_results: Arc<Counter>,
    pub(crate) chains_shipped: Arc<Counter>,
    pub(crate) workers_connected: Arc<Counter>,
    pub(crate) workers_lost: Arc<Counter>,
    pub(crate) sessions: Arc<Counter>,
    pub(crate) decode_errors: Arc<Counter>,
    pub(crate) queue_depth: Arc<Gauge>,
    pub(crate) inflight_queries: Arc<Gauge>,
    pub(crate) window: Arc<Gauge>,
    pub(crate) query_latency: Arc<Histogram>,
    pub(crate) first_result: Arc<Histogram>,
}

impl Default for GateStats {
    fn default() -> GateStats {
        GateStats::new()
    }
}

impl GateStats {
    /// Fresh zeroed counters backed by a private metric registry.
    pub fn new() -> GateStats {
        let registry = Registry::new();
        GateStats {
            queries_submitted: registry.counter(
                "rck_gate_queries_submitted_total",
                "query submissions accepted for scheduling",
            ),
            queries_completed: registry.counter(
                "rck_gate_queries_completed_total",
                "queries answered with a final ranking",
            ),
            queries_rejected: registry.counter(
                "rck_gate_queries_rejected_total",
                "queries refused by admission control or drain",
            ),
            queries_coalesced: registry.counter(
                "rck_gate_queries_coalesced_total",
                "duplicate submissions attached to an already-running query",
            ),
            partials_streamed: registry.counter(
                "rck_gate_partials_total",
                "QueryPartial frames enqueued towards clients",
            ),
            jobs_dispatched: registry.counter(
                "rck_gate_jobs_dispatched_total",
                "pair jobs handed to pool workers, counting re-dispatches",
            ),
            jobs_completed: registry.counter(
                "rck_gate_jobs_completed_total",
                "pair jobs whose outcome was accepted",
            ),
            jobs_requeued: registry.counter(
                "rck_gate_jobs_requeued_total",
                "pair jobs put back on a query's queue after a worker was lost",
            ),
            stale_results: registry.counter(
                "rck_gate_stale_results_total",
                "result frames answering a batch id no longer in flight",
            ),
            mismatched_results: registry.counter(
                "rck_gate_mismatched_results_total",
                "result frames rejected for not answering their batch's jobs",
            ),
            chains_shipped: registry.counter(
                "rck_gate_chains_shipped_total",
                "chains written into job-batch chain tables",
            ),
            workers_connected: registry.counter(
                "rck_gate_workers_connected_total",
                "pool workers that connected over the gate's lifetime",
            ),
            workers_lost: registry.counter(
                "rck_gate_workers_lost_total",
                "pool workers the gate declared dead",
            ),
            sessions: registry.counter(
                "rck_gate_sessions_total",
                "client sessions accepted on the query plane",
            ),
            decode_errors: registry.counter(
                "rck_gate_decode_errors_total",
                "frames the gate could not decode (torn, corrupted, or out of sync)",
            ),
            queue_depth: registry.gauge(
                "rck_gate_queue_depth",
                "pair-job batches staged and waiting for a worker",
            ),
            inflight_queries: registry.gauge(
                "rck_gate_inflight_queries",
                "queries admitted and not yet answered",
            ),
            window: registry.gauge(
                "rck_gate_window_batches",
                "deepest window of batches any pool connection was given",
            ),
            query_latency: registry.histogram(
                "rck_gate_query_latency_seconds",
                "submit-to-final-ranking latency per query",
                DEFAULT_LATENCY_BOUNDS,
            ),
            first_result: registry.histogram(
                "rck_gate_first_result_seconds",
                "submit-to-first-streamed-partial latency per query",
                DEFAULT_LATENCY_BOUNDS,
            ),
            registry,
        }
    }

    /// The private registry behind these counters, for Prometheus-style
    /// dumps (`rck_gate --metrics-addr`, the loadgen/report bins).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    pub(crate) fn on_query_submitted(&self, tenant: &str) {
        self.queries_submitted.inc();
        self.inflight_queries.add(1);
        self.registry
            .counter_with(
                "rck_gate_tenant_queries_total",
                "queries admitted per tenant",
                &[("tenant", tenant)],
            )
            .inc();
    }

    /// A tenant's last running query was answered: its labelled series
    /// go with it, so the registry holds a series only for tenants with
    /// a query running. The series therefore count a tenant's busy
    /// spell, not its lifetime: a tenant that returns after every query
    /// was answered starts again from zero, and a tenant that sends one
    /// query at a time reads 1 query per spell. Lifetime totals are the
    /// unlabelled `rck_gate_queries_submitted_total` and
    /// `rck_gate_jobs_dispatched_total`.
    pub(crate) fn forget_tenant(&self, tenant: &str) {
        for name in [
            "rck_gate_tenant_queries_total",
            "rck_gate_tenant_jobs_total",
        ] {
            self.registry.remove(name, &[("tenant", tenant)]);
        }
    }

    pub(crate) fn on_query_completed(&self, latency_secs: f64) {
        self.queries_completed.inc();
        self.inflight_queries.sub(1);
        self.query_latency.observe(latency_secs);
    }

    pub(crate) fn on_jobs_dispatched(&self, tenant: &str, n: usize) {
        self.jobs_dispatched.add(n as u64);
        self.registry
            .counter_with(
                "rck_gate_tenant_jobs_total",
                "pair jobs dispatched per tenant",
                &[("tenant", tenant)],
            )
            .add(n as u64);
    }

    /// Queries answered with a final ranking so far.
    pub fn queries_completed(&self) -> u64 {
        self.queries_completed.get()
    }

    /// Queries refused so far.
    pub fn queries_rejected(&self) -> u64 {
        self.queries_rejected.get()
    }

    /// Duplicate submissions coalesced so far.
    pub fn queries_coalesced(&self) -> u64 {
        self.queries_coalesced.get()
    }

    /// Pair jobs requeued after worker loss so far.
    pub fn jobs_requeued(&self) -> u64 {
        self.jobs_requeued.get()
    }

    /// Pool workers that have connected so far.
    pub fn workers_connected(&self) -> u64 {
        self.workers_connected.get()
    }

    /// Freeze the counters into a reportable snapshot.
    pub fn snapshot(&self) -> GateSnapshot {
        GateSnapshot {
            queries_submitted: self.queries_submitted.get(),
            queries_completed: self.queries_completed.get(),
            queries_rejected: self.queries_rejected.get(),
            queries_coalesced: self.queries_coalesced.get(),
            partials_streamed: self.partials_streamed.get(),
            jobs_dispatched: self.jobs_dispatched.get(),
            jobs_completed: self.jobs_completed.get(),
            jobs_requeued: self.jobs_requeued.get(),
            stale_results: self.stale_results.get(),
            mismatched_results: self.mismatched_results.get(),
            chains_shipped: self.chains_shipped.get(),
            workers_connected: self.workers_connected.get(),
            workers_lost: self.workers_lost.get(),
            sessions: self.sessions.get(),
            decode_errors: self.decode_errors.get(),
            window_batches: self.window.get() as u64,
            query_latency: self.query_latency.snapshot(),
            first_result: self.first_result.snapshot(),
        }
    }
}

/// Frozen counters of one gate instance.
#[derive(Debug, Clone, PartialEq)]
pub struct GateSnapshot {
    /// Query submissions accepted for scheduling.
    pub queries_submitted: u64,
    /// Queries answered with a final ranking.
    pub queries_completed: u64,
    /// Queries refused by admission control or drain.
    pub queries_rejected: u64,
    /// Duplicate submissions attached to an already-running query.
    pub queries_coalesced: u64,
    /// QueryPartial frames enqueued towards clients.
    pub partials_streamed: u64,
    /// Pair jobs handed to pool workers (counting re-dispatches).
    pub jobs_dispatched: u64,
    /// Pair jobs whose outcome was accepted.
    pub jobs_completed: u64,
    /// Pair jobs requeued after a worker was lost.
    pub jobs_requeued: u64,
    /// Result frames answering a batch id no longer in flight.
    pub stale_results: u64,
    /// Result frames rejected for not answering their batch's jobs.
    pub mismatched_results: u64,
    /// Chains written into job batches.
    pub chains_shipped: u64,
    /// Pool workers that connected.
    pub workers_connected: u64,
    /// Pool workers declared dead.
    pub workers_lost: u64,
    /// Client sessions accepted.
    pub sessions: u64,
    /// Frames the gate could not decode.
    pub decode_errors: u64,
    /// Deepest window of batches a pool connection was given.
    pub window_batches: u64,
    /// Submit-to-final-ranking latency distribution.
    pub query_latency: HistogramSnapshot,
    /// Submit-to-first-partial latency distribution.
    pub first_result: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = GateStats::new();
        s.sessions.inc();
        s.on_query_submitted("lab-a");
        s.on_query_submitted("lab-b");
        s.queries_coalesced.inc();
        s.queries_rejected.inc();
        s.on_jobs_dispatched("lab-a", 7);
        s.jobs_completed.add(7);
        s.jobs_requeued.add(2);
        s.stale_results.inc();
        s.mismatched_results.add(2);
        s.chains_shipped.add(5);
        s.partials_streamed.inc();
        s.first_result.observe(0.01);
        s.on_query_completed(0.05);
        s.workers_connected.inc();
        s.workers_lost.inc();
        s.decode_errors.inc();
        s.queue_depth.set(3);
        s.window.raise_to(8);
        s.window.raise_to(3);

        let snap = s.snapshot();
        assert_eq!(snap.queries_submitted, 2);
        assert_eq!(snap.queries_completed, 1);
        assert_eq!(snap.queries_rejected, 1);
        assert_eq!(snap.queries_coalesced, 1);
        assert_eq!(snap.partials_streamed, 1);
        assert_eq!(snap.jobs_dispatched, 7);
        assert_eq!(snap.jobs_completed, 7);
        assert_eq!(snap.jobs_requeued, 2);
        assert_eq!(snap.stale_results, 1);
        assert_eq!(snap.mismatched_results, 2);
        assert_eq!(snap.chains_shipped, 5);
        assert_eq!(snap.workers_connected, 1);
        assert_eq!(snap.workers_lost, 1);
        assert_eq!(snap.sessions, 1);
        assert_eq!(snap.decode_errors, 1);
        assert_eq!(snap.window_batches, 8, "a high-water mark");
        assert_eq!(snap.query_latency.count, 1);
        assert_eq!(snap.first_result.count, 1);
    }

    #[test]
    fn registry_dump_mirrors_the_counters() {
        let s = GateStats::new();
        s.on_query_submitted("lab-a");
        s.on_jobs_dispatched("lab-a", 4);
        s.queue_depth.set(2);
        let text = s.registry().render();
        assert!(text.contains("rck_gate_queries_submitted_total 1"));
        assert!(text.contains("rck_gate_tenant_jobs_total{tenant=\"lab-a\"} 4"));
        assert!(text.contains("rck_gate_queue_depth 2"));
        assert!(text.contains("rck_gate_inflight_queries 1"));
    }

    #[test]
    fn two_instances_do_not_share_counters() {
        let a = GateStats::new();
        let b = GateStats::new();
        a.on_query_submitted("t");
        assert_eq!(b.snapshot().queries_submitted, 0);
    }
}
