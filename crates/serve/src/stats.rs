//! Service counters and the per-worker throughput report.
//!
//! [`ServeStats`] is the live, lock-light view shared between the
//! master's acceptor, connection handlers and deadline monitor. Every
//! counter is an [`rck_obs`] handle into a private [`Registry`], so the
//! same numbers that feed the end-of-run [`StatsSnapshot`] report are
//! also available as a Prometheus text dump (see [`ServeStats::registry`]).
//!
//! The registry is **per-instance**, not the process-global one: tests
//! assert exact counter values on isolated `ServeStats`, and two masters
//! in one process (as in the loopback tests) must not share counters.
//! [`StatsSnapshot`] renders with the same [`rckalign::report::TextTable`]
//! the simulator's experiment drivers use, so service output reads like
//! the rest of the repository.

use crate::sync::MutexExt;
use rck_obs::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, DEFAULT_LATENCY_BOUNDS};
use rckalign::report::TextTable;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Per-worker live accounting.
#[derive(Debug, Clone)]
struct WorkerEntry {
    name: String,
    batches_completed: u64,
    connected_at: Instant,
    lost_at: Option<Instant>,
    /// `rck_worker_jobs_total{worker=…}`, resolved on the first completed
    /// batch (not on connect: a worker that completes nothing has no row).
    jobs: Option<Arc<Counter>>,
}

/// Live counters for one service run, shared behind an `Arc` with every
/// thread the master runs. Code counts an event by calling its handle
/// where the event happens; a method exists only where one event must
/// move two handles, or a handle and the per-worker table, together.
#[derive(Debug)]
pub struct ServeStats {
    registry: Arc<Registry>,
    pub(crate) jobs_dispatched: Arc<Counter>,
    pub(crate) jobs_completed: Arc<Counter>,
    pub(crate) jobs_requeued: Arc<Counter>,
    pub(crate) batches_dispatched: Arc<Counter>,
    pub(crate) batches_completed: Arc<Counter>,
    pub(crate) batches_requeued: Arc<Counter>,
    pub(crate) stale_results: Arc<Counter>,
    pub(crate) duplicate_results: Arc<Counter>,
    pub(crate) decode_errors: Arc<Counter>,
    pub(crate) mismatched_results: Arc<Counter>,
    pub(crate) bytes_tx: Arc<Counter>,
    pub(crate) bytes_rx: Arc<Counter>,
    pub(crate) chains_shipped: Arc<Counter>,
    pub(crate) workers_connected: Arc<Counter>,
    pub(crate) workers_lost: Arc<Counter>,
    pub(crate) batch_rtt: Arc<Histogram>,
    pub(crate) heartbeat_gap: Arc<Histogram>,
    pub(crate) window: Arc<Gauge>,
    workers: Mutex<HashMap<u32, WorkerEntry>>,
}

impl Default for ServeStats {
    fn default() -> ServeStats {
        ServeStats::new()
    }
}

impl ServeStats {
    /// Fresh zeroed counters backed by a private metric registry.
    pub fn new() -> ServeStats {
        let registry = Registry::new();
        ServeStats {
            jobs_dispatched: registry.counter(
                "rck_jobs_dispatched_total",
                "jobs handed to workers, counting re-dispatches",
            ),
            jobs_completed: registry.counter(
                "rck_jobs_completed_total",
                "jobs whose outcome was accepted",
            ),
            jobs_requeued: registry.counter(
                "rck_jobs_requeued_total",
                "jobs put back on the queue after a worker was lost",
            ),
            batches_dispatched: registry.counter(
                "rck_batches_dispatched_total",
                "batches handed to workers, counting re-dispatches",
            ),
            batches_completed: registry.counter(
                "rck_batches_completed_total",
                "batches whose results were accepted",
            ),
            batches_requeued: registry.counter(
                "rck_batches_requeued_total",
                "batches put back on the queue",
            ),
            stale_results: registry.counter(
                "rck_stale_results_total",
                "result frames answering a batch id no longer in flight",
            ),
            duplicate_results: registry.counter(
                "rck_duplicate_results_total",
                "outcomes dropped because the pair was already done",
            ),
            decode_errors: registry.counter(
                "rck_serve_decode_errors_total",
                "frames the master could not decode (torn, corrupted, or out of sync)",
            ),
            mismatched_results: registry.counter(
                "rck_serve_mismatched_results_total",
                "result frames rejected for not answering their batch's jobs",
            ),
            bytes_tx: registry.counter("rck_bytes_tx_total", "bytes the master wrote to workers"),
            bytes_rx: registry.counter("rck_bytes_rx_total", "bytes the master read from workers"),
            chains_shipped: registry.counter(
                "rck_serve_chains_shipped_total",
                "chains written into job-batch chain tables",
            ),
            workers_connected: registry.counter(
                "rck_workers_connected_total",
                "workers that connected over the run",
            ),
            workers_lost: registry
                .counter("rck_workers_lost_total", "workers the master declared dead"),
            batch_rtt: registry.histogram(
                "rck_batch_rtt_seconds",
                "dispatch-to-accepted-result round trip per batch",
                DEFAULT_LATENCY_BOUNDS,
            ),
            heartbeat_gap: registry.histogram(
                "rck_heartbeat_gap_seconds",
                "time between consecutive liveness signals from a worker",
                DEFAULT_LATENCY_BOUNDS,
            ),
            window: registry.gauge(
                "rck_window_batches",
                "deepest window of batches any worker connection was given",
            ),
            workers: Mutex::new(HashMap::new()),
            registry,
        }
    }

    /// The private registry behind these counters, for Prometheus-style
    /// dumps (`rck_served --metrics-addr`, the `rck-report` bin).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    pub(crate) fn on_worker_connected(&self, id: u32, name: &str) {
        self.workers_connected.inc();
        self.workers.lock_recover().insert(
            id,
            WorkerEntry {
                name: name.to_string(),
                batches_completed: 0,
                connected_at: Instant::now(),
                lost_at: None,
                jobs: None,
            },
        );
    }

    pub(crate) fn on_worker_lost(&self, id: u32) {
        self.workers_lost.inc();
        if let Some(w) = self.workers.lock_recover().get_mut(&id) {
            w.lost_at.get_or_insert_with(Instant::now);
        }
    }

    pub(crate) fn on_batch_dispatched(&self, jobs: usize) {
        self.batches_dispatched.inc();
        self.jobs_dispatched.add(jobs as u64);
    }

    pub(crate) fn on_batch_completed(&self, worker_id: u32, jobs: usize) {
        self.batches_completed.inc();
        self.jobs_completed.add(jobs as u64);
        // The dispatcher reports a worker's handshake before its batches,
        // so a completing worker always has an entry.
        if let Some(w) = self.workers.lock_recover().get_mut(&worker_id) {
            w.batches_completed += 1;
            w.jobs
                .get_or_insert_with(|| {
                    self.registry.counter_with(
                        "rck_worker_jobs_total",
                        "jobs completed per worker",
                        &[("worker", &worker_id.to_string())],
                    )
                })
                .add(jobs as u64);
        }
    }

    pub(crate) fn on_batch_requeued(&self, jobs: usize) {
        self.batches_requeued.inc();
        self.jobs_requeued.add(jobs as u64);
    }

    /// Jobs requeued so far (tests poll this to observe fault recovery).
    pub fn jobs_requeued(&self) -> u64 {
        self.jobs_requeued.get()
    }

    /// Jobs completed so far.
    pub fn jobs_completed(&self) -> u64 {
        self.jobs_completed.get()
    }

    /// Workers that have connected so far.
    pub fn workers_connected(&self) -> u64 {
        self.workers_connected.get()
    }

    /// Freeze the counters into a reportable snapshot.
    pub fn snapshot(&self) -> StatsSnapshot {
        let workers = {
            let map = self.workers.lock_recover();
            let mut rows: Vec<WorkerRow> = map
                .iter()
                .map(|(&id, w)| {
                    // A lost worker's rate is over its connected lifetime.
                    let until = w.lost_at.unwrap_or_else(Instant::now);
                    let secs = until.duration_since(w.connected_at).as_secs_f64();
                    let jobs = w.jobs.as_ref().map_or(0, |c| c.get());
                    WorkerRow {
                        worker_id: id,
                        name: w.name.clone(),
                        jobs_completed: jobs,
                        batches_completed: w.batches_completed,
                        jobs_per_sec: if secs > 0.0 { jobs as f64 / secs } else { 0.0 },
                        lost: w.lost_at.is_some(),
                    }
                })
                .collect();
            rows.sort_by_key(|r| r.worker_id);
            rows
        };
        StatsSnapshot {
            jobs_dispatched: self.jobs_dispatched.get(),
            jobs_completed: self.jobs_completed.get(),
            jobs_requeued: self.jobs_requeued.get(),
            batches_dispatched: self.batches_dispatched.get(),
            batches_completed: self.batches_completed.get(),
            batches_requeued: self.batches_requeued.get(),
            stale_results: self.stale_results.get(),
            duplicate_results: self.duplicate_results.get(),
            decode_errors: self.decode_errors.get(),
            mismatched_results: self.mismatched_results.get(),
            bytes_tx: self.bytes_tx.get(),
            bytes_rx: self.bytes_rx.get(),
            chains_shipped: self.chains_shipped.get(),
            workers_connected: self.workers_connected.get(),
            workers_lost: self.workers_lost.get(),
            batch_rtt: self.batch_rtt.snapshot(),
            heartbeat_gap: self.heartbeat_gap.snapshot(),
            window_batches: self.window.get() as u64,
            workers,
        }
    }
}

/// One worker's line in the final report.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerRow {
    /// Id the master assigned.
    pub worker_id: u32,
    /// Name from the worker's Hello.
    pub name: String,
    /// Jobs this worker completed.
    pub jobs_completed: u64,
    /// Batches this worker completed.
    pub batches_completed: u64,
    /// Completed jobs per wall-clock second of connection.
    pub jobs_per_sec: f64,
    /// Whether the master declared this worker dead.
    pub lost: bool,
}

/// Frozen counters of one finished (or in-flight) run.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// Jobs handed to workers (counting re-dispatches).
    pub jobs_dispatched: u64,
    /// Jobs whose outcome was accepted.
    pub jobs_completed: u64,
    /// Jobs put back on the queue after a worker was lost.
    pub jobs_requeued: u64,
    /// Batches handed to workers (counting re-dispatches).
    pub batches_dispatched: u64,
    /// Batches whose results were accepted.
    pub batches_completed: u64,
    /// Batches put back on the queue.
    pub batches_requeued: u64,
    /// Result frames answering a batch id no longer in flight.
    pub stale_results: u64,
    /// Outcomes dropped because the pair was already done.
    pub duplicate_results: u64,
    /// Frames the master could not decode (torn, corrupted, out of sync).
    pub decode_errors: u64,
    /// Result frames rejected for not answering their batch's jobs.
    pub mismatched_results: u64,
    /// Bytes the master wrote to workers.
    pub bytes_tx: u64,
    /// Bytes the master read from workers.
    pub bytes_rx: u64,
    /// Chains written into job batches (residency misses).
    pub chains_shipped: u64,
    /// Workers that connected over the run.
    pub workers_connected: u64,
    /// Workers the master declared dead.
    pub workers_lost: u64,
    /// Dispatch-to-result latency distribution per batch.
    pub batch_rtt: HistogramSnapshot,
    /// Gaps between consecutive liveness signals per worker.
    pub heartbeat_gap: HistogramSnapshot,
    /// Deepest window a connection was given; `batch_rtt` includes its wait.
    pub window_batches: u64,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerRow>,
}

impl StatsSnapshot {
    /// Render the run summary plus the per-worker throughput table.
    pub fn render(&self) -> String {
        let mut totals = TextTable::new(&["counter", "value"]);
        let rows: [(&str, u64); 16] = [
            ("jobs dispatched", self.jobs_dispatched),
            ("jobs completed", self.jobs_completed),
            ("jobs requeued", self.jobs_requeued),
            ("batches dispatched", self.batches_dispatched),
            ("batches completed", self.batches_completed),
            ("batches requeued", self.batches_requeued),
            ("stale result frames", self.stale_results),
            ("duplicate outcomes", self.duplicate_results),
            ("decode errors", self.decode_errors),
            ("mismatched result frames", self.mismatched_results),
            ("bytes sent", self.bytes_tx),
            ("bytes received", self.bytes_rx),
            ("chains shipped", self.chains_shipped),
            ("workers connected", self.workers_connected),
            ("workers lost", self.workers_lost),
            ("deepest window (batches)", self.window_batches),
        ];
        for (name, value) in rows {
            totals.row(&[name.to_string(), value.to_string()]);
        }
        let mut latency = TextTable::new(&["latency", "count", "p50", "p95", "p99"]);
        for (name, snap) in [
            ("batch rtt (s)", &self.batch_rtt),
            ("heartbeat gap (s)", &self.heartbeat_gap),
        ] {
            latency.row(&[
                name.to_string(),
                snap.count.to_string(),
                fmt_pct(snap, 50.0),
                fmt_pct(snap, 95.0),
                fmt_pct(snap, 99.0),
            ]);
        }
        let mut per_worker =
            TextTable::new(&["worker", "id", "jobs", "batches", "jobs/s", "state"]);
        for w in &self.workers {
            per_worker.row(&[
                w.name.clone(),
                w.worker_id.to_string(),
                w.jobs_completed.to_string(),
                w.batches_completed.to_string(),
                format!("{:.1}", w.jobs_per_sec),
                if w.lost { "lost" } else { "ok" }.to_string(),
            ]);
        }
        format!(
            "{}\n{}\n{}",
            totals.render(),
            latency.render(),
            per_worker.render()
        )
    }
}

fn fmt_pct(snap: &HistogramSnapshot, p: f64) -> String {
    match snap.percentile(p) {
        Some(v) if v.is_finite() => format!("≤{v:.4}"),
        Some(_) => ">60".to_string(),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = ServeStats::new();
        s.on_worker_connected(0, "w0");
        s.on_worker_connected(1, "w1");
        s.on_batch_dispatched(4);
        s.on_batch_dispatched(4);
        s.on_batch_completed(0, 4);
        s.on_batch_requeued(4);
        s.on_worker_lost(1);
        s.stale_results.inc();
        s.duplicate_results.add(2);
        s.decode_errors.inc();
        s.mismatched_results.inc();
        s.bytes_tx.add(100);
        s.bytes_rx.add(40);
        s.chains_shipped.add(3);
        s.batch_rtt.observe(0.02);
        s.heartbeat_gap.observe(0.3);
        s.window.raise_to(8);
        s.window.raise_to(3);

        let snap = s.snapshot();
        assert_eq!(snap.jobs_dispatched, 8);
        assert_eq!(snap.jobs_completed, 4);
        assert_eq!(snap.jobs_requeued, 4);
        assert_eq!(snap.batches_dispatched, 2);
        assert_eq!(snap.batches_completed, 1);
        assert_eq!(snap.batches_requeued, 1);
        assert_eq!(snap.stale_results, 1);
        assert_eq!(snap.duplicate_results, 2);
        assert_eq!(snap.decode_errors, 1);
        assert_eq!(snap.mismatched_results, 1);
        assert_eq!(snap.bytes_tx, 100);
        assert_eq!(snap.bytes_rx, 40);
        assert_eq!(snap.chains_shipped, 3);
        assert_eq!(snap.workers_connected, 2);
        assert_eq!(snap.workers_lost, 1);
        assert_eq!(snap.batch_rtt.count, 1);
        assert_eq!(snap.heartbeat_gap.count, 1);
        assert_eq!(snap.window_batches, 8, "a high-water mark");
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.workers[0].name, "w0");
        assert_eq!(snap.workers[0].jobs_completed, 4);
        assert!(!snap.workers[0].lost);
        assert!(snap.workers[1].lost);
    }

    #[test]
    fn render_mentions_every_worker() {
        let s = ServeStats::new();
        s.on_worker_connected(3, "farmhand");
        s.on_batch_completed(3, 7);
        let text = s.snapshot().render();
        assert!(text.contains("farmhand"));
        assert!(text.contains("jobs requeued"));
        assert!(text.contains("decode errors"));
        assert!(text.contains("bytes sent"));
        assert!(text.contains("p95"));
    }

    #[test]
    fn registry_dump_mirrors_the_counters() {
        let s = ServeStats::new();
        s.on_worker_connected(0, "w0");
        s.on_batch_dispatched(4);
        s.on_batch_completed(0, 4);
        s.batch_rtt.observe(0.02);
        let text = s.registry().render();
        assert!(text.contains("rck_batches_completed_total 1"));
        assert!(text.contains("rck_jobs_completed_total 4"));
        assert!(text.contains("rck_worker_jobs_total{worker=\"0\"} 4"));
        assert!(text.contains("rck_batch_rtt_seconds_count 1"));
    }

    #[test]
    fn a_lost_workers_rate_stops_at_its_loss() {
        let s = ServeStats::new();
        s.on_worker_connected(0, "w0");
        s.on_batch_completed(0, 4);
        s.on_worker_lost(0);
        let before = s.snapshot().workers[0].clone();
        std::thread::sleep(std::time::Duration::from_millis(20));
        let after = s.snapshot().workers[0].clone();
        assert!(after.lost);
        assert_eq!(after.jobs_completed, 4);
        assert_eq!(before.jobs_per_sec, after.jobs_per_sec);
    }

    #[test]
    fn two_instances_do_not_share_counters() {
        let a = ServeStats::new();
        let b = ServeStats::new();
        a.on_batch_dispatched(4);
        assert_eq!(b.snapshot().batches_dispatched, 0);
    }
}
