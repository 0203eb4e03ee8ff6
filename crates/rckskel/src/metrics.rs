//! Farm-level counters in the process-global metric registry.
//!
//! The simulated farm is a deterministic discrete-event system; these
//! counters observe it without perturbing it (relaxed atomics, no
//! simulated time charged). They answer the questions behind the
//! paper's Fig. 6 load profile: how many jobs each slave processed, how
//! deep the master's pending queue ran, how many dispatch rounds the
//! construct took.

use rck_obs::{Counter, Gauge, Registry};
use std::sync::{Arc, OnceLock};

/// Handles to the farm counter family.
#[derive(Debug)]
pub struct FarmMetrics {
    /// Completed farm rounds.
    pub rounds: Arc<Counter>,
    /// Jobs dispatched to slaves (all constructs that use the farm).
    pub jobs_dispatched: Arc<Counter>,
    /// Results collected back from slaves.
    pub results_collected: Arc<Counter>,
    /// Jobs not yet dispatched in the currently running round.
    pub queue_depth: Arc<Gauge>,
    /// Jobs dispatched to a slave whose result has not come back yet.
    ///
    /// Together with the counters this closes the farm's accounting
    /// equation — `dispatched == collected + inflight` holds at every
    /// instant, so a nonzero residue after a round pinpoints exactly how
    /// many jobs died with a failed slave.
    pub jobs_inflight: Arc<Gauge>,
}

static FARM: OnceLock<FarmMetrics> = OnceLock::new();

/// The process-wide farm metrics (registered in [`Registry::global`] on
/// first use).
pub fn farm_metrics() -> &'static FarmMetrics {
    FARM.get_or_init(|| {
        let reg = Registry::global();
        FarmMetrics {
            rounds: reg.counter("rck_farm_rounds_total", "completed farm rounds"),
            jobs_dispatched: reg.counter(
                "rck_farm_jobs_dispatched_total",
                "jobs the farm master sent to slaves",
            ),
            results_collected: reg.counter(
                "rck_farm_results_total",
                "results the farm master collected from slaves",
            ),
            queue_depth: reg.gauge(
                "rck_farm_queue_depth",
                "jobs pending dispatch in the running farm round",
            ),
            jobs_inflight: reg.gauge(
                "rck_farm_jobs_inflight",
                "jobs dispatched to slaves and not yet collected",
            ),
        }
    })
}

/// Per-slave completed-jobs counter, labeled by simulator rank.
pub fn slave_jobs(rank: usize) -> Arc<Counter> {
    let rank = rank.to_string();
    Registry::global().counter_with(
        "rck_farm_slave_jobs_total",
        "jobs completed per slave rank",
        &[("slave", &rank)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farm_metrics_register_globally() {
        farm_metrics().rounds.add(0);
        slave_jobs(999).add(0);
        let text = Registry::global().render();
        assert!(text.contains("rck_farm_rounds_total"));
        assert!(text.contains("rck_farm_slave_jobs_total{slave=\"999\"}"));
    }
}
