//! Store instrumentation: the `rck_store_*` counter families
//! (catalogued in DESIGN.md §9).

use rck_obs::{Counter, Registry};
use std::sync::Arc;

/// Counter handles for one store, registered on a shared registry.
/// Registration is idempotent per registry (same-name handles share the
/// underlying counter), so several stores on one process accumulate
/// into one family.
#[derive(Debug, Clone)]
pub struct StoreCounters {
    /// Lookups answered from the store.
    pub hits: Arc<Counter>,
    /// Lookups that found nothing (the pair must be computed).
    pub misses: Arc<Counter>,
    /// Records appended to the log.
    pub appends: Arc<Counter>,
    /// Log writes issued by appends (one per `Store::append_all` call).
    pub writes: Arc<Counter>,
    /// Log compactions completed (atomic-rename rewrites).
    pub compactions: Arc<Counter>,
    /// Intact records recovered by an open-time scan.
    pub recovered_records: Arc<Counter>,
    /// Open-time truncations of a torn or corrupt log tail.
    pub torn_tail_truncations: Arc<Counter>,
}

impl StoreCounters {
    /// Register (or re-acquire) the store families on `registry`.
    pub fn register(registry: &Registry) -> StoreCounters {
        StoreCounters {
            hits: registry.counter("rck_store_hits_total", "store lookups answered from disk"),
            misses: registry.counter("rck_store_misses_total", "store lookups that missed"),
            appends: registry.counter("rck_store_appends_total", "records appended to the log"),
            writes: registry.counter("rck_store_writes_total", "log writes issued by appends"),
            compactions: registry.counter("rck_store_compactions_total", "log compactions"),
            recovered_records: registry.counter(
                "rck_store_recovered_records_total",
                "intact records recovered on open",
            ),
            torn_tail_truncations: registry.counter(
                "rck_store_torn_tail_truncations_total",
                "torn or corrupt log tails truncated on open",
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_register_and_render() {
        let reg = Registry::new();
        let c = StoreCounters::register(&reg);
        c.hits.add(3);
        c.torn_tail_truncations.inc();
        let text = reg.render();
        assert!(text.contains("rck_store_hits_total 3"));
        assert!(text.contains("rck_store_torn_tail_truncations_total 1"));
        assert!(text.contains("# TYPE rck_store_misses_total counter"));
    }

    #[test]
    fn re_registration_shares_counters() {
        let reg = Registry::new();
        let a = StoreCounters::register(&reg);
        let b = StoreCounters::register(&reg);
        a.appends.inc();
        b.appends.inc();
        assert_eq!(a.appends.get(), 2);
    }
}
