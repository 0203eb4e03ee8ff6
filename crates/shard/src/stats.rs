//! Frontend counters for the sharded farm.
//!
//! Same shape as `rck_serve::ServeStats`: handles into a private
//! [`rck_obs::Registry`], so the tile-dialect counters feed both the
//! end-of-run [`ShardSnapshot`] and Prometheus-style text dumps. The
//! registry is per-instance — two frontends in one process (as in the
//! loopback tests) must not share counters.

use rck_obs::{Counter, Histogram, Registry, DEFAULT_LATENCY_BOUNDS};
use rck_serve::MutexExt;
use rckalign::report::TextTable;
use std::sync::{Arc, Mutex};

/// Live counters for one sharded run, shared behind an `Arc` with every
/// thread the frontend runs. Code counts an event by calling its handle
/// where the event happens; a method exists only where one event must
/// move two handles, or a handle and the per-master table, together.
#[derive(Debug)]
pub struct ShardStats {
    registry: Arc<Registry>,
    pub(crate) tiles_granted: Arc<Counter>,
    pub(crate) tiles_completed: Arc<Counter>,
    pub(crate) tiles_requeued: Arc<Counter>,
    pub(crate) tiles_stolen: Arc<Counter>,
    pub(crate) stale_tiles: Arc<Counter>,
    pub(crate) mismatched_tiles: Arc<Counter>,
    pub(crate) masters_connected: Arc<Counter>,
    pub(crate) masters_lost: Arc<Counter>,
    pub(crate) store_pairs: Arc<Counter>,
    pub(crate) tile_rtt: Arc<Histogram>,
    /// Per master: id, name and its `rck_shard_master_tiles_total` handle.
    masters: Mutex<Vec<(u32, String, Arc<Counter>)>>,
}

impl Default for ShardStats {
    fn default() -> ShardStats {
        ShardStats::new()
    }
}

impl ShardStats {
    /// Fresh zeroed counters backed by a private metric registry.
    pub fn new() -> ShardStats {
        let registry = Registry::new();
        ShardStats {
            tiles_granted: registry.counter(
                "rck_shard_tiles_granted_total",
                "tiles granted to shard masters, counting re-grants",
            ),
            tiles_completed: registry.counter(
                "rck_shard_tiles_completed_total",
                "tiles whose results were accepted",
            ),
            tiles_requeued: registry.counter(
                "rck_shard_tiles_requeued_total",
                "tiles put back for re-grant after a master was lost or a deadline expired",
            ),
            tiles_stolen: registry.counter(
                "rck_shard_tiles_stolen_total",
                "tiles granted from another master's ownership queue",
            ),
            stale_tiles: registry.counter(
                "rck_shard_stale_tiles_total",
                "tile results dropped because their master no longer held the tile",
            ),
            mismatched_tiles: registry.counter(
                "rck_shard_mismatched_tiles_total",
                "tile results rejected for not answering the tile's jobs",
            ),
            masters_connected: registry.counter(
                "rck_shard_masters_connected_total",
                "shard masters that connected over the run",
            ),
            masters_lost: registry.counter(
                "rck_shard_masters_lost_total",
                "shard masters the frontend declared dead",
            ),
            store_pairs: registry.counter(
                "rck_shard_store_pairs_total",
                "pairs answered from the persistent store without dispatch",
            ),
            tile_rtt: registry.histogram(
                "rck_shard_tile_rtt_seconds",
                "grant-to-accepted-result round trip per tile",
                DEFAULT_LATENCY_BOUNDS,
            ),
            masters: Mutex::new(Vec::new()),
            registry,
        }
    }

    /// The private registry behind these counters, for Prometheus-style
    /// dumps (`rck_shardd --metrics-addr`).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    pub(crate) fn on_master_connected(&self, id: u32, name: &str) {
        self.masters_connected.inc();
        // Registered at zero on connect so a master that never completes
        // a tile still shows up in dumps.
        let tiles = self.registry.counter_with(
            "rck_shard_master_tiles_total",
            "tiles completed per shard master",
            &[("master", &id.to_string())],
        );
        self.masters
            .lock_recover()
            .push((id, name.to_string(), tiles));
    }

    pub(crate) fn on_tile_granted(&self, stolen: bool) {
        self.tiles_granted.inc();
        if stolen {
            self.tiles_stolen.inc();
        }
    }

    pub(crate) fn on_tile_completed(&self, master_id: u32, rtt_seconds: Option<f64>) {
        self.tiles_completed.inc();
        if let Some(secs) = rtt_seconds {
            self.tile_rtt.observe(secs);
        }
        let masters = self.masters.lock_recover();
        if let Some((_, _, tiles)) = masters.iter().find(|(id, _, _)| *id == master_id) {
            tiles.inc();
        }
    }

    /// Tiles completed so far (tests poll this).
    pub fn tiles_completed(&self) -> u64 {
        self.tiles_completed.get()
    }

    /// Freeze the counters into a reportable snapshot.
    pub fn snapshot(&self) -> ShardSnapshot {
        ShardSnapshot {
            tiles_granted: self.tiles_granted.get(),
            tiles_completed: self.tiles_completed.get(),
            tiles_requeued: self.tiles_requeued.get(),
            tiles_stolen: self.tiles_stolen.get(),
            duplicate_tiles: 0,
            stale_tiles: self.stale_tiles.get(),
            mismatched_tiles: self.mismatched_tiles.get(),
            masters_connected: self.masters_connected.get(),
            masters_lost: self.masters_lost.get(),
            store_pairs: self.store_pairs.get(),
            masters: (self.masters.lock_recover().iter())
                .map(|(id, name, tiles)| (*id, name.clone(), tiles.get()))
                .collect(),
        }
    }
}

/// Frozen counters of one finished (or in-flight) sharded run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSnapshot {
    /// Tiles granted to masters (counting re-grants).
    pub tiles_granted: u64,
    /// Tiles whose results were accepted.
    pub tiles_completed: u64,
    /// Tiles put back for re-grant.
    pub tiles_requeued: u64,
    /// Tiles granted out of another master's ownership queue.
    pub tiles_stolen: u64,
    /// Always 0: the dispatcher settles each grant once, so the frontend
    /// never sees a tile's result twice (see `rck_serve::dispatch`). The
    /// field stays for readers that name it.
    pub duplicate_tiles: u64,
    /// Tile results dropped because their master no longer held the tile
    /// (a late answer after a requeue, or a replay).
    pub stale_tiles: u64,
    /// Tile results rejected for not answering the tile's jobs.
    pub mismatched_tiles: u64,
    /// Masters that connected over the run.
    pub masters_connected: u64,
    /// Masters declared dead.
    pub masters_lost: u64,
    /// Pairs answered from the persistent store without dispatch.
    pub store_pairs: u64,
    /// `(master id, name, tiles completed)` per connected master.
    pub masters: Vec<(u32, String, u64)>,
}

impl ShardSnapshot {
    /// Render the run summary plus the per-master tile table.
    pub fn render(&self) -> String {
        let mut totals = TextTable::new(&["counter", "value"]);
        let rows: [(&str, u64); 9] = [
            ("tiles granted", self.tiles_granted),
            ("tiles completed", self.tiles_completed),
            ("tiles requeued", self.tiles_requeued),
            ("tiles stolen", self.tiles_stolen),
            ("stale tile results", self.stale_tiles),
            ("mismatched tile results", self.mismatched_tiles),
            ("masters connected", self.masters_connected),
            ("masters lost", self.masters_lost),
            ("store-answered pairs", self.store_pairs),
        ];
        for (name, value) in rows {
            totals.row(&[name.to_string(), value.to_string()]);
        }
        let mut per_master = TextTable::new(&["master", "id", "tiles"]);
        for (id, name, tiles) in &self.masters {
            per_master.row(&[name.clone(), id.to_string(), tiles.to_string()]);
        }
        format!("{}\n{}", totals.render(), per_master.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let s = ShardStats::new();
        s.on_master_connected(0, "m0");
        s.on_master_connected(1, "m1");
        s.on_tile_granted(false);
        s.on_tile_granted(true);
        s.on_tile_completed(0, Some(0.01));
        s.tiles_requeued.add(2);
        s.masters_lost.inc();
        s.stale_tiles.add(3);
        s.mismatched_tiles.inc();
        s.store_pairs.add(5);
        let snap = s.snapshot();
        assert_eq!(snap.tiles_granted, 2);
        assert_eq!(snap.tiles_stolen, 1);
        assert_eq!(snap.tiles_completed, 1);
        assert_eq!(snap.tiles_requeued, 2);
        assert_eq!(snap.masters_connected, 2);
        assert_eq!(snap.masters_lost, 1);
        assert_eq!(snap.duplicate_tiles, 0, "never moves");
        assert_eq!(snap.stale_tiles, 3);
        assert_eq!(snap.mismatched_tiles, 1);
        assert_eq!(snap.store_pairs, 5);
        assert_eq!(snap.masters[0].2, 1, "master 0 credited with its tile");
        let text = snap.render();
        assert!(text.contains("tiles stolen"));
        assert!(text.contains("m1"));
    }

    #[test]
    fn registry_dump_mirrors_the_counters() {
        let s = ShardStats::new();
        s.on_tile_granted(true);
        s.on_tile_completed(7, None);
        let text = s.registry().render();
        assert!(text.contains("rck_shard_tiles_granted_total 1"));
        assert!(text.contains("rck_shard_tiles_stolen_total 1"));
        assert!(text.contains("rck_shard_tiles_completed_total 1"));
    }
}
