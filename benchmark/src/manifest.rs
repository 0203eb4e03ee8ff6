//! The benchmark's declared surface: workloads, end-to-end metrics and
//! per-layer metrics. `BENCHMARK.json` at the repository root is
//! generated from these tables (`--manifest`) and a unit test keeps the
//! two identical, so a metric cannot be emitted without being declared.

use crate::json::quote;

/// How long one run measures, in seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 6;

/// The one command, as the driver types it from the checkout root.
pub const COMMAND: [&str; 2] = ["bash", "benchmark/run.sh"];

/// Directories that hold the benchmark and nothing else.
pub const PATHS: [&str; 1] = ["benchmark"];

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 8] = [
    WorkloadSpec {
        name: "farm_ck34_tm",
        why: "the paper's headline task on real compute: TM-align is >95% of the op, so dispatch changes must not show here",
    },
    WorkloadSpec {
        name: "kernel_fast_ck34",
        why: "the banded f32 fast path, reachable only by direct call; kernel work lands here and must not move farm_ck34_tm",
    },
    WorkloadSpec {
        name: "farm_rs119_rmsd",
        why: "7021 microsecond jobs: batch-mode dispatch, codec and transport are ~94% of the op; the kernel is bypassed",
    },
    WorkloadSpec {
        name: "shard_rs119_rmsd",
        why: "same pairs via frontend, tile grants and feed-mode masters: a gain for one master mode that costs the other shows",
    },
    WorkloadSpec {
        name: "gate_rs119_rmsd",
        why: "the serving tier (stride scheduler, pool dispatch, partial streaming) on 119-job queries from 2 closed-loop tenants",
    },
    WorkloadSpec {
        name: "store_cold_rs119",
        why: "the store's write path: empty log, 7021 misses, encode + checksum + append + flush",
    },
    WorkloadSpec {
        name: "store_grow_rs119",
        why: "the store's read path and reason to exist (N to N+1 chains): replay 6903 records, 6903 hits, 118 new pairs",
    },
    WorkloadSpec {
        name: "sim_ck34",
        why: "host cost of the paper's speedup sweep on the NoC simulator with a warm cache: engine threads, rcce, rckskel, codec",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// Both are wall-clock and lower is better.
pub const END_TO_END: [EndToEnd; 2] = [
    EndToEnd {
        name: "op_p25_ms",
        unit: "ms",
        bound: 0.2,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        bound: 0.25,
    },
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Ungated; printed by `--trace 1` only. The layer is the prefix (a
/// crate name); see [`moves`] for the end-to-end number each should move.
pub const PER_LAYER: &[PerLayer] = &[
    lo("pdb.generate_ms", "ms"),
    lo("pdb.residues", "count"),
    // Exact kernel-stage counts per op (stage_counters() deltas).
    lo("tmalign.alignments", "count"),
    lo("tmalign.initial_alignments", "count"),
    lo("tmalign.dp_rounds", "count"),
    lo("tmalign.kabsch_calls", "count"),
    lo("tmalign.tmsearch_calls", "count"),
    lo("tmalign.ops", "count"),
    lo("tmalign.fast_dp_rounds", "count"),
    lo("tmalign.band_widenings", "count"),
    lo("tmalign.fallbacks", "count"),
    hi("tmalign.pruned_pairs", "count"),
    hi("tmalign.pruned_demotions", "count"),
    hi("tmalign.pruned_rounds", "count"),
    lo("tmalign.fallback_ratio", "ratio"),
    lo("tmalign.widenings_per_round", "ratio"),
    // Isolated per-call times on a fixed length-stratified pair sample.
    lo("tmalign.pair_us_scalar", "us"),
    lo("tmalign.pair_us_fast", "us"),
    lo("tmalign.secstruct_us", "us"),
    lo("tmalign.initial_us", "us"),
    lo("tmalign.nw_us_scalar", "us"),
    lo("tmalign.nw_us_fast", "us"),
    lo("tmalign.kabsch_us", "us"),
    lo("tmalign.tmsearch_us", "us"),
    // Budget estimate: calls x per-call time / scalar pair time.
    lo("tmalign.share_initial", "ratio"),
    lo("tmalign.share_dp", "ratio"),
    lo("tmalign.share_kabsch", "ratio"),
    lo("tmalign.share_tmsearch", "ratio"),
    lo("tmalign.share_unattributed", "ratio"),
    lo("core.encode_payload_us", "us"),
    lo("core.decode_payload_us", "us"),
    lo("core.encode_outcome_us", "us"),
    lo("core.decode_outcome_us", "us"),
    lo("core.cache_hit_ns", "ns"),
    lo("core.prefill_rmsd_ms", "ms"),
    lo("core.tile_partition_us", "us"),
    lo("core.merge_outcomes_ms", "ms"),
    lo("core.matrix_build_ms", "ms"),
    lo("core.store_lookup_ns", "ns"),
    lo("core.store_record_ns", "ns"),
    lo("serve.encode_jobbatch_us", "us"),
    lo("serve.decode_jobbatch_us", "us"),
    lo("serve.encode_resultbatch_us", "us"),
    lo("serve.decode_resultbatch_us", "us"),
    lo("serve.jobbatch_bytes", "bytes"),
    lo("serve.memnet_rtt_us", "us"),
    lo("serve.batches_dispatched", "count"),
    lo("serve.jobs_requeued", "count"),
    lo("serve.bytes_tx", "bytes"),
    lo("serve.bytes_rx", "bytes"),
    lo("serve.batch_rtt_mean_ms", "ms"),
    lo("serve.boot_ms", "ms"),
    lo("serve.teardown_ms", "ms"),
    lo("serve.overhead_us_per_batch", "us"),
    hi("serve.parallel_efficiency", "ratio"),
    lo("shard.tiles_granted", "count"),
    lo("shard.tiles_stolen", "count"),
    lo("shard.tiles_requeued", "count"),
    lo("shard.duplicate_tiles", "count"),
    lo("shard.master_share_max", "ratio"),
    lo("shard.tile_rtt_mean_ms", "ms"),
    lo("shard.build_tilegrant_us", "us"),
    lo("shard.boot_ms", "ms"),
    lo("shard.teardown_ms", "ms"),
    lo("shard.overhead_vs_farm_pct", "%"),
    lo("gate.sched_pick_ns_2", "ns"),
    lo("gate.sched_pick_ns_16", "ns"),
    lo("gate.reference_ranking_us", "us"),
    lo("gate.overhead_ms", "ms"),
    lo("gate.query_p50_ms", "ms"),
    lo("gate.query_p90_ms", "ms"),
    lo("gate.query_p99_ms", "ms"),
    hi("gate.queries_per_s", "1/s"),
    lo("gate.jobs_dispatched", "count"),
    lo("gate.partials_streamed", "count"),
    lo("gate.queries_coalesced", "count"),
    lo("gate.queries_rejected", "count"),
    lo("gate.first_result_mean_ms", "ms"),
    lo("store.encode_record_ns", "ns"),
    lo("store.append_us", "us"),
    lo("store.flush_ms", "ms"),
    lo("store.open_replay_ms", "ms"),
    lo("store.scan_log_ms", "ms"),
    lo("store.get_hit_ns", "ns"),
    lo("store.get_miss_ns", "ns"),
    lo("store.compact_ms", "ms"),
    lo("store.bytes_per_record", "bytes"),
    hi("store.hits", "count"),
    lo("store.misses", "count"),
    lo("store.appends", "count"),
    // Simulated (exact) numbers of the sweep, then host costs.
    lo("noc.sim_makespan_s_47", "s"),
    hi("noc.sim_speedup_47", "ratio"),
    lo("noc.sim_master_util_47", "ratio"),
    lo("noc.messages", "count"),
    lo("noc.bytes", "bytes"),
    lo("noc.host_us_per_message", "us"),
    lo("noc.pingpong_host_us", "us"),
    lo("noc.spawn48_ms", "ms"),
    lo("rcce.barrier_host_us", "us"),
    lo("rckskel.farm_host_us_per_job", "us"),
    lo("obs.counter_inc_ns", "ns"),
    lo("obs.histogram_observe_ns", "ns"),
    lo("obs.render_us", "us"),
    lo("mem.peak_rss_mb", "MB"),
    lo("mem.peak_heap_mb", "MB"),
    lo("trace.overhead_pct", "%"),
];

/// The "moves →" column of the layer table: which end-to-end metric, on
/// which workload, a layer's numbers are expected to move — written
/// down before measuring, so a gain that shows up elsewhere is a finding.
pub fn moves(metric: &str) -> &'static str {
    let layer = metric.split('.').next().unwrap_or("");
    match layer {
        "pdb" => "setup_s, every workload",
        "tmalign" => "op_p25_ms: scalar rows farm_ck34_tm, fast rows kernel_fast_ck34, no *_rmsd workload",
        "core" => "op_p25_ms: codec/cache rows sim_ck34, tile/merge rows shard_rs119_rmsd, store rows store_*",
        "serve" => "op_p25_ms on farm_rs119_rmsd (<=3% on farm_ck34_tm)",
        "shard" => "op_p25_ms on shard_rs119_rmsd",
        "gate" => "op_p25_ms on gate_rs119_rmsd",
        "store" => "op_p25_ms: append/flush/encode store_cold_rs119, open/scan/get store_grow_rs119, nothing else",
        "noc" | "rcce" | "rckskel" => "op_p25_ms on sim_ck34 only",
        "obs" => "<1% of gate_rs119_rmsd",
        _ => "reported per workload, moves nothing",
    }
}

/// The exact text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let list = |items: &[&str]| {
        items
            .iter()
            .map(|s| quote(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", list(&COMMAND)));
    out.push_str(&format!("  \"paths\": [{}],\n", list(&PATHS)));
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                quote(w.name),
                quote(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"lower\", \"bound\": {}}}",
                quote(m.name),
                quote(m.unit),
                m.bound
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                quote(m.unit),
                quote(m.better.as_str())
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_fit_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        let mut seen = HashSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "duplicate name {}", w.name);
        }
        for m in &END_TO_END {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        for m in PER_LAYER {
            assert!(valid_name(m.name) && valid_unit(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate name {}", m.name);
        }
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn setup_s_is_declared_with_the_largest_bound() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is mandatory");
        assert_eq!(setup.unit, "s");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: bash benchmark/run.sh --manifest > BENCHMARK.json"
        );
    }

    #[test]
    fn every_layer_has_a_moves_entry() {
        for m in PER_LAYER {
            assert!(!moves(m.name).is_empty());
        }
        assert!(moves("serve.boot_ms").contains("farm_rs119_rmsd"));
        assert!(moves("mem.peak_rss_mb").contains("moves nothing"));
    }
}
