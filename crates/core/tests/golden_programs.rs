//! Every simulated rckAlign program, pinned: one run per program on
//! TINY8 (seed 2013), hashed over everything its `SimReport` reports
//! and over its outcomes in collection order. Any change to job ids,
//! payload bytes, core numbering or message order moves a makespan or a
//! per-core counter, and with it the hash.

use rck_noc::{NocConfig, SimReport};
use rck_pdb::datasets;
use rck_tmalign::MethodKind;
use rckalign::{
    all_vs_all, run_all_vs_all, run_distributed, run_hierarchical, run_mcpsc, run_one_vs_all,
    DistributedConfig, HierarchyOptions, JobOrdering, McPscOptions, OneVsAllOptions, PairCache,
    PairOutcome, PartitionStrategy, RckAlignOptions, Scheduling,
};

/// Computed at commit `374db16`, before the programs were folded onto
/// one farm, one pair slave and one run tail.
const ALL_VS_ALL_FARM: u64 = 0x90a2_dde8_001a_28c4;
const ALL_VS_ALL_WAVES: u64 = 0xe3cf_7fd2_2089_ed35;
const ONE_VS_ALL: u64 = 0x3ad4_b749_6f6a_c35c;
const HIERARCHICAL: u64 = 0x9489_2fc5_934b_f0f9;
const MCPSC_EQUAL: u64 = 0x36d6_5af2_494d_06b3;
const MCPSC_PROPORTIONAL: u64 = 0x9c1e_91ab_56a3_ca3e;
const DISTRIBUTED: u64 = 0x7a36_e5c7_7ed9_c12b;

const METHODS: [MethodKind; 3] = [
    MethodKind::TmAlign,
    MethodKind::KabschRmsd,
    MethodKind::ContactMap,
];

fn tiny8() -> PairCache {
    PairCache::new(datasets::tiny_profile().generate(2013))
}

fn fnv1a(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Hash the report (makespan, every per-core counter, message and byte
/// totals) and the outcomes in collection order, `f64`s as bits.
fn fingerprint(report: &SimReport, outcomes: &[PairOutcome]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut hash, report.makespan.0);
    fnv1a(&mut hash, report.per_core.len() as u64);
    for c in &report.per_core {
        for word in [
            c.busy.0,
            c.comm.0,
            c.idle.0,
            c.msgs_sent,
            c.msgs_recv,
            c.bytes_sent,
            c.bytes_recv,
            c.probes,
        ] {
            fnv1a(&mut hash, word);
        }
    }
    fnv1a(&mut hash, report.total_messages());
    fnv1a(&mut hash, report.total_bytes());
    fnv1a(&mut hash, outcomes.len() as u64);
    for o in outcomes {
        for word in [
            o.i as u64,
            o.j as u64,
            o.method.code() as u64,
            o.similarity.to_bits(),
            o.rmsd.to_bits(),
            o.aligned_len as u64,
            o.ops,
        ] {
            fnv1a(&mut hash, word);
        }
    }
    hash
}

fn check(name: &str, report: &SimReport, outcomes: &[PairOutcome], golden: u64) {
    let hash = fingerprint(report, outcomes);
    assert_eq!(
        hash,
        golden,
        "{name}: schedule hash {hash:#018x} (makespan {} ns, {} outcomes)",
        report.makespan.0,
        outcomes.len()
    );
}

#[test]
fn all_vs_all_under_farm_is_pinned() {
    let cache = tiny8();
    let run = run_all_vs_all(&cache, &RckAlignOptions::paper(5));
    check(
        "all_vs_all/farm",
        &run.report,
        &run.outcomes,
        ALL_VS_ALL_FARM,
    );
}

#[test]
fn all_vs_all_under_waves_is_pinned() {
    let cache = tiny8();
    let opts = RckAlignOptions {
        scheduling: Scheduling::Waves,
        ordering: JobOrdering::LongestFirst,
        ..RckAlignOptions::paper(3)
    };
    let run = run_all_vs_all(&cache, &opts);
    check(
        "all_vs_all/waves",
        &run.report,
        &run.outcomes,
        ALL_VS_ALL_WAVES,
    );
}

#[test]
fn one_vs_all_is_pinned() {
    let cache = tiny8();
    let opts = OneVsAllOptions {
        methods: vec![MethodKind::TmAlign, MethodKind::ContactMap],
        n_slaves: 4,
        noc: NocConfig::scc(),
    };
    let run = run_one_vs_all(&cache, 3, &opts);
    check("one_vs_all", &run.report, &run.outcomes, ONE_VS_ALL);
}

#[test]
fn hierarchy_is_pinned() {
    let cache = tiny8();
    let opts = HierarchyOptions {
        n_submasters: 2,
        slaves_per_submaster: 3,
        method: MethodKind::TmAlign,
        ordering: JobOrdering::LongestFirst,
        noc: NocConfig::scc(),
    };
    let run = run_hierarchical(&cache, &opts);
    check("hierarchical", &run.report, &run.outcomes, HIERARCHICAL);
}

#[test]
fn mcpsc_is_pinned_under_both_partitions() {
    let cache = tiny8();
    for (strategy, n_slaves, golden) in [
        (PartitionStrategy::Equal, 7, MCPSC_EQUAL),
        (PartitionStrategy::ProportionalToCost, 9, MCPSC_PROPORTIONAL),
    ] {
        let opts = McPscOptions {
            methods: METHODS.to_vec(),
            n_slaves,
            strategy,
            noc: NocConfig::scc(),
        };
        let run = run_mcpsc(&cache, &opts);
        check(
            &format!("mcpsc/{strategy:?}"),
            &run.report,
            &run.outcomes,
            golden,
        );
    }
}

#[test]
fn distributed_baseline_is_pinned() {
    let cache = tiny8();
    let jobs = all_vs_all(cache.len(), MethodKind::TmAlign);
    let run = run_distributed(
        &cache,
        &jobs,
        4,
        &NocConfig::scc(),
        &DistributedConfig::default(),
    );
    check("distributed", &run.report, &run.outcomes, DISTRIBUTED);
}
