//! Every "(ext.)" experiment of DESIGN.md's index — results the paper
//! predicts or motivates but does not tabulate: six paper-scale ablations
//! of the design choices on CK34 with 47 slaves (the paper's full-chip
//! configuration), the slave-utilization / master-share figure, and the
//! 128-core what-if on RS119.

use rck_noc::{NocConfig, Topology};
use rck_tmalign::MethodKind;
use rckalign::report::{ascii_chart, fmt_secs, fmt_speedup, Series, TextTable};
use rckalign::{
    run_all_vs_all, run_hierarchical, run_mcpsc, serial, utilization_sweep, CpuModel,
    HierarchyOptions, JobOrdering, McPscOptions, PairCache, PartitionStrategy, RckAlignOptions,
    Scheduling,
};
use rckalign_bench::{ck34_cache, rs119_cache};

/// Extension figure: per-slave utilization and the master's
/// communication share as the slave count grows, at SCC speed and with
/// 16× faster cores. Quantifies the paper's §V-D prediction that the
/// single master becomes the bottleneck once cores get faster.
fn utilization_figure(cache: &PairCache) {
    let counts = [1usize, 5, 9, 15, 21, 27, 33, 39, 47];
    let slow = utilization_sweep(cache, &counts, RckAlignOptions::paper);
    let fast = utilization_sweep(cache, &counts, |n| RckAlignOptions {
        noc: NocConfig::scc().with_freq(12.8e9),
        ..RckAlignOptions::paper(n)
    });
    let mut table = TextTable::new(&[
        "Slaves",
        "util @800MHz",
        "master-comm @800MHz",
        "util @12.8GHz",
        "master-comm @12.8GHz",
    ]);
    for (s, f) in slow.iter().zip(&fast) {
        table.row(&[
            s.slaves.to_string(),
            format!("{:.1}%", s.mean_slave_utilization * 100.0),
            format!("{:.2}%", s.master_comm_fraction * 100.0),
            format!("{:.1}%", f.mean_slave_utilization * 100.0),
            format!("{:.2}%", f.master_comm_fraction * 100.0),
        ]);
    }
    println!("\nFigure (extension) — slave utilization and master communication share\n");
    print!("{}", table.render());

    println!("\nmean slave utilization vs slave count\n");
    let curve = |label: &str, marker, sweep: &[rckalign::UtilizationPoint]| Series {
        label: label.into(),
        marker,
        points: sweep
            .iter()
            .map(|p| (p.slaves as f64, p.mean_slave_utilization * 100.0))
            .collect(),
    };
    print!(
        "{}",
        ascii_chart(
            &[
                curve("800 MHz SCC", '*', &slow),
                curve("16x faster cores", 'o', &fast),
            ],
            60,
            16,
            false,
        )
    );
    let last_slow = slow.last().expect("non-empty");
    let last_fast = fast.last().expect("non-empty");
    println!(
        "\nAt 47 slaves the master spends {:.2}% of the run communicating at 800 MHz\n\
         but {:.2}% with 16x faster cores — the paper's predicted master bottleneck\n\
         (\"a hierarchy of master processes\" is the proposed fix; see Ablation 3).",
        last_slow.master_comm_fraction * 100.0,
        last_fast.master_comm_fraction * 100.0
    );
}

/// Forward-looking what-if (paper §I/§V-D): "the technology used is
/// scalable to support more than 100 cores on a single chip" and "further
/// speedup can be achieved on many-core processors with a greater number
/// of cores". Scales the simulated mesh to 8×8 tiles (128 cores) and
/// sweeps rckAlign past the SCC's 47-slave ceiling on RS119.
fn whatif_128_cores(cache: &PairCache) {
    let scc128 = NocConfig {
        topology: Topology {
            mesh_cols: 8,
            mesh_rows: 8,
            cores_per_tile: 2,
        },
        ..NocConfig::scc()
    };
    assert_eq!(scc128.topology.core_count(), 128);

    let jobs = rckalign::all_vs_all(cache.len(), MethodKind::TmAlign);
    let base = serial::serial_time_secs(cache, &jobs, &CpuModel::p54c_800(), scc128.cycles_per_op);

    println!("\nWhat-if — a 128-core SCC-class chip (8×8 tiles), RS119 all-vs-all\n");
    let mut t = TextTable::new(&["Slave Cores", "Time (s)", "Speedup", "Efficiency"]);
    for n in [23usize, 47, 63, 95, 127] {
        let run = run_all_vs_all(
            cache,
            &RckAlignOptions {
                noc: scc128.clone(),
                ..RckAlignOptions::paper(n)
            },
        );
        let speedup = base / run.makespan_secs;
        t.row(&[
            n.to_string(),
            fmt_secs(run.makespan_secs),
            fmt_speedup(speedup),
            format!("{:.1}%", speedup / n as f64 * 100.0),
        ]);
    }
    print!("{}", t.render());
    println!("\nThe 7021-job RS119 workload keeps the farm efficient well past the");
    println!("SCC's 47 slaves — the paper's scaling expectation holds on this model.");
    println!("(Smaller datasets hit the tail-imbalance wall sooner: that is the");
    println!("CK34-vs-RS119 gap of Table IV writ large.)");
}

fn main() {
    let cache = ck34_cache();
    eprintln!("computing CK34 pair cache…");
    rckalign::experiments::prepare(&cache);

    // 1. Load balancing (paper runs FIFO and cites that balancing helps).
    println!("Ablation 1 — job ordering (CK34, 47 slaves, FARM)\n");
    let mut t = TextTable::new(&["Ordering", "Makespan (s)"]);
    for (name, ordering) in [
        ("FIFO (paper)", JobOrdering::Fifo),
        ("Longest-first", JobOrdering::LongestFirst),
        ("Shuffled(7)", JobOrdering::Shuffled(7)),
    ] {
        let run = run_all_vs_all(
            &cache,
            &RckAlignOptions {
                ordering,
                ..RckAlignOptions::paper(47)
            },
        );
        t.row(&[name.into(), fmt_secs(run.makespan_secs)]);
    }
    print!("{}", t.render());

    // 2. Scheduling: dynamic FARM vs static waves.
    println!("\nAblation 2 — scheduling (CK34, 47 slaves, FIFO)\n");
    let mut t = TextTable::new(&["Scheduling", "Makespan (s)"]);
    for (name, scheduling) in [
        ("FARM (dynamic, paper)", Scheduling::Farm),
        ("PAR+COLLECT waves", Scheduling::Waves),
    ] {
        let run = run_all_vs_all(
            &cache,
            &RckAlignOptions {
                scheduling,
                ..RckAlignOptions::paper(47)
            },
        );
        t.row(&[name.into(), fmt_secs(run.makespan_secs)]);
    }
    print!("{}", t.render());

    // 3. Hierarchical masters at equal slave budget.
    println!("\nAblation 3 — master hierarchy (CK34, ~44 working slaves)\n");
    let mut t = TextTable::new(&["Organisation", "Makespan (s)"]);
    let flat = run_all_vs_all(&cache, &RckAlignOptions::paper(44));
    t.row(&[
        "flat: 1 master × 44 slaves".into(),
        fmt_secs(flat.makespan_secs),
    ]);
    for (k, s) in [(2usize, 22usize), (4, 10)] {
        let h = run_hierarchical(
            &cache,
            &HierarchyOptions {
                n_submasters: k,
                slaves_per_submaster: s,
                method: MethodKind::TmAlign,
                ordering: JobOrdering::Fifo,
                noc: NocConfig::scc(),
            },
        );
        t.row(&[
            format!("two-level: {k} sub-masters × {s} slaves"),
            fmt_secs(h.makespan_secs),
        ]);
    }
    print!("{}", t.render());

    // 4. Faster cores: efficiency and master load at 47 slaves. MPB
    // bandwidth is mesh-bound, so the master's data-shipping time does
    // not shrink with the core clock.
    println!("\nAblation 4 — faster cores (CK34, 47 slaves)\n");
    let mut t = TextTable::new(&[
        "Core clock",
        "Makespan (s)",
        "Speedup vs 1 slave",
        "Efficiency",
        "Master comm share",
    ]);
    for mult in [1u32, 16, 256, 4096] {
        let noc = NocConfig::scc().with_freq(800e6 * mult as f64);
        let t1 = run_all_vs_all(
            &cache,
            &RckAlignOptions {
                noc: noc.clone(),
                ..RckAlignOptions::paper(1)
            },
        )
        .makespan_secs;
        let run47 = run_all_vs_all(
            &cache,
            &RckAlignOptions {
                noc,
                ..RckAlignOptions::paper(47)
            },
        );
        let u = rckalign::utilization(&run47.report, 47);
        let speedup = t1 / run47.makespan_secs;
        t.row(&[
            format!("{:.1} GHz", 0.8 * mult as f64),
            fmt_secs(run47.makespan_secs),
            format!("{speedup:.2}"),
            format!("{:.1}%", speedup / 47.0 * 100.0),
            format!("{:.1}%", u.master_comm_fraction * 100.0),
        ]);
    }
    print!("{}", t.render());
    println!("\n(the paper's §V-D prediction: as cores speed up, the fixed-rate mesh");
    println!("transfers make the single master an ever larger share of the run)");

    // 5. Mesh link contention: the paper credits the near-linear speedup
    // to "the low cost of exchanging data between processes running on
    // cores connected by a high speed interconnection network" — with the
    // congestion model on, the makespan should barely move.
    println!("\nAblation 5 — mesh link contention (CK34, 47 slaves)\n");
    let mut t = TextTable::new(&["Mesh model", "Makespan (s)"]);
    for (name, contention) in [
        ("contention-free (default)", false),
        ("per-link FCFS contention", true),
    ] {
        let mut noc = NocConfig::scc();
        noc.link_contention = contention;
        let run = run_all_vs_all(
            &cache,
            &RckAlignOptions {
                noc,
                ..RckAlignOptions::paper(47)
            },
        );
        t.row(&[name.into(), format!("{:.2}", run.makespan_secs)]);
    }
    print!("{}", t.render());
    println!("(the mesh is nowhere near saturated by rckAlign's job traffic,");
    println!("confirming the paper's attribution of the linear speedup)");

    // 6. MC-PSC partitioning.
    println!("\nAblation 6 — MC-PSC core partitioning (CK34, 45 slaves, 3 methods)\n");
    let mut t = TextTable::new(&["Strategy", "Makespan (s)", "Partition"]);
    for strategy in [
        PartitionStrategy::Equal,
        PartitionStrategy::ProportionalToCost,
    ] {
        let run = run_mcpsc(
            &cache,
            &McPscOptions {
                methods: vec![
                    MethodKind::TmAlign,
                    MethodKind::KabschRmsd,
                    MethodKind::ContactMap,
                ],
                n_slaves: 45,
                strategy,
                noc: NocConfig::scc(),
            },
        );
        let partition = run
            .partition
            .iter()
            .map(|(m, n)| format!("{}={n}", m.name()))
            .collect::<Vec<_>>()
            .join(" ");
        t.row(&[
            format!("{strategy:?}"),
            fmt_secs(run.makespan_secs),
            partition,
        ]);
    }
    print!("{}", t.render());
    utilization_figure(&cache);

    let rs = rs119_cache();
    eprintln!("computing RS119 pair cache…");
    rckalign::experiments::prepare(&rs);
    whatif_128_cores(&rs);
}
