//! The paper's evaluation in one process: print Tables I–V and Figures
//! 5–6 next to the published numbers, write the two sweep tables to
//! `target/experiments/*.csv`, then check every qualitative claim the
//! paper makes against those same rows. Exit code 0 iff all claims hold
//! — usable as a CI gate for the reproduction.

use rck_noc::NocConfig;
use rckalign::experiments::{
    experiment1, experiment2, table3, table5, Exp1Row, Exp2Row, Table3Row, Table5Row,
    PAPER_SLAVE_COUNTS,
};
use rckalign::report::{ascii_chart, fmt_secs, fmt_speedup, Series, TextTable};
use rckalign::DistributedConfig;
use rckalign_bench::{ck34_cache, paper, rs119_cache, Claim};
use std::process::ExitCode;

fn print_table1(cfg: &NocConfig) {
    let topo = cfg.topology;
    println!("Table I — Salient features of the simulated SCC chip\n");
    let mut t = TextTable::new(&["Feature", "Value"]);
    t.row(&[
        "Core architecture".into(),
        format!(
            "{}x{} mesh, {} P54C (x86) cores per tile ({} cores)",
            topo.mesh_cols,
            topo.mesh_rows,
            topo.cores_per_tile,
            topo.core_count()
        ),
    ]);
    t.row(&[
        "Core frequency".into(),
        format!("{} MHz", cfg.freq_hz / 1e6),
    ]);
    t.row(&[
        "Message passing buffer".into(),
        format!(
            "{} KB chunk per transfer, {} KB per tile ({} KB total)",
            cfg.chunk_bytes / 1024,
            2 * cfg.chunk_bytes / 1024,
            topo.tile_count() * 2 * cfg.chunk_bytes / 1024
        ),
    ]);
    t.row(&[
        "Mesh hop latency".into(),
        format!("{:.1} ns", cfg.hop_latency.as_secs_f64() * 1e9),
    ]);
    t.row(&[
        "MPB copy bandwidth".into(),
        format!("{:.0} MB/s (mesh-bound)", cfg.mpb_bytes_per_sec / 1e6),
    ]);
    t.row(&[
        "Cost calibration".into(),
        format!("{} cycles per kernel op", cfg.cycles_per_op),
    ]);
    print!("{}", t.render());
    println!("\nPaper (Table I): 6x4 mesh, 2 P54C cores/tile; 16KB MPB per tile (384KB total); 4 iMCs, 16-64 GB memory.");
}

fn write_csv(name: &str, table: &TextTable) {
    let path = format!("target/experiments/{name}.csv");
    match std::fs::create_dir_all("target/experiments")
        .and_then(|_| std::fs::write(&path, table.to_csv()))
    {
        Ok(()) => eprintln!("CSV written to {path}"),
        Err(e) => eprintln!("note: could not write CSV: {e}"),
    }
}

fn series(label: &str, marker: char, points: impl Iterator<Item = (usize, f64)>) -> Series {
    Series {
        label: label.into(),
        marker,
        points: points.map(|(n, y)| (n as f64, y)).collect(),
    }
}

fn print_table2_fig5(rows: &[Exp1Row]) {
    println!("\nTable II — rckAlign vs distributed TM-align, all-vs-all CK34 (seconds)\n");
    let mut t = TextTable::new(&[
        "Slave Cores",
        "rckAlign",
        "rckAlign(paper)",
        "TM-align",
        "TM-align(paper)",
    ]);
    for (k, r) in rows.iter().enumerate() {
        t.row(&[
            r.slaves.to_string(),
            fmt_secs(r.rckalign_secs),
            fmt_secs(paper::TABLE2_RCKALIGN[k]),
            fmt_secs(r.tmalign_dist_secs),
            fmt_secs(paper::TABLE2_TMALIGN[k]),
        ]);
    }
    print!("{}", t.render());
    write_csv("table2_fig5", &t);

    println!("\nFigure 5 — time (log scale) vs number of cores\n");
    let chart = ascii_chart(
        &[
            series(
                "rckAlign (measured)",
                '*',
                rows.iter().map(|r| (r.slaves, r.rckalign_secs)),
            ),
            series(
                "TM-align distributed (measured)",
                'o',
                rows.iter().map(|r| (r.slaves, r.tmalign_dist_secs)),
            ),
        ],
        64,
        18,
        true,
    );
    print!("{chart}");
}

fn print_table3(rows: &[Table3Row]) {
    println!("\nTable III — serial all-vs-all TM-align baselines (seconds)\n");
    let mut t = TextTable::new(&["Processor", "CK34", "CK34(paper)", "RS119", "RS119(paper)"]);
    for (row, (pname, pck, prs)) in rows.iter().zip(paper::TABLE3) {
        assert!(
            row.processor.split_whitespace().next() == pname.split_whitespace().next(),
            "Table III row order differs from the paper's"
        );
        t.row(&[
            row.processor.clone(),
            fmt_secs(row.ck34_secs),
            fmt_secs(pck),
            fmt_secs(row.rs119_secs),
            fmt_secs(prs),
        ]);
    }
    print!("{}", t.render());
}

fn print_table4_fig6(rows: &[Exp2Row]) {
    println!("\nTable IV — rckAlign all-vs-all performance (speedup vs 1 SCC core)\n");
    let mut t = TextTable::new(&[
        "Slave Cores",
        "CK34 speedup",
        "(paper)",
        "CK34 s",
        "(paper)",
        "RS119 speedup",
        "(paper)",
        "RS119 s",
        "(paper)",
    ]);
    for (k, r) in rows.iter().enumerate() {
        let (pck_s, pck_t) = paper::TABLE4_CK34[k];
        let (prs_s, prs_t) = paper::TABLE4_RS119[k];
        t.row(&[
            r.slaves.to_string(),
            fmt_speedup(r.ck34_speedup),
            fmt_speedup(pck_s),
            fmt_secs(r.ck34_secs),
            fmt_secs(pck_t),
            fmt_speedup(r.rs119_speedup),
            fmt_speedup(prs_s),
            fmt_secs(r.rs119_secs),
            fmt_secs(prs_t),
        ]);
    }
    print!("{}", t.render());
    write_csv("table4_fig6", &t);

    println!("\nFigure 6 — speedup vs number of slave cores\n");
    let chart = ascii_chart(
        &[
            series(
                "RS119 (measured)",
                '*',
                rows.iter().map(|r| (r.slaves, r.rs119_speedup)),
            ),
            series(
                "CK34 (measured)",
                'o',
                rows.iter().map(|r| (r.slaves, r.ck34_speedup)),
            ),
        ],
        64,
        20,
        false,
    );
    print!("{chart}");
}

fn print_table5(rows: &[Table5Row]) {
    println!("\nTable V — all-vs-all PSC times (seconds)\n");
    let mut t = TextTable::new(&[
        "Dataset",
        "TM-align AMD@2.4GHz",
        "(paper)",
        "TM-align Intel@800MHz",
        "(paper)",
        "rckAlign SCC(all cores)",
        "(paper)",
    ]);
    for (row, (_, pamd, pp54c, pscc)) in rows.iter().zip(paper::TABLE5) {
        t.row(&[
            row.dataset.clone(),
            fmt_secs(row.tmalign_amd_secs),
            fmt_secs(pamd),
            fmt_secs(row.tmalign_p54c_secs),
            fmt_secs(pp54c),
            fmt_secs(row.rckalign_scc_secs),
            fmt_secs(pscc),
        ]);
    }
    print!("{}", t.render());
}

fn main() -> ExitCode {
    let noc = NocConfig::scc();
    let ck = ck34_cache();
    let rs = rs119_cache();
    let mut claims: Vec<Claim> = Vec::new();

    print_table1(&noc);

    // --- Experiment I (Table II / Fig. 5) --------------------------------
    eprintln!("computing CK34 pair cache + Experiment I sweep…");
    let e1 = experiment1(
        &ck,
        &PAPER_SLAVE_COUNTS,
        &noc,
        &DistributedConfig::default(),
    );
    print_table2_fig5(&e1);
    let ratios = e1.iter().map(|r| r.tmalign_dist_secs / r.rckalign_secs);
    let (lo, hi) = ratios.fold((f64::INFINITY, 0.0f64), |(lo, hi), x| {
        (lo.min(x), hi.max(x))
    });
    claims.push(Claim::new(
        "distributed TM-align slower than rckAlign at every core count (paper: 2.1-2.6x)",
        lo > 1.8,
        format!("ratios {lo:.2}-{hi:.2} over all {} sweep points", e1.len()),
    ));
    claims.push(Claim::new(
        "distributed curve keeps improving through 47 cores (no early flattening)",
        e1.windows(2)
            .all(|w| w[1].tmalign_dist_secs < w[0].tmalign_dist_secs),
        format!("checked all {} sweep points", e1.len()),
    ));

    // --- Table III ------------------------------------------------------
    eprintln!("computing RS119 pair cache…");
    let t3 = table3(&ck, &rs, noc.cycles_per_op);
    print_table3(&t3);
    let amd_ck = t3[1].ck34_secs / t3[0].ck34_secs;
    let amd_rs = t3[1].rs119_secs / t3[0].rs119_secs;
    claims.push(Claim::new(
        "serial CK34 baseline calibrated to the paper's 2029 s (±5%)",
        (t3[1].ck34_secs - 2029.0).abs() / 2029.0 < 0.05,
        format!("measured {:.0} s", t3[1].ck34_secs),
    ));
    claims.push(Claim::new(
        "AMD @2.4 GHz is ~4-5x a single P54C (paper: 5.0x CK34 / 3.9x RS119)",
        (3.5..5.5).contains(&amd_ck),
        format!("measured {amd_ck:.2}x CK34 / {amd_rs:.2}x RS119"),
    ));

    // --- Experiment II (Table IV / Fig. 6) ------------------------------
    eprintln!("running Experiment II sweep…");
    let e2 = experiment2(&ck, &rs, &PAPER_SLAVE_COUNTS, &noc);
    print_table4_fig6(&e2);
    let last = e2.last().expect("sweep non-empty");
    claims.push(Claim::new(
        "speedup at 1 slave ≈ 1 (rckAlign(1) ≈ serial; paper: 2027 vs 2029 s)",
        (e2[0].ck34_speedup - 1.0).abs() < 0.02,
        format!("measured {:.3}", e2[0].ck34_speedup),
    ));
    claims.push(Claim::new(
        "speedup increases monotonically with slave count on both datasets",
        e2.windows(2).all(|w| {
            w[1].ck34_speedup > w[0].ck34_speedup && w[1].rs119_speedup > w[0].rs119_speedup
        }),
        "checked all 24 sweep points".into(),
    ));
    claims.push(Claim::new(
        "never super-linear",
        e2.iter().all(|r| {
            r.ck34_speedup <= r.slaves as f64 * 1.005 && r.rs119_speedup <= r.slaves as f64 * 1.005
        }),
        "checked all 24 sweep points".into(),
    ));
    claims.push(Claim::new(
        "near-linear at 47 slaves: CK34 within 20% of the paper's 36.2x",
        (last.ck34_speedup - 36.17).abs() / 36.17 < 0.20,
        format!("measured {:.1}x", last.ck34_speedup),
    ));
    claims.push(Claim::new(
        "RS119 within 20% of the paper's 44.8x",
        (last.rs119_speedup - 44.78).abs() / 44.78 < 0.20,
        format!("measured {:.1}x", last.rs119_speedup),
    ));
    claims.push(Claim::new(
        "larger dataset → higher speedup (paper §V-D)",
        last.rs119_speedup > last.ck34_speedup,
        format!(
            "RS119 {:.1}x vs CK34 {:.1}x",
            last.rs119_speedup, last.ck34_speedup
        ),
    ));
    // Per-point agreement with Table IV's CK34 column.
    let max_rel = e2
        .iter()
        .zip(paper::TABLE4_CK34)
        .map(|(r, (ps, _))| (r.ck34_speedup - ps).abs() / ps)
        .fold(0.0, f64::max);
    claims.push(Claim::new(
        "every CK34 speedup point within 15% of the paper's Table IV",
        max_rel < 0.15,
        format!("worst relative deviation {:.1}%", max_rel * 100.0),
    ));

    // --- Table V ----------------------------------------------------------
    eprintln!("running Table V…");
    let t5 = table5(&ck, &rs, &noc);
    print_table5(&t5);
    claims.push(Claim::new(
        "headline: rckAlign ≈11x the AMD on RS119 (paper 11.4x; accept 8-14x)",
        (8.0..14.0).contains(&t5[1].speedup_vs_amd()),
        format!("measured {:.1}x", t5[1].speedup_vs_amd()),
    ));
    claims.push(Claim::new(
        "headline: rckAlign ≈44x a single P54C on RS119 (paper 44.7x; accept 36-52x)",
        (36.0..52.0).contains(&t5[1].speedup_vs_p54c()),
        format!("measured {:.1}x", t5[1].speedup_vs_p54c()),
    ));

    println!("\nReproduction claims:");
    let mut ok = true;
    for c in &claims {
        println!("  {}", c.render());
        ok &= c.holds;
    }
    println!(
        "\n{} of {} claims hold.",
        claims.iter().filter(|c| c.holds).count(),
        claims.len()
    );
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
