//! Runs one workload the way the contract asks: oracle, several timed
//! set-ups, a time-boxed loop of verified ops, then either the two
//! end-to-end metrics or (traced) the whole per-layer table.

use crate::cli::RunArgs;
use crate::inputs::Dataset;
use crate::json::Metric;
use crate::manifest::{moves, END_TO_END, PER_LAYER};
use crate::probes::{stage_snapshot, STAGE_NAMES};
use crate::stats::{median, quantile, Summary};
use crate::trace::{Phases, Tracer};
use crate::workload::{Layers, Workload};
use crate::workloads::farm::Farm;
use crate::workloads::gate::GateQueries;
use crate::workloads::kernel::KernelFast;
use crate::workloads::shard::Shard;
use crate::workloads::sim::SimSweep;
use crate::workloads::store::{StoreMode, StoreSession};
use crate::{mem, probes};
use rck_tmalign::MethodKind;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ops per run at the very least, however short `--seconds` is (a
/// lower quartile of fewer than four samples is the minimum by another
/// name).
const MIN_OPS: usize = 4;
/// CPU-bound spin before anything is timed: the first process after an
/// idle period otherwise runs its set-up ~30% slow (clock ramp-up).
const SPIN: Duration = Duration::from_millis(300);

/// What one run produced.
pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// The printed summary (everything before the JSON line).
    pub human: String,
}

/// Where the run may write: `benchmark/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Run the workload `args` names. `untraced_p25_ms` is the same
/// workload's `op_p25_ms` from the untraced binary, when known.
pub fn run_named(args: &RunArgs, untraced_p25_ms: Option<f64>) -> Result<RunReport, String> {
    use Dataset::{Ck34, Rs119};
    use MethodKind::{KabschRmsd, TmAlign};
    let farm = |dataset, method, warmups| Farm {
        dataset,
        method,
        warmups,
    };
    let store = |mode, warmups| StoreSession { mode, warmups };
    // Warm-ups are fixed per workload so that one set-up takes >= 0.5 s.
    match args.workload.as_str() {
        "farm_ck34_tm" => run(&farm(Ck34, TmAlign, 1), args, untraced_p25_ms),
        "kernel_fast_ck34" => run(&KernelFast, args, untraced_p25_ms),
        "farm_rs119_rmsd" => run(&farm(Rs119, KabschRmsd, 4), args, untraced_p25_ms),
        "shard_rs119_rmsd" => run(&Shard, args, untraced_p25_ms),
        "gate_rs119_rmsd" => run(&GateQueries, args, untraced_p25_ms),
        "store_cold_rs119" => run(&store(StoreMode::Cold, 25), args, untraced_p25_ms),
        "store_grow_rs119" => run(&store(StoreMode::Grow, 100), args, untraced_p25_ms),
        "sim_ck34" => run(&SimSweep, args, untraced_p25_ms),
        other => Err(format!("unknown workload {other}")),
    }
}

fn spin(d: Duration) {
    let start = Instant::now();
    let mut x = 0u64;
    while start.elapsed() < d {
        for k in 0..1000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(k));
        }
    }
}

fn run<W: Workload>(
    w: &W,
    args: &RunArgs,
    untraced_p25_ms: Option<f64>,
) -> Result<RunReport, String> {
    spin(SPIN);
    let mut tracer = Tracer::new();
    let mut human = format!(
        "workload {} seed {} seconds {} trace {} ({} hardware threads)\n",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(0, usize::from),
    );

    let start = Instant::now();
    let oracle = w.oracle(args.seed);
    let end = Instant::now();
    tracer.record(
        "reference",
        start,
        end,
        &vec![("setup.reference", start, end)],
    );
    human.push_str(&format!(
        "reference (untimed oracle): {:.3} s\n",
        (end - start).as_secs_f64()
    ));

    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        // Tear the previous rig down before the clock starts.
        drop(rig.take());
        let mut phases = Phases::new();
        let start = Instant::now();
        let built = w.setup(args.seed, &oracle, &mut phases)?;
        let end = Instant::now();
        tracer.record("setup", start, end, &phases);
        // A warm-up's wait for `run()` to return is a nap on a 100-250 ms
        // grid, not work: left in, it moves `setup_s` by whole ticks.
        let napped: Duration = phases
            .iter()
            .filter(|p| p.0 == "op.teardown")
            .map(|p| p.2 - p.1)
            .sum();
        setup_secs.push((end - start - napped).as_secs_f64());
        rig = Some(built);
    }
    let mut rig = rig.expect("SETUPS >= 1");

    let mut samples = Vec::new();
    let (mut attempted, mut failed, mut ops) = (0u64, 0u64, 0usize);
    let mut errors = Vec::new();
    let stages_before = stage_snapshot();
    let loop_start = Instant::now();
    while loop_start.elapsed().as_secs_f64() < args.seconds || ops < MIN_OPS {
        let mut phases = Phases::new();
        let start = Instant::now();
        let r = w.op(&mut rig, &oracle, &mut phases);
        if args.trace {
            tracer.record("op", start, Instant::now(), &phases);
        }
        ops += 1;
        attempted += r.attempted;
        failed += r.failed;
        samples.extend(r.samples_ms);
        errors.extend(r.errors);
    }
    let stages_after = stage_snapshot();

    let mut layers = Layers::default();
    for (k, name) in STAGE_NAMES.iter().enumerate() {
        layers.set(
            name,
            (stages_after[k] - stages_before[k]) as f64 / ops as f64,
        );
    }
    if let (Some(fb), Some(wd), Some(rounds)) = (
        layers.get("tmalign.fallbacks"),
        layers.get("tmalign.band_widenings"),
        layers.get("tmalign.fast_dp_rounds").filter(|&r| r > 0.0),
    ) {
        layers.set("tmalign.fallback_ratio", fb / rounds);
        layers.set("tmalign.widenings_per_round", wd / rounds);
    }
    let scratch = out_dir()
        .join("tmp")
        .join(format!("probes-{}", std::process::id()));
    let mut run_errors = Vec::new();
    if args.trace {
        std::fs::create_dir_all(&scratch).map_err(|e| format!("mkdir scratch: {e}"))?;
        if let Err(why) = probes::run_all(args.seed, &scratch, &mut layers) {
            run_errors.push(why);
        }
        let _ = std::fs::remove_dir_all(&scratch);
    }
    if let Err(why) = w.finish(&mut rig, &oracle, args.trace, &mut layers) {
        run_errors.push(why);
    }
    drop(rig);

    let op = Summary::of(&samples);
    let op_p25_ms = quantile(&samples, 0.25).unwrap_or(f64::NAN);
    let setup_s = median(&setup_secs).unwrap_or(f64::NAN);
    if let Some(op) = op {
        human.push_str(&format!(
            "op wall time over R = {} ops: min {:.3}  p25 {:.3}  p50 {:.3}  p75 {:.3}  max {:.3} ms\n",
            op.n, op.min, op.p25, op.p50, op.p75, op.max
        ));
    }
    human.push_str(&format!(
        "set-ups: {} s; attempted {attempted}, failed {failed}\n",
        setup_secs
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" / ")
    ));
    for note in &layers.notes {
        human.push_str(note);
        human.push('\n');
    }
    for e in errors.iter().take(5).chain(&run_errors) {
        human.push_str(&format!("FAILED: {e}\n"));
    }

    let metrics = if args.trace {
        if let Some(rss) = mem::peak_rss_bytes() {
            layers.set("mem.peak_rss_mb", rss as f64 / 1e6);
        }
        layers.set("mem.peak_heap_mb", mem::peak_heap_bytes() as f64 / 1e6);
        if let Some(base) = untraced_p25_ms {
            layers.set("trace.overhead_pct", (op_p25_ms / base - 1.0) * 100.0);
            human.push_str(&format!(
                "op_p25_ms traced {op_p25_ms:.3} vs untraced {base:.3}\n"
            ));
        }
        let path = out_dir().join(format!("trace-{}.jsonl", args.workload));
        match tracer.write_jsonl(&path) {
            Ok(()) => human.push_str(&format!(
                "{} spans written to {}\n",
                tracer.len(),
                path.display()
            )),
            Err(e) => run_errors.push(format!("writing {}: {e}", path.display())),
        }
        if let Some(stray) = layers
            .names()
            .find(|n| PER_LAYER.iter().all(|m| m.name != *n))
        {
            return Err(format!(
                "metric {stray} is not declared in manifest::PER_LAYER"
            ));
        }
        human.push_str(&format!(
            "{:<34} {:>16} {:<6} moves ->\n",
            "per-layer metric", "value", "unit"
        ));
        PER_LAYER
            .iter()
            .map(|m| {
                let value = layers.get(m.name).unwrap_or(0.0);
                human.push_str(&format!(
                    "{:<34} {:>16.3} {:<6} {}\n",
                    m.name,
                    value,
                    m.unit,
                    moves(m.name)
                ));
                Metric {
                    name: m.name,
                    value,
                    unit: m.unit,
                }
            })
            .collect()
    } else {
        let value_of = |name: &str| match name {
            "op_p25_ms" => op_p25_ms,
            "setup_s" => setup_s,
            other => unreachable!("end-to-end metric {other} has no source"),
        };
        END_TO_END
            .iter()
            .map(|m| {
                human.push_str(&format!(
                    "{:<12} {:>14.4} {}\n",
                    m.name,
                    value_of(m.name),
                    m.unit
                ));
                Metric {
                    name: m.name,
                    value: value_of(m.name),
                    unit: m.unit,
                }
            })
            .collect::<Vec<Metric>>()
    };

    let correct = failed == 0
        && run_errors.is_empty()
        && !samples.is_empty()
        && metrics.iter().all(|m| m.value.is_finite());
    Ok(RunReport {
        correct,
        attempted: attempted.max(1),
        failed,
        metrics,
        human,
    })
}
