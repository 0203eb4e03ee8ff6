//! Isolated per-call probes: each times one public function of one
//! crate on fixed inputs generated from the run's seed. Together with
//! the exact call counts they give the *estimated* layer budget (calls ×
//! per-call time); spans inside the program are ROADMAP item 3.
//!
//! Every traced run executes every probe, whatever its workload, so the
//! per-layer table is always complete and the probes see the same warm
//! process the ops ran in.

use crate::inputs::Dataset;
use crate::rigs::{BATCH_SIZE, LANES, TILE_SIZE};
use crate::stats::median;
use crate::workload::{reference_outcomes, Layers};
use crate::workloads::store::store_config;
use rck_gate::sched::StrideSched;
use rck_noc::{CoreCtx, CoreId, CoreProgram, NocConfig, Simulator};
use rck_pdb::model::CaChain;
use rck_pdb::Transform;
use rck_rcce::Rcce;
use rck_serve::proto::{self, Frame, ResultBatch};
use rck_serve::MemNet;
use rck_skel::{farm, slave_loop, Job, SlaveReply};
use rck_store::log::{encode_record, scan_log, SUPERBLOCK_LEN};
use rck_store::{PairKey, Store, StoredPair};
use rck_tmalign::dp::{needleman_wunsch, DistScorer, FastDp, ScoreMatrix, SoaPoints};
use rck_tmalign::stages::stage_counters;
use rck_tmalign::tmscore::SearchDepth;
use rck_tmalign::{
    initial, kabsch, secstruct, tm_align_with, tmscore, MethodKind, TmAlignParams, WorkMeter,
};
use rckalign::jobs::{decode_outcome, decode_pair_payload, encode_outcome, encode_pair_payload};
use rckalign::{
    all_vs_all, merge_outcomes, tile_partition, Combiner, PairCache, PairJob, PairOutcome,
    SimilarityMatrix, StoreBinding,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

/// Mean nanoseconds per call of `f`: batches sized to at least 2 ms,
/// median of five batches.
fn per_call_ns(mut f: impl FnMut()) -> f64 {
    let mut batch = |iters: u64| {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        start.elapsed()
    };
    let mut iters = 1u64;
    while batch(iters) < Duration::from_millis(2) && iters < 1 << 24 {
        iters *= 4;
    }
    let per_call: Vec<f64> = (0..5)
        .map(|_| batch(iters).as_secs_f64() * 1e9 / iters as f64)
        .collect();
    median(&per_call).unwrap_or(0.0)
}

/// Median wall milliseconds of `runs` calls of `f`, where each call
/// first builds its input untimed.
fn median_ms<T>(runs: usize, mut prepare: impl FnMut() -> T, mut f: impl FnMut(T)) -> f64 {
    let ms: Vec<f64> = (0..runs)
        .map(|_| {
            let input = prepare();
            let start = Instant::now();
            f(input);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms).unwrap_or(0.0)
}

/// The kernel-stage counters, in the order of the `tmalign.*` counts.
pub const STAGE_NAMES: [&str; 12] = [
    "tmalign.alignments",
    "tmalign.initial_alignments",
    "tmalign.dp_rounds",
    "tmalign.kabsch_calls",
    "tmalign.tmsearch_calls",
    "tmalign.ops",
    "tmalign.fast_dp_rounds",
    "tmalign.band_widenings",
    "tmalign.fallbacks",
    "tmalign.pruned_pairs",
    "tmalign.pruned_demotions",
    "tmalign.pruned_rounds",
];

pub fn stage_snapshot() -> [u64; 12] {
    let s = stage_counters();
    [
        s.alignments.get(),
        s.initial_alignments.get(),
        s.dp_rounds.get(),
        s.kabsch_iterations.get(),
        s.tmscore_refinements.get(),
        s.ops.get(),
        s.fastpath_dp_rounds.get(),
        s.fastpath_band_widenings.get(),
        s.fastpath_fallbacks.get(),
        s.pruned_pairs.get(),
        s.pruned_demotions.get(),
        s.pruned_rounds.get(),
    ]
}

/// (dp rounds, kabsch calls, tm-score searches) so far, process-wide.
fn stage_counts() -> [f64; 3] {
    let s = stage_snapshot();
    [s[2] as f64, s[3] as f64, s[4] as f64]
}

/// One pass of `f` over `n` items: microseconds and stage calls per item.
fn pass_with_counts(n: usize, f: impl FnOnce()) -> (f64, [f64; 3]) {
    let before = stage_counts();
    let start = Instant::now();
    f();
    let us = start.elapsed().as_secs_f64() * 1e6 / n as f64;
    let after = stage_counts();
    let mut per = [0.0; 3];
    for k in 0..3 {
        per[k] = (after[k] - before[k]) / n as f64;
    }
    (us, per)
}

pub fn run_all(seed: u64, scratch: &Path, layers: &mut Layers) -> Result<(), String> {
    let start = Instant::now();
    let (ck34, rs119) = (Dataset::Ck34.generate(seed), Dataset::Rs119.generate(seed));
    layers.set("pdb.generate_ms", start.elapsed().as_secs_f64() * 1e3);
    let residues: usize = ck34.iter().chain(&rs119).map(CaChain::len).sum();
    layers.set("pdb.residues", residues as f64);

    tmalign(&ck34, layers);
    let outcomes = reference_outcomes(&rs119, MethodKind::KabschRmsd);
    core(&ck34, &rs119, &outcomes, scratch, layers)?;
    serve_and_shard(&rs119, &outcomes, layers)?;
    gate(&rs119, seed, layers);
    store(scratch, layers)?;
    simulator(layers);
    obs(layers);
    Ok(())
}

/// 32 CK34 pairs spread evenly over the pairs sorted by DP-table size.
fn stratified_pairs(chains: &[CaChain]) -> Vec<(usize, usize)> {
    let n = chains.len();
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|i| (i + 1..n).map(move |j| (i, j)))
        .collect();
    pairs.sort_by_key(|&(i, j)| (chains[i].len() * chains[j].len(), i, j));
    let step = pairs.len() / 32;
    (0..32).map(|k| pairs[k * step + step / 2]).collect()
}

fn tmalign(ck34: &[CaChain], layers: &mut Layers) {
    let sample = stratified_pairs(ck34);
    let n = sample.len();
    let sweep = |params: TmAlignParams| {
        for &(i, j) in &sample {
            black_box(tm_align_with(&ck34[i], &ck34[j], &params));
        }
    };
    let (pair_us, calls) = pass_with_counts(n, || sweep(TmAlignParams::default()));
    let (pair_fast_us, _) = pass_with_counts(n, || sweep(TmAlignParams::fast()));
    layers.set("tmalign.pair_us_scalar", pair_us);
    layers.set("tmalign.pair_us_fast", pair_fast_us);

    let mut meter = WorkMeter::new();
    let secstruct_ns = {
        let mut k = 0;
        per_call_ns(|| {
            let (i, _) = sample[k % n];
            k += 1;
            black_box(secstruct::assign(&ck34[i].coords, &mut meter));
        })
    };
    layers.set("tmalign.secstruct_us", secstruct_ns / 1e3);

    // The three initial alignments of every sample pair, with the stage
    // calls they make themselves (nested DP rounds and superpositions).
    let ss: Vec<_> = ck34
        .iter()
        .map(|c| secstruct::assign(&c.coords, &mut meter))
        .collect();
    let (initial_us, initial_calls) = pass_with_counts(n, || {
        for &(i, j) in &sample {
            let (x, y) = (&ck34[i].coords, &ck34[j].coords);
            let norm = x.len().min(y.len());
            let d0 = tmscore::d0(norm);
            let gapless = initial::gapless_threading(x, y, d0, norm, &mut meter);
            let t = gapless.transform.unwrap_or(Transform::IDENTITY);
            black_box(initial::ss_alignment(&ss[i], &ss[j], &mut meter));
            black_box(initial::hybrid_alignment(
                x, y, &ss[i], &ss[j], &t, d0, &mut meter,
            ));
        }
    });
    layers.set("tmalign.initial_us", initial_us);

    // One refinement-style DP round per pair: distance scores after the
    // gapless-threading superposition (found untimed), TM-align's -0.6 gap.
    let moved: Vec<Vec<rck_pdb::Vec3>> = sample
        .iter()
        .map(|&(i, j)| {
            let (x, y) = (&ck34[i].coords, &ck34[j].coords);
            let norm = x.len().min(y.len());
            let t = initial::gapless_threading(x, y, tmscore::d0(norm), norm, &mut meter)
                .transform
                .unwrap_or(Transform::IDENTITY);
            t.apply_all(x)
        })
        .collect();
    let (nw_us, _) = pass_with_counts(n, || {
        for (x, &(i, j)) in moved.iter().zip(&sample) {
            let y = &ck34[j].coords;
            let d0sq = tmscore::d0(ck34[i].len().min(y.len())).powi(2);
            let m = ScoreMatrix::from_fn(x.len(), y.len(), |a, b| {
                1.0 / (1.0 + (x[a] - y[b]).norm_sq() / d0sq)
            });
            black_box(needleman_wunsch(&m, -0.6, &mut meter));
        }
    });
    layers.set("tmalign.nw_us_scalar", nw_us);
    let mut engine = FastDp::new();
    let (mut mobile, mut target) = (SoaPoints::new(), SoaPoints::new());
    let (nw_fast_us, _) = pass_with_counts(n, || {
        for (x, &(i, j)) in moved.iter().zip(&sample) {
            let y = &ck34[j].coords;
            mobile.load(x);
            target.load(y);
            let d0 = tmscore::d0(ck34[i].len().min(y.len()));
            let mut scorer = DistScorer {
                mobile: &mobile,
                target: &target,
                inv_d0sq: (1.0 / (d0 * d0)) as f32,
            };
            black_box(engine.align(&mut scorer, -0.6, None, &mut meter));
        }
    });
    layers.set("tmalign.nw_us_fast", nw_fast_us);

    let (kabsch_us, _) = pass_with_counts(n, || {
        for &(i, j) in &sample {
            let k = ck34[i].len().min(ck34[j].len());
            black_box(kabsch::superpose(
                &ck34[i].coords[..k],
                &ck34[j].coords[..k],
                &mut meter,
            ));
        }
    });
    layers.set("tmalign.kabsch_us", kabsch_us);
    let (search_us, search_calls) = pass_with_counts(n, || {
        for &(i, j) in &sample {
            let k = ck34[i].len().min(ck34[j].len());
            let d0 = tmscore::d0(k);
            black_box(tmscore::search(
                &ck34[i].coords[..k],
                &ck34[j].coords[..k],
                d0,
                d0,
                k,
                SearchDepth::Fast,
                &mut meter,
            ));
        }
    });
    layers.set("tmalign.tmsearch_us", search_us);

    // Budget of one scalar pair = calls x isolated per-call time. Calls
    // nested inside a stage already timed as a whole are taken out.
    let dp_rounds = (calls[0] - initial_calls[0]).max(0.0);
    let searches = (calls[2] - initial_calls[2]).max(0.0);
    let kabsch_calls = (calls[1] - initial_calls[1] - searches * search_calls[1]).max(0.0);
    let share_initial = initial_us / pair_us;
    let share_dp = dp_rounds * nw_us / pair_us;
    let share_kabsch = kabsch_calls * kabsch_us / pair_us;
    let share_search = searches * search_us / pair_us;
    layers.set("tmalign.share_initial", share_initial);
    layers.set("tmalign.share_dp", share_dp);
    layers.set("tmalign.share_kabsch", share_kabsch);
    layers.set("tmalign.share_tmsearch", share_search);
    layers.set(
        "tmalign.share_unattributed",
        1.0 - share_initial - share_dp - share_kabsch - share_search,
    );
}

fn core(
    ck34: &[CaChain],
    rs119: &[CaChain],
    outcomes: &[PairOutcome],
    scratch: &Path,
    layers: &mut Layers,
) -> Result<(), String> {
    let job = PairJob {
        i: 0,
        j: 1,
        method: MethodKind::TmAlign,
    };
    let payload = encode_pair_payload(&job, &ck34[0], &ck34[1]);
    layers.set(
        "core.encode_payload_us",
        per_call_ns(|| {
            black_box(encode_pair_payload(&job, &ck34[0], &ck34[1]));
        }) / 1e3,
    );
    layers.set(
        "core.decode_payload_us",
        per_call_ns(|| {
            black_box(decode_pair_payload(payload.clone()).expect("own encoding"));
        }) / 1e3,
    );
    let encoded = encode_outcome(&outcomes[0]);
    layers.set(
        "core.encode_outcome_us",
        per_call_ns(|| {
            black_box(encode_outcome(&outcomes[0]));
        }) / 1e3,
    );
    layers.set(
        "core.decode_outcome_us",
        per_call_ns(|| {
            black_box(decode_outcome(encoded.clone()).expect("own encoding"));
        }) / 1e3,
    );

    let jobs = all_vs_all(rs119.len(), MethodKind::KabschRmsd);
    layers.set(
        "core.prefill_rmsd_ms",
        median_ms(
            5,
            || PairCache::new(rs119.to_vec()),
            |cache| cache.prefill(&jobs, LANES),
        ),
    );
    let warm = PairCache::new(rs119.to_vec());
    warm.prefill(&jobs, LANES);
    let mut k = 0;
    layers.set(
        "core.cache_hit_ns",
        per_call_ns(|| {
            black_box(warm.get_or_compute(&jobs[k % jobs.len()]));
            k += 1;
        }),
    );

    let tiles = tile_partition(rs119.len(), TILE_SIZE);
    layers.set(
        "core.tile_partition_us",
        per_call_ns(|| {
            black_box(tile_partition(rs119.len(), TILE_SIZE));
        }) / 1e3,
    );
    let per_tile: Vec<Vec<PairOutcome>> = tiles
        .iter()
        .map(|t| {
            outcomes
                .iter()
                .filter(|o| (t.row0..t.row1).contains(&o.i) && (t.col0..t.col1).contains(&o.j))
                .copied()
                .collect()
        })
        .collect();
    layers.set(
        "core.merge_outcomes_ms",
        median_ms(
            5,
            || per_tile.clone(),
            |results| {
                black_box(merge_outcomes(results));
            },
        ),
    );
    layers.set(
        "core.matrix_build_ms",
        per_call_ns(|| {
            black_box(SimilarityMatrix::from_outcomes(rs119.len(), outcomes));
        }) / 1e6,
    );

    // StoreBinding: record every outcome into a fresh log, then look
    // them up again.
    let path = scratch.join("probe-binding.rckstore");
    let mut bindings = Vec::new();
    let record_ms = median_ms(
        3,
        || {
            let _ = std::fs::remove_file(&path);
            let store = Store::open(&path, store_config()).expect("open probe store");
            StoreBinding::new(store, rs119)
        },
        |binding| {
            for o in outcomes {
                binding.record(o);
            }
            bindings.push(binding);
        },
    );
    layers.set(
        "core.store_record_ns",
        record_ms * 1e6 / outcomes.len() as f64,
    );
    let binding = bindings.pop().ok_or("no probe binding")?;
    let mut k = 0;
    layers.set(
        "core.store_lookup_ns",
        per_call_ns(|| {
            black_box(binding.lookup(&jobs[k % jobs.len()]));
            k += 1;
        }),
    );
    Ok(())
}

fn serve_and_shard(
    rs119: &[CaChain],
    outcomes: &[PairOutcome],
    layers: &mut Layers,
) -> Result<(), String> {
    let jobs: Vec<PairJob> = all_vs_all(rs119.len(), MethodKind::KabschRmsd)
        .into_iter()
        .take(BATCH_SIZE)
        .collect();
    let job_frame = Frame::JobBatch(proto::build_job_batch(7, jobs, rs119));
    let result_frame = Frame::ResultBatch(ResultBatch {
        batch_id: 7,
        outcomes: outcomes[..BATCH_SIZE].to_vec(),
    });
    for (frame, enc, dec) in [
        (
            &job_frame,
            "serve.encode_jobbatch_us",
            "serve.decode_jobbatch_us",
        ),
        (
            &result_frame,
            "serve.encode_resultbatch_us",
            "serve.decode_resultbatch_us",
        ),
    ] {
        let bytes = proto::encode_frame(frame);
        layers.set(
            enc,
            per_call_ns(|| {
                black_box(proto::encode_frame(frame));
            }) / 1e3,
        );
        layers.set(
            dec,
            per_call_ns(|| {
                black_box(proto::decode_frame(&bytes).expect("own encoding"));
            }) / 1e3,
        );
    }
    layers.set(
        "serve.jobbatch_bytes",
        proto::encode_frame(&job_frame).len() as f64,
    );

    // One result frame echoed between two threads over a MemNet pair.
    let (mut near, mut far) = MemNet::pair();
    let echo = std::thread::spawn(move || {
        while let Ok((frame, _)) = proto::read_frame(&mut far) {
            if proto::write_frame(&mut far, &frame).is_err() {
                break;
            }
        }
    });
    let mut broken = false;
    let rtt_ns = per_call_ns(|| {
        broken |= proto::write_frame(&mut near, &result_frame).is_err()
            || proto::read_frame(&mut near).is_err();
    });
    near.shutdown();
    echo.join().map_err(|_| "echo thread panicked")?;
    if broken {
        return Err("memnet echo probe lost a frame".to_string());
    }
    layers.set("serve.memnet_rtt_us", rtt_ns / 1e3);

    let tile = tile_partition(rs119.len(), TILE_SIZE)[1];
    let tile_jobs = tile.jobs(MethodKind::KabschRmsd);
    layers.set(
        "shard.build_tilegrant_us",
        per_call_ns(|| {
            black_box(proto::build_tile_grant(tile.id, tile_jobs.clone(), rs119));
        }) / 1e3,
    );
    Ok(())
}

fn gate(rs119: &[CaChain], seed: u64, layers: &mut Layers) {
    for (tenants, name) in [(2, "gate.sched_pick_ns_2"), (16, "gate.sched_pick_ns_16")] {
        let names: Vec<String> = (0..tenants).map(|t| format!("tenant-{t}")).collect();
        let mut sched = StrideSched::new();
        let mut k = 0;
        layers.set(
            name,
            per_call_ns(|| {
                sched.add_backlog(&names[k % tenants], 1);
                k += 1;
                black_box(sched.pick());
            }),
        );
    }
    let pool = Dataset::Rs119Queries.generate(seed);
    let mut k = 0;
    layers.set(
        "gate.reference_ranking_us",
        per_call_ns(|| {
            black_box(rck_gate::reference_ranking(
                rs119,
                &pool[k % pool.len()],
                &[MethodKind::KabschRmsd],
                Combiner::MeanRank,
            ));
            k += 1;
        }) / 1e3,
    );
}

/// A synthetic record: distinct keys for any `k`, fixed payload.
fn record(k: u64) -> (PairKey, StoredPair) {
    (
        PairKey {
            hash_a: k,
            hash_b: !k,
            method: MethodKind::KabschRmsd.code(),
            kernel_version: rck_tmalign::KERNEL_VERSION,
        },
        StoredPair {
            similarity: 0.5,
            rmsd: 2.5,
            aligned_len: 100,
            ops: 1000,
        },
    )
}

fn store(scratch: &Path, layers: &mut Layers) -> Result<(), String> {
    const RECORDS: u64 = 7021;
    let io = |e: std::io::Error| format!("store probe: {e}");
    let (key, pair) = record(0);
    layers.set(
        "store.encode_record_ns",
        per_call_ns(|| {
            black_box(encode_record(&key, &pair));
        }),
    );

    let path = scratch.join("probe-store.rckstore");
    let _ = std::fs::remove_file(&path);
    let mut s = Store::open(&path, store_config()).map_err(io)?;
    let start = Instant::now();
    for k in 0..RECORDS {
        let (key, pair) = record(k);
        s.append(key, pair).map_err(io)?;
    }
    layers.set(
        "store.append_us",
        start.elapsed().as_secs_f64() * 1e6 / RECORDS as f64,
    );
    // Five flushes, each behind a hundred fresh appends.
    let mut next = RECORDS;
    let mut flush_ms = Vec::new();
    for _ in 0..5 {
        for _ in 0..100 {
            let (key, pair) = record(next);
            next += 1;
            s.append(key, pair).map_err(io)?;
        }
        let start = Instant::now();
        s.flush().map_err(io)?;
        flush_ms.push(start.elapsed().as_secs_f64() * 1e3);
    }
    layers.set_median("store.flush_ms", &flush_ms);
    let mut k = 0;
    layers.set(
        "store.get_hit_ns",
        per_call_ns(|| {
            black_box(s.get(&record(k % RECORDS).0));
            k += 1;
        }),
    );
    layers.set(
        "store.get_miss_ns",
        per_call_ns(|| {
            black_box(s.get(&record(u64::MAX / 2 + k).0));
            k += 1;
        }),
    );
    let records = s.log_records();
    drop(s);
    let bytes = std::fs::read(&path).map_err(io)?;
    layers.set(
        "store.bytes_per_record",
        (bytes.len() - SUPERBLOCK_LEN) as f64 / records as f64,
    );
    layers.set(
        "store.scan_log_ms",
        per_call_ns(|| {
            black_box(scan_log(&bytes));
        }) / 1e6,
    );
    layers.set(
        "store.open_replay_ms",
        median_ms(
            5,
            || (),
            |()| {
                black_box(Store::open(&path, store_config()).is_ok());
            },
        ),
    );
    let mut failed = false;
    layers.set(
        "store.compact_ms",
        median_ms(
            3,
            || Store::open(&path, store_config()),
            |s| failed |= s.and_then(|mut s| s.compact()).is_err(),
        ),
    );
    let _ = std::fs::remove_file(&path);
    if failed {
        return Err("store probe: compaction failed".to_string());
    }
    Ok(())
}

/// Host wall milliseconds of one simulator run of `programs`.
fn sim_ms(programs: Vec<Option<CoreProgram<'_>>>) -> f64 {
    let start = Instant::now();
    black_box(Simulator::new(NocConfig::scc()).run(programs));
    start.elapsed().as_secs_f64() * 1e3
}

fn simulator(layers: &mut Layers) {
    const ROUND_TRIPS: usize = 1000;
    let pingpong: Vec<f64> = (0..3)
        .map(|_| {
            let ping: CoreProgram = Box::new(|ctx: &mut CoreCtx| {
                for _ in 0..ROUND_TRIPS {
                    ctx.send(CoreId(1), vec![0u8; 64]);
                    black_box(ctx.recv_from(CoreId(1)));
                }
            });
            let pong: CoreProgram = Box::new(|ctx: &mut CoreCtx| {
                for _ in 0..ROUND_TRIPS {
                    let msg = ctx.recv_from(CoreId(0));
                    ctx.send(CoreId(0), msg);
                }
            });
            sim_ms(vec![Some(ping), Some(pong)]) * 1e3 / ROUND_TRIPS as f64
        })
        .collect();
    layers.set_median("noc.pingpong_host_us", &pingpong);

    let spawn: Vec<f64> = (0..5)
        .map(|_| {
            sim_ms(
                (0..48)
                    .map(|_| Some(Box::new(|_: &mut CoreCtx| {}) as CoreProgram))
                    .collect(),
            )
        })
        .collect();
    layers.set_median("noc.spawn48_ms", &spawn);

    const BARRIERS: usize = 200;
    let ues: Vec<CoreId> = (0..8).map(CoreId).collect();
    let barrier: Vec<f64> = (0..3)
        .map(|_| {
            let programs = (0..8)
                .map(|_| {
                    let ues = &ues;
                    Some(Box::new(move |ctx: &mut CoreCtx| {
                        let mut comm = Rcce::new(ctx, ues);
                        for _ in 0..BARRIERS {
                            comm.barrier();
                        }
                    }) as CoreProgram)
                })
                .collect();
            sim_ms(programs) * 1e3 / BARRIERS as f64
        })
        .collect();
    layers.set_median("rcce.barrier_host_us", &barrier);

    const JOBS: u64 = 400;
    let ues: Vec<CoreId> = (0..9).map(CoreId).collect();
    let slaves: Vec<usize> = (1..9).collect();
    let jobs: Vec<Job> = (0..JOBS).map(|k| Job::new(k, vec![0u8; 16])).collect();
    let per_job: Vec<f64> = (0..3)
        .map(|_| {
            let mut programs: Vec<Option<CoreProgram>> = Vec::new();
            let (ues, slaves, jobs) = (&ues, &slaves, &jobs);
            programs.push(Some(Box::new(move |ctx: &mut CoreCtx| {
                let mut comm = Rcce::new(ctx, ues);
                black_box(farm(&mut comm, slaves, jobs));
            })));
            for _ in slaves {
                programs.push(Some(Box::new(move |ctx: &mut CoreCtx| {
                    let mut comm = Rcce::new(ctx, ues);
                    slave_loop(&mut comm, 0, |_, payload| SlaveReply { payload, ops: 0 });
                })));
            }
            sim_ms(programs) * 1e3 / JOBS as f64
        })
        .collect();
    layers.set_median("rckskel.farm_host_us_per_job", &per_job);
}

fn obs(layers: &mut Layers) {
    let counter = rck_obs::Counter::new();
    layers.set("obs.counter_inc_ns", per_call_ns(|| counter.inc()));
    let hist = rck_obs::Histogram::new(rck_obs::DEFAULT_LATENCY_BOUNDS);
    layers.set(
        "obs.histogram_observe_ns",
        per_call_ns(|| hist.observe(0.0031)),
    );
    // A registry the size of a serving process's: the gate's own.
    let gate_registry = rck_gate::GateStats::new().registry();
    layers.set(
        "obs.render_us",
        per_call_ns(|| {
            black_box(gate_registry.render());
        }) / 1e3,
    );
}
