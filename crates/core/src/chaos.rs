//! The one scenario core under every seeded fault harness.
//!
//! The farm (`rck_serve::chaos`), the serving gate (`rck_gate::chaos`),
//! the sharded farm (`rck_shard::chaos`) and the store (here) each derive
//! a whole scenario from one `u64` seed, run it, and hand back one
//! [`Report`]: a canonical line that is byte-identical on every rerun of
//! the seed, whether the scenario held its contract, and timing-dependent
//! notes kept off that line. What they share lives here:
//!
//! * [`subseed`] — an independent seed stream per tag of one seed;
//! * [`truth`] — a scenario's dataset and the in-process
//!   [`run_all_vs_all`] outcomes every distributed run must reproduce;
//! * [`outcomes_fingerprint`] and [`Verdict`] — how the farm and the
//!   sharded farm judge a run against that truth;
//! * [`run_store_scenario`] — torn appends, bit flips and killed
//!   compactions against a real on-disk [`Store`], each crash followed by
//!   a reopen that must recover exactly the surviving log prefix. The
//!   store's own fault hooks are [`Store::append_torn`] and
//!   [`Store::compact_torn`].
//!
//! Each networked tier keeps only what its run needs: its plan, its
//! wiring and its report line.

use crate::{fnv1a64, run_all_vs_all, PairCache, PairOutcome, RckAlignOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rck_pdb::CaChain;
use rck_store::log::{PairKey, StoredPair, PAIR_RECORD_LEN, SUPERBLOCK_LEN};
use rck_store::{Store, StoreConfig};
use std::fs;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// What one scenario run reports, whichever tier ran it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// The canonical report line: plan and verdict, no timings and no
    /// fired-fault counts, so a rerun of the seed prints the same bytes.
    pub line: String,
    /// Whether the scenario held its tier's contract.
    pub pass: bool,
    /// The plan expected a clean abort, not a bit-identical completion.
    pub aborts: bool,
    /// Timing-dependent observations, each printed behind the tier's
    /// label and the seed.
    pub notes: Vec<String>,
}

/// An independent seed stream per `tag` of one scenario seed
/// (splitmix-style mixing).
pub fn subseed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A scenario's ground truth: `n` chains of the tiny profile, generated
/// from stream 7 of `seed`, and the outcomes of the in-process run over
/// them.
pub fn truth(seed: u64, n: usize) -> (Vec<CaChain>, Vec<PairOutcome>) {
    let mut chains = rck_pdb::datasets::tiny_profile().generate(subseed(seed, 7));
    chains.truncate(n);
    let cache = PairCache::new(chains.clone());
    let outcomes = run_all_vs_all(&cache, &RckAlignOptions::paper(4)).outcomes;
    (chains, outcomes)
}

/// Fingerprint a set of outcomes, order-independently of arrival (sorted
/// by pair first).
pub fn outcomes_fingerprint(outcomes: &[PairOutcome]) -> u64 {
    let mut sorted: Vec<&PairOutcome> = outcomes.iter().collect();
    sorted.sort_by_key(|o| (o.i, o.j));
    let mut h = 0u64;
    for o in sorted {
        h = fnv1a64(h, &o.i.to_le_bytes());
        h = fnv1a64(h, &o.j.to_le_bytes());
        h = fnv1a64(h, &[o.method.code()]);
        h = fnv1a64(h, &o.similarity.to_bits().to_le_bytes());
        h = fnv1a64(h, &o.rmsd.to_bits().to_le_bytes());
        h = fnv1a64(h, &o.aligned_len.to_le_bytes());
        h = fnv1a64(h, &o.ops.to_le_bytes());
    }
    h
}

/// How a farm or sharded-farm scenario ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The run assembled outcomes bit-identical to the in-process
    /// ground truth.
    CompletedIdentical {
        /// FNV-1a fingerprint of the accepted outcomes.
        matrix_fnv: u64,
    },
    /// The run completed but the matrix differs — the failure the
    /// harness exists to catch. Always a scenario failure.
    CompletedDivergent {
        /// Fingerprint of the (wrong) served outcomes.
        got_fnv: u64,
        /// Fingerprint of the expected outcomes.
        want_fnv: u64,
    },
    /// The run reported a clean failure after the driver aborted an
    /// unrecoverable schedule.
    AbortedClean,
    /// The run returned an unexpected error.
    MasterError(String),
}

impl Verdict {
    /// Judge a run's outcomes against the fingerprint of the truth; an
    /// `Interrupted` error is the clean abort.
    pub fn judge(run: Result<&[PairOutcome], &io::Error>, want_fnv: u64) -> Verdict {
        match run {
            Ok(outcomes) => match outcomes_fingerprint(outcomes) {
                got_fnv if got_fnv == want_fnv => Verdict::CompletedIdentical {
                    matrix_fnv: got_fnv,
                },
                got_fnv => Verdict::CompletedDivergent { got_fnv, want_fnv },
            },
            Err(e) if e.kind() == io::ErrorKind::Interrupted => Verdict::AbortedClean,
            Err(e) => Verdict::MasterError(e.to_string()),
        }
    }

    /// Whether the verdict is the one the plan expects: a bit-identical
    /// matrix when completion is possible, a clean abort otherwise.
    pub fn passes(&self, expect_complete: bool) -> bool {
        matches!(
            (self, expect_complete),
            (Verdict::CompletedIdentical { .. }, true) | (Verdict::AbortedClean, false)
        )
    }

    /// The verdict's part of a report line.
    pub fn describe(&self) -> String {
        match self {
            Verdict::CompletedIdentical { matrix_fnv } => {
                format!("completed matrix=bit-identical fnv={matrix_fnv:#018x}")
            }
            Verdict::CompletedDivergent { got_fnv, want_fnv } => {
                format!("completed matrix=DIVERGENT got={got_fnv:#018x} want={want_fnv:#018x}")
            }
            Verdict::AbortedClean => "aborted-clean".to_string(),
            Verdict::MasterError(e) => format!("master-error({e})"),
        }
    }
}

// ---------------------------------------------------------------------
// Store crash recovery
// ---------------------------------------------------------------------

/// One storage fault, drawn for one store operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StoreFault {
    /// The process dies mid-append: only a prefix of the record
    /// (`max(1, keep * len / 256)` bytes, clamped short of complete)
    /// reaches the file.
    TornAppend { keep: u8 },
    /// One byte of the log body (offset `body * at / 256`) is XORed
    /// with the non-zero `mask` (media corruption), then the process dies.
    BitFlip { at: u8, mask: u8 },
    /// The process dies mid-compaction: a prefix of the temp file is
    /// written, the rename never happens.
    KillMidCompaction { keep: u8 },
}

impl StoreFault {
    /// The next operation's fault: about one operation in seven (60 ‰
    /// torn appends, 40 ‰ bit flips, 40 ‰ killed compactions). Every
    /// operation takes four draws whatever it rolls, so operation `k`
    /// always reads the same four values of the stream.
    fn draw(rng: &mut StdRng) -> Option<StoreFault> {
        let roll = rng.next_u64() % 1000;
        let keep = (rng.next_u64() % 256) as u8;
        let at = (rng.next_u64() % 256) as u8;
        let mask = ((rng.next_u64() % 255) + 1) as u8;
        match roll {
            0..60 => Some(StoreFault::TornAppend { keep }),
            60..100 => Some(StoreFault::BitFlip { at, mask }),
            100..140 => Some(StoreFault::KillMidCompaction { keep }),
            _ => None,
        }
    }
}

/// Operations one scenario performs (compaction every `COMPACT_EVERY`).
const SCENARIO_OPS: usize = 160;
const COMPACT_EVERY: usize = 40;

/// Distinct synthetic pair keys a scenario draws from; small enough
/// that duplicate appends exercise the idempotent-skip path.
const KEY_SPACE: u64 = 96;

fn synth_record(rng: &mut StdRng) -> (PairKey, StoredPair) {
    let id = rng.next_u64() % KEY_SPACE;
    let key = PairKey {
        hash_a: fnv1a64(0, &id.to_le_bytes()),
        hash_b: fnv1a64(1, &id.to_le_bytes()),
        method: (id % 3) as u8,
        kernel_version: 1,
    };
    let v = rng.next_u64();
    let pair = StoredPair {
        similarity: (v % 1000) as f64 / 1000.0,
        rmsd: if v.is_multiple_of(7) {
            f64::NAN
        } else {
            (v % 100) as f64
        },
        aligned_len: (v % 512) as u32,
        ops: v % 100_000,
    };
    (key, pair)
}

/// The store scenario's ground truth: the exact record sequence the log
/// must hold (unique keys, append order — normal appends skip
/// duplicates, so the physical log never repeats a key).
struct Mirror {
    records: Vec<(PairKey, StoredPair)>,
}

impl Mirror {
    /// Drop every record from the first one overlapping byte offset
    /// `rel` (relative to the log body) — what recovery keeps after a
    /// flip at that offset.
    fn truncate_at_byte(&mut self, rel: usize) {
        self.records.truncate(rel / PAIR_RECORD_LEN);
    }

    fn fingerprint(&self) -> u64 {
        let mut sorted = self.records.clone();
        sorted.sort_unstable_by_key(|(k, _)| *k);
        let mut h = 0u64;
        for (k, p) in &sorted {
            h = fnv1a64(h.max(1), &k.hash_a.to_le_bytes());
            h = fnv1a64(h, &k.hash_b.to_le_bytes());
            h = fnv1a64(h, &[k.method]);
            h = fnv1a64(h, &k.kernel_version.to_le_bytes());
            h = fnv1a64(h, &p.similarity.to_bits().to_le_bytes());
            h = fnv1a64(h, &p.rmsd.to_bits().to_le_bytes());
            h = fnv1a64(h, &p.aligned_len.to_le_bytes());
            h = fnv1a64(h, &p.ops.to_le_bytes());
        }
        h
    }
}

/// Check the store against the mirror; returns violation descriptions.
fn verify(store: &Store, mirror: &Mirror) -> Vec<String> {
    let mut bad = Vec::new();
    if store.len() != mirror.records.len() {
        bad.push(format!(
            "index has {} records, mirror has {}",
            store.len(),
            mirror.records.len()
        ));
    }
    if store.log_records() != mirror.records.len() as u64 {
        bad.push(format!(
            "log has {} records, mirror has {}",
            store.log_records(),
            mirror.records.len()
        ));
    }
    for (key, want) in &mirror.records {
        match store.get(key) {
            Some(got) if got.same_bits(want) => {}
            Some(_) => bad.push(format!("record {key:?} differs from mirror")),
            None => bad.push(format!("record {key:?} missing from index")),
        }
    }
    bad
}

static SCENARIO_NONCE: AtomicU64 = AtomicU64::new(0);

/// Run one seeded crash-recovery scenario in a scratch directory under
/// the system temp dir (cleaned up afterwards). The scenario keeps a
/// byte-exact mirror of what the log must contain, and after every
/// simulated crash reopens the store and checks that the rebuilt index
/// equals the surviving prefix bit for bit, that a torn or corrupt tail
/// was truncated (and counted) exactly once, and that a killed
/// compaction lost nothing. The report line — including the content
/// fingerprint — is deterministic in `seed`.
///
/// # Panics
/// Panics only on scratch-directory I/O failures, never on store
/// corruption (that fails the report).
pub fn run_store_scenario(seed: u64) -> Report {
    let nonce = SCENARIO_NONCE.fetch_add(1, Ordering::Relaxed);
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "rck-store-chaos-{}-{seed}-{nonce}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scenario scratch dir");
    let path = dir.join("chaos.rckstore");

    let mut faults = StdRng::seed_from_u64(subseed(seed, 1));
    let mut rng = StdRng::seed_from_u64(subseed(seed, 2));
    // A fresh registry per open: recovery counters are read per reopen.
    let open = || Store::open(&path, StoreConfig::on_registry(Default::default())).expect("open");

    let mut store = open();
    let mut mirror = Mirror {
        records: Vec::new(),
    };
    let (mut torn, mut flips, mut killed, mut compactions, mut reopens) = (0, 0, 0, 0, 0);
    let mut violations: Vec<String> = Vec::new();

    let mut crash_and_verify = |store: &mut Store, mirror: &Mirror, expect_truncation: bool| {
        *store = open();
        reopens += 1;
        let mut bad = verify(store, mirror);
        let truncations = store.counters().torn_tail_truncations.get();
        if expect_truncation != (truncations == 1) {
            bad.push(format!(
                "expected truncation={expect_truncation}, counted {truncations}"
            ));
        }
        let recovered = store.counters().recovered_records.get();
        if recovered != mirror.records.len() as u64 {
            bad.push(format!(
                "recovered {recovered} records, mirror has {}",
                mirror.records.len()
            ));
        }
        bad
    };

    for k in 0..SCENARIO_OPS {
        let (key, pair) = synth_record(&mut rng);
        let fault = StoreFault::draw(&mut faults);
        if let Some(StoreFault::TornAppend { keep }) = fault {
            // The record is lost with the process; only its torn prefix
            // reaches the file.
            store.append_torn(key, pair, keep).expect("torn append");
            torn += 1;
            violations.extend(crash_and_verify(&mut store, &mirror, true));
            continue;
        }
        // Every other operation appends first; a key the log already
        // holds is skipped, by the store and by the mirror alike.
        if store.append(key, pair).expect("append") {
            mirror.records.push((key, pair));
        }
        let body = mirror.records.len() * PAIR_RECORD_LEN;
        match fault {
            Some(StoreFault::BitFlip { at, mask }) if body > 0 => {
                let rel = (body * at as usize) / 256;
                let mut bytes = fs::read(&path).expect("read log");
                bytes[SUPERBLOCK_LEN + rel] ^= mask;
                fs::write(&path, &bytes).expect("write flipped log");
                flips += 1;
                mirror.truncate_at_byte(rel);
                violations.extend(crash_and_verify(&mut store, &mirror, true));
            }
            Some(StoreFault::KillMidCompaction { keep }) if body > 0 => {
                store.compact_torn(keep).expect("torn compaction");
                killed += 1;
                violations.extend(crash_and_verify(&mut store, &mirror, false));
            }
            None if k % COMPACT_EVERY == COMPACT_EVERY - 1 => {
                store.compact().expect("compact");
                compactions += 1;
                violations.extend(verify(&store, &mirror));
            }
            _ => {}
        }
    }

    violations.extend(verify(&store, &mirror));
    for v in violations.iter().take(5) {
        eprintln!("[rck-store chaos seed {seed}] {v}");
    }
    let line = format!(
        "store seed={seed} ops={SCENARIO_OPS} torn={torn} flips={flips} \
         killed_compactions={killed} compactions={compactions} reopens={reopens} final={} \
         fp={:016x} failures={}",
        store.len(),
        mirror.fingerprint(),
        violations.len(),
    );
    drop(store);
    let _ = fs::remove_dir_all(&dir);
    Report {
        line,
        pass: violations.is_empty(),
        aborts: false,
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_tmalign::MethodKind;

    #[test]
    fn fingerprint_ignores_arrival_order_but_not_values() {
        let a = PairOutcome {
            i: 0,
            j: 1,
            method: MethodKind::TmAlign,
            similarity: 0.5,
            rmsd: 2.0,
            aligned_len: 10,
            ops: 100,
        };
        let b = PairOutcome {
            i: 0,
            j: 2,
            similarity: 0.25,
            ..a
        };
        assert_eq!(outcomes_fingerprint(&[a, b]), outcomes_fingerprint(&[b, a]));
        let mut c = b;
        c.similarity = 0.26;
        assert_ne!(outcomes_fingerprint(&[a, b]), outcomes_fingerprint(&[a, c]));
    }

    /// The per-operation draw reproduces the 1 024-slot plan it replaced
    /// (kept here as the reference): realised up front with the same
    /// four draws per slot and the same 60/40/40 ‰ edges, slot `k` holds
    /// the fault the scenario now draws when it reaches operation `k`.
    #[test]
    fn store_faults_replay_the_retired_plan() {
        fn retired_plan(seed: u64) -> Vec<Option<StoreFault>> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..1024)
                .map(|_| {
                    let roll = (rng.next_u64() % 1000) as u16;
                    let keep = (rng.next_u64() % 256) as u8;
                    let at = (rng.next_u64() % 256) as u8;
                    let mask = ((rng.next_u64() % 255) + 1) as u8;
                    if roll < 60 {
                        Some(StoreFault::TornAppend { keep })
                    } else if roll < 100 {
                        Some(StoreFault::BitFlip { at, mask })
                    } else if roll < 140 {
                        Some(StoreFault::KillMidCompaction { keep })
                    } else {
                        None
                    }
                })
                .collect()
        }
        for seed in [0, 9, subseed(7, 1)] {
            let mut rng = StdRng::seed_from_u64(seed);
            let drawn: Vec<_> = (0..1024).map(|_| StoreFault::draw(&mut rng)).collect();
            assert_eq!(drawn, retired_plan(seed), "seed {seed}");
            assert!(
                drawn.iter().flatten().count() > 0,
                "seed {seed} drew no fault"
            );
        }
    }

    #[test]
    fn scenario_reports_are_deterministic() {
        let a = run_store_scenario(7);
        let b = run_store_scenario(7);
        assert_eq!(a, b);
        assert!(a.pass, "healthy store under seed 7: {}", a.line);
    }

    #[test]
    fn verdicts_pass_only_when_they_match_the_plan() {
        let (chains, outcomes) = truth(3, 4);
        assert_eq!(chains.len(), 4);
        let want = outcomes_fingerprint(&outcomes);
        let done = Verdict::judge(Ok(outcomes.as_slice()), want);
        assert_eq!(
            done,
            Verdict::CompletedIdentical { matrix_fnv: want },
            "the truth judges identical to itself"
        );
        assert!(done.passes(true) && !done.passes(false));
        let wrong = Verdict::judge(Ok(&outcomes[1..]), want);
        assert!(!wrong.passes(true));
        assert!(wrong.describe().contains("DIVERGENT"));
        let aborted = io::Error::from(io::ErrorKind::Interrupted);
        let aborted = Verdict::judge(Err(&aborted), want);
        assert_eq!(aborted, Verdict::AbortedClean);
        assert!(aborted.passes(false) && !aborted.passes(true));
    }
}
