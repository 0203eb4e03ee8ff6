//! Pins the kernels to *themselves across commits*.
//!
//! Every distributed path is checked against the in-process run, and the
//! pruned configuration against the oracle — both of which a consistent
//! drift of the kernel passes. This test hashes every field of every
//! result over the golden corpus, for the scalar oracle and for the fast
//! (pruned) configuration, and compares against constants computed
//! before the kernel was last edited. A mismatch means stored results, the
//! simulator's `ops`-calibrated cost model and every committed number
//! derived from them have moved: either the edit is wrong, or
//! `KERNEL_VERSION` is due a bump and the constants a deliberate update.

mod common;

use common::{corpus, DATASET_SEED};
use rck_pdb::datasets::ck34_profile;
use rck_pdb::model::CaChain;
use rck_tmalign::{tm_align_with, PrefilterConfig, TmAlignParams, TmAlignResult};

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Every field of a result that a kernel edit could move.
    fn result(&mut self, r: &TmAlignResult) {
        for f in [r.tm_norm_a, r.tm_norm_b, r.rmsd, r.seq_identity] {
            self.word(f.to_bits());
        }
        self.word(r.ops);
        self.word(r.aligned_len as u64);
        for &(i, j) in &r.alignment {
            self.word(i as u64);
            self.word(j as u64);
        }
        let t = &r.transform;
        let rot = t.rot.r.iter().flatten();
        for f in rot.chain(&[t.trans.x, t.trans.y, t.trans.z]) {
            self.word(f.to_bits());
        }
    }
}

/// Hash and total `ops` of `params` over `pairs`.
fn fingerprint(chains: &[CaChain], pairs: &[(usize, usize)], params: &TmAlignParams) -> (u64, u64) {
    let mut h = Fnv::new();
    let mut ops = 0u64;
    for &(i, j) in pairs {
        let r = tm_align_with(&chains[i], &chains[j], params);
        ops += r.ops;
        h.result(&r);
    }
    (h.0, ops)
}

#[test]
fn oracle_and_fast_path_are_bit_identical_to_the_pinned_kernel() {
    let (chains, pairs) = corpus();
    assert_eq!(pairs.len(), 43);
    let (scalar, _) = fingerprint(&chains, &pairs, &TmAlignParams::default());
    let (fast, _) = fingerprint(&chains, &pairs, &TmAlignParams::fast());
    assert_eq!(
        (scalar, fast),
        (SCALAR_CORPUS_HASH, FAST_CORPUS_HASH),
        "kernel drifted: scalar {scalar:#018x}, fast {fast:#018x}"
    );
}

/// `fast()` is the oracle's run cut short: with the prefilter enabled but
/// unable to fire (nothing scores below a 0.0 threshold, no composition
/// overlaps less than 0.0) every field — `ops` included — is the
/// oracle's, so the two configurations differ only where a pruning
/// event fires.
#[test]
fn a_prefilter_that_cannot_fire_is_the_oracle_bit_for_bit() {
    let (chains, pairs) = corpus();
    let cannot_fire = TmAlignParams {
        prefilter: PrefilterConfig {
            tm_threshold: 0.0,
            ss_overlap_floor: 0.0,
            ..PrefilterConfig::fast()
        },
        ..TmAlignParams::default()
    };
    assert!(cannot_fire.prefilter.enabled);
    let (hash, _) = fingerprint(&chains, &pairs, &cannot_fire);
    assert_eq!(hash, SCALAR_CORPUS_HASH, "got {hash:#018x}");
}

/// All 561 unordered CK34 pairs at the benchmark's seed.
fn ck34_sweep() -> (Vec<CaChain>, Vec<(usize, usize)>) {
    let chains = ck34_profile().generate(DATASET_SEED);
    let pairs: Vec<(usize, usize)> = (0..chains.len())
        .flat_map(|i| (i + 1..chains.len()).map(move |j| (i, j)))
        .collect();
    assert_eq!(pairs.len(), 561);
    (chains, pairs)
}

/// The same hash over all 561 CK34 pairs with the scalar oracle — the
/// `farm_ck34_tm` op. About 2 s in release, minutes in debug, hence
/// ignored: `cargo test --release -p rck-tmalign --test oracle_bits -- --ignored`.
#[test]
#[ignore = "release-mode sweep of all 561 CK34 pairs"]
fn ck34_sweep_is_bit_identical_to_the_pinned_kernel() {
    let (chains, pairs) = ck34_sweep();
    let (hash, ops) = fingerprint(&chains, &pairs, &TmAlignParams::default());
    assert_eq!(
        (hash, ops),
        (CK34_SWEEP_HASH, CK34_SWEEP_OPS),
        "kernel drifted: hash {hash:#018x}, ops {ops}"
    );
}

/// … and with `TmAlignParams::fast()` — the `kernel_fast_ck34` op, the
/// only place every pruning decision of the sweep is exercised.
#[test]
#[ignore = "release-mode sweep of all 561 CK34 pairs"]
fn ck34_fast_sweep_is_bit_identical_to_the_pinned_kernel() {
    let (chains, pairs) = ck34_sweep();
    let (hash, ops) = fingerprint(&chains, &pairs, &TmAlignParams::fast());
    assert_eq!(
        (hash, ops),
        (CK34_FAST_SWEEP_HASH, CK34_FAST_SWEEP_OPS),
        "fast configuration drifted: hash {hash:#018x}, ops {ops}"
    );
}

// Computed by the kernel of commit 44ca729 (the last one before the
// streaming engine), where this test passes unchanged.
const SCALAR_CORPUS_HASH: u64 = 0xd370_2236_44f5_a169;
// Re-pinned once (was 0x0aaf_c174_cdc6_8ac8) when the banded f32 engine
// was retired: `fast()` now runs its DP rounds on the oracle's engine,
// so its bits moved toward the oracle's, inside the golden tiers.
const FAST_CORPUS_HASH: u64 = 0xaa06_bc68_4845_74c4;
const CK34_SWEEP_HASH: u64 = 0x4263_3607_5204_d7d3;
/// `tmalign.ops` of one `farm_ck34_tm` op at seed 2013.
const CK34_SWEEP_OPS: u64 = 743_056_445;
// Computed by the kernel of commit 62b25b6, before the fused candidate
// pass, the TM-term pass and the resumed final search.
const CK34_FAST_SWEEP_HASH: u64 = 0xe07f_932f_f91b_b63f;
/// `tmalign.ops` of one `kernel_fast_ck34` op at seed 2013.
const CK34_FAST_SWEEP_OPS: u64 = 566_021_014;
