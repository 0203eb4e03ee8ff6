//! Golden-set harness: the pruned configuration (`TmAlignParams::fast()`)
//! against the unpruned oracle over seeded structure corpora
//! (DESIGN.md §13.4). Both run the same engine and stages; they differ
//! only where a prefilter fires (`oracle_bits.rs` pins that bit for
//! bit), so the gates here are about what pruning may cost:
//!
//! 1. Every pair the oracle scores at or above the ranking threshold
//!    must survive with its score within [`PRUNED_EPSILON`] — pruning
//!    may only cheapen hopeless pairs, never lose hits.
//! 2. Every `Reject` verdict must be *sound*: the oracle's score under
//!    the rejecting normalisation can never exceed the length bound the
//!    verdict carried.
//!
//! The `kernel_fast_ck34` benchmark workload holds all 561 CK34 pairs to
//! the full tiers (0.02 at TM ≥ 0.45, never more than 0.12 *above* the
//! oracle below it, no lost hit at 0.5) on every op.

mod common;

use common::{corpus, DATASET_SEED};
use rck_pdb::datasets::{ck34_profile, tiny_profile};
use rck_tmalign::prefilter::{decide, PrefilterDecision, SsComposition};
use rck_tmalign::{tm_align_with, Normalization, PrefilterConfig, TmAlignParams};

/// Documented epsilon of gate 1 for pairs the oracle
/// ranks as hits (TM ≥ `HIT_THRESHOLD`).
const PRUNED_EPSILON: f64 = 0.02;

/// Ranking threshold used by gate 1: comfortably above the prefilter's
/// 0.3 rejection line, where demotion/early-exit must not cost hits.
const HIT_THRESHOLD: f64 = 0.5;

#[test]
fn pruned_config_never_loses_hits() {
    let (chains, pairs) = corpus();
    let pruned = TmAlignParams::fast();
    let mut hits = 0usize;
    for &(i, j) in &pairs {
        let oracle = tm_align_with(&chains[i], &chains[j], &TmAlignParams::default());
        if oracle.tm_max_norm() < HIT_THRESHOLD {
            continue;
        }
        hits += 1;
        let fastr = tm_align_with(&chains[i], &chains[j], &pruned);
        assert!(
            (oracle.tm_max_norm() - fastr.tm_max_norm()).abs() < PRUNED_EPSILON,
            "{} vs {}: oracle hit {:.4} came back {:.4} under pruning",
            chains[i].name,
            chains[j].name,
            oracle.tm_max_norm(),
            fastr.tm_max_norm()
        );
    }
    assert!(
        hits >= 3,
        "corpus produced only {hits} hits — gate is vacuous"
    );
}

#[test]
fn reject_verdicts_are_sound_on_corpus() {
    // Mixed-length pairs under the longer-chain normalisation: whenever
    // the prefilter would reject, the oracle must agree the pair cannot
    // clear the threshold.
    let tiny = tiny_profile().generate(DATASET_SEED);
    let ck = ck34_profile().generate(DATASET_SEED);
    let cfg = PrefilterConfig::fast();
    let longer = TmAlignParams {
        normalization: Normalization::Longer,
        ..TmAlignParams::default()
    };
    let mut rejects = 0usize;
    for a in &tiny {
        for b in ck.iter().take(6) {
            let norm = a.len().max(b.len());
            let comp_a = SsComposition::of(&rck_tmalign::align::secondary_structure(a));
            let comp_b = SsComposition::of(&rck_tmalign::align::secondary_structure(b));
            if let PrefilterDecision::Reject { tm_upper_bound } =
                decide(a.len(), b.len(), norm, &comp_a, &comp_b, &cfg)
            {
                rejects += 1;
                let oracle = tm_align_with(a, b, &longer);
                assert!(
                    oracle.tm_min_norm() <= tm_upper_bound + 1e-9,
                    "{} vs {}: oracle {:.4} exceeds carried bound {:.4}",
                    a.name,
                    b.name,
                    oracle.tm_min_norm(),
                    tm_upper_bound
                );
                assert!(tm_upper_bound < cfg.tm_threshold);
            }
        }
    }
    assert!(rejects >= 5, "only {rejects} rejects — gate is vacuous");
}
