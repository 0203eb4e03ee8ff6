//! The seeded structure corpus shared by the golden-set harness
//! (`golden.rs`) and the oracle pin (`oracle_bits.rs`).

use rck_pdb::datasets::{ck34_profile, tiny_profile};
use rck_pdb::model::CaChain;

/// Dataset seed shared with the benchmark.
pub const DATASET_SEED: u64 = 2013;

/// All unordered pairs of the tiny corpus plus a same-/cross-family
/// sample of CK34-sized chains (kept small so debug-mode CI stays fast).
pub fn corpus() -> (Vec<CaChain>, Vec<(usize, usize)>) {
    let mut chains = tiny_profile().generate(DATASET_SEED);
    let tiny_n = chains.len();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    for i in 0..tiny_n {
        for j in (i + 1)..tiny_n {
            pairs.push((i, j));
        }
    }
    let ck = ck34_profile().generate(DATASET_SEED);
    let picks = [0usize, 1, 2, 12, 13, 24];
    let base = chains.len();
    for &k in &picks {
        chains.push(ck[k].clone());
    }
    for i in 0..picks.len() {
        for j in (i + 1)..picks.len() {
            pairs.push((base + i, base + j));
        }
    }
    (chains, pairs)
}
