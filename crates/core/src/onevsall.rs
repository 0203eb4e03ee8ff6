//! One-vs-all PSC — the paper's Algorithm 1.
//!
//! "A typical task in bioinformatics is comparison of the structure of a
//! protein with a database of known protein structures" (§I); Algorithm 1
//! sketches the one-to-all case with *multiple* comparison methods: for
//! every method `k` in `M` and every database entry `i` in `D`, a free
//! node computes `compare(k, [i, q])`. This module runs exactly that on
//! the simulated SCC: the query is compared against every other chain
//! under every requested method, all in one farm — rckAlign's farm, fed
//! the query's job list. [`crate::Consensus::from_outcomes`] combines the
//! results into the ranked list the biologist wants.

use crate::app::{farm_run, RckAlignRun, Scheduling};
use crate::cache::PairCache;
use crate::jobs::PairJob;
use rck_noc::NocConfig;
use rck_tmalign::MethodKind;

/// Options for a one-vs-all run.
#[derive(Debug, Clone)]
pub struct OneVsAllOptions {
    /// Comparison methods (Algorithm 1's set `M`).
    pub methods: Vec<MethodKind>,
    /// Slave cores.
    pub n_slaves: usize,
    /// Chip configuration.
    pub noc: NocConfig,
}

/// The job list of Algorithm 1: for each method, the query against every
/// database chain (pairs normalised to `i < j` so results are shared with
/// all-vs-all caches).
pub fn one_vs_all_jobs(query: usize, n: usize, methods: &[MethodKind]) -> Vec<PairJob> {
    let mut jobs = Vec::with_capacity(methods.len() * n.saturating_sub(1));
    for &method in methods {
        for other in 0..n {
            if other == query {
                continue;
            }
            let (i, j) = if query < other {
                (query, other)
            } else {
                (other, query)
            };
            jobs.push(PairJob {
                i: i as u32,
                j: j as u32,
                method,
            });
        }
    }
    jobs
}

/// Compare `query` against every other chain in the cache's dataset under
/// every method, on the simulated SCC: one outcome per (database entry,
/// method), in collection order.
///
/// # Panics
/// Panics on an out-of-range query, empty method list, zero slaves, or
/// chip oversubscription.
pub fn run_one_vs_all(cache: &PairCache, query: usize, opts: &OneVsAllOptions) -> RckAlignRun {
    assert!(query < cache.len(), "query {query} out of range");
    assert!(!opts.methods.is_empty(), "need at least one method");
    let jobs = one_vs_all_jobs(query, cache.len(), &opts.methods);
    farm_run(cache, &jobs, opts.n_slaves, Scheduling::Farm, &opts.noc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::consensus::{Combiner, Consensus};
    use rck_pdb::datasets::tiny_profile;

    const METHODS: [MethodKind; 2] = [MethodKind::TmAlign, MethodKind::ContactMap];

    fn cache() -> PairCache {
        PairCache::new(tiny_profile().generate(33))
    }

    fn opts(n_slaves: usize) -> OneVsAllOptions {
        OneVsAllOptions {
            methods: METHODS.to_vec(),
            n_slaves,
            noc: NocConfig::scc(),
        }
    }

    #[test]
    fn job_list_covers_database_per_method() {
        let jobs = one_vs_all_jobs(3, 8, &METHODS);
        assert_eq!(jobs.len(), 2 * 7);
        for j in &jobs {
            assert!(j.i < j.j);
            assert!(j.i == 3 || j.j == 3);
        }
    }

    #[test]
    fn run_produces_all_outcomes_and_ranking() {
        let c = cache();
        let run = run_one_vs_all(&c, 0, &opts(4));
        assert_eq!(run.outcomes.len(), 2 * (c.len() - 1));
        let ranked = Consensus::from_outcomes(c.len(), &run.outcomes, &METHODS)
            .ranked_neighbours(0, Combiner::MeanRank);
        assert_eq!(ranked.len(), c.len() - 1);
        // Chain 0 is in the first (helix) family of 4 members: its three
        // siblings should lead the consensus ranking.
        let top3: Vec<usize> = ranked.iter().take(3).map(|(k, _)| *k).collect();
        assert!(top3.iter().all(|&k| k < 4), "top-3 {top3:?}");
    }

    #[test]
    fn one_vs_all_is_cheaper_than_all_vs_all() {
        let c = cache();
        let one = run_one_vs_all(&c, 0, &opts(4)).makespan_secs;
        let all =
            crate::app::run_all_vs_all(&c, &crate::app::RckAlignOptions::paper(4)).makespan_secs;
        assert!(one < all, "one-vs-all {one} vs all-vs-all {all}");
    }

    #[test]
    fn query_in_middle_works() {
        let c = cache();
        let run = run_one_vs_all(&c, 5, &opts(3));
        assert_eq!(run.outcomes.len(), 2 * (c.len() - 1));
        // Every outcome touches the query.
        for o in &run.outcomes {
            assert!(o.i == 5 || o.j == 5);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_query_rejected() {
        let c = cache();
        let _ = run_one_vs_all(&c, 99, &opts(2));
    }
}
