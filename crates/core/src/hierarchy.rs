//! Hierarchical masters — the paper's answer to the single-master
//! bottleneck (§V-D).
//!
//! "It is possible that the single master strategy would become the
//! bottleneck, if slave processes were running on faster cores or faster
//! network. However, this can be tackled by implementing a hierarchy of
//! master processes such that a master does not become a bottleneck for
//! the slaves it controls."
//!
//! Two levels: the top master (core 0) loads the data, splits the job
//! list into per-sub-master blocks (cost-interleaved for balance) and
//! ships each block — chains included — to its sub-master in one large
//! message; each sub-master then runs an ordinary FARM over its own slave
//! group, and returns its results in one aggregated message. Distribution
//! and collection load is thereby divided by the number of sub-masters.

use crate::app::{
    charge_dataset_load, chip_cores, pair_payload, pair_slave, run_on_chip, RckAlignRun,
};
use crate::cache::PairCache;
use crate::jobs::all_vs_all;
use crate::loadbalance::{order_jobs, JobOrdering};
use rck_noc::{CoreCtx, CoreProgram, NocConfig};
use rck_rcce::{Rcce, Reader, Writer};
use rck_skel::{farm, Job};
use rck_tmalign::MethodKind;

/// Options for a hierarchical run.
#[derive(Debug, Clone)]
pub struct HierarchyOptions {
    /// Number of sub-masters.
    pub n_submasters: usize,
    /// Slaves controlled by each sub-master.
    pub slaves_per_submaster: usize,
    /// Comparison method.
    pub method: MethodKind,
    /// Job ordering applied before partitioning.
    pub ordering: JobOrdering,
    /// Chip configuration.
    pub noc: NocConfig,
}

fn encode_block(jobs: &[Vec<u8>]) -> Vec<u8> {
    let mut w = Writer::with_capacity(8 + jobs.iter().map(|j| j.len() + 4).sum::<usize>());
    w.put_u32(jobs.len() as u32);
    for j in jobs {
        w.put_bytes(j);
    }
    w.finish()
}

fn decode_block(data: Vec<u8>) -> Vec<Vec<u8>> {
    let mut r = Reader::new(data);
    let n = r.get_u32().expect("block length");
    (0..n)
        .map(|_| r.get_bytes().expect("block entry"))
        .collect()
}

/// Run the all-vs-all workload through a two-level master hierarchy.
///
/// Core layout: core 0 = top master; cores 1..=k = sub-masters; the
/// following `k × slaves_per_submaster` cores are slaves, grouped
/// contiguously per sub-master.
pub fn run_hierarchical(cache: &PairCache, opts: &HierarchyOptions) -> RckAlignRun {
    let chains = cache.chains();
    let k = opts.n_submasters;
    let s = opts.slaves_per_submaster;
    assert!(k >= 1 && s >= 1, "need at least one sub-master and slave");
    let ues = chip_cores(1 + k + k * s, &opts.noc);

    // Partition the (ordered) job list round-robin across sub-masters:
    // interleaving spreads the expensive jobs evenly.
    let mut pair_jobs = all_vs_all(chains.len(), opts.method);
    order_jobs(&mut pair_jobs, chains, opts.ordering);
    let mut blocks: Vec<Vec<Vec<u8>>> = vec![Vec::new(); k];
    for (idx, pj) in pair_jobs.iter().enumerate() {
        blocks[idx % k].push(pair_payload(chains, pj));
    }

    // Top master: ship each block, then gather the aggregated results.
    let master = {
        let ues = ues.clone();
        move |ctx: &mut CoreCtx| {
            charge_dataset_load(ctx, chains);
            let mut comm = Rcce::new(ctx, &ues);
            for (sm, block) in blocks.iter().enumerate() {
                comm.send(1 + sm, encode_block(block));
            }
            let sub_ranks: Vec<usize> = (1..=k).collect();
            (0..k)
                .flat_map(|_| decode_block(comm.recv_any(&sub_ranks).1))
                .collect()
        }
    };
    // Sub-masters: an ordinary FARM over their own slave group.
    let sub_masters = (0..k).map(|sm| {
        let ues = ues.clone();
        Box::new(move |ctx: &mut CoreCtx| {
            let mut comm = Rcce::new(ctx, &ues);
            let jobs: Vec<Job> = decode_block(comm.recv(0))
                .into_iter()
                .enumerate()
                .map(|(i, p)| Job::new(i as u64, p))
                .collect();
            let base = 1 + k + sm * s;
            let slave_ranks: Vec<usize> = (base..base + s).collect();
            let results = farm(&mut comm, &slave_ranks, &jobs);
            let encoded: Vec<Vec<u8>> = results.into_iter().map(|r| r.payload).collect();
            comm.send(0, encode_block(&encoded));
        }) as CoreProgram
    });
    let slaves = (0..k * s).map(|x| pair_slave(cache, &ues, 1 + x / s));
    run_on_chip(&opts.noc, master, sub_masters.chain(slaves))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{run_all_vs_all, RckAlignOptions};
    use crate::jobs::{pair_count, PairOutcome};
    use rck_pdb::datasets::tiny_profile;

    fn cache() -> PairCache {
        PairCache::new(tiny_profile().generate(77))
    }

    fn opts(k: usize, s: usize) -> HierarchyOptions {
        HierarchyOptions {
            n_submasters: k,
            slaves_per_submaster: s,
            method: MethodKind::TmAlign,
            ordering: JobOrdering::Fifo,
            noc: NocConfig::scc(),
        }
    }

    #[test]
    fn hierarchy_covers_all_pairs() {
        let c = cache();
        let run = run_hierarchical(&c, &opts(2, 3));
        assert_eq!(run.outcomes.len(), pair_count(c.len()));
    }

    #[test]
    fn hierarchy_matches_flat_results() {
        let c = cache();
        let h = run_hierarchical(&c, &opts(2, 2));
        let flat = run_all_vs_all(&c, &RckAlignOptions::paper(4));
        let key = |mut v: Vec<PairOutcome>| {
            v.sort_by_key(|o| (o.i, o.j));
            v
        };
        assert_eq!(key(h.outcomes), key(flat.outcomes));
    }

    #[test]
    fn hierarchy_is_deterministic() {
        let c = cache();
        let a = run_hierarchical(&c, &opts(3, 2));
        let b = run_hierarchical(&c, &opts(3, 2));
        assert_eq!(a.report.makespan, b.report.makespan);
        assert_eq!(a.outcomes, b.outcomes);
    }

    #[test]
    fn single_submaster_close_to_flat_farm() {
        // One sub-master over n slaves is a flat farm plus the block
        // forwarding overhead — same compute, small constant extra.
        let c = cache();
        let h = run_hierarchical(&c, &opts(1, 4));
        let flat = run_all_vs_all(&c, &RckAlignOptions::paper(4));
        assert!(
            h.makespan_secs < flat.makespan_secs * 1.25,
            "hierarchy {} vs flat {}",
            h.makespan_secs,
            flat.makespan_secs
        );
    }

    #[test]
    #[should_panic(expected = "exceed the chip")]
    fn oversubscription_rejected() {
        let c = cache();
        let _ = run_hierarchical(&c, &opts(4, 12));
    }
}
