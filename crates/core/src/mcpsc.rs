//! Multi-criteria PSC (MC-PSC) — the paper's proposed extension (§V/VI).
//!
//! "All slave processes are not required to run the same PSC algorithm.
//! The basic protein structure data used by most PSC algorithms is the
//! same and therefore, different slave processes can be running different
//! algorithms on the same data received from the master process." This
//! module implements exactly that: the slave set is *partitioned* among
//! comparison methods, the master keeps a per-method job queue, and each
//! slave is fed jobs of its own method — one master, one data source,
//! several criteria computed in one pass. The paper notes that choosing
//! the partition is the open question ("assessment of optimal strategies
//! for the partitioning of the cores"); two strategies are provided.

use crate::app::{charge_dataset_load, master_and_slaves, pair_payload, pair_slave, run_on_chip};
use crate::cache::PairCache;
use crate::jobs::{all_vs_all, PairOutcome};
use rck_noc::{CoreCtx, NocConfig, SimReport};
use rck_rcce::Rcce;
use rck_skel::{wire, Job};
use rck_tmalign::MethodKind;
use serde::{Deserialize, Serialize};

/// How slaves are divided among methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PartitionStrategy {
    /// Same number of slaves per method (round-robin remainder).
    Equal,
    /// Slaves proportional to each method's estimated total cost, so all
    /// partitions finish at about the same time.
    ProportionalToCost,
}

/// Options for an MC-PSC run.
#[derive(Debug, Clone)]
pub struct McPscOptions {
    /// Methods to run (each gets a slave partition).
    pub methods: Vec<MethodKind>,
    /// Total slave cores available.
    pub n_slaves: usize,
    /// Partitioning strategy.
    pub strategy: PartitionStrategy,
    /// Chip configuration.
    pub noc: NocConfig,
}

/// Result of an MC-PSC run.
#[derive(Debug, Clone)]
pub struct McPscRun {
    /// All outcomes, tagged by method.
    pub outcomes: Vec<PairOutcome>,
    /// Slaves assigned to each method.
    pub partition: Vec<(MethodKind, usize)>,
    /// Simulator report.
    pub report: SimReport,
    /// Makespan in simulated seconds.
    pub makespan_secs: f64,
}

/// Estimate the per-method cost share by computing a small sample of
/// pairs (memoised, so nothing is wasted).
fn estimate_cost_shares(cache: &PairCache, methods: &[MethodKind]) -> Vec<f64> {
    let n = cache.len();
    let sample: Vec<(u32, u32)> = {
        let mut s = Vec::new();
        let mut i = 0usize;
        while s.len() < 8.min(n * (n - 1) / 2) {
            let a = (i * 7) % n;
            let b = (i * 13 + 1) % n;
            if a < b {
                s.push((a as u32, b as u32));
            } else if b < a {
                s.push((b as u32, a as u32));
            }
            i += 1;
        }
        s.dedup();
        s
    };
    methods
        .iter()
        .map(|&m| {
            sample
                .iter()
                .map(|&(i, j)| {
                    cache
                        .get_or_compute(&crate::jobs::PairJob { i, j, method: m })
                        .ops as f64
                })
                .sum::<f64>()
                .max(1.0)
        })
        .collect()
}

/// Compute the slave counts per method.
pub fn partition_slaves(
    cache: &PairCache,
    methods: &[MethodKind],
    n_slaves: usize,
    strategy: PartitionStrategy,
) -> Vec<(MethodKind, usize)> {
    assert!(
        n_slaves >= methods.len(),
        "need at least one slave per method ({} slaves, {} methods)",
        n_slaves,
        methods.len()
    );
    match strategy {
        PartitionStrategy::Equal => {
            let base = n_slaves / methods.len();
            let extra = n_slaves % methods.len();
            methods
                .iter()
                .enumerate()
                .map(|(k, &m)| (m, base + usize::from(k < extra)))
                .collect()
        }
        PartitionStrategy::ProportionalToCost => {
            let shares = estimate_cost_shares(cache, methods);
            let total: f64 = shares.iter().sum();
            // Everyone gets at least 1; distribute the rest by share.
            let spare = n_slaves - methods.len();
            let mut counts: Vec<usize> = shares
                .iter()
                .map(|s| 1 + (s / total * spare as f64).floor() as usize)
                .collect();
            // Hand out rounding leftovers to the costliest methods first.
            let mut assigned: usize = counts.iter().sum();
            let mut order: Vec<usize> = (0..methods.len()).collect();
            order.sort_by(|&a, &b| shares[b].partial_cmp(&shares[a]).expect("finite"));
            let mut k = 0;
            while assigned < n_slaves {
                counts[order[k % order.len()]] += 1;
                assigned += 1;
                k += 1;
            }
            methods.iter().copied().zip(counts).collect()
        }
    }
}

/// Run all-vs-all under every method simultaneously, with the slave set
/// partitioned among methods.
pub fn run_mcpsc(cache: &PairCache, opts: &McPscOptions) -> McPscRun {
    let chains = cache.chains();
    assert!(!opts.methods.is_empty(), "MC-PSC needs at least one method");
    let partition = partition_slaves(cache, &opts.methods, opts.n_slaves, opts.strategy);
    let ues = master_and_slaves(opts.n_slaves, &opts.noc);
    // Slave rank → method, in partition order.
    let mut slave_method: Vec<MethodKind> = Vec::with_capacity(opts.n_slaves);
    for &(m, count) in &partition {
        slave_method.extend(std::iter::repeat_n(m, count));
    }

    // Per-method job queues.
    let queues: Vec<Vec<Job>> = opts
        .methods
        .iter()
        .map(|&m| {
            all_vs_all(chains.len(), m)
                .iter()
                .enumerate()
                .map(|(k, pj)| {
                    Job::new((m.code() as u64) << 32 | k as u64, pair_payload(chains, pj))
                })
                .collect()
        })
        .collect();

    // Master: a FARM generalised to per-method queues.
    let master = {
        let ues = ues.clone();
        let methods = opts.methods.clone();
        let slave_method = slave_method.clone();
        move |ctx: &mut CoreCtx| {
            charge_dataset_load(ctx, chains);
            let mut comm = Rcce::new(ctx, &ues);
            let mut next: Vec<usize> = vec![0; methods.len()];
            let queue_of = |rank: usize| {
                let m = slave_method[rank - 1];
                methods.iter().position(|&x| x == m).expect("known method")
            };
            // Hand `rank` the next job of its method; false once none is left.
            let mut feed = |comm: &mut Rcce, rank: usize| {
                let q = queue_of(rank);
                let job = queues[q].get(next[q]);
                if let Some(job) = job {
                    comm.send(rank, wire::encode_job(job));
                    next[q] += 1;
                }
                job.is_some()
            };

            // Prime every slave with the first job of its method.
            let active: Vec<usize> = (1..=slave_method.len())
                .filter(|&rank| feed(&mut comm, rank))
                .collect();
            let mut collected = Vec::new();
            let mut outstanding = active.len();
            while outstanding > 0 {
                let (rank, data) = comm.recv_any(&active);
                collected.push(wire::decode_result(rank, data).payload);
                if !feed(&mut comm, rank) {
                    outstanding -= 1;
                }
            }
            for rank in 1..=slave_method.len() {
                comm.send(rank, wire::encode_terminate());
            }
            collected
        }
    };
    // Slaves: identical handler — the job payload carries the method.
    let slaves = (0..opts.n_slaves).map(|_| pair_slave(cache, &ues, 0));
    let run = run_on_chip(&opts.noc, master, slaves);
    McPscRun {
        outcomes: run.outcomes,
        partition,
        makespan_secs: run.makespan_secs,
        report: run.report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::pair_count;
    use rck_pdb::datasets::tiny_profile;

    fn cache() -> PairCache {
        PairCache::new(tiny_profile().generate(55))
    }

    const ALL: [MethodKind; 3] = [
        MethodKind::TmAlign,
        MethodKind::KabschRmsd,
        MethodKind::ContactMap,
    ];

    #[test]
    fn equal_partition_splits_evenly() {
        let c = cache();
        let p = partition_slaves(&c, &ALL, 7, PartitionStrategy::Equal);
        let counts: Vec<usize> = p.iter().map(|&(_, n)| n).collect();
        assert_eq!(counts.iter().sum::<usize>(), 7);
        assert_eq!(counts, vec![3, 2, 2]);
    }

    #[test]
    fn proportional_partition_favours_tmalign() {
        let c = cache();
        let p = partition_slaves(&c, &ALL, 12, PartitionStrategy::ProportionalToCost);
        let total: usize = p.iter().map(|&(_, n)| n).sum();
        assert_eq!(total, 12);
        let tm = p.iter().find(|(m, _)| *m == MethodKind::TmAlign).unwrap().1;
        let kb = p
            .iter()
            .find(|(m, _)| *m == MethodKind::KabschRmsd)
            .unwrap()
            .1;
        assert!(tm > kb, "tm-align ({tm}) should out-staff kabsch ({kb})");
        // Every method keeps at least one slave.
        assert!(p.iter().all(|&(_, n)| n >= 1));
    }

    #[test]
    fn mcpsc_covers_every_pair_for_every_method() {
        let c = cache();
        let run = run_mcpsc(
            &c,
            &McPscOptions {
                methods: ALL.to_vec(),
                n_slaves: 6,
                strategy: PartitionStrategy::Equal,
                noc: NocConfig::scc(),
            },
        );
        let pairs = pair_count(c.len());
        assert_eq!(run.outcomes.len(), 3 * pairs);
        for m in ALL {
            let of_m = run.outcomes.iter().filter(|o| o.method == m).count();
            assert_eq!(of_m, pairs, "{}", m.name());
        }
        assert!(run.makespan_secs > 0.0);
    }

    #[test]
    fn proportional_no_slower_than_equal() {
        let c = cache();
        let time = |strategy| {
            run_mcpsc(
                &c,
                &McPscOptions {
                    methods: ALL.to_vec(),
                    n_slaves: 9,
                    strategy,
                    noc: NocConfig::scc(),
                },
            )
            .makespan_secs
        };
        let equal = time(PartitionStrategy::Equal);
        let prop = time(PartitionStrategy::ProportionalToCost);
        assert!(
            prop <= equal * 1.05,
            "proportional {prop} should not lose badly to equal {equal}"
        );
    }

    #[test]
    fn single_method_mcpsc_matches_rckalign_results() {
        let c = cache();
        let run = run_mcpsc(
            &c,
            &McPscOptions {
                methods: vec![MethodKind::TmAlign],
                n_slaves: 4,
                strategy: PartitionStrategy::Equal,
                noc: NocConfig::scc(),
            },
        );
        let rck = crate::app::run_all_vs_all(&c, &crate::app::RckAlignOptions::paper(4));
        let key = |mut v: Vec<PairOutcome>| {
            v.sort_by_key(|o| (o.i, o.j));
            v
        };
        assert_eq!(key(run.outcomes), key(rck.outcomes));
    }

    #[test]
    #[should_panic(expected = "at least one slave per method")]
    fn too_few_slaves_rejected() {
        let c = cache();
        let _ = partition_slaves(&c, &ALL, 2, PartitionStrategy::Equal);
    }
}
