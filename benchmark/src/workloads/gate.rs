//! `gate_rs119_rmsd`: one-vs-all queries against a resident gate, two
//! tenants in closed loop (one query outstanding each).

use crate::inputs::Dataset;
use crate::rigs::{GateRig, LANES};
use crate::stats::quantile;
use crate::trace::{phase, Phases};
use crate::workload::{check_count, warm_up, Layers, OpResult, Workload};
use rck_gate::{reference_ranking, GateClient};
use rck_pdb::model::CaChain;
use rck_serve::QuerySubmit;
use rck_tmalign::MethodKind;
use rckalign::Combiner;
use std::time::Instant;

/// One tenant per compute lane: the pool is busy, nobody queues long.
const TENANTS: usize = LANES;
const METHODS: [MethodKind; 1] = [MethodKind::KabschRmsd];

/// Queries each tenant sends per block (one `op` call = one block).
const BLOCK: usize = 150;
/// Warm-up blocks run by every set-up.
const WARMUPS: usize = 2;

pub struct GateQueries;

pub struct GateOracle {
    /// `reference_ranking` of every pool query, by pool index.
    rankings: Vec<Vec<(u32, f64)>>,
}

pub struct GateQueriesRig {
    rig: GateRig,
    db_len: usize,
    /// Query structures, none of them in the database.
    pool: Vec<CaChain>,
    /// Next query number per tenant.
    next: Vec<usize>,
    /// Queries sent since boot, warm-ups included.
    sent: u64,
    latencies_ms: Vec<f64>,
    timed_secs: f64,
}

fn query_pool(seed: u64) -> Vec<CaChain> {
    Dataset::Rs119Queries.generate(seed)
}

/// Tenant `t` cycles through its own share of the pool (indices
/// ≡ t mod TENANTS): the shares are disjoint, so two tenants never have
/// the same query in flight and the gate never coalesces by accident.
fn pool_index(tenant: usize, k: usize, pool_len: usize) -> usize {
    let share = (pool_len - tenant).div_ceil(TENANTS);
    tenant + TENANTS * (k % share)
}

struct TenantBlock {
    latencies_ms: Vec<f64>,
    errors: Vec<String>,
}

fn tenant_block(
    client: &mut GateClient,
    tenant: usize,
    first: usize,
    count: usize,
    pool: &[CaChain],
    oracle: &GateOracle,
    db_len: usize,
) -> TenantBlock {
    let mut out = TenantBlock {
        latencies_ms: Vec::with_capacity(count),
        errors: Vec::new(),
    };
    for k in first..first + count {
        let ix = pool_index(tenant, k, pool.len());
        let submit = QuerySubmit {
            tenant: format!("tenant-{tenant}"),
            query_id: k as u64,
            weight: 1,
            methods: METHODS.to_vec(),
            chain: pool[ix].clone(),
        };
        let start = Instant::now();
        let answer = client.run_query(submit);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        match answer {
            Ok(a)
                if a.ranking.as_ref() == Some(&oracle.rankings[ix])
                    && a.outcomes.len() == db_len =>
            {
                out.latencies_ms.push(ms)
            }
            Ok(a) => out.errors.push(match a.rejected {
                Some(why) => format!("query {k} of tenant {tenant} rejected: {why}"),
                None => format!("query {k} of tenant {tenant}: ranking differs from reference"),
            }),
            Err(e) => out
                .errors
                .push(format!("query {k} of tenant {tenant}: {e}")),
        }
    }
    out
}

impl GateQueries {
    fn run_block(&self, r: &mut GateQueriesRig, oracle: &GateOracle) -> OpResult {
        let (pool, db_len, next) = (&r.pool, r.db_len, &r.next);
        let blocks: Vec<TenantBlock> = std::thread::scope(|s| {
            let handles: Vec<_> = r
                .rig
                .clients
                .iter_mut()
                .enumerate()
                .map(|(t, client)| {
                    s.spawn(move || tenant_block(client, t, next[t], BLOCK, pool, oracle, db_len))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("tenant thread"))
                .collect()
        });
        for n in &mut r.next {
            *n += BLOCK;
        }
        let attempted = (TENANTS * BLOCK) as u64;
        r.sent += attempted;
        let mut result = OpResult {
            attempted,
            ..OpResult::default()
        };
        for b in blocks {
            result.failed += b.errors.len() as u64;
            result.errors.extend(b.errors);
            result.samples_ms.extend(b.latencies_ms);
        }
        result
    }
}

impl Workload for GateQueries {
    type Oracle = GateOracle;
    type Rig = GateQueriesRig;

    fn oracle(&self, seed: u64) -> GateOracle {
        let db = Dataset::Rs119.generate(seed);
        let rankings = query_pool(seed)
            .iter()
            .map(|q| reference_ranking(&db, q, &METHODS, Combiner::MeanRank))
            .collect();
        GateOracle { rankings }
    }

    fn setup(
        &self,
        seed: u64,
        oracle: &GateOracle,
        phases: &mut Phases,
    ) -> Result<GateQueriesRig, String> {
        let (db, pool) = phase(phases, "setup.generate", || {
            (Dataset::Rs119.generate(seed), query_pool(seed))
        });
        let db_len = db.len();
        let rig = phase(phases, "rig.boot", || GateRig::boot(db, TENANTS))?;
        let mut r = GateQueriesRig {
            rig,
            db_len,
            pool,
            next: vec![0; TENANTS],
            sent: 0,
            latencies_ms: Vec::new(),
            timed_secs: 0.0,
        };
        warm_up(WARMUPS, || self.run_block(&mut r, oracle))?;
        Ok(r)
    }

    fn op(&self, r: &mut GateQueriesRig, oracle: &GateOracle, phases: &mut Phases) -> OpResult {
        let start = Instant::now();
        let result = self.run_block(r, oracle);
        let end = Instant::now();
        phases.push(("op.compute", start, end));
        r.timed_secs += (end - start).as_secs_f64();
        r.latencies_ms.extend_from_slice(&result.samples_ms);
        result
    }

    fn finish(
        &self,
        r: &mut GateQueriesRig,
        _oracle: &GateOracle,
        _traced: bool,
        layers: &mut Layers,
    ) -> Result<(), String> {
        // The gate counts a query completed just after it sends the
        // QueryDone the client is already acting on: give it a moment.
        let settle = Instant::now() + std::time::Duration::from_secs(1);
        while r.rig.stats.queries_completed() < r.sent && Instant::now() < settle {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        let snap = r.rig.stats.snapshot();
        check_count("gate queries_coalesced", snap.queries_coalesced, 0)?;
        check_count("gate queries_rejected", snap.queries_rejected, 0)?;
        check_count("gate queries_completed", snap.queries_completed, r.sent)?;
        check_count(
            "gate jobs_dispatched",
            snap.jobs_dispatched,
            r.sent * r.db_len as u64,
        )?;
        check_count("gate jobs_requeued", snap.jobs_requeued, 0)?;
        let q = |p| quantile(&r.latencies_ms, p).unwrap_or(0.0);
        layers.note(format!(
            "{} queries: p50 {:.3} ms, p90 {:.3} ms, p99 {:.3} ms ({} samples beyond p99)",
            r.latencies_ms.len(),
            q(0.5),
            q(0.9),
            q(0.99),
            r.latencies_ms.iter().filter(|&&l| l > q(0.99)).count(),
        ));
        layers.set("gate.query_p50_ms", q(0.5));
        layers.set("gate.query_p90_ms", q(0.9));
        layers.set("gate.query_p99_ms", q(0.99));
        if r.timed_secs > 0.0 {
            layers.set(
                "gate.queries_per_s",
                r.latencies_ms.len() as f64 / r.timed_secs,
            );
        }
        layers.set("gate.jobs_dispatched", snap.jobs_dispatched as f64);
        layers.set("gate.partials_streamed", snap.partials_streamed as f64);
        layers.set("gate.queries_coalesced", snap.queries_coalesced as f64);
        layers.set("gate.queries_rejected", snap.queries_rejected as f64);
        layers.set(
            "gate.first_result_mean_ms",
            snap.first_result.mean().unwrap_or(0.0) * 1e3,
        );
        // In-process floor of one query: the reference ranking itself,
        // timed by the probes of a traced run.
        if let Some(floor_us) = layers.get("gate.reference_ranking_us") {
            layers.set("gate.overhead_ms", q(0.5) - floor_us / 1e3);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_shares_are_disjoint_and_cover_the_pool() {
        let n = 119;
        let mut seen = vec![0usize; n];
        for t in 0..TENANTS {
            let share = (n - t).div_ceil(TENANTS);
            for k in 0..share {
                let ix = pool_index(t, k, n);
                assert_eq!(ix % TENANTS, t);
                seen[ix] += 1;
            }
            // The cycle wraps onto the same share.
            assert_eq!(pool_index(t, share, n), pool_index(t, 0, n));
        }
        assert!(
            seen.iter().all(|&c| c == 1),
            "every query owned by exactly one tenant"
        );
    }
}
