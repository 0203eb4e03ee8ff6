//! `shard_rs119_rmsd`: the farm's pairs through the shard frontend, two
//! feed-mode masters and one worker each.

use super::farm::{serve_layers, DispatchOracle};
use crate::inputs::Dataset;
use crate::rigs::{clock_layers, farm_op, farm_totals, shard_op, OpClock, TILE_SIZE};
use crate::stats::quantile;
use crate::trace::{phase, Phases};
use crate::workload::{check_count, check_fingerprint, warm_up, Layers, OpResult, Workload};
use rck_pdb::model::CaChain;
use rck_serve::StatsSnapshot;
use rck_shard::ShardSnapshot;
use rck_tmalign::MethodKind;

const DATASET: Dataset = Dataset::Rs119;
const METHOD: MethodKind = MethodKind::KabschRmsd;
/// Untimed ops run by every set-up (sized for a set-up of >= 0.5 s).
const WARMUPS: usize = 4;
/// Plain-farm ops a traced run adds for `shard.overhead_vs_farm_pct`.
const FARM_OPS: usize = 9;

pub struct Shard;

pub struct ShardRig {
    chains: Vec<CaChain>,
    clocks: Vec<OpClock>,
    tile_rtt_ms: Vec<f64>,
    /// Frontend counters and summed inner-farm counters of the last op.
    last: Option<(ShardSnapshot, StatsSnapshot)>,
}

impl Workload for Shard {
    type Oracle = DispatchOracle;
    type Rig = ShardRig;

    fn oracle(&self, seed: u64) -> DispatchOracle {
        DispatchOracle::of(&DATASET.generate(seed), METHOD)
    }

    fn setup(
        &self,
        seed: u64,
        oracle: &DispatchOracle,
        phases: &mut Phases,
    ) -> Result<ShardRig, String> {
        let chains = phase(phases, "setup.generate", || DATASET.generate(seed));
        let mut rig = ShardRig {
            chains,
            clocks: Vec::new(),
            tile_rtt_ms: Vec::new(),
            last: None,
        };
        warm_up(WARMUPS, || self.op(&mut rig, oracle, phases))?;
        rig.clocks.clear();
        rig.tile_rtt_ms.clear();
        Ok(rig)
    }

    fn op(&self, rig: &mut ShardRig, oracle: &DispatchOracle, phases: &mut Phases) -> OpResult {
        let op = match shard_op(&rig.chains, METHOD) {
            Ok(op) => op,
            Err(why) => return OpResult::fail(why),
        };
        op.clock.push_phases(phases);
        let tiles = rckalign::tile_partition(rig.chains.len(), TILE_SIZE).len() as u64;
        let pairs = rckalign::pair_count(rig.chains.len()) as u64;
        let farms = farm_totals(&op.masters);
        let s = &op.run.stats;
        let check = phase(phases, "op.verify", || {
            check_fingerprint(&op.run.outcomes, oracle.fingerprint)?;
            check_count("shard tiles_completed", s.tiles_completed, tiles)?;
            check_count(
                "shard tiles_granted - tiles_requeued",
                s.tiles_granted - s.tiles_requeued,
                tiles,
            )?;
            check_count("shard masters_lost", s.masters_lost, 0)?;
            check_count("inner farms jobs_completed", farms.jobs_completed, pairs)?;
            check_count("inner farms jobs_requeued", farms.jobs_requeued, 0)
        });
        rig.clocks.push(op.clock);
        rig.tile_rtt_ms.push(op.tile_rtt_mean_ms);
        rig.last = Some((op.run.stats, farms));
        OpResult::checked(op.clock.compute_ms(), check)
    }

    fn finish(
        &self,
        rig: &mut ShardRig,
        oracle: &DispatchOracle,
        traced: bool,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let (shard, farms) = rig.last.as_ref().ok_or("no op completed")?;
        let op_ms = clock_layers(&rig.clocks, "shard.boot_ms", "shard.teardown_ms", layers);
        layers.set("shard.tiles_granted", shard.tiles_granted as f64);
        layers.set("shard.tiles_stolen", shard.tiles_stolen as f64);
        layers.set("shard.tiles_requeued", shard.tiles_requeued as f64);
        layers.set("shard.duplicate_tiles", shard.duplicate_tiles as f64);
        let most = shard.masters.iter().map(|m| m.2).max().unwrap_or(0);
        layers.set(
            "shard.master_share_max",
            most as f64 / shard.tiles_completed.max(1) as f64,
        );
        layers.set_median("shard.tile_rtt_mean_ms", &rig.tile_rtt_ms);
        serve_layers(layers, farms, op_ms, oracle.floor_ms);
        if traced {
            // The same pairs, same seed, through the plain farm.
            let mut farm_ms = Vec::with_capacity(FARM_OPS);
            for _ in 0..FARM_OPS {
                farm_ms.push(farm_op(&rig.chains, METHOD)?.clock.compute_ms());
            }
            let shard_ms: Vec<f64> = rig.clocks.iter().map(OpClock::compute_ms).collect();
            let farm_p25 = quantile(&farm_ms, 0.25).unwrap_or(f64::NAN);
            let shard_p25 = quantile(&shard_ms, 0.25).unwrap_or(f64::NAN);
            layers.set(
                "shard.overhead_vs_farm_pct",
                (shard_p25 / farm_p25 - 1.0) * 100.0,
            );
        }
        Ok(())
    }
}
