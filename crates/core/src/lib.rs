//! # rckalign
//!
//! The paper's application, rebuilt in Rust: master–slaves all-vs-all
//! protein structure comparison (TM-align) on a simulated SCC NoC
//! many-core processor, with every baseline and driver needed to
//! regenerate the paper's tables and figures, plus the extensions its
//! discussion proposes (MC-PSC, load balancing, hierarchical masters).
//!
//! Quick tour:
//!
//! * [`app::run_all_vs_all`] — rckAlign itself (Experiment II); [`app`]
//!   also holds the one chip setup (FARM, pair slave, run tail) that
//!   every simulated program below is a policy over, so each returns an
//!   [`RckAlignRun`];
//! * [`onevsall::run_one_vs_all`] — Algorithm 1: the same farm over the
//!   query's job list, ranked with [`Consensus::from_outcomes`];
//! * [`distributed::run_distributed`] — the MCPC-master baseline
//!   (Experiment I);
//! * [`serial`] + [`cpu::CpuModel`] — the serial baselines (Table III);
//! * [`experiments`] — one driver per table/figure;
//! * [`mcpsc`], [`hierarchy`], [`loadbalance`] — the extensions;
//! * [`report`] — text tables and ASCII figures;
//! * [`chaos`] — the one scenario core under every seeded fault harness.
//!
//! ```
//! use rckalign::{run_all_vs_all, PairCache, RckAlignOptions};
//! use rck_pdb::datasets;
//!
//! let cache = PairCache::new(datasets::tiny_profile().generate(42));
//! let run = run_all_vs_all(&cache, &RckAlignOptions::paper(4));
//! assert_eq!(run.outcomes.len(), 28); // C(8, 2) pairs
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod app;
pub mod cache;
pub mod chaos;
pub mod cli;
pub mod consensus;
pub mod cpu;
pub mod distributed;
pub mod experiments;
pub mod hierarchy;
pub mod jobs;
pub mod loadbalance;
pub mod mcpsc;
pub mod onevsall;
pub mod report;
pub mod serial;
pub mod store;
pub mod tiles;

pub use analysis::{utilization, utilization_sweep, UtilizationPoint};
pub use app::{run_all_vs_all, RckAlignOptions, RckAlignRun, Scheduling};
pub use cache::PairCache;
pub use consensus::{Combiner, Consensus};
pub use cpu::CpuModel;
pub use distributed::{run_distributed, DistributedConfig};
pub use hierarchy::{run_hierarchical, HierarchyOptions};
pub use jobs::{
    all_vs_all, batch_jobs, chain_indices, pair_count, PairJob, PairOutcome, SimilarityMatrix,
};
pub use loadbalance::JobOrdering;
pub use mcpsc::{run_mcpsc, McPscOptions, McPscRun, PartitionStrategy};
pub use onevsall::{run_one_vs_all, OneVsAllOptions};
pub use rck_store::fnv1a64;
pub use store::{chain_content_hash, StoreBinding};
pub use tiles::{assign_tiles, merge_outcomes, tile_partition, Tile};
