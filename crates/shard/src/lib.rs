//! # rck-shard
//!
//! A sharded multi-master farm: the all-vs-all pair matrix is cut into
//! tiles and tile ownership is spread across several [`rck_serve`]
//! masters, with work stealing between them and a deterministic
//! merge-on-read — the scaling tier above the single farm, answering
//! the paper's observation that one dispatcher is the ceiling once the
//! worker pool outgrows it (Fig. 7's throughput knee).
//!
//! Three roles:
//!
//! * the **frontend** ([`ShardFrontend`]) owns the dataset, the tile
//!   partition and the schedule — ownership queues, the orphan pool of
//!   requeued tiles, steal-from-the-longest-tail, and the merge;
//! * each **shard master** ([`run_shard_master`]) is a worker to the
//!   frontend and a master to its own pool: it runs granted tiles on a
//!   feed-mode [`rck_serve::Master`] whose workers stay connected
//!   across tiles, pulling work with credit frames;
//! * **workers** are completely unchanged — a shard farm reuses
//!   `rck_worker` as-is.
//!
//! The headline guarantee is the same one every tier of this repository
//! makes: the merged matrix is **bit-identical** to a single-process
//! [`rckalign::run_all_vs_all`] — for any master count, any steal
//! schedule, any requeue history, and any mid-run master crash
//! (exercised by [`chaos`]). Determinism comes from pure kernels plus
//! [`rckalign::merge_outcomes`]'s order-independent merge, not from any
//! scheduling discipline.
//!
//! ```no_run
//! use rck_shard::{ShardConfig, ShardFrontend};
//!
//! let chains = rck_pdb::datasets::tiny_profile().generate(42);
//! let frontend = ShardFrontend::bind(chains, ShardConfig::default()).unwrap();
//! // shard masters dial in (see `rck_shard_master`), each with workers
//! let run = frontend.run().unwrap();
//! println!("{}", run.stats.render());
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod frontend;
pub mod master;
pub mod stats;

pub use chaos::{run_shard_scenario, ShardScenarioPlan};
pub use frontend::{ShardAbortHandle, ShardConfig, ShardFrontend, ShardRun};
pub use master::{run_shard_master, ShardMasterConfig, ShardMasterReport};
pub use stats::{ShardSnapshot, ShardStats};
