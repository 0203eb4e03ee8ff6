//! # rck-skel
//!
//! The algorithmic-skeleton library of the paper (`rckskel`), in Rust: the
//! `SEQ`, `PAR`, `COLLECT` and `FARM` constructs over the RCCE-flavoured
//! communicator, plus the job data structures and the master–slave
//! wire protocol. Application code (rckAlign, crate `rckalign`) supplies
//! only a job encoding and a slave handler; the skeleton handles
//! distribution, round-robin polling and termination — "no further
//! code-complexity is introduced regardless of the number of SCC cores
//! used" (§IV of the paper).
//!
//! ```
//! use rck_noc::{CoreCtx, CoreId, CoreProgram, NocConfig, Simulator};
//! use rck_rcce::Rcce;
//! use rck_skel::{farm, slave_loop, Job, SlaveReply};
//!
//! let ues = [CoreId(0), CoreId(1), CoreId(2)];
//! let mut programs: Vec<Option<CoreProgram>> = Vec::new();
//! // Master on core 0.
//! programs.push(Some(Box::new(move |ctx: &mut CoreCtx| {
//!     let mut comm = Rcce::new(ctx, &ues);
//!     let jobs: Vec<Job> = (0..6).map(|k| Job::new(k, vec![k as u8])).collect();
//!     let results = farm(&mut comm, &[1, 2], &jobs);
//!     assert_eq!(results.len(), 6);
//! })));
//! // Two slaves.
//! for _ in 0..2 {
//!     programs.push(Some(Box::new(move |ctx: &mut CoreCtx| {
//!         let mut comm = Rcce::new(ctx, &ues);
//!         slave_loop(&mut comm, 0, |_id, payload| SlaveReply {
//!             ops: payload[0] as u64 * 1000, // virtual compute time
//!             payload,
//!         });
//!     })));
//! }
//! let report = Simulator::new(NocConfig::scc()).run(programs);
//! // 6 jobs out + 6 results back + 2 terminates.
//! assert_eq!(report.total_messages(), 14);
//! ```

#![warn(missing_docs)]

pub mod farm;
pub mod metrics;
pub mod task;

pub use farm::{collect, farm, par, seq, slave_loop, waves, SlaveReply};
pub use task::{wire, Job, JobResult};
