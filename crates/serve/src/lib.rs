//! # rck-serve
//!
//! A real master–workers job-distribution service over TCP, running the
//! actual TM-align kernel — the first subsystem in this repository that
//! executes *outside* the NoC simulator.
//!
//! The paper's Experiment I measures an MCPC-hosted distributed master
//! whose per-job process spawns and NFS reads dominate the runtime
//! (`rckalign::distributed` models those costs in simulation). This crate
//! is the corrected production analogue of that design:
//!
//! * **one connection, many jobs** — a worker connects once and receives
//!   job *batches*, instead of paying a `pssh` process spawn per pair;
//! * **data ships with the job, once per connection** — the master is
//!   the only process that touches storage, exactly the rckAlign design
//!   point, so there is no shared-disk bottleneck on the worker side;
//! * **failure is handled, not assumed away** — batches in flight on a
//!   worker that disconnects or misses its heartbeat deadline are
//!   requeued, and a late or duplicated result frame is refused as
//!   stale, so the final [`rckalign::SimilarityMatrix`] is complete and
//!   exact.
//!
//! Quick tour:
//!
//! * [`proto`] — versioned, length-prefixed frames (Hello/Welcome,
//!   JobBatch, ResultBatch, Heartbeat, Shutdown, plus the serving
//!   tier's QuerySubmit/QueryPartial/QueryDone/QueryReject);
//! * [`dispatch`] — the one fault-tolerant dispatcher: in-flight ledger,
//!   handshake, deadline monitor, the worker connection loop and every
//!   tier's run around it (one accept loop, one abort, one drain),
//!   generic over a [`dispatch::WorkSource`] policy;
//! * [`master`] — the daemon: job generation, the FIFO batch policy
//!   (batch and feed mode) and result assembly ([`Master`]);
//! * [`worker`] — the client: decode batch, run the real kernel, stream
//!   results back ([`run_worker`]);
//! * [`stats`] — dispatch/requeue/byte counters and a per-worker
//!   throughput table ([`stats::StatsSnapshot::render`]);
//! * [`transport`] — the pluggable byte-stream seam: real TCP, or the
//!   deterministic in-memory network ([`transport::MemNet`]);
//! * [`chaos`] — seeded frame-fault plans and the farm's end-to-end
//!   fault scenarios ([`chaos::run_scenario`], one of the four runs over
//!   `rckalign::chaos`) proving the requeue/heartbeat/dedup machinery
//!   never yields a wrong matrix and never deadlocks;
//! * [`daemon`] — the process shell of the daemons: signal-driven stop,
//!   the `--metrics-addr` listener and the final metrics dump;
//! * [`explore`] — every schedule of a small batch lifecycle, run on the
//!   real dispatcher under a tier's own policy ([`explore::run`]).
//!
//! ```no_run
//! use rck_serve::{Master, MasterConfig, WorkerConfig};
//!
//! let chains = rck_pdb::datasets::tiny_profile().generate(42);
//! let master = Master::bind(chains, MasterConfig::default()).unwrap();
//! let addr = master.local_addr();
//! std::thread::spawn(move || rck_serve::run_worker(&WorkerConfig::connect_to(addr)));
//! let run = master.run().unwrap();
//! println!("{}", run.stats.render());
//! ```

#![warn(missing_docs)]

pub mod chaos;
pub mod daemon;
pub mod dispatch;
pub mod explore;
pub mod master;
pub mod proto;
pub mod stats;
pub mod sync;
pub mod transport;
pub mod worker;

pub use chaos::{run_scenario, FaultPlan, FaultProfile, ScenarioPlan};
pub use master::{AbortHandle, FeedHandle, Master, MasterConfig, ServeRun, TileDone};
pub use proto::{
    Frame, FrameError, QueryDone, QueryPartial, QueryReject, QuerySubmit, StealRequest, TileGrant,
    TileResult, PROTOCOL_VERSION,
};
pub use stats::{ServeStats, StatsSnapshot};
pub use sync::MutexExt;
pub use transport::{Conn, Listener, MemNet};
pub use worker::{
    connect_with_backoff, run_worker, run_worker_conn, run_worker_with_backoff, BackoffPolicy,
    WorkerConfig, WorkerReport,
};
