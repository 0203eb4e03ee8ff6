//! # rck-obs
//!
//! A lightweight, offline, dependency-free metrics core for the whole
//! workspace: atomic [`Counter`]s and [`Gauge`]s, fixed-bucket latency
//! [`Histogram`]s with nearest-rank percentiles, and a process-wide
//! [`Registry`] of labeled metric families rendered in Prometheus text
//! exposition format.
//!
//! The paper this repository reproduces argues entirely from
//! measurements — per-core utilization, master/slave load profiles,
//! speedup tables. This crate is the uniform instrumentation substrate
//! those measurements flow through, in all three execution paths:
//!
//! * the simulated `rckskel` farm (per-slave jobs, queue depth);
//! * the `rck-serve` TCP master/worker (batch round-trip latency,
//!   heartbeat gaps, requeues, bytes on the wire);
//! * the TM-align kernel itself (initial alignments, DP rounds, Kabsch
//!   superpositions, TM-score searches).
//!
//! Metric naming follows the Prometheus convention
//! `rck_<subsystem>_<what>[_<unit>]`; see `DESIGN.md` §9 for the full
//! scheme and how the exported series map back to the paper's figures.
//!
//! ```
//! use rck_obs::Registry;
//!
//! let reg = Registry::new();
//! let jobs = reg.counter("rck_demo_jobs_total", "jobs processed");
//! jobs.add(3);
//! let dump = reg.render();
//! assert!(dump.contains("rck_demo_jobs_total 3"));
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod metric;
pub mod registry;

pub use export::{render_all, spawn_dump_server};
pub use metric::{
    percentile, Counter, Gauge, Histogram, HistogramSnapshot, DEFAULT_LATENCY_BOUNDS,
};
pub use registry::Registry;
