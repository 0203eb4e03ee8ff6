//! # rck-rcce
//!
//! An RCCE-flavoured message-passing layer for the simulated SCC. RCCE is
//! the "small library for many-core communication" Intel shipped with the
//! SCC; the paper's rckskel skeleton library sits directly on it. This
//! crate provides the same programming surface — UE ranks, synchronous
//! send/receive through the MPB, barriers — plus the byte codec used to
//! encode jobs and results.
//!
//! ```
//! use rck_noc::{CoreCtx, CoreId, NocConfig, Simulator};
//! use rck_rcce::Rcce;
//!
//! let ues = [CoreId(0), CoreId(1)];
//! let mk = |_rank: usize| {
//!     let ues = ues;
//!     Box::new(move |ctx: &mut CoreCtx| {
//!         let mut comm = Rcce::new(ctx, &ues);
//!         if comm.ue() == 0 {
//!             comm.send(1, vec![42]);
//!         } else {
//!             assert_eq!(comm.recv(0), vec![42]);
//!         }
//!         comm.barrier();
//!     }) as rck_noc::CoreProgram<'static>
//! };
//! let report = Simulator::new(NocConfig::scc()).run(vec![Some(mk(0)), Some(mk(1))]);
//! assert_eq!(report.total_messages(), 1);
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod comm;

pub use codec::{DecodeError, Reader, Writer};
pub use comm::Rcce;
