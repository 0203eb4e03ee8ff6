//! The eight workloads.

pub mod farm;
pub mod gate;
pub mod kernel;
pub mod shard;
pub mod sim;
pub mod store;
