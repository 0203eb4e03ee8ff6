//! The RCCE-flavoured communicator.
//!
//! RCCE ("rocky") is Intel's compact message-passing environment for the
//! SCC: synchronous one-sided sends through the message-passing buffers,
//! unit-of-execution (UE) numbering and barriers.
//! [`Rcce`] reproduces that programming surface on top of the simulated
//! chip ([`rck_noc::CoreCtx`]): a program written against this layer reads
//! like SPMD RCCE code.

use rck_noc::{CoreCtx, CoreId, SimDuration};

/// A communicator over a set of participating cores (UEs).
///
/// `ues` lists the participating cores; within the communicator, cores are
/// addressed by their *rank* (index into `ues`), exactly as RCCE numbers
/// its UEs 0..n regardless of which physical cores the program landed on.
pub struct Rcce<'a> {
    ctx: &'a mut CoreCtx,
    ues: &'a [CoreId],
    my_rank: usize,
}

impl<'a> Rcce<'a> {
    /// Wrap a core context. Panics if the calling core is not in `ues`.
    pub fn new(ctx: &'a mut CoreCtx, ues: &'a [CoreId]) -> Rcce<'a> {
        let me = ctx.id();
        let my_rank = ues
            .iter()
            .position(|&c| c == me)
            .unwrap_or_else(|| panic!("core {me} is not a UE of this communicator"));
        Rcce { ctx, ues, my_rank }
    }

    /// This UE's rank.
    pub fn ue(&self) -> usize {
        self.my_rank
    }

    /// Access the underlying simulated-core handle.
    pub fn ctx(&mut self) -> &mut CoreCtx {
        self.ctx
    }

    /// Synchronous send to a rank (RCCE_send).
    pub fn send(&mut self, to_rank: usize, payload: Vec<u8>) {
        let dst = self.ues[to_rank];
        self.ctx.send(dst, payload);
    }

    /// Blocking receive from a rank (RCCE_recv).
    pub fn recv(&mut self, from_rank: usize) -> Vec<u8> {
        let src = self.ues[from_rank];
        self.ctx.recv_from(src)
    }

    /// Blocking receive from any of the given ranks, with round-robin
    /// polling accounting. Returns `(rank, payload)`.
    pub fn recv_any(&mut self, from_ranks: &[usize]) -> (usize, Vec<u8>) {
        let srcs: Vec<CoreId> = from_ranks.iter().map(|&r| self.ues[r]).collect();
        let (core, payload) = self.ctx.recv_any(&srcs);
        let rank = self
            .ues
            .iter()
            .position(|&c| c == core)
            .expect("sender is a UE");
        (rank, payload)
    }

    /// Barrier across all UEs (RCCE_barrier).
    pub fn barrier(&mut self) {
        self.ctx.barrier(self.ues);
    }

    /// Charge virtual compute time for `ops` kernel operations.
    pub fn compute_ops(&mut self, ops: u64) {
        self.ctx.compute_ops(ops);
    }

    /// Charge a raw duration of compute.
    pub fn compute(&mut self, dur: SimDuration) {
        self.ctx.compute(dur);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_noc::{CoreProgram, NocConfig, Simulator};

    /// Run the same SPMD body on the first `n` cores.
    fn spmd<F>(n: usize, body: F) -> rck_noc::SimReport
    where
        F: Fn(&mut Rcce) + Sync,
    {
        let ues: Vec<CoreId> = (0..n).map(CoreId).collect();
        let body = &body;
        let programs: Vec<Option<CoreProgram>> = (0..n)
            .map(|_| {
                let ues = ues.clone();
                Some(Box::new(move |ctx: &mut CoreCtx| {
                    let mut comm = Rcce::new(ctx, &ues);
                    body(&mut comm);
                }) as CoreProgram)
            })
            .collect();
        Simulator::new(NocConfig::scc()).run(programs)
    }

    #[test]
    fn ranks_and_sizes() {
        spmd(4, |c| {
            assert!(c.ue() < 4);
            assert_eq!(c.ctx().id(), CoreId(c.ue()));
        });
    }

    #[test]
    fn point_to_point_by_rank() {
        spmd(2, |c| {
            if c.ue() == 0 {
                c.send(1, vec![42]);
            } else {
                assert_eq!(c.recv(0), vec![42]);
            }
        });
    }

    #[test]
    fn recv_any_by_rank() {
        spmd(3, |c| {
            if c.ue() == 0 {
                let mut seen = vec![];
                for _ in 0..2 {
                    let (rank, m) = c.recv_any(&[1, 2]);
                    seen.push((rank, m[0]));
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![(1, 11), (2, 22)]);
            } else if c.ue() == 1 {
                c.send(0, vec![11]);
            } else {
                c.send(0, vec![22]);
            }
        });
    }

    #[test]
    fn barrier_completes() {
        let report = spmd(8, |c| {
            if c.ue() == 3 {
                c.compute_ops(100_000);
            }
            c.barrier();
        });
        assert!(report.makespan > rck_noc::SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "not a UE")]
    fn non_member_rejected() {
        let ues = [CoreId(5)];
        let _ =
            Simulator::new(NocConfig::scc()).run(vec![Some(Box::new(move |ctx: &mut CoreCtx| {
                let _ = Rcce::new(ctx, &ues);
            }))]);
    }
}
