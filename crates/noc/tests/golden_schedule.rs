//! The schedule, pinned: one mixed 12-core workload through the public
//! API only, hashed over everything the engine reports. Any change to
//! the order in which cores act — a different tie-break, a lost or extra
//! turn, a cost formula — moves the hash.

use rck_noc::{
    CoreCtx, CoreId, CoreProgram, NocConfig, ResourceId, SimDuration, Simulator, TraceKind,
};

const CORES: usize = 12;
const JOBS: usize = 60;

/// Computed at commit `eadeb2b` — the parent of the change that replaced
/// the mutex-and-condvar turn scheduler with the baton — *before*
/// `engine.rs` was touched, and unchanged by that change and by the
/// `recv_any` tie-break fix that rode with it.
const GOLDEN: u64 = 0xac6c_cbe1_800c_ca2e;

/// Job `k`'s payload: uneven lengths, and only five distinct compute
/// costs, so slaves regularly reach the master at equal virtual times.
fn job(k: usize) -> Vec<u8> {
    vec![(k % 5) as u8 + 1; 1 + (k * 37) % 200]
}

fn master(ctx: &mut CoreCtx, group: &[CoreId]) {
    ctx.read_memory(4096);
    ctx.barrier(group);
    let slaves = &group[1..];
    let mut next = 0;
    for &s in slaves {
        ctx.send(s, job(next));
        next += 1;
    }
    let mut outstanding = slaves.len();
    while outstanding > 0 {
        let (src, result) = ctx.recv_any(slaves);
        assert_eq!(result.len(), 8);
        if next < JOBS {
            ctx.send(src, job(next));
            next += 1;
        } else {
            outstanding -= 1;
        }
    }
    for &s in slaves {
        ctx.send(s, Vec::new()); // empty payload = terminate
    }
}

fn slave(ctx: &mut CoreCtx, group: &[CoreId]) {
    ctx.read_memory(1024 * (ctx.id().0 % 3 + 1));
    ctx.barrier(group);
    // All eleven slaves leave the barrier at the same instant and queue
    // for the shared resource: who is served first is the tie-break.
    let warm_up = SimDuration((ctx.id().0 as u64 % 4 + 1) * 1_000_000_000);
    ctx.use_resource(ResourceId(0), warm_up);
    loop {
        let msg = ctx.recv_from(CoreId(0));
        if msg.is_empty() {
            return;
        }
        ctx.compute_ops(msg[0] as u64 * 50_000);
        ctx.use_resource(ResourceId(0), SimDuration(msg.len() as u64 * 500_000_000));
        ctx.send(CoreId(0), vec![msg[0]; 8]);
    }
}

fn fnv1a(hash: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn the_schedule_of_a_mixed_workload_is_pinned() {
    let mut cfg = NocConfig::scc();
    cfg.link_contention = true;
    let group: Vec<CoreId> = (0..CORES).map(CoreId).collect();
    let programs: Vec<Option<CoreProgram>> = (0..CORES)
        .map(|i| {
            let group = &group;
            Some(Box::new(move |ctx: &mut CoreCtx| {
                if i == 0 {
                    master(ctx, group)
                } else {
                    slave(ctx, group)
                }
            }) as CoreProgram)
        })
        .collect();
    let (report, trace) = Simulator::new(cfg).run_traced(programs, 10_000);

    assert_eq!(report.total_messages(), (2 * JOBS + CORES - 1) as u64);
    // 131 messages, 1 barrier release, 11 + 60 resource grants.
    assert_eq!(trace.len(), (2 * JOBS + CORES - 1) + 1 + (CORES - 1 + JOBS));

    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    fnv1a(&mut hash, report.makespan.0);
    for c in &report.per_core {
        for word in [
            c.busy.0,
            c.comm.0,
            c.idle.0,
            c.msgs_sent,
            c.msgs_recv,
            c.bytes_sent,
            c.bytes_recv,
            c.probes,
        ] {
            fnv1a(&mut hash, word);
        }
    }
    for e in &trace {
        fnv1a(&mut hash, e.at.0);
        let fields = match e.kind {
            TraceKind::Message { src, dst, bytes } => [0, src.0 as u64, dst.0 as u64, bytes as u64],
            TraceKind::Barrier { group } => [1, group as u64, 0, 0],
            TraceKind::Resource { id, core } => [2, id as u64, core.0 as u64, 0],
        };
        for word in fields {
            fnv1a(&mut hash, word);
        }
    }
    assert_eq!(
        hash,
        GOLDEN,
        "schedule hash {hash:#018x} over {} events",
        trace.len()
    );
}
