// Fixture: a dispatcher core that lost its requeue path (no
// `requeue_worker`), so together with master.rs (no `on_batch_requeued`)
// the model checker exhibits stuck states.

fn accept(&self) {
    let Some(batch) = ledger.settle(&id) else {
        src.observe(Event::StaleResult);
        return;
    };
}

fn collect(&self) {
    refresh_deadlines(&src, 0);
    if d.halted {
        return;
    }
}

fn abort(&self) {
    d.halted = true;
}
