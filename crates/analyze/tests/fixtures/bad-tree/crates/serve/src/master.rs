// Fixture: panic paths, a guard held across I/O, a lock order that
// worker.rs reverses, a badly named + undocumented metric, and a
// policy missing its requeue anchor (no `on_batch_requeued`; the
// fixture dispatch.rs likewise lacks `requeue_worker`) so the model
// checker exhibits stuck states.

fn register(reg: &Registry) {
    let c = reg.counter("rck_bad_counter", "counter without the _total suffix");
    let d = reg.counter("rck_bad_counter", "and registered twice at that");
}

fn dispatch(&self) {
    let batch = self.queue.pop().unwrap();
    stats.on_batch_dispatched(batch.len());
    let w = self.writer.lock().unwrap();
    sock.write_all(&batch);
}

fn accept(&self) {
    work.done.insert(0);
    stats.duplicate_results.add(1);
}

fn ordering(&self) {
    let a = self.alpha.lock().unwrap();
    let b = self.beta.lock().unwrap();
    drop(b);
    drop(a);
}
