// Fixture: panic paths, a guard held across I/O, a lock order that
// worker.rs reverses, a badly named + undocumented metric, and a metric
// whose help is not a literal.

fn register(reg: &Registry) {
    let c = reg.counter("rck_bad_counter", "counter without the _total suffix");
    let d = reg.counter("rck_bad_counter", "and registered twice at that");
    let e = reg.counter("rck_computed_help_total", &format!("help for {}", c));
}

fn dispatch(&self) {
    let batch = self.queue.pop().unwrap();
    let w = self.writer.lock().unwrap();
    sock.write_all(&batch);
}

fn ordering(&self) {
    let a = self.alpha.lock().unwrap();
    let b = self.beta.lock().unwrap();
    drop(b);
    drop(a);
}
