//! Outside-in span recorder: spans are taken by the benchmark around
//! its public calls into each crate, kept in memory, and written as
//! JSON lines when the run ends. Spans *inside* the program are a later
//! change (ROADMAP item 3).

use crate::json::quote;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The phases of one set-up or one op: `(name, start, end)`.
pub type Phases = Vec<(&'static str, Instant, Instant)>;

/// Time `f` as the phase `name`.
pub fn phase<T>(phases: &mut Phases, name: &'static str, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    phases.push((name, start, Instant::now()));
    out
}

#[derive(Debug, Clone, PartialEq)]
struct Span {
    /// Shared by every span of one set-up or one op.
    id: u64,
    name: &'static str,
    /// The span that caused this one (`None` for the root).
    parent: Option<&'static str>,
    start_us: f64,
    end_us: f64,
}

/// In-memory span log of one benchmark run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next_id: 0,
            spans: Vec::new(),
        }
    }

    /// Record one set-up or op: a root span `root` over `[start, end]`
    /// with `phases` as its children, all under one fresh id.
    pub fn record(&mut self, root: &'static str, start: Instant, end: Instant, phases: &Phases) {
        let id = self.next_id;
        self.next_id += 1;
        let us = |t: Instant| t.duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.push(Span {
            id,
            name: root,
            parent: None,
            start_us: us(start),
            end_us: us(end),
        });
        for &(name, s, e) in phases {
            self.spans.push(Span {
                id,
                name,
                parent: Some(root),
                start_us: us(s),
                end_us: us(e),
            });
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// One JSON object per span, in recording order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), quote);
            out.push_str(&format!(
                "{{\"id\": {}, \"name\": {}, \"parent\": {}, \"start_us\": {:.1}, \"end_us\": {:.1}}}\n",
                s.id,
                quote(s.name),
                parent,
                s.start_us,
                s.end_us
            ));
        }
        out
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.to_jsonl().as_bytes())
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn children_share_the_root_id_and_name_it_as_parent() {
        let mut t = Tracer::new();
        let start = Instant::now();
        let mut phases = Phases::new();
        phase(&mut phases, "op.compute", || {
            std::thread::sleep(Duration::from_millis(1))
        });
        phase(&mut phases, "op.verify", || ());
        t.record("op", start, Instant::now(), &phases);
        t.record("op", start, Instant::now(), &Phases::new());
        assert_eq!(t.len(), 4);
        let jsonl = t.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert!(lines[0].starts_with("{\"id\": 0, \"name\": \"op\", \"parent\": null"));
        assert!(lines[1].starts_with("{\"id\": 0, \"name\": \"op.compute\", \"parent\": \"op\""));
        assert!(lines[2].starts_with("{\"id\": 0, \"name\": \"op.verify\", \"parent\": \"op\""));
        assert!(lines[3].starts_with("{\"id\": 1, \"name\": \"op\""));
    }
}
