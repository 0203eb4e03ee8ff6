//! Pass 4: lock discipline in the dispatch layers (serve, gate pool,
//! shard frontend).
//!
//! Two checks over the files that share mutexes:
//!
//! * **Guard across I/O** — a `let`-bound mutex guard still live when
//!   the code performs I/O (`read` / `write` / `write_frame` / channel
//!   `send` / `recv` / ...) serializes every peer behind one
//!   connection's syscall. Deliberate cases (the worker's shared
//!   writer) carry `// rck-lint: allow(lock_across_io)`.
//! * **Acquisition order** — if one code path locks `a` then `b` and
//!   another locks `b` then `a`, the pair can deadlock. Lock paths are
//!   normalized to their final field name, and every ordered pair of
//!   nested acquisitions is recorded; a pair observed in both
//!   directions is a finding.

use crate::lexer::{self, TokKind};
use crate::{Finding, Pass, Workspace};
use std::collections::BTreeMap;

/// Files sharing locks that this pass scans.
pub const LOCK_FILES: &[&str] = &[
    "crates/serve/src/dispatch.rs",
    "crates/serve/src/master.rs",
    "crates/serve/src/stats.rs",
    "crates/serve/src/chaos.rs",
    "crates/serve/src/worker.rs",
    "crates/serve/src/transport.rs",
    "crates/gate/src/pool.rs",
    "crates/gate/src/session.rs",
    "crates/shard/src/frontend.rs",
    "crates/shard/src/master.rs",
];

/// Marker accepted at an I/O call under a guard.
pub const ALLOW: &str = "lock_across_io";

/// Calls treated as I/O or channel traffic.
const IO_CALLS: &[&str] = &[
    "read",
    "read_exact",
    "read_frame",
    "recv",
    "recv_timeout",
    "send",
    "send_timeout",
    "write",
    "write_all",
    "write_frame",
    "flush",
];

#[derive(Debug)]
struct Guard {
    name: String,
    lock_path: String,
    depth: usize,
    line: u32,
}

/// Run the lock-discipline pass.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    // (first, second) -> first site "file:line"; ordered acquisitions.
    let mut order: BTreeMap<(String, String), (String, u32)> = BTreeMap::new();
    for file in LOCK_FILES {
        let Some(src) = ws.read(file) else { continue };
        findings.extend(check_source(&src, file, &mut order));
    }
    // Inconsistent order: both (a,b) and (b,a) seen.
    for ((a, b), (file, line)) in &order {
        if a < b {
            if let Some((file2, line2)) = order.get(&(b.clone(), a.clone())) {
                findings.push(Finding::at(
                    Pass::Locks,
                    file.clone(),
                    *line,
                    format!(
                        "inconsistent lock order: `{a}` then `{b}` here, but `{b}` then `{a}` at {file2}:{line2} — pick one order"
                    ),
                ));
            }
        }
    }
    findings.sort();
    findings
}

/// Scan one file; guard-across-I/O findings are returned, nested lock
/// acquisitions are appended to `order`.
pub fn check_source(
    src: &str,
    file: &str,
    order: &mut BTreeMap<(String, String), (String, u32)>,
) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let toks = &lexed.toks;
    let mut findings = Vec::new();
    let mut depth = 0usize;
    let mut guards: Vec<Guard> = Vec::new();

    for i in 0..toks.len() {
        let t = &toks[i];
        if t.in_test {
            continue;
        }
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                }
                _ => {}
            }
            continue;
        }
        if t.kind != TokKind::Ident {
            continue;
        }
        // `drop(guard)` releases early.
        if t.text == "drop"
            && toks.get(i + 1).map(|n| n.text.as_str()) == Some("(")
            && toks.get(i + 3).map(|n| n.text.as_str()) == Some(")")
        {
            if let Some(victim) = toks.get(i + 2) {
                guards.retain(|g| g.name != victim.text);
            }
            continue;
        }
        // `<path>.lock(` / `<path>.lock_recover(` — a mutex acquisition.
        if (t.text == "lock" || t.text == "lock_recover")
            && toks.get(i + 1).map(|n| n.text.as_str()) == Some("(")
            && i >= 2
            && toks[i - 1].text == "."
            && toks[i - 2].kind == TokKind::Ident
        {
            let lock_path = toks[i - 2].text.clone();
            for g in &guards {
                if g.lock_path != lock_path {
                    order.insert(
                        (g.lock_path.clone(), lock_path.clone()),
                        (file.to_string(), t.line),
                    );
                }
            }
            if let Some(name) = let_binding_name(toks, i) {
                guards.push(Guard {
                    name,
                    lock_path,
                    depth,
                    line: t.line,
                });
            }
            continue;
        }
        // An I/O call while any guard is live.
        if IO_CALLS.contains(&t.text.as_str())
            && toks.get(i + 1).map(|n| n.text.as_str()) == Some("(")
            && (i == 0 || toks[i - 1].text != "fn")
            && !guards.is_empty()
            && !lexed.is_allowed(ALLOW, t.line)
        {
            let g = guards.last().expect("non-empty");
            findings.push(Finding::at(
                Pass::Locks,
                file,
                t.line,
                format!(
                    "`{}` guard `{}` (locked line {}) held across `{}()` — drop it first or mark `// rck-lint: allow(lock_across_io)`",
                    g.lock_path, g.name, g.line, t.text
                ),
            ));
        }
    }
    findings
}

/// If the `.lock(` at token `i` is the right-hand side of a `let`
/// statement, return the bound name. Walks back to the statement start
/// (`;`, `{` or `}`) looking for `let [mut] name =`.
fn let_binding_name(toks: &[lexer::Tok], i: usize) -> Option<String> {
    let mut j = i;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.kind == TokKind::Punct && matches!(t.text.as_str(), ";" | "{" | "}") {
            return None;
        }
        if t.kind == TokKind::Ident && t.text == "let" {
            let mut k = j + 1;
            if toks.get(k).map(|t| t.text.as_str()) == Some("mut") {
                k += 1;
            }
            let name = toks.get(k)?;
            if name.kind != TokKind::Ident {
                return None;
            }
            // `let x = *m.lock();` copies the value out; the guard is a
            // temporary dropped at the end of the statement, not bound.
            if toks.get(k + 1).map(|t| t.text.as_str()) == Some("=")
                && toks.get(k + 2).map(|t| t.text.as_str()) == Some("*")
            {
                return None;
            }
            return Some(name.text.clone());
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    type OrderMap = BTreeMap<(String, String), (String, u32)>;

    fn run(src: &str) -> (Vec<Finding>, OrderMap) {
        let mut order = OrderMap::new();
        let f = check_source(src, "x.rs", &mut order);
        (f, order)
    }

    #[test]
    fn guard_across_io_fires() {
        let src =
            "fn f(&self) {\n  let w = self.writer.lock().unwrap();\n  stream.write_all(b\"x\");\n}";
        let (f, _) = run(src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("held across `write_all()`"));
    }

    #[test]
    fn dropped_or_scoped_guards_do_not_fire() {
        let src = "fn f(&self) {\n  { let w = self.writer.lock().unwrap(); }\n  stream.write_all(b\"x\");\n  let g = self.state.lock().unwrap();\n  drop(g);\n  stream.send(1);\n}";
        let (f, _) = run(src);
        assert_eq!(f, vec![], "{f:?}");
    }

    #[test]
    fn allow_marker_suppresses() {
        let src = "fn f(&self) {\n  let w = self.writer.lock().unwrap();\n  // rck-lint: allow(lock_across_io) — single shared writer\n  stream.write_all(b\"x\");\n}";
        let (f, _) = run(src);
        assert_eq!(f, vec![]);
    }

    #[test]
    fn inconsistent_order_detected() {
        let src = "fn f(&self) {\n  let a = self.alpha.lock().unwrap();\n  let b = self.beta.lock().unwrap();\n}\nfn g(&self) {\n  let b = self.beta.lock().unwrap();\n  let a = self.alpha.lock().unwrap();\n}";
        let mut order = BTreeMap::new();
        check_source(src, "x.rs", &mut order);
        assert!(order.contains_key(&("alpha".into(), "beta".into())));
        assert!(order.contains_key(&("beta".into(), "alpha".into())));
    }
}
