//! `rck-analyze` — the workspace invariant checker behind `rck_lint`.
//!
//! The serve/obs/chaos layers encode contracts that live in more than
//! one file: wire-format constants in `serve::proto` vs. DESIGN.md §6,
//! the `rck_*` metric namespace vs. DESIGN.md §9, and the master's
//! batch-accounting equation. Nothing but reviewer vigilance kept them
//! in sync; this crate checks them mechanically on every PR.
//!
//! Five passes (see DESIGN.md §11 for the full contract):
//!
//! 1. [`metrics`] — every `rck_*` metric used in production code is
//!    registered exactly once, documented in DESIGN.md §9, and named by
//!    convention (counters `_total`, histograms `_seconds`).
//! 2. [`protocol`] — MAGIC / version / header length / frame kinds /
//!    payload cap parsed out of `serve/src/proto.rs` and diffed against
//!    the DESIGN.md §6 wire-format tables.
//! 3. [`panics`] — no `unwrap()` / `expect()` / `panic!` in non-test
//!    code of the service hot-path files (dispatcher, master, gate pool,
//!    shard frontend, worker, transport, proto), modulo an explicit
//!    `// rck-lint: allow(panic)` marker.
//! 4. [`locks`] — no mutex guard held across I/O or channel calls, and
//!    a consistent lock acquisition order across files.
//! 5. [`model`] — an exhaustive model check of the batch lifecycle
//!    (dispatch / heartbeat / timeout / requeue / abort) against a
//!    transition table extracted from the shared dispatcher
//!    (`serve/src/dispatch.rs`) plus each `WorkSource` policy layered on
//!    it (`serve/src/master.rs`, `gate/src/pool.rs`), asserting
//!    `dispatched == completed + duplicates + requeued + in-flight`
//!    and the absence of stuck states.
//!
//! The crate is dependency-free on purpose: it must build and run even
//! when the rest of the workspace doesn't compile, and the container is
//! offline.

#![warn(missing_docs)]

pub mod lexer;
pub mod locks;
pub mod metrics;
pub mod model;
pub mod panics;
pub mod protocol;
pub mod report;

use std::fmt;
use std::path::{Path, PathBuf};

/// Which pass produced a finding. Ordering fixes the report layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pass {
    /// Metric registration / naming / documentation contract.
    Metrics,
    /// proto.rs ↔ DESIGN.md §6 wire-format consistency.
    Protocol,
    /// Panic paths in serve hot-path files.
    Panics,
    /// Mutex guards across I/O and lock acquisition order.
    Locks,
    /// Batch-lifecycle model checker.
    Model,
}

impl Pass {
    /// Stable slug used in report headings.
    pub fn slug(self) -> &'static str {
        match self {
            Pass::Metrics => "metrics-contract",
            Pass::Protocol => "protocol-consistency",
            Pass::Panics => "panic-path",
            Pass::Locks => "lock-discipline",
            Pass::Model => "batch-lifecycle-model",
        }
    }

    /// All passes, in report order.
    pub fn all() -> [Pass; 5] {
        [
            Pass::Metrics,
            Pass::Protocol,
            Pass::Panics,
            Pass::Locks,
            Pass::Model,
        ]
    }
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.slug())
    }
}

/// One violation. Findings are value types: the report sorts and
/// renders them, tests match on them.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// The pass that produced it.
    pub pass: Pass,
    /// Workspace-relative file the finding points at (empty for
    /// findings about the workspace as a whole, e.g. model states).
    pub file: String,
    /// 1-based line, 0 when the finding has no single line.
    pub line: u32,
    /// Human-readable description. Deterministic: no paths outside the
    /// workspace, no addresses, no timing.
    pub message: String,
}

impl Finding {
    /// Construct a finding tied to a file location.
    pub fn at(pass: Pass, file: impl Into<String>, line: u32, message: impl Into<String>) -> Self {
        Finding {
            pass,
            file: file.into(),
            line,
            message: message.into(),
        }
    }

    /// Construct a workspace-level finding (no file).
    pub fn global(pass: Pass, message: impl Into<String>) -> Self {
        Finding {
            pass,
            file: String::new(),
            line: 0,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.file.is_empty() {
            write!(f, "[{}] {}", self.pass, self.message)
        } else if self.line == 0 {
            write!(f, "[{}] {}: {}", self.pass, self.file, self.message)
        } else {
            write!(
                f,
                "[{}] {}:{}: {}",
                self.pass, self.file, self.line, self.message
            )
        }
    }
}

/// A workspace root plus the source files the passes scan.
pub struct Workspace {
    /// Absolute (or caller-relative) workspace root.
    pub root: PathBuf,
    /// Workspace-relative paths of every `.rs` file in scope, sorted.
    pub files: Vec<String>,
}

/// Path components excluded from source discovery: build output,
/// vendored stand-ins, the analyzer itself (its fixtures and tests are
/// deliberately full of violations), and fixture trees.
const EXCLUDED_COMPONENTS: &[&str] = &["target", "compat", "fixtures", ".git"];

impl Workspace {
    /// Discover the workspace rooted at `root`. Missing directories are
    /// fine (fixture trees are tiny); only `.rs` files are collected.
    pub fn discover(root: impl Into<PathBuf>) -> Workspace {
        let root = root.into();
        let mut files = Vec::new();
        let mut stack = vec![root.clone()];
        while let Some(dir) = stack.pop() {
            let Ok(entries) = std::fs::read_dir(&dir) else {
                continue;
            };
            for entry in entries.flatten() {
                let path = entry.path();
                let name = entry.file_name();
                let name = name.to_string_lossy();
                if path.is_dir() {
                    if EXCLUDED_COMPONENTS.contains(&name.as_ref()) || name == "analyze" {
                        continue;
                    }
                    stack.push(path);
                } else if name.ends_with(".rs") {
                    if let Ok(rel) = path.strip_prefix(&root) {
                        files.push(rel.to_string_lossy().replace('\\', "/"));
                    }
                }
            }
        }
        files.sort();
        Workspace { root, files }
    }

    /// Read a workspace-relative file, if present.
    pub fn read(&self, rel: &str) -> Option<String> {
        std::fs::read_to_string(self.root.join(rel)).ok()
    }

    /// The workspace root as a path.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

/// Outcome of a full lint run: every finding plus the context the
/// report prints (extracted protocol constants, model statistics).
pub struct RunOutcome {
    /// All findings from all passes, sorted.
    pub findings: Vec<Finding>,
    /// Protocol constants as extracted from code, for the report.
    pub protocol: Option<protocol::WireContract>,
    /// Model-checker statistics (states explored, transitions).
    pub model: Option<model::ModelStats>,
    /// Metric inventory (registered names), for the report.
    pub metrics: Vec<metrics::RegisteredMetric>,
}

/// Run every pass over the workspace at `root`.
pub fn run_all(root: impl Into<PathBuf>) -> RunOutcome {
    let ws = Workspace::discover(root);
    let mut findings = Vec::new();

    let (metric_findings, inventory) = metrics::check(&ws);
    findings.extend(metric_findings);

    let (proto_findings, contract) = protocol::check(&ws);
    findings.extend(proto_findings);

    findings.extend(panics::check(&ws));
    findings.extend(locks::check(&ws));

    let (model_findings, stats) = model::check(&ws);
    findings.extend(model_findings);

    findings.sort();
    findings.dedup();
    RunOutcome {
        findings,
        protocol: contract,
        model: stats,
        metrics: inventory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discovery_skips_excluded_trees() {
        let ws = Workspace::discover(env!("CARGO_MANIFEST_DIR").to_string() + "/../..");
        assert!(ws.files.iter().any(|f| f == "crates/serve/src/proto.rs"));
        assert!(!ws.files.iter().any(|f| f.contains("target/")));
        assert!(!ws.files.iter().any(|f| f.starts_with("compat/")));
        assert!(!ws.files.iter().any(|f| f.contains("crates/analyze/")));
        let mut sorted = ws.files.clone();
        sorted.sort();
        assert_eq!(ws.files, sorted, "discovery order is deterministic");
    }

    #[test]
    fn finding_display_formats() {
        let a = Finding::at(Pass::Panics, "a.rs", 3, "boom");
        assert_eq!(a.to_string(), "[panic-path] a.rs:3: boom");
        let g = Finding::global(Pass::Model, "stuck");
        assert_eq!(g.to_string(), "[batch-lifecycle-model] stuck");
    }
}
