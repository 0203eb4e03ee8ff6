//! `rck-analyze` — the workspace invariant checker behind `rck_lint`.
//!
//! The serve/obs/chaos layers encode contracts that live in more than
//! one file, such as the `rck_*` metric namespace vs. DESIGN.md §9.
//! This crate checks them mechanically on every change. (The wire
//! constants vs. DESIGN.md §6 are checked where they are defined, by a
//! unit test in `serve::proto`; the batch lifecycle by
//! `rck_serve::explore`, which runs the dispatcher itself under each
//! tier's policy.)
//!
//! Three passes (see DESIGN.md §11 for the full contract):
//!
//! 1. [`metrics`] — every `rck_*` metric used in production code is
//!    registered exactly once, named by convention (counters `_total`,
//!    histograms `_seconds`), and listed in the DESIGN.md §9 catalogue,
//!    which must be the block [`metrics::catalogue`] renders from the
//!    registrations.
//! 2. [`panics`] — no `unwrap()` / `expect()` / `panic!` in non-test
//!    code of the service hot-path files (dispatcher, master, gate pool,
//!    shard frontend, worker, transport, proto), modulo an explicit
//!    `// rck-lint: allow(panic)` marker.
//! 3. [`locks`] — no mutex guard held across I/O or channel calls, and
//!    a consistent lock acquisition order across files.
//!
//! The crate is dependency-free on purpose: it must build and run even
//! when the rest of the workspace doesn't compile, and the container is
//! offline.

#![warn(missing_docs)]

pub mod lexer;
pub mod locks;
pub mod metrics;
pub mod panics;
pub mod report;

use std::fmt;
use std::path::{Path, PathBuf};

/// Which pass produced a finding. Ordering fixes the report layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Pass {
    /// Metric registration / naming / catalogue contract.
    Metrics,
    /// Panic paths in serve hot-path files.
    Panics,
    /// Mutex guards across I/O and lock acquisition order.
    Locks,
}

impl Pass {
    /// Stable slug used in report headings.
    pub fn slug(self) -> &'static str {
        match self {
            Pass::Metrics => "metrics-contract",
            Pass::Panics => "panic-path",
            Pass::Locks => "lock-discipline",
        }
    }

    /// All passes, in report order.
    pub fn all() -> [Pass; 3] {
        [Pass::Metrics, Pass::Panics, Pass::Locks]
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
    /// Workspace-relative file the finding points at.
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
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
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
/// report prints (the metric inventory).
pub struct RunOutcome {
    /// All findings from all passes, sorted.
    pub findings: Vec<Finding>,
    /// Metric inventory (registered names), for the report.
    pub metrics: Vec<metrics::RegisteredMetric>,
    /// The DESIGN.md §9 catalogue block to paste, when the one there
    /// differs from what the registrations render.
    pub catalogue: Option<String>,
}

/// Run every pass over the workspace at `root`.
pub fn run_all(root: impl Into<PathBuf>) -> RunOutcome {
    let ws = Workspace::discover(root);
    let mut findings = Vec::new();

    let (metric_findings, inventory, catalogue) = metrics::check(&ws);
    findings.extend(metric_findings);

    findings.extend(panics::check(&ws));
    findings.extend(locks::check(&ws));
    findings.sort();
    findings.dedup();
    RunOutcome {
        findings,
        metrics: inventory,
        catalogue,
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
        let whole = Finding::at(Pass::Metrics, "DESIGN.md", 0, "stale");
        assert_eq!(whole.to_string(), "[metrics-contract] DESIGN.md: stale");
    }
}
