//! Deterministic Markdown rendering of a lint run.
//!
//! The report is machine-diffable like the `rck_chaos` reports: no
//! timestamps, no absolute paths, stable ordering everywhere. Two runs
//! over the same tree produce byte-identical output (the determinism
//! test pins this).

use crate::{Pass, RunOutcome};
use std::fmt::Write as _;

/// Render the full Markdown report for `outcome`.
pub fn render(outcome: &RunOutcome) -> String {
    let mut out = String::new();
    let n = outcome.findings.len();
    out.push_str("# rck_lint report\n\n");
    if n == 0 {
        out.push_str("**Clean**: all three passes found no violations.\n");
    } else {
        let _ = writeln!(
            out,
            "**{n} violation{}** across the passes below.",
            plural(n)
        );
    }
    out.push('\n');

    out.push_str("## Summary\n\n");
    out.push_str("| pass | findings |\n|---|---:|\n");
    for pass in Pass::all() {
        let count = outcome.findings.iter().filter(|f| f.pass == pass).count();
        let _ = writeln!(out, "| {} | {} |", pass.slug(), count);
    }
    out.push('\n');

    for pass in Pass::all() {
        let of_pass: Vec<_> = outcome.findings.iter().filter(|f| f.pass == pass).collect();
        if of_pass.is_empty() {
            continue;
        }
        let _ = writeln!(out, "## {}\n", pass.slug());
        for f in of_pass {
            if f.line == 0 {
                let _ = writeln!(out, "- `{}`: {}", f.file, f.message);
            } else {
                let _ = writeln!(out, "- `{}:{}`: {}", f.file, f.line, f.message);
            }
        }
        out.push('\n');
    }

    out.push_str("## Checked contracts\n\n");
    let _ = writeln!(
        out,
        "- metrics: {} production families under contract",
        outcome.metrics.len()
    );
    if let Some(block) = &outcome.catalogue {
        out.push_str("\n## DESIGN.md \u{a7}9 catalogue to paste\n\n");
        out.push_str("Replace the block between the markers (markers included) with:\n\n");
        out.push_str(block);
    }
    out
}

fn plural(n: usize) -> &'static str {
    if n == 1 {
        ""
    } else {
        "s"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    #[test]
    fn clean_and_dirty_render() {
        let clean = RunOutcome {
            findings: vec![],
            metrics: vec![],
            catalogue: None,
        };
        assert!(render(&clean).contains("**Clean**"));

        let dirty = RunOutcome {
            findings: vec![Finding::at(Pass::Panics, "a.rs", 7, "boom")],
            metrics: vec![],
            catalogue: None,
        };
        let r = render(&dirty);
        assert!(r.contains("**1 violation**"));
        assert!(r.contains("`a.rs:7`: boom"));
        assert!(r.contains("| panic-path | 1 |"));
    }
}
