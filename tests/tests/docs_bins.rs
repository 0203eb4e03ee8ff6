//! Docs and CI may only name things that exist: every `--bin NAME` in a
//! Markdown file or the CI workflow resolves to a binary source file, and
//! nothing outside the history files still points at the retired
//! per-tier `BENCH_*.json` baselines.

use std::fs;
use std::path::{Path, PathBuf};

/// The PR log, the roadmap and the current issue describe the past and
/// the plan, so they may name what no longer exists.
const HISTORY: [&str; 3] = ["CHANGES.md", "ROADMAP.md", "ISSUE.md"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the repo root")
        .to_path_buf()
}

/// Every file below `dir`, skipping git metadata and build output.
fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if !matches!(name, ".git" | "target" | "out" | ".bench_build") {
                walk(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

fn repo_files() -> Vec<PathBuf> {
    let mut files = Vec::new();
    walk(&repo_root(), &mut files);
    files
}

fn is_history(path: &Path) -> bool {
    path.parent() == Some(repo_root().as_path())
        && HISTORY.iter().any(|h| path.file_name() == Some(h.as_ref()))
}

/// The identifier following each `--bin ` in `text`; a placeholder such
/// as `--bin <name>` is not one.
fn bin_names(text: &str) -> Vec<&str> {
    text.split("--bin ")
        .skip(1)
        .map(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            &rest[..end]
        })
        .filter(|name| !name.is_empty())
        .collect()
}

fn bin_exists(root: &Path, name: &str) -> bool {
    let file = format!("{name}.rs");
    if root.join("examples/src/bin").join(&file).is_file() {
        return true;
    }
    fs::read_dir(root.join("crates"))
        .expect("crates/ exists")
        .any(|krate| {
            krate
                .expect("directory entry")
                .path()
                .join("src/bin")
                .join(&file)
                .is_file()
        })
}

#[test]
fn docs_and_ci_name_only_binaries_that_exist() {
    let root = repo_root();
    let mut checked = 0;
    for path in repo_files() {
        let is_doc =
            path.extension().is_some_and(|e| e == "md") || path.starts_with(root.join("docs"));
        let is_ci = path.ends_with(".github/workflows/ci.yml");
        if !(is_doc || is_ci) || is_history(&path) {
            continue;
        }
        let text = fs::read_to_string(&path).expect("docs are UTF-8");
        for name in bin_names(&text) {
            assert!(
                bin_exists(&root, name),
                "{} names `--bin {name}`, but no crates/*/src/bin/{name}.rs \
                 (or examples/src/bin/{name}.rs) exists",
                path.display()
            );
            checked += 1;
        }
    }
    assert!(checked > 20, "scan found only {checked} `--bin` references");
}

#[test]
fn nothing_points_at_the_retired_bench_json_baselines() {
    let needles: Vec<String> = ["kernel", "store", "shard", "gate"]
        .iter()
        .map(|tier| format!("BENCH_{tier}.json"))
        .collect();
    for path in repo_files() {
        if is_history(&path) {
            continue;
        }
        // Binary files cannot be a doc pointer; skip what is not UTF-8.
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        for needle in &needles {
            assert!(
                !text.contains(needle.as_str()),
                "{} still mentions {needle}",
                path.display()
            );
        }
    }
}
