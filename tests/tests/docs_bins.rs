//! Docs and CI may only name things that exist: every `--bin NAME` in a
//! Markdown file or the CI workflow resolves to a binary source file,
//! nothing outside the history files still points at the retired
//! per-tier `BENCH_*.json` baselines, the retired kernel engine or the
//! retired simulator surface, the simulator engine uses no shared-state
//! primitive, the kernel entries kept for the frozen benchmark have no
//! other caller, every row of the benchmark trajectory names a workload
//! and a metric `BENCHMARK.json` declares, every crate root re-exports
//! only what something outside the crate names, only the dispatcher
//! accepts connections or runs a deadline monitor, and FNV-1a has one
//! body in the tree.

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

/// Panic if a file `scope` admits contains one of `needles`; returns how
/// many files were read.
fn assert_unmentioned(needles: &[&str], scope: impl Fn(&Path) -> bool) -> usize {
    let mut scanned = 0;
    for path in repo_files().into_iter().filter(|path| scope(path)) {
        // Binary files cannot mention a name; skip what is not UTF-8.
        let Ok(text) = fs::read_to_string(&path) else {
            continue;
        };
        scanned += 1;
        for needle in needles {
            assert!(
                !text.contains(needle),
                "{} still mentions {needle}",
                path.display()
            );
        }
    }
    scanned
}

#[test]
fn nothing_points_at_the_retired_bench_json_baselines() {
    let needles = ["kernel", "store", "shard", "gate"].map(|tier| format!("BENCH_{tier}.json"));
    let needles: Vec<&str> = needles.iter().map(String::as_str).collect();
    assert_unmentioned(&needles, |path| !is_history(path));
}

/// What the banded f32 kernel engine was made of. Only the history
/// files and the frozen `benchmark/` package (whose comments and README
/// describe the kernel it was cut against) may still say these.
const RETIRED_KERNEL_NAMES: [&str; 10] = [
    "KernelPath",
    "INITIAL_BAND",
    "RowScorer",
    "SsMatchScorer",
    "BlendScorer",
    "MatrixScorer",
    "load_transformed",
    "ss_alignment_fast",
    "hybrid_alignment_fast",
    // Without its `rck_` prefix: `rck_lint` reads a literal that starts
    // with it as a metric some registry must define.
    "kernel_fastpath_",
];

/// This file, which has to spell the names it forbids.
const THIS_FILE: &str = "tests/tests/docs_bins.rs";

#[test]
fn nothing_points_at_the_retired_kernel_engine() {
    let root = repo_root();
    assert_unmentioned(&RETIRED_KERNEL_NAMES, |path| {
        !is_history(path) && !path.starts_with(root.join("benchmark")) && !path.ends_with(THIS_FILE)
    });
}

/// The simulated chip has one owner and no lock: the engine's state is a
/// baton handed between threads over `std::sync::mpsc`, so nothing under
/// `crates/noc/src` — tests included — may reach for a shared-state
/// primitive or the two crates that used to supply them.
#[test]
fn the_simulator_engine_shares_no_state() {
    let home = repo_root().join("crates/noc/src");
    let scanned = assert_unmentioned(
        &["Condvar", "notify_all", "parking_lot::", "crossbeam::"],
        |path| path.starts_with(&home),
    );
    assert!(scanned >= 7, "scan found only {scanned} files");
}

/// The simulator-stack surface nothing ran (the `rck_skel` task-tree
/// executor and stage skeleton, the `rck_rcce` collectives, the
/// run-and-charge helper of `CoreCtx`): gone, and only history says so.
#[test]
fn nothing_points_at_the_retired_simulator_surface() {
    let retired = [
        "run_task",
        "stage_loop",
        "farm_round(",
        "rck_skel::tree",
        "rck_skel::pipeline",
        "ReduceOp",
        "reduce_u64",
        "allgather",
        "ctx.execute(",
    ];
    assert_unmentioned(&retired, |path| {
        !is_history(path) && !path.ends_with(THIS_FILE)
    });
}

/// What `crates/tmalign/src/{dp,stages}.rs` keep only because the frozen
/// `benchmark/` probes call it by name: no caller may grow inside the
/// repository, so the block stays deletable when `benchmark/` is re-cut.
#[test]
fn the_pinned_kernel_entries_have_no_caller_in_the_repository() {
    let root = repo_root();
    let pinned = [
        "FastDp",
        "SoaPoints",
        "DistScorer",
        "fastpath_dp_rounds",
        "fastpath_band_widenings",
        "fastpath_fallbacks",
    ];
    let home = root.join("crates/tmalign/src");
    let scanned = assert_unmentioned(&pinned, |path| {
        ["crates", "examples", "tests"]
            .iter()
            .any(|dir| path.starts_with(root.join(dir)))
            && path != home.join("dp.rs")
            && path != home.join("stages.rs")
            && !path.ends_with(THIS_FILE)
    });
    assert!(scanned > 100, "scan found only {scanned} files");
}

/// The string values of `"key": "value"` members in `text`, in order.
fn string_members<'a>(text: &'a str, key: &str) -> Vec<&'a str> {
    let needle = format!("\"{key}\": \"");
    text.match_indices(&needle)
        .map(|(at, _)| {
            let rest = &text[at + needle.len()..];
            &rest[..rest.find('"').expect("closing quote")]
        })
        .collect()
}

/// `docs/reports/bench-history.jsonl` is the trajectory of every paired
/// measurement a PR reported: one object per line, always with the same
/// keys, about a workload and an end-to-end metric the benchmark has.
#[test]
fn bench_history_rows_name_declared_workloads_and_metrics() {
    let root = repo_root();
    let manifest = fs::read_to_string(root.join("BENCHMARK.json")).expect("BENCHMARK.json");
    let (workloads, rest) = manifest
        .split_once("\"end_to_end\"")
        .expect("end_to_end section");
    let (end_to_end, _) = rest.split_once("\"per_layer\"").expect("per_layer section");
    let (workloads, metrics) = (
        string_members(workloads, "name"),
        string_members(end_to_end, "name"),
    );
    assert!(workloads.len() >= 8 && metrics.len() >= 2);

    let history =
        fs::read_to_string(root.join("docs/reports/bench-history.jsonl")).expect("bench history");
    let mut rows = 0;
    for (n, line) in history.lines().enumerate() {
        let at = format!("bench-history.jsonl line {}", n + 1);
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "{at}: not an object"
        );
        for key in [
            "pr",
            "parent_commit",
            "workload",
            "metric",
            "unit",
            "seed",
            "pairs",
            "parent",
            "change",
            "wins",
        ] {
            assert!(line.contains(&format!("\"{key}\": ")), "{at}: no `{key}`");
        }
        for key in ["q1", "median", "q3"] {
            let members = line.matches(&format!("\"{key}\": ")).count();
            assert_eq!(members, 2, "{at}: `{key}` once per side");
        }
        let workload = string_members(line, "workload");
        assert!(
            workloads.contains(&workload[0]),
            "{at}: workload {workload:?}"
        );
        let metric = string_members(line, "metric");
        assert!(metrics.contains(&metric[0]), "{at}: metric {metric:?}");
        rows += 1;
    }
    assert!(rows > 0, "bench history is empty");
}

/// Names a crate re-exports at its root: what follows the module path
/// in each `pub use module::Name;` / `pub use module::{a, B};` of its
/// `lib.rs`.
fn reexported_names(lib_rs: &str) -> Vec<String> {
    lib_rs
        .split("pub use ")
        .skip(1)
        .filter_map(|rest| rest.split_once(';'))
        .flat_map(|(stmt, _)| {
            let (_, names) = stmt.rsplit_once("::").expect("a re-export has a path");
            names
                .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .filter(|name| !name.is_empty())
                .map(str::to_string)
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Whether `text` names the identifier `name` (whole word).
fn names(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + name.len()..].starts_with(ident))
}

/// Public types nobody has to *name*, with the call that hands each one
/// out.
const REACHED_THROUGH_A_CALL: &[(&str, &str)] = &[
    ("ScenarioResult", "rck_serve::run_scenario (rck_chaos)"),
    (
        "AbortHandle",
        "Master::abort_handle (rck_served, shard master)",
    ),
    (
        "TileDone",
        "item of the receiver Master::bind_feed_on returns",
    ),
    (
        "QueryEvent",
        "GateClient::next_event, the pipelined client API",
    ),
    (
        "QueryOutcome",
        "GateClient::run_query (rck_loadgen, rck_report)",
    ),
    ("GateSnapshot", "GateReport::stats (rck_gate, rck_loadgen)"),
    (
        "ShardScenarioReport",
        "rck_shard::run_shard_scenario (rck_chaos)",
    ),
    (
        "ShardAbortHandle",
        "ShardFrontend::abort_handle (benchmark rigs)",
    ),
    ("ShardStats", "ShardFrontend::stats (rck_shardd)"),
    ("StoreCounters", "Store::counters (rckalign, rck_report)"),
    ("RckAlignRun", "rckalign::run_all_vs_all"),
    ("DistributedRun", "rckalign::run_distributed (Experiment I)"),
    (
        "HierarchyRun",
        "rckalign::run_hierarchical (ablation_suite)",
    ),
    ("McPscRun", "rckalign::run_mcpsc (ablation_suite)"),
    ("OneVsAllRun", "rckalign::run_one_vs_all (rckalign rank)"),
    (
        "CoreStats",
        "SimReport::per_core (core::analysis, rckalign, benchmark sim workload)",
    ),
    ("TraceEvent", "Simulator::run_traced (farm_timeline)"),
    ("TraceKind", "TraceEvent::kind, what render_timeline draws"),
    (
        "par",
        "paper construct (PAR), DESIGN §3: waves composes it with COLLECT",
    ),
];

/// The public surface stays honest: whatever a library crate re-exports
/// at its root is named by some non-test code that is not the crate's
/// own library — its binaries, another crate, the benchmark package or
/// an example. A re-export nothing outside names is either handed out
/// by a call that is (listed above) or dead.
#[test]
fn every_reexport_has_a_caller_outside_its_crate() {
    let root = repo_root();
    let files = repo_files();
    let production = |path: &Path| {
        let rel = path.strip_prefix(&root).expect("below the root");
        path.extension().is_some_and(|e| e == "rs")
            && (rel.starts_with("benchmark/src")
                || rel.starts_with("examples/src")
                || (rel.starts_with("crates") && rel.components().any(|c| c.as_os_str() == "src")))
    };
    let mut unexplained = Vec::new();
    for krate in [
        "serve", "gate", "shard", "store", "core", "obs", "noc", "rcce", "rckskel",
    ] {
        let src = root.join("crates").join(krate).join("src");
        let lib_rs = fs::read_to_string(src.join("lib.rs")).expect("lib.rs");
        // Everything but the crate's own library modules, tests cut off.
        let callers: Vec<String> = files
            .iter()
            .filter(|path| production(path) && path.parent() != Some(src.as_path()))
            .map(|path| {
                let text = fs::read_to_string(path).expect("source is UTF-8");
                let end = text.find("\n#[cfg(test)]").unwrap_or(text.len());
                text[..end].to_string()
            })
            .collect();
        for name in reexported_names(&lib_rs) {
            let listed = REACHED_THROUGH_A_CALL.iter().any(|(n, _)| *n == name);
            let called = callers.iter().any(|text| names(text, &name));
            assert!(!(listed && called), "{name} has a caller; unlist it");
            if !listed && !called {
                unexplained.push(format!("rck {krate}: {name}"));
            }
        }
    }
    assert!(
        unexplained.is_empty(),
        "re-exported, but named by no binary, other crate, benchmark or example: {unexplained:#?}"
    );
}

/// One accept loop and one monitor for every tier: in the production
/// code of the service crates, only `serve::dispatch` polls a listener
/// or starts the deadline monitor; a tier that needs a second plane or
/// its own stop rule passes it to `dispatch::run`.
#[test]
fn only_the_dispatcher_accepts_and_monitors() {
    let root = repo_root();
    let dispatcher = root.join("crates/serve/src/dispatch.rs");
    let mut callers = Vec::new();
    for krate in ["serve", "gate", "shard"] {
        let mut files = Vec::new();
        walk(&root.join("crates").join(krate).join("src"), &mut files);
        for path in files
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        {
            let text = fs::read_to_string(path).expect("source is UTF-8");
            let end = text.find("\n#[cfg(test)]").unwrap_or(text.len());
            for (n, line) in text[..end].lines().enumerate() {
                let code = line.trim_start();
                let calls = ["poll_accept(", "monitor_workers("].iter().any(|call| {
                    code.match_indices(call)
                        .any(|(at, _)| !code[..at].ends_with("fn "))
                });
                if calls && !code.starts_with("//") && *path != dispatcher {
                    callers.push(format!("{}:{}: {code}", path.display(), n + 1));
                }
            }
        }
    }
    assert!(
        callers.is_empty(),
        "accept loops or monitors outside serve::dispatch: {callers:#?}"
    );
}

/// One FNV-1a body: store keys, log checksums, frame checksums and the
/// chaos fingerprints all fold through `rck_store::log::fnv1a64` (its
/// lock-step lanes are a different function), so no copy can drift.
#[test]
fn fnv1a_has_one_body() {
    let root = repo_root();
    let mut bodies = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let src = krate.expect("crate directory").path().join("src");
        let mut files = Vec::new();
        walk(&src, &mut files);
        for path in files
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        {
            let text = fs::read_to_string(path).expect("source is UTF-8");
            for (n, line) in text.lines().enumerate() {
                if names(line, "fn fnv1a64") {
                    bodies.push(format!("{}:{}", path.display(), n + 1));
                }
            }
        }
    }
    assert_eq!(bodies.len(), 1, "`fn fnv1a64` bodies: {bodies:#?}");
}
