//! Docs and CI may only name things that exist: every `--bin NAME` in a
//! Markdown file or the CI workflow resolves to a binary source file,
//! nothing outside the history files still points at the retired
//! per-tier `BENCH_*.json` baselines, the retired kernel engine or the
//! retired simulator surface, the simulator engine uses no shared-state
//! primitive, the kernel entries kept for the frozen benchmark have no
//! other caller, every row of the benchmark trajectory names a workload
//! and a metric `BENCHMARK.json` declares, every crate root re-exports
//! only what something outside the crate names, only the dispatcher
//! accepts connections or runs a deadline monitor, only the dispatcher
//! owns exactly-once acceptance, each job-path decision (the job-list
//! compute, the gate's run identity) has one copy, FNV-1a has one body
//! in the tree, the chaos harnesses share one scenario core, no serving
//! tier's stats wraps a handle in a method, and DESIGN.md's generated
//! contract blocks each have one pair of markers, and the binaries keep
//! only their flags (one daemon shell, one dataset lookup error, one
//! in-process gate run).

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

/// A source file up to its first `#[cfg(test)]`: its non-test code.
fn production(path: &Path) -> String {
    let text = fs::read_to_string(path).expect("source is UTF-8");
    let end = text.find("\n#[cfg(test)]").unwrap_or(text.len());
    text[..end].to_string()
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

/// Public names nothing outside the crate has to *name*, with the call
/// that hands each one out (or, for a wire constant, who needs it).
const REACHED_THROUGH_A_CALL: &[(&str, &str)] = &[
    (
        "PROTOCOL_VERSION",
        "the version every Hello carries (DESIGN §6): a peer built outside this workspace needs it",
    ),
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
    (
        "ShardAbortHandle",
        "ShardFrontend::abort_handle (benchmark rigs)",
    ),
    ("ShardStats", "ShardFrontend::stats (rck_shardd)"),
    ("StoreCounters", "Store::counters (rckalign, rck_report)"),
    ("RckAlignRun", "rckalign::run_all_vs_all"),
    ("McPscRun", "rckalign::run_mcpsc (ablation_suite)"),
    (
        "CoreStats",
        "SimReport::per_core (core::analysis, rckalign, benchmark sim workload)",
    ),
    ("TraceEvent", "Simulator::run_traced (farm_timeline)"),
    ("TraceKind", "TraceEvent::kind, what render_timeline draws"),
    (
        "JobResult",
        "rck_skel::{farm, waves}, whose results every core program reads",
    ),
    (
        "par",
        "paper construct (PAR), DESIGN §3: waves composes it with COLLECT",
    ),
];

/// The public surface stays honest: whatever a library crate re-exports
/// at its root is named by some non-test code that is not the crate's
/// own library — its binaries, another crate, the benchmark package or
/// an example. A re-export nothing outside names is either handed out
/// by a call that is (listed above) or dead, and a listed name that is
/// no longer re-exported is a stale row.
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
    let mut reexported = Vec::new();
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
            reexported.push(name);
        }
    }
    assert!(
        unexplained.is_empty(),
        "re-exported, but named by no binary, other crate, benchmark or example: {unexplained:#?}"
    );
    let stale: Vec<&str> = REACHED_THROUGH_A_CALL
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| !reexported.iter().any(|r| r == n))
        .collect();
    assert!(
        stale.is_empty(),
        "listed, but re-exported by no crate: {stale:?}"
    );
}

/// One farm under every simulated program: in `crates/core`'s non-test
/// code the chip is started once (`app::run_on_chip`) and the pair slave
/// is written once (`app::pair_slave`). One-vs-all, the hierarchy,
/// MC-PSC and the distributed baseline supply a job list, a master or
/// (the baseline's pssh/NFS worker) a slave of their own.
#[test]
fn core_programs_share_one_chip_run_and_one_pair_slave() {
    let root = repo_root();
    let mut files = Vec::new();
    walk(&root.join("crates/core/src"), &mut files);
    for call in ["Simulator::new(", "slave_loop("] {
        let mut sites = Vec::new();
        for path in files
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        {
            let text = fs::read_to_string(path).expect("source is UTF-8");
            let end = text.find("\n#[cfg(test)]").unwrap_or(text.len());
            for (n, line) in text[..end].lines().enumerate() {
                let code = line.trim_start();
                if !code.starts_with("//") {
                    for _ in code.matches(call) {
                        sites.push(format!("{}:{}: {code}", path.display(), n + 1));
                    }
                }
            }
        }
        assert_eq!(sites.len(), 1, "`{call}` in crates/core/src: {sites:#?}");
    }
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

/// One DP engine (DESIGN §13.2, §13.7): every alignment the kernel
/// computes is traced back through `StreamDp::align`, whose sweep is the
/// only code that records a Left move. A second engine, or a second
/// recurrence body inside this one, would write `DIR_LEFT` again.
#[test]
fn the_kernel_writes_dir_left_at_one_site() {
    let root = repo_root();
    let mut files = Vec::new();
    walk(&root.join("crates/tmalign/src"), &mut files);
    let mut sites = Vec::new();
    for path in files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
    {
        let text = fs::read_to_string(path).expect("source is UTF-8");
        for (n, line) in text.lines().enumerate() {
            let code = line.split("//").next().unwrap_or("");
            if names(code, "DIR_LEFT") && !code.contains("const DIR_LEFT") {
                sites.push(format!("{}:{}: {}", path.display(), n + 1, line.trim()));
            }
        }
    }
    assert_eq!(sites.len(), 1, "`DIR_LEFT` sites: {sites:#?}");
    assert!(
        sites[0].contains("dp.rs") && sites[0].contains("= DIR_LEFT"),
        "{sites:?}"
    );
}

/// One scenario core under the four chaos harnesses: every run returns
/// `rckalign::chaos::Report`, so no tier keeps a result type of its own;
/// `fn subseed` has two bodies, the core's and the gate's distinct mix
/// (switching the gate would re-derive every gate line of the golden
/// report); and the store's private fault module is gone.
#[test]
fn chaos_harnesses_share_one_scenario_core() {
    let root = repo_root();
    let mut subseeds = Vec::new();
    let mut result_types = Vec::new();
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    for path in files
        .iter()
        .filter(|p| p.extension().is_some_and(|e| e == "rs"))
    {
        let text = fs::read_to_string(path).expect("source is UTF-8");
        let rel = path.strip_prefix(&root).expect("below the root");
        for (n, line) in text.lines().enumerate() {
            if names(line, "fn subseed") {
                subseeds.push(rel.display().to_string());
            }
            let declared = ["struct ", "enum ", "type "]
                .iter()
                .filter_map(|kw| line.split_once(kw).map(|(_, rest)| rest))
                .filter_map(|rest| rest.split(|c: char| !c.is_ascii_alphanumeric()).next());
            for name in declared {
                if name.ends_with("ScenarioResult") || name.ends_with("ScenarioReport") {
                    result_types.push(format!("{}:{}: {name}", rel.display(), n + 1));
                }
            }
        }
    }
    subseeds.sort();
    assert_eq!(
        subseeds,
        ["crates/core/src/chaos.rs", "crates/gate/src/chaos.rs"],
        "`fn subseed` bodies"
    );
    assert!(
        result_types.is_empty(),
        "per-tier scenario result types: {result_types:#?}"
    );
    assert!(!root.join("crates/store/src/fault.rs").exists());
    assert_unmentioned(&["rck_store::fault", "store::fault::"], |path| {
        !is_history(path) && !path.ends_with(THIS_FILE)
    });
}

/// Whether a method body, its lines trimmed and joined, is one write
/// (`inc`, `add`, `observe`, ...) to one handle: `self.h.add(n as u64);`.
fn one_handle_write(body: &str) -> bool {
    const WRITES: [&str; 6] = ["inc", "add", "sub", "set", "observe", "raise_to"];
    let stmt = body.strip_suffix(';').unwrap_or(body);
    let Some((handle, call)) = stmt.strip_prefix("self.").and_then(|r| r.split_once('.')) else {
        return false;
    };
    let Some((method, args)) = call.split_once('(') else {
        return false;
    };
    handle
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_')
        && WRITES.contains(&method)
        && args.ends_with(')')
        && !stmt.contains(';')
        && !args.contains("self.")
}

/// Counters are handles, called where the event happens: a method of the
/// serve, gate or shard stats exists only to keep two handles, or a
/// handle and a per-peer table, consistent.
#[test]
fn tier_stats_have_no_one_handle_forwarders() {
    let root = repo_root();
    let mut forwarders = Vec::new();
    for krate in ["serve", "gate", "shard"] {
        let path = root.join("crates").join(krate).join("src/stats.rs");
        let text = fs::read_to_string(&path).expect("source is UTF-8");
        let end = text.find("\n#[cfg(test)]").unwrap_or(text.len());
        let mut lines = text[..end].lines();
        while let Some(line) = lines.next() {
            let Some(sig) = line
                .strip_prefix("    ")
                .filter(|l| l.contains("fn ") && !l.starts_with("//"))
            else {
                continue;
            };
            if !sig.ends_with('{') && !lines.by_ref().any(|l| l.ends_with('{')) {
                break;
            }
            let body: String = lines
                .by_ref()
                .take_while(|l| *l != "    }")
                .map(str::trim)
                .collect();
            if one_handle_write(&body) {
                forwarders.push(format!(
                    "{krate}: {} {{ {body} }}",
                    sig.trim_end_matches(" {")
                ));
            }
        }
    }
    assert!(
        forwarders.is_empty(),
        "{} one-handle forwarders: {forwarders:#?}",
        forwarders.len()
    );
}

/// DESIGN.md quotes its contract tables from the code: §6's wire block is
/// checked by a unit test in `serve::proto` and §9's catalogue is rendered
/// by `rck_lint`'s metrics pass, so the doc parsers that used to read them
/// are gone, and each check finds its block by marker lines that appear
/// once each.
#[test]
fn contract_tables_are_generated_and_the_doc_parsers_are_gone() {
    let retired = [
        "protocol-consistency",
        "WireContract",
        "rck_analyze::protocol",
        "check_sources",
    ];
    assert_unmentioned(&retired, |path| {
        !is_history(path) && !path.ends_with(THIS_FILE)
    });

    let design = fs::read_to_string(repo_root().join("DESIGN.md")).expect("DESIGN.md is UTF-8");
    let lines = |marker: &str| design.lines().filter(|l| *l == marker).count();
    let begins = [
        "<!-- generated: serve::proto wire -->",
        "<!-- generated: rck_lint metrics catalogue -->",
    ];
    for begin in begins {
        assert_eq!(lines(begin), 1, "`{begin}` lines in DESIGN.md");
    }
    assert_eq!(
        lines("<!-- /generated -->"),
        begins.len(),
        "one end marker per generated block"
    );
}

/// Exactly-once acceptance has one owner, `serve::dispatch`: its ledger
/// settles each grant once, so no `WorkSource` policy (nor the gate's run
/// state beside its pool) keeps a `done` set of its own, and no tier
/// registers a family counting duplicates it dropped. The chaos
/// harness's `rck_chaos_frames_duplicated_total` counts frames it
/// injected twice, not results accepted twice, so the family check looks
/// for `_duplicate_`.
#[test]
fn exactly_once_has_one_owner() {
    let root = repo_root();
    let mut found = Vec::new();
    for file in [
        "crates/serve/src/master.rs",
        "crates/gate/src/pool.rs",
        "crates/gate/src/lib.rs",
        "crates/shard/src/frontend.rs",
    ] {
        for (n, line) in production(&root.join(file)).lines().enumerate() {
            let set = ["done: HashSet", "done.insert(", "done.contains("];
            if set.iter().any(|needle| line.contains(needle)) {
                found.push(format!("{file}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let mut files = Vec::new();
        walk(
            &krate.expect("crate directory").path().join("src"),
            &mut files,
        );
        for path in files
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        {
            for (n, line) in production(path).lines().enumerate() {
                let family = line.split('"').skip(1).step_by(2);
                if family
                    .into_iter()
                    .any(|lit| lit.starts_with("rck") && lit.contains("_duplicate_"))
                {
                    let file = path.strip_prefix(&root).expect("below the root");
                    found.push(format!("{}:{}: {}", file.display(), n + 1, line.trim()));
                }
            }
        }
    }
    assert!(
        found.is_empty(),
        "a second owner of exactly-once acceptance: {found:#?}"
    );
}

/// The batch lifecycle has one copy, the dispatcher's: each crate with a
/// `WorkSource` policy has a test that runs it through
/// `rck_serve::explore`, and `rck_lint` keeps no extracted transition
/// table beside it.
#[test]
fn the_batch_lifecycle_has_one_copy() {
    let root = repo_root();
    let (mut policies, mut unexplored) = (Vec::new(), Vec::new());
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("crate directory").path();
        let mut files = Vec::new();
        walk(&krate.join("src"), &mut files);
        let texts: Vec<(PathBuf, String)> = files
            .into_iter()
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
            .map(|p| {
                let text = fs::read_to_string(&p).expect("source is UTF-8");
                (p, text)
            })
            .collect();
        let split = |text: &str| text.find("\n#[cfg(test)]").unwrap_or(text.len());
        let mine: Vec<_> = texts
            .iter()
            .filter(|(_, t)| t[..split(t)].contains("impl WorkSource for "))
            .map(|(p, _)| p.strip_prefix(&root).expect("below the root").to_owned())
            .collect();
        let explored = texts
            .iter()
            .any(|(_, t)| t[split(t)..].contains("explore::run("));
        if !mine.is_empty() && !explored {
            unexplored.extend(mine.iter().cloned());
        }
        policies.extend(mine);
    }
    policies.sort();
    assert_eq!(
        policies,
        [
            "crates/gate/src/pool.rs",
            "crates/serve/src/master.rs",
            "crates/shard/src/frontend.rs"
        ]
        .map(PathBuf::from),
        "`WorkSource` policies"
    );
    assert!(
        unexplored.is_empty(),
        "policies no test of their crate explores: {unexplored:#?}"
    );
    let mut files = Vec::new();
    walk(&root.join("crates/analyze/src"), &mut files);
    for path in files {
        let text = fs::read_to_string(&path).expect("source is UTF-8");
        for retired in ["TransitionTable", "extract_table"] {
            assert!(
                !text.contains(retired),
                "{} names the retired `{retired}`",
                path.display()
            );
        }
    }
}

/// Each job-path decision is kept once: the one job-list compute,
/// `rckalign::jobs::outcomes_of`, is the only non-test caller of
/// `compare_many(` outside the kernel crate, and the gate keys its runs
/// by query fingerprint with no second map to a minted run id.
#[test]
fn each_job_decision_has_one_copy() {
    let root = repo_root();
    let mut found = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let krate = krate.expect("crate directory").path();
        if krate.ends_with("tmalign") {
            continue;
        }
        let mut files = Vec::new();
        walk(&krate.join("src"), &mut files);
        for path in files
            .iter()
            .filter(|p| p.extension().is_some_and(|e| e == "rs"))
        {
            let file = path.strip_prefix(&root).expect("below the root");
            if file == Path::new("crates/core/src/jobs.rs") {
                continue;
            }
            for (n, line) in production(path).lines().enumerate() {
                if line.contains("compare_many(") {
                    found.push(format!("{}:{}: {}", file.display(), n + 1, line.trim()));
                }
            }
        }
    }
    let gate = "crates/gate/src/lib.rs";
    for (n, line) in production(&root.join(gate)).lines().enumerate() {
        let run_id = ["coalesce:", ".coalesce", "next_run_id"];
        if run_id.iter().any(|needle| line.contains(needle)) {
            found.push(format!("{gate}:{}: {}", n + 1, line.trim()));
        }
    }
    assert!(
        found.is_empty(),
        "a second copy of a job-path decision: {found:#?}"
    );
}

/// The binaries keep only their flags. Every daemon runs its tier in the
/// one shell, `rck_serve::daemon` (signal-driven stop, metrics listener,
/// final dump), no binary keeps its own signal watcher, dump server or
/// unknown-dataset message, and the one in-process gate run behind
/// `rck_loadgen` and `rck_report` is `rckalign_bench::gate_load`.
#[test]
fn binaries_keep_only_their_flags() {
    let root = repo_root();
    let mut bins = Vec::new();
    for krate in fs::read_dir(root.join("crates")).expect("crates/") {
        let dir = krate.expect("crate directory").path().join("src/bin");
        if dir.is_dir() {
            walk(&dir, &mut bins);
        }
    }
    walk(&root.join("examples/src/bin"), &mut bins);
    let mut found = Vec::new();
    for path in &bins {
        let file = path.strip_prefix(&root).expect("below the root").display();
        let text = production(path);
        for retired in [
            "install_shutdown_handler",
            "shutdown_requested",
            "spawn_dump_server",
        ] {
            if text.contains(retired) {
                found.push(format!("{file}: calls `{retired}`"));
            }
        }
        // The statement around each lookup handles no error of its own.
        for (at, _) in text.match_indices("by_name(") {
            let start = text[..at].rfind([';', '{']).map_or(0, |s| s + 1);
            let end = text[at..]
                .find([';', '{', '}'])
                .map_or(text.len(), |e| at + e);
            let statement = &text[start..end];
            if ["ok_or", "expect(", "unwrap", "Some("]
                .iter()
                .any(|own| statement.contains(own))
            {
                found.push(format!("{file}: `{}`", statement.trim()));
            }
        }
    }
    for daemon in [
        "crates/serve/src/bin/rck_served.rs",
        "crates/gate/src/bin/rck_gate.rs",
        "crates/shard/src/bin/rck_shardd.rs",
    ] {
        let text = production(&root.join(daemon));
        for shell in ["daemon::on_signal(", "daemon::serve_metrics(", ".finish()"] {
            if !text.contains(shell) {
                found.push(format!("{daemon}: no `{shell}`"));
            }
        }
    }
    let mut bench = Vec::new();
    walk(&root.join("crates/bench/src"), &mut bench);
    for path in bench {
        let file = path.strip_prefix(&root).expect("below the root");
        if file != Path::new("crates/bench/src/gate_load.rs")
            && production(&path).contains("Gate::bind_on")
        {
            found.push(format!("{}: a second in-process gate run", file.display()));
        }
    }
    assert!(bins.len() >= 12, "scan found only {} binaries", bins.len());
    assert!(found.is_empty(), "a binary keeps its own shell: {found:#?}");
}
