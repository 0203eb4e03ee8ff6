//! `rckalign` — command-line front end to the reproduction.
//!
//! ```text
//! rckalign datasets
//! rckalign align    <dataset> <chain_a> <chain_b> [--seed S]
//! rckalign rank     <dataset> <chain> [--top K] [--slaves N] [--seed S]
//! rckalign allvsall <dataset> [--slaves N] [--method M] [--ordering O]
//!                   [--waves] [--seed S] [--store PATH]
//! rckalign experiment <1|2|3|5> [--points 1,11,23,47] [--seed S]
//! ```

use rck_noc::NocConfig;
use rck_pdb::datasets;
use rck_pdb::model::CaChain;
use rck_tmalign::{display, tm_align, MethodKind};
use rckalign::cli::{Flags, ParseError};
use rckalign::experiments;
use rckalign::report::{fmt_secs, fmt_speedup, TextTable};
use rckalign::{
    run_all_vs_all, run_one_vs_all, Combiner, Consensus, DistributedConfig, JobOrdering,
    OneVsAllOptions, PairCache, RckAlignOptions, Scheduling,
};
use std::process::ExitCode;

const USAGE: &str = "\
rckalign — all-to-all protein structure comparison on a simulated SCC

USAGE:
  rckalign datasets
  rckalign align    <dataset> <chain_a> <chain_b> [--seed S]
  rckalign rank     <dataset> <chain> [--top K] [--slaves N] [--seed S]
  rckalign allvsall <dataset> [--slaves N] [--method tm-align|kabsch-rmsd|contact-map]
                    [--ordering fifo|lpt|shuffle] [--waves] [--cores] [--seed S]
                    [--store PATH]

--store PATH opens (or creates) a persistent content-addressed result
store: pairs already present are looked up instead of recomputed, new
pairs are appended, so growing a dataset by one chain costs one chain's
worth of comparisons.
  rckalign experiment <1|2|3|5> [--points 1,11,23,47] [--seed S]
  rckalign export   <dataset> <dir> [--seed S]

Datasets: CK34, RS119, TINY8 (synthetic stand-ins; see DESIGN.md), or a
path to a directory of .pdb/.ent files (first chain of the first model is
used, as in the paper).
";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    Datasets,
    Align {
        dataset: String,
        a: String,
        b: String,
        seed: u64,
    },
    Rank {
        dataset: String,
        chain: String,
        top: usize,
        slaves: usize,
        seed: u64,
    },
    AllVsAll {
        dataset: String,
        slaves: usize,
        method: MethodKind,
        ordering: JobOrdering,
        waves: bool,
        cores: bool,
        seed: u64,
        store: Option<String>,
    },
    Experiment {
        which: u8,
        points: Vec<usize>,
        seed: u64,
    },
    Export {
        dataset: String,
        dir: String,
        seed: u64,
    },
}

fn parse_args(args: &[String]) -> Result<Command, ParseError> {
    let (mut seed, mut top, mut slaves) = (2013u64, 10usize, 47usize);
    let (mut method, mut ordering, mut store) = (MethodKind::TmAlign, "fifo", None);
    let (mut waves, mut cores) = (false, false);
    let mut points = vec![1, 11, 23, 35, 47];
    let mut flags = Flags::with_positionals(args);
    while let Some(name) = flags.next_flag()? {
        match name {
            "waves" => waves = true,
            "cores" => cores = true,
            "seed" => seed = flags.value()?.parse("seed")?,
            "top" => top = flags.value()?.parse("--top")?,
            "slaves" => slaves = flags.value()?.in_range(1..=47, "slave count")?,
            "method" => {
                method = match flags.value()?.0 {
                    "tm-align" => MethodKind::TmAlign,
                    "kabsch-rmsd" => MethodKind::KabschRmsd,
                    "contact-map" => MethodKind::ContactMap,
                    other => return Err(ParseError(format!("unknown method {other}"))),
                };
            }
            "ordering" => ordering = flags.value()?.0,
            "points" => points = flags.value()?.list(1..=47, "point")?,
            "store" => store = Some(flags.value()?.string()),
            _ => return Err(flags.unknown()),
        }
    }
    // Resolved after the walk so `--ordering shuffle --seed N` works in
    // either flag order.
    let ordering = match ordering {
        "fifo" => JobOrdering::Fifo,
        "lpt" => JobOrdering::LongestFirst,
        "shuffle" => JobOrdering::Shuffled(seed),
        other => return Err(ParseError(format!("unknown ordering {other}"))),
    };

    let pos = flags.positionals;
    let operands = |n: usize, usage: &str| {
        if pos.len() == n + 1 {
            Ok(())
        } else {
            Err(ParseError(format!("{} needs {usage}", pos[0])))
        }
    };
    match pos.first().copied() {
        Some("datasets") => Ok(Command::Datasets),
        Some("align") => {
            operands(3, "<dataset> <chain_a> <chain_b>")?;
            Ok(Command::Align {
                dataset: pos[1].into(),
                a: pos[2].into(),
                b: pos[3].into(),
                seed,
            })
        }
        Some("rank") => {
            operands(2, "<dataset> <chain>")?;
            Ok(Command::Rank {
                dataset: pos[1].into(),
                chain: pos[2].into(),
                top,
                slaves,
                seed,
            })
        }
        Some("allvsall") => {
            operands(1, "<dataset>")?;
            Ok(Command::AllVsAll {
                dataset: pos[1].into(),
                slaves,
                method,
                ordering,
                waves,
                cores,
                seed,
                store,
            })
        }
        Some("experiment") => {
            operands(1, "<1|2|3|5>")?;
            let which: u8 = pos[1]
                .parse()
                .ok()
                .filter(|w| [1u8, 2, 3, 5].contains(w))
                .ok_or_else(|| ParseError(format!("unknown experiment {}", pos[1])))?;
            Ok(Command::Experiment {
                which,
                points,
                seed,
            })
        }
        Some("export") => {
            operands(2, "<dataset> <dir>")?;
            Ok(Command::Export {
                dataset: pos[1].into(),
                dir: pos[2].into(),
                seed,
            })
        }
        Some(other) => Err(ParseError(format!("unknown command {other}"))),
        None => Err(ParseError("no command given".into())),
    }
}

fn load_dataset(name: &str, seed: u64) -> Result<Vec<CaChain>, ParseError> {
    if let Some(profile) = datasets::by_name(name) {
        return Ok(profile.generate(seed));
    }
    // Not a built-in name: treat it as a directory of PDB files.
    if std::path::Path::new(name).is_dir() {
        return rck_pdb::load_pdb_dir(name).map_err(|e| ParseError(e.to_string()));
    }
    Err(ParseError(format!(
        "unknown dataset {name} (try CK34, RS119, TINY8 or a directory of .pdb files)"
    )))
}

fn find_chain<'a>(chains: &'a [CaChain], name: &str) -> Result<&'a CaChain, ParseError> {
    chains
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| ParseError(format!("no chain named {name} (see `rckalign datasets`)")))
}

fn run(cmd: Command) -> Result<(), ParseError> {
    match cmd {
        Command::Datasets => {
            for name in ["CK34", "RS119", "TINY8"] {
                let profile = datasets::by_name(name).expect("built-in dataset");
                let chains = profile.generate(2013);
                println!("{name}: {} chains", chains.len());
                for c in &chains {
                    println!("  {:10} {:4} residues", c.name, c.len());
                }
            }
            Ok(())
        }
        Command::Align {
            dataset,
            a,
            b,
            seed,
        } => {
            let chains = load_dataset(&dataset, seed)?;
            let ca = find_chain(&chains, &a)?;
            let cb = find_chain(&chains, &b)?;
            let result = tm_align(ca, cb);
            print!("{}", display::render(&result, ca, cb));
            Ok(())
        }
        Command::Rank {
            dataset,
            chain,
            top,
            slaves,
            seed,
        } => {
            // The paper's Algorithm 1: one query vs the whole database.
            let chains = load_dataset(&dataset, seed)?;
            let query = chains
                .iter()
                .position(|c| c.name == chain)
                .ok_or_else(|| ParseError(format!("no chain named {chain}")))?;
            let names: Vec<String> = chains.iter().map(|c| c.name.clone()).collect();
            let cache = PairCache::new(chains);
            let methods = vec![MethodKind::TmAlign];
            let run = run_one_vs_all(
                &cache,
                query,
                &OneVsAllOptions {
                    methods: methods.clone(),
                    n_slaves: slaves,
                    noc: NocConfig::scc(),
                },
            );
            println!(
                "query {chain}: {} comparisons in {:.1} simulated s on {slaves} slaves",
                run.outcomes.len(),
                run.makespan_secs
            );
            let consensus = Consensus::from_outcomes(cache.len(), &run.outcomes, &methods);
            let matrix = consensus
                .matrix_for(MethodKind::TmAlign)
                .expect("tm-align ran");
            for (idx, _) in consensus
                .ranked_neighbours(query, Combiner::MeanScore)
                .into_iter()
                .take(top)
            {
                println!("  {:10} TM {:.3}", names[idx], matrix.get(query, idx));
            }
            Ok(())
        }
        Command::AllVsAll {
            dataset,
            slaves,
            method,
            ordering,
            waves,
            cores,
            seed,
            store,
        } => {
            let chains = load_dataset(&dataset, seed)?;
            let binding = match &store {
                Some(path) => {
                    let s = rck_store::Store::open(path, rck_store::StoreConfig::default())
                        .map_err(|e| ParseError(format!("cannot open store {path}: {e}")))?;
                    Some(std::sync::Arc::new(rckalign::StoreBinding::new(s, &chains)))
                }
                None => None,
            };
            let mut cache = PairCache::new(chains);
            if let Some(binding) = &binding {
                cache = cache.with_store(std::sync::Arc::clone(binding));
            }
            let opts = RckAlignOptions {
                n_slaves: slaves,
                method,
                ordering,
                scheduling: if waves {
                    Scheduling::Waves
                } else {
                    Scheduling::Farm
                },
                noc: NocConfig::scc(),
            };
            let run = run_all_vs_all(&cache, &opts);
            println!(
                "{dataset}: {} pairwise {} comparisons on {slaves} slaves",
                run.outcomes.len(),
                method.name()
            );
            println!("simulated makespan: {:.2} s", run.makespan_secs);
            println!(
                "messages: {}, payload: {:.1} MB, mean slave utilization {:.0}%",
                run.report.total_messages(),
                run.report.total_bytes() as f64 / 1e6,
                run.report.mean_utilization(1..=slaves) * 100.0
            );
            if let Some(binding) = &binding {
                binding.with_store(|s| {
                    if let Err(e) = s.flush() {
                        eprintln!("warning: store flush failed: {e}");
                    }
                    let c = s.counters();
                    println!(
                        "store: {} records ({} hits, {} misses, {} appended this run)",
                        s.len(),
                        c.hits.get(),
                        c.misses.get(),
                        c.appends.get()
                    );
                });
            }
            if cores {
                println!();
                print!("{}", rckalign::report::per_core_table(&run.report).render());
            }
            Ok(())
        }
        Command::Experiment {
            which,
            points,
            seed,
        } => {
            run_experiment(which, &points, seed);
            Ok(())
        }
        Command::Export { dataset, dir, seed } => {
            let profile = datasets::by_name(&dataset)
                .ok_or_else(|| ParseError(format!("unknown dataset {dataset}")))?;
            let n = rck_pdb::write_dataset_dir(&dir, &profile, seed)
                .map_err(|e| ParseError(e.to_string()))?;
            println!("wrote {n} PDB files + sequences.fasta to {dir}");
            Ok(())
        }
    }
}

fn run_experiment(which: u8, points: &[usize], seed: u64) {
    let noc = NocConfig::scc();
    let ck = PairCache::new(datasets::ck34_profile().generate(seed));
    match which {
        1 => {
            let rows = experiments::experiment1(&ck, points, &noc, &DistributedConfig::default());
            let mut t = TextTable::new(&["Slave Cores", "rckAlign (s)", "TM-align dist. (s)"]);
            for r in rows {
                t.row(&[
                    r.slaves.to_string(),
                    fmt_secs(r.rckalign_secs),
                    fmt_secs(r.tmalign_dist_secs),
                ]);
            }
            print!("{}", t.render());
        }
        2 => {
            let rs = PairCache::new(datasets::rs119_profile().generate(seed));
            let rows = experiments::experiment2(&ck, &rs, points, &noc);
            let mut t = TextTable::new(&[
                "Slave Cores",
                "CK34 speedup",
                "CK34 (s)",
                "RS119 speedup",
                "RS119 (s)",
            ]);
            for r in rows {
                t.row(&[
                    r.slaves.to_string(),
                    fmt_speedup(r.ck34_speedup),
                    fmt_secs(r.ck34_secs),
                    fmt_speedup(r.rs119_speedup),
                    fmt_secs(r.rs119_secs),
                ]);
            }
            print!("{}", t.render());
        }
        3 => {
            let rs = PairCache::new(datasets::rs119_profile().generate(seed));
            let rows = experiments::table3(&ck, &rs, noc.cycles_per_op);
            let mut t = TextTable::new(&["Processor", "CK34 (s)", "RS119 (s)"]);
            for r in rows {
                t.row(&[r.processor, fmt_secs(r.ck34_secs), fmt_secs(r.rs119_secs)]);
            }
            print!("{}", t.render());
        }
        5 => {
            let rs = PairCache::new(datasets::rs119_profile().generate(seed));
            let rows = experiments::table5(&ck, &rs, &noc);
            let mut t =
                TextTable::new(&["Dataset", "TM-align AMD", "TM-align P54C", "rckAlign SCC"]);
            for r in &rows {
                t.row(&[
                    r.dataset.clone(),
                    fmt_secs(r.tmalign_amd_secs),
                    fmt_secs(r.tmalign_p54c_secs),
                    fmt_secs(r.rckalign_scc_secs),
                ]);
            }
            print!("{}", t.render());
        }
        _ => unreachable!("validated in the parser"),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(cmd) => match run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(ParseError(msg)) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(refusal) => refusal.exit(USAGE),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Command, ParseError> {
        let args: Vec<String> = s.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn parses_datasets() {
        assert_eq!(parse("datasets").unwrap(), Command::Datasets);
    }

    #[test]
    fn parses_align() {
        let c = parse("align CK34 glob_00 glob_01 --seed 7").unwrap();
        assert_eq!(
            c,
            Command::Align {
                dataset: "CK34".into(),
                a: "glob_00".into(),
                b: "glob_01".into(),
                seed: 7
            }
        );
    }

    #[test]
    fn parses_allvsall_with_flags() {
        let c =
            parse("allvsall TINY8 --slaves 5 --method contact-map --ordering lpt --waves").unwrap();
        match c {
            Command::AllVsAll {
                dataset,
                slaves,
                method,
                ordering,
                waves,
                ..
            } => {
                assert_eq!(dataset, "TINY8");
                assert_eq!(slaves, 5);
                assert_eq!(method, MethodKind::ContactMap);
                assert_eq!(ordering, JobOrdering::LongestFirst);
                assert!(waves);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_allvsall_store_flag() {
        match parse("allvsall TINY8 --store /tmp/results.rckstore").unwrap() {
            Command::AllVsAll { store, .. } => {
                assert_eq!(store.as_deref(), Some("/tmp/results.rckstore"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        match parse("allvsall TINY8").unwrap() {
            Command::AllVsAll { store, .. } => assert_eq!(store, None),
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(parse("allvsall TINY8 --store").is_err());
    }

    #[test]
    fn parses_experiment_points() {
        let c = parse("experiment 2 --points 1,3,5").unwrap();
        assert_eq!(
            c,
            Command::Experiment {
                which: 2,
                points: vec![1, 3, 5],
                seed: 2013
            }
        );
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse("").is_err());
        assert!(parse("frobnicate").is_err());
        assert!(parse("align CK34 only_one").is_err());
        assert!(parse("allvsall CK34 --method nope").is_err());
        assert!(parse("allvsall CK34 --slaves 0").is_err());
        assert!(parse("allvsall CK34 --slaves 99").is_err());
        assert!(parse("experiment 4").is_err());
        assert!(parse("experiment 2 --points 0,3").is_err());
        assert!(parse("allvsall CK34 --seed").is_err());
        assert!(parse("rank CK34 x --top nope").is_err());
    }

    #[test]
    fn default_flags() {
        match parse("rank TINY8 thlx_00").unwrap() {
            Command::Rank {
                top, slaves, seed, ..
            } => {
                assert_eq!(top, 10);
                assert_eq!(slaves, 47);
                assert_eq!(seed, 2013);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_export() {
        assert_eq!(
            parse("export CK34 /tmp/out --seed 3").unwrap(),
            Command::Export {
                dataset: "CK34".into(),
                dir: "/tmp/out".into(),
                seed: 3
            }
        );
        assert!(parse("export CK34").is_err());
    }

    #[test]
    fn export_then_load_directory_roundtrip() {
        let dir = std::env::temp_dir().join(format!("rckalign-cli-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        run(Command::Export {
            dataset: "TINY8".into(),
            dir: dir.to_string_lossy().into_owned(),
            seed: 5,
        })
        .unwrap();
        let loaded = load_dataset(&dir.to_string_lossy(), 5).unwrap();
        assert_eq!(loaded.len(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dataset_loading_and_chain_lookup() {
        let chains = load_dataset("TINY8", 1).unwrap();
        assert_eq!(chains.len(), 8);
        assert!(find_chain(&chains, &chains[0].name).is_ok());
        assert!(find_chain(&chains, "nope").is_err());
        assert!(load_dataset("nope", 1).is_err());
    }
}
