//! Command-line arguments: the four the driver passes, plus two helpers.

use crate::manifest::{RUN_SECONDS, WORKLOADS};

pub const USAGE: &str = "\
rck-benchmark - the repository's one repeatable benchmark

USAGE:
  bash benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
  bash benchmark/run.sh --list | --manifest

  --workload NAME  one of the eight workloads (see --list)
  --seed N         every input is generated from it (default 2013; try 4242)
  --seconds S      how long the timed phase measures (default: run_seconds)
  --trace 0|1      0: end-to-end metrics (default); 1: per-layer metrics
  --list           print the workload names
  --manifest       print the text of BENCHMARK.json
";

#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Run(RunArgs),
    List,
    Manifest,
    Help,
}

#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

pub fn parse(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = 2013u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--list" => return Ok(Command::List),
            "--manifest" => return Ok(Command::Manifest),
            "--help" | "-h" => return Ok(Command::Help),
            _ => {}
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|w| w.name == value) {
                    return Err(format!("unknown workload {value} (try --list)"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(RunArgs {
        workload,
        seed,
        seconds,
        trace,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Command, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_invocation_parses() {
        let got = parse_strs(&[
            "--workload",
            "sim_ck34",
            "--seed",
            "7",
            "--seconds",
            "6",
            "--trace",
            "1",
        ]);
        assert_eq!(
            got,
            Ok(Command::Run(RunArgs {
                workload: "sim_ck34".into(),
                seed: 7,
                seconds: 6.0,
                trace: true,
            }))
        );
    }

    #[test]
    fn defaults_are_seed_2013_run_seconds_untraced() {
        let Ok(Command::Run(a)) = parse_strs(&["--workload", "farm_ck34_tm"]) else {
            panic!("must parse");
        };
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (2013, RUN_SECONDS as f64, false)
        );
    }

    #[test]
    fn rejects_what_it_cannot_run() {
        assert!(parse_strs(&[]).is_err());
        assert!(parse_strs(&["--workload", "nope"]).is_err());
        assert!(parse_strs(&["--workload"]).is_err());
        assert!(parse_strs(&["--workload", "sim_ck34", "--trace", "2"]).is_err());
        assert!(parse_strs(&["--workload", "sim_ck34", "--seconds", "0"]).is_err());
        assert!(parse_strs(&["--workload", "sim_ck34", "--seed", "x"]).is_err());
        assert!(parse_strs(&["--bogus", "1"]).is_err());
    }

    #[test]
    fn helper_commands() {
        assert_eq!(parse_strs(&["--list"]), Ok(Command::List));
        assert_eq!(parse_strs(&["--manifest"]), Ok(Command::Manifest));
        assert_eq!(parse_strs(&["--help"]), Ok(Command::Help));
    }
}
