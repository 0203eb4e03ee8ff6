//! The one command-line walk every binary of the workspace parses
//! through: `--flag value` pairs, switches, optional positionals, and
//! typed, range-checked values with uniform error messages.
//!
//! ```
//! use rckalign::cli::Flags;
//!
//! let args: Vec<String> = ["--batch", "8"].map(String::from).to_vec();
//! let mut flags = Flags::new(&args);
//! let mut batch = 16usize;
//! while let Some(name) = flags.next_flag().unwrap() {
//!     match name {
//!         "batch" => batch = flags.value().unwrap().in_range(1.., "batch size").unwrap(),
//!         _ => panic!("{:?}", flags.unknown()),
//!     }
//! }
//! assert_eq!(batch, 8);
//! ```

use std::fmt::Debug;
use std::ops::RangeBounds;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// Why a command line was refused. The empty message is the request
/// for `--help`, which is no refusal.
#[derive(Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl ParseError {
    /// What a parser returns for `--help`.
    pub fn help() -> ParseError {
        ParseError(String::new())
    }

    /// How every binary's `main` ends on a parse error: the refusal
    /// above `usage` on stderr and a failure status — or, for `--help`,
    /// `usage` on stdout and success.
    pub fn exit(self, usage: &str) -> ExitCode {
        if self.0.is_empty() {
            print!("{usage}");
            return ExitCode::SUCCESS;
        }
        eprintln!("error: {}\n\n{usage}", self.0);
        ExitCode::FAILURE
    }
}

/// A cursor over a command line.
pub struct Flags<'a> {
    args: std::slice::Iter<'a, String>,
    flag: &'a str,
    keep_positionals: bool,
    /// The arguments that were not flags, in order; always empty for
    /// [`Flags::new`], which refuses them.
    pub positionals: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Walk `args`, refusing anything that is not a `--flag`.
    pub fn new(args: &'a [String]) -> Flags<'a> {
        Flags {
            args: args.iter(),
            flag: "",
            keep_positionals: false,
            positionals: Vec::new(),
        }
    }

    /// Walk `args`, collecting what is not a `--flag` as a positional.
    pub fn with_positionals(args: &'a [String]) -> Flags<'a> {
        Flags {
            keep_positionals: true,
            ..Flags::new(args)
        }
    }

    /// The next `--name`, without its dashes; `None` at the end of the
    /// line. A switch is done here; a valued flag goes on to
    /// [`Flags::value`]. `--help` and `-h` are [`ParseError::help`] in
    /// every binary.
    pub fn next_flag(&mut self) -> Result<Option<&'a str>, ParseError> {
        for arg in self.args.by_ref() {
            if arg == "--help" || arg == "-h" {
                return Err(ParseError::help());
            }
            match arg.strip_prefix("--") {
                Some(name) => {
                    self.flag = name;
                    return Ok(Some(name));
                }
                None if self.keep_positionals => self.positionals.push(arg),
                None => return Err(ParseError(format!("unexpected argument {arg}"))),
            }
        }
        Ok(None)
    }

    /// The value of the flag [`Flags::next_flag`] just returned.
    pub fn value(&mut self) -> Result<Value<'a>, ParseError> {
        match self.args.next() {
            Some(text) => Ok(Value(text)),
            None => Err(ParseError(format!("--{} needs a value", self.flag))),
        }
    }

    /// The error for a flag the binary does not know.
    pub fn unknown(&self) -> ParseError {
        ParseError(format!("unknown flag --{}", self.flag))
    }
}

/// One flag's value, still text.
#[derive(Debug, Clone, Copy)]
pub struct Value<'a>(pub &'a str);

impl Value<'_> {
    /// The value as typed.
    pub fn string(self) -> String {
        self.0.to_string()
    }

    /// The value as a `T` (a number, a socket address, ...); `what`
    /// names it in the error.
    pub fn parse<T: FromStr>(self, what: &str) -> Result<T, ParseError> {
        self.0
            .parse()
            .map_err(|_| ParseError(format!("bad {what} {}", self.0)))
    }

    /// The value as a `T` inside `range`, which the error spells out.
    pub fn in_range<T: FromStr + PartialOrd>(
        self,
        range: impl RangeBounds<T> + Debug,
        what: &str,
    ) -> Result<T, ParseError> {
        self.parse(what)
            .ok()
            .filter(|n| range.contains(n))
            .ok_or_else(|| ParseError(format!("bad {what} {} (want {range:?})", self.0)))
    }

    /// A duration of at least one millisecond, given in milliseconds.
    pub fn millis(self, what: &str) -> Result<Duration, ParseError> {
        self.in_range(1.., what).map(Duration::from_millis)
    }

    /// A non-empty comma-separated list of `T`s, each inside `range`.
    pub fn list<T: FromStr + PartialOrd>(
        self,
        range: impl RangeBounds<T> + Debug + Clone,
        what: &str,
    ) -> Result<Vec<T>, ParseError> {
        self.0
            .split(',')
            .map(|piece| Value(piece.trim()).in_range(range.clone(), what))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn walks_flags_switches_and_positionals() {
        let line = args("rank TINY8 --top 3 --waves thlx_00");
        let mut flags = Flags::with_positionals(&line);
        assert_eq!(flags.next_flag(), Ok(Some("top")));
        assert_eq!(flags.value().unwrap().parse::<usize>("count"), Ok(3));
        assert_eq!(flags.next_flag(), Ok(Some("waves")));
        assert_eq!(flags.next_flag(), Ok(None));
        assert_eq!(flags.positionals, ["rank", "TINY8", "thlx_00"]);
    }

    #[test]
    fn refuses_positionals_missing_values_and_bad_numbers() {
        let line = args("stray");
        assert!(Flags::new(&line).next_flag().is_err());
        let line = args("--seed");
        let mut flags = Flags::new(&line);
        assert_eq!(flags.next_flag(), Ok(Some("seed")));
        assert_eq!(
            flags.value().map(|v| v.0),
            Err(ParseError("--seed needs a value".into()))
        );
        assert_eq!(flags.unknown(), ParseError("unknown flag --seed".into()));
        assert!(Value("x").parse::<u64>("seed").is_err());
        assert!(Value("0").in_range(1usize.., "batch size").is_err());
        assert_eq!(
            Value("257").in_range(1..=256usize, "thread count"),
            Err(ParseError("bad thread count 257 (want 1..=256)".into()))
        );
        assert_eq!(Value("256").in_range(1..=256usize, "thread count"), Ok(256));
        assert!(Value("0").millis("timeout").is_err());
        assert_eq!(
            Value("250").millis("timeout"),
            Ok(Duration::from_millis(250))
        );
        assert_eq!(
            Value("1, 3,5").list(1..=47usize, "point"),
            Ok(vec![1, 3, 5])
        );
        assert!(Value("0,3").list(1..=47usize, "point").is_err());
        assert!(Value("").list(1usize.., "slave list").is_err());
    }

    #[test]
    fn help_is_one_rule_for_every_parser() {
        for line in ["--help", "-h", "rank TINY8 -h"] {
            let line = args(line);
            let mut flags = Flags::with_positionals(&line);
            assert_eq!(flags.next_flag(), Err(ParseError::help()), "{line:?}");
        }
        let line = args("--seed 3 --help");
        let mut flags = Flags::new(&line);
        assert_eq!(flags.next_flag(), Ok(Some("seed")));
        assert_eq!(flags.value().map(|v| v.0), Ok("3"));
        assert_eq!(flags.next_flag(), Err(ParseError::help()));
    }
}
