//! Pass 1: the metrics contract.
//!
//! Three parties must agree on the `rck_*` namespace: registration
//! sites (`Registry::{counter,gauge,histogram}[_with]` calls), string
//! literals that *use* a metric name (tests asserting on scrape output,
//! report generators), and the DESIGN.md §9 catalogue. This pass cross-
//! checks all three:
//!
//! * every name used anywhere must be registered (derived histogram
//!   series `_bucket` / `_count` / `_sum` count as their histogram);
//! * every production registration happens exactly once, follows the
//!   naming convention (counters end `_total`, histograms `_seconds`,
//!   gauges end in neither), and passes its help as a string literal;
//! * the §9 catalogue is the table [`catalogue`] renders from those
//!   registrations, byte for byte, between [`CATALOGUE_BEGIN`] and
//!   [`GENERATED_END`]: a missing, extra or changed row is a finding, and
//!   the report ends with the block to paste.
//!
//! Test-code registrations (`rck_test_*` in obs unit tests) are *known*
//! for the usage check but exempt from the catalogue and naming
//! contract — they never reach a scrape endpoint.

use crate::lexer::{self, TokKind};
use crate::{Finding, Pass, Workspace};
use std::collections::BTreeMap;

/// The line that opens the generated catalogue block in DESIGN.md §9.
pub const CATALOGUE_BEGIN: &str = "<!-- generated: rck_lint metrics catalogue -->";

/// The line that closes a generated block in DESIGN.md.
pub const GENERATED_END: &str = "<!-- /generated -->";

/// Metric family kinds, as implied by the registration method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// `counter` / `counter_with`.
    Counter,
    /// `gauge` / `gauge_with`.
    Gauge,
    /// `histogram` / `histogram_with`.
    Histogram,
}

impl MetricKind {
    fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One registration site found in the source.
#[derive(Debug, Clone)]
pub struct RegisteredMetric {
    /// The metric family name (`rck_...`).
    pub name: String,
    /// Counter / gauge / histogram.
    pub kind: MetricKind,
    /// The help text, when the argument after the name is a literal.
    pub help: Option<String>,
    /// The first label key of a `*_with` call (`worker` in
    /// `&[("worker", ..)]`).
    pub label: Option<String>,
    /// Workspace-relative file of the registration.
    pub file: String,
    /// 1-based line of the name literal.
    pub line: u32,
    /// True when the registration sits in test code.
    pub in_test: bool,
}

impl RegisteredMetric {
    /// The family's catalogue row.
    fn row(&self) -> String {
        let label = self
            .label
            .as_deref()
            .map_or(String::new(), |l| format!(" `{l}`"));
        format!(
            "| `{}` | {} |{label} | {} |",
            self.name,
            self.kind.as_str(),
            self.help.as_deref().unwrap_or("").replace('|', "\\|")
        )
    }
}

/// Run the metrics-contract pass. Returns findings, the inventory of
/// production registrations (the report prints it), and the catalogue
/// block to paste when DESIGN.md's differs from it.
pub fn check(ws: &Workspace) -> (Vec<Finding>, Vec<RegisteredMetric>, Option<String>) {
    let mut findings = Vec::new();
    let mut regs: Vec<RegisteredMetric> = Vec::new();
    let mut usages: Vec<(String, String, u32)> = Vec::new(); // (name, file, line)

    for file in &ws.files {
        let Some(src) = ws.read(file) else { continue };
        let lexed = lexer::lex(&src);
        let file_is_test = is_test_path(file);
        collect_registrations(&lexed.toks, file, file_is_test, &mut regs);
        collect_usages(&lexed.toks, file, &mut usages);
    }
    regs.sort_by(|a, b| (&a.name, &a.file, a.line).cmp(&(&b.name, &b.file, b.line)));
    usages.sort();

    // --- registered exactly once (production registrations only) ---
    let mut by_name: BTreeMap<&str, Vec<&RegisteredMetric>> = BTreeMap::new();
    for r in regs.iter().filter(|r| !r.in_test) {
        by_name.entry(&r.name).or_default().push(r);
    }
    for (name, sites) in &by_name {
        if sites.len() > 1 {
            let locations: Vec<String> = sites
                .iter()
                .map(|r| format!("{}:{}", r.file, r.line))
                .collect();
            findings.push(Finding::at(
                Pass::Metrics,
                sites[0].file.clone(),
                sites[0].line,
                format!(
                    "metric `{name}` registered {} times ({}); each family must be registered exactly once",
                    sites.len(),
                    locations.join(", ")
                ),
            ));
        }
    }

    // --- naming convention and a literal help ---
    for r in regs.iter().filter(|r| !r.in_test) {
        let ok = match r.kind {
            MetricKind::Counter => r.name.ends_with("_total"),
            MetricKind::Histogram => r.name.ends_with("_seconds"),
            MetricKind::Gauge => !r.name.ends_with("_total") && !r.name.ends_with("_seconds"),
        };
        if !ok {
            let rule = match r.kind {
                MetricKind::Counter => "counters must end `_total`",
                MetricKind::Histogram => "histograms must end `_seconds`",
                MetricKind::Gauge => "gauges must not carry a `_total`/`_seconds` suffix",
            };
            findings.push(Finding::at(
                Pass::Metrics,
                r.file.clone(),
                r.line,
                format!(
                    "{} `{}` breaks the naming convention: {rule}",
                    r.kind.as_str(),
                    r.name
                ),
            ));
        }
        if r.help.is_none() {
            findings.push(Finding::at(
                Pass::Metrics,
                r.file.clone(),
                r.line,
                format!(
                    "metric `{}` takes its help from an expression, not a string literal; its \u{a7}9 row would be blank",
                    r.name
                ),
            ));
        }
    }

    // --- usage: every name that appears as a literal must resolve ---
    let known: Vec<&str> = regs.iter().map(|r| r.name.as_str()).collect();
    for (name, file, line) in &usages {
        if !resolves(&known, &regs, name) {
            findings.push(Finding::at(
                Pass::Metrics,
                file.clone(),
                *line,
                format!("string literal uses metric name `{name}` but no registration defines it"),
            ));
        }
    }

    let inventory: Vec<RegisteredMetric> = regs.into_iter().filter(|r| !r.in_test).collect();

    // --- the DESIGN.md §9 catalogue is the rendered block ---
    let design = ws.read("DESIGN.md").unwrap_or_default();
    let catalogue_findings = check_catalogue(&design, &inventory);
    let paste = (!catalogue_findings.is_empty()).then(|| catalogue(&inventory));
    findings.extend(catalogue_findings);
    (findings, inventory, paste)
}

/// The §9 catalogue block for `inventory`, markers included: one row per
/// family, sorted by name.
pub fn catalogue(inventory: &[RegisteredMetric]) -> String {
    let mut out =
        format!("{CATALOGUE_BEGIN}\n| family | kind | labels | help |\n|---|---|---|---|\n");
    for r in families(inventory).values() {
        out.push_str(&r.row());
        out.push('\n');
    }
    out.push_str(GENERATED_END);
    out.push('\n');
    out
}

/// Compare DESIGN.md's catalogue block with the one `inventory` renders:
/// one finding per missing, extra or changed row, or one for the block
/// when only its header or row order differs.
pub fn check_catalogue(design: &str, inventory: &[RegisteredMetric]) -> Vec<Finding> {
    let Some(block) = generated_block(design, CATALOGUE_BEGIN) else {
        return vec![Finding::at(
            Pass::Metrics,
            "DESIGN.md",
            0,
            format!("DESIGN.md has no `{CATALOGUE_BEGIN}` block \u{2014} the metrics catalogue is missing"),
        )];
    };
    let want = families(inventory);
    let have: BTreeMap<&str, &str> = block
        .lines()
        .filter_map(|line| Some((line.strip_prefix("| `")?.split('`').next()?, line)))
        .collect();

    let mut findings = Vec::new();
    for (name, r) in &want {
        let row = r.row();
        let message = match have.get(name) {
            None => {
                format!("metric `{name}` is registered but not documented in DESIGN.md \u{a7}9")
            }
            Some(doc) if *doc != row => {
                format!("DESIGN.md \u{a7}9 row `{doc}` differs from the registration's `{row}`")
            }
            Some(_) => continue,
        };
        findings.push(Finding::at(Pass::Metrics, r.file.clone(), r.line, message));
    }
    for name in have.keys().filter(|n| !want.contains_key(*n)) {
        findings.push(Finding::at(
            Pass::Metrics,
            "DESIGN.md",
            0,
            format!("DESIGN.md \u{a7}9 documents `{name}` but nothing registers it (orphaned doc)"),
        ));
    }
    if findings.is_empty()
        && format!("{CATALOGUE_BEGIN}\n{block}{GENERATED_END}\n") != catalogue(inventory)
    {
        findings.push(Finding::at(
            Pass::Metrics,
            "DESIGN.md",
            0,
            "DESIGN.md \u{a7}9's catalogue has the right rows but not the rendered header or order",
        ));
    }
    findings
}

/// Family name → its first registration site.
fn families(inventory: &[RegisteredMetric]) -> BTreeMap<&str, &RegisteredMetric> {
    let mut families = BTreeMap::new();
    for r in inventory {
        families.entry(r.name.as_str()).or_insert(r);
    }
    families
}

/// The lines between the line `begin` and the next [`GENERATED_END`].
fn generated_block<'a>(design: &'a str, begin: &str) -> Option<&'a str> {
    let (_, rest) = design.split_once(&format!("\n{begin}\n"))?;
    Some(&rest[..rest.find(GENERATED_END)?])
}

/// Integration-test files live outside `#[cfg(test)]`, but everything
/// in a `tests/` directory is test code for contract purposes.
fn is_test_path(file: &str) -> bool {
    file.starts_with("tests/") || file.contains("/tests/")
}

fn collect_registrations(
    toks: &[lexer::Tok],
    file: &str,
    file_is_test: bool,
    out: &mut Vec<RegisteredMetric>,
) {
    for (at, w) in toks.windows(4).enumerate() {
        let [dot, method, paren, name] = w else {
            continue;
        };
        if dot.text != "." || method.kind != TokKind::Ident || paren.text != "(" {
            continue;
        }
        let kind = match method.text.as_str() {
            "counter" | "counter_with" => MetricKind::Counter,
            "gauge" | "gauge_with" => MetricKind::Gauge,
            "histogram" | "histogram_with" => MetricKind::Histogram,
            _ => continue,
        };
        if name.kind != TokKind::Str || !name.text.starts_with("rck_") {
            continue;
        }
        // `name, help, ..`: for `*_with`, the label key is the first
        // string literal after the help, inside the call's parentheses.
        let rest = &toks[at + 4..];
        let help = match rest {
            [comma, help, ..] if comma.text == "," && help.kind == TokKind::Str => {
                Some(help.text.clone())
            }
            _ => None,
        };
        let mut depth = 1;
        let in_call = |t: &&lexer::Tok| {
            match (t.kind, t.text.as_str()) {
                (TokKind::Punct, "(" | "[") => depth += 1,
                (TokKind::Punct, ")" | "]") => depth -= 1,
                _ => {}
            }
            depth > 0
        };
        let label = if method.text.ends_with("_with") {
            let mut args = rest.iter().skip(2).take_while(in_call);
            args.find(|t| t.kind == TokKind::Str)
                .map(|t| t.text.clone())
        } else {
            None
        };
        out.push(RegisteredMetric {
            name: name.text.clone(),
            kind,
            help,
            label,
            file: file.to_string(),
            line: name.line,
            in_test: file_is_test || name.in_test,
        });
    }
}

/// A string literal counts as a metric usage when it *is* a metric
/// name: `rck_` followed by `[a-z0-9_]+`, and the remainder is either
/// empty or a `{label=...}` selector. Log prefixes like
/// `"rck_served: ..."` don't qualify.
fn collect_usages(toks: &[lexer::Tok], file: &str, out: &mut Vec<(String, String, u32)>) {
    for t in toks {
        if t.kind != TokKind::Str || !t.text.starts_with("rck_") {
            continue;
        }
        let name_len = t
            .text
            .bytes()
            .take_while(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || *b == b'_')
            .count();
        let rest = &t.text[name_len..];
        if rest.is_empty() || rest.starts_with('{') {
            out.push((t.text[..name_len].to_string(), file.to_string(), t.line));
        }
    }
}

/// A used name resolves if it is registered (anywhere, test included)
/// or is a derived series of a registered histogram.
fn resolves(known: &[&str], regs: &[RegisteredMetric], name: &str) -> bool {
    if known.contains(&name) {
        return true;
    }
    for suffix in ["_bucket", "_count", "_sum"] {
        if let Some(base) = name.strip_suffix(suffix) {
            if regs
                .iter()
                .any(|r| r.kind == MetricKind::Histogram && r.name == base)
            {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_scan_reads_help_and_first_label() {
        let toks = lexer::lex(
            "r.counter_with(\"rck_a_total\", \"per lane\", &[(\"lane\", &l.to_string()), (\"x\", \"y\")]);\n\
             r.gauge(\"rck_b\", &help); let s = \"not a label\";\n\
             r.histogram_with(\"rck_c_seconds\", \"rtt\", &B, &labels); f(\"nor this\");",
        );
        let mut regs = Vec::new();
        collect_registrations(&toks.toks, "f.rs", false, &mut regs);
        let rows: Vec<String> = regs.iter().map(RegisteredMetric::row).collect();
        assert_eq!(
            rows,
            [
                "| `rck_a_total` | counter | `lane` | per lane |",
                "| `rck_b` | gauge | |  |",
                "| `rck_c_seconds` | histogram | | rtt |",
            ]
        );
        assert_eq!(regs[1].help, None);
    }

    #[test]
    fn usage_boundary_rules() {
        let toks = lexer::lex(
            "let a = \"rck_x_total\"; let b = \"rck_served: on {}\"; let c = \"rck_y_total{worker=\\\"0\\\"} 4\";",
        );
        let mut out = Vec::new();
        collect_usages(&toks.toks, "f.rs", &mut out);
        let names: Vec<&str> = out.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, vec!["rck_x_total", "rck_y_total"]);
    }
}
