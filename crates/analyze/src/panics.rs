//! Pass 3: panic paths in the service hot-path files.
//!
//! The dispatcher, its master / gate-pool / shard-frontend policies and
//! the worker/transport/proto files run inside service threads, and every
//! frame they read decodes through the job/chain codec and the byte
//! reader under it; a panic there kills a connection (or poisons a lock)
//! instead of surfacing a `ServeError`. The store log's scan decodes
//! untrusted bytes from disk, where a panic would turn a recoverable
//! torn tail into a failed open. This pass denies `unwrap()` /
//! `expect()` / `panic!` in their non-test code. Genuinely infallible
//! uses carry a `// rck-lint: allow(panic)` marker with a one-line
//! justification on the same or preceding line.

use crate::lexer::{self, TokKind};
use crate::{Finding, Pass, Workspace};

/// Files where panicking is a contract violation.
pub const DENY_FILES: &[&str] = &[
    "crates/serve/src/dispatch.rs",
    "crates/serve/src/master.rs",
    "crates/serve/src/worker.rs",
    "crates/serve/src/transport.rs",
    "crates/serve/src/proto.rs",
    "crates/gate/src/pool.rs",
    "crates/gate/src/session.rs",
    "crates/shard/src/frontend.rs",
    "crates/shard/src/master.rs",
    // The codec every frame decodes through: job, outcome and chain
    // records, and the byte reader under them.
    "crates/core/src/jobs.rs",
    "crates/rcce/src/codec.rs",
    // The store log's decoder: every byte it reads comes off a disk that
    // may hold a torn or flipped record.
    "crates/store/src/log.rs",
    // The PDB reader: every line of a structure file a user hands
    // `rckalign allvsall` is untrusted text.
    "crates/pdb/src/parser.rs",
];

/// Marker name accepted by the escape hatch.
pub const ALLOW: &str = "panic";

/// Run the panic-path pass over the deny list.
pub fn check(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();
    for file in DENY_FILES {
        let Some(src) = ws.read(file) else {
            findings.push(Finding::at(
                Pass::Panics,
                *file,
                0,
                "file on the panic deny-list is missing".to_string(),
            ));
            continue;
        };
        findings.extend(check_source(&src, file));
    }
    findings.sort();
    findings
}

/// Core of the pass on one source file — directly testable.
pub fn check_source(src: &str, file: &str) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let mut findings = Vec::new();
    let toks = &lexed.toks;
    for (i, t) in toks.iter().enumerate() {
        if t.in_test || t.kind != TokKind::Ident {
            continue;
        }
        let next = toks.get(i + 1).map(|n| n.text.as_str());
        let call = match t.text.as_str() {
            // `.unwrap()` / `.expect(..)` — require the method-call dot
            // so local fns named e.g. `expect` don't fire, and exclude
            // `unwrap_or_else` by exact-identifier matching.
            "unwrap" | "expect"
                if next == Some("(")
                    && i > 0
                    && toks[i - 1].kind == TokKind::Punct
                    && toks[i - 1].text == "." =>
            {
                format!(".{}()", t.text)
            }
            "panic" if next == Some("!") => "panic!".to_string(),
            "unreachable" if next == Some("!") => "unreachable!".to_string(),
            "todo" if next == Some("!") => "todo!".to_string(),
            "unimplemented" if next == Some("!") => "unimplemented!".to_string(),
            _ => continue,
        };
        if lexed.is_allowed(ALLOW, t.line) {
            continue;
        }
        findings.push(Finding::at(
            Pass::Panics,
            file,
            t.line,
            format!(
                "`{call}` in non-test service code — return a ServeError or mark \
                 `// rck-lint: allow(panic)` with a justification"
            ),
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_calls_fire() {
        let src = "fn f() {\n  a.unwrap();\n  b.expect(\"x\");\n  panic!(\"boom\");\n}";
        let got = check_source(src, "x.rs");
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].line, 2);
        assert!(got[2].message.contains("panic!"));
    }

    #[test]
    fn test_code_and_allows_do_not_fire() {
        let src = "fn f() {\n  // rck-lint: allow(panic) — poisoned lock is unreachable\n  a.unwrap();\n  b.unwrap_or_else(|e| e.into_inner());\n}\n#[cfg(test)]\nmod tests {\n  fn t() { c.unwrap(); panic!(); }\n}";
        assert_eq!(check_source(src, "x.rs"), vec![]);
    }

    #[test]
    fn strings_and_comments_do_not_fire() {
        let src = "fn f() { let s = \"call .unwrap() and panic!\"; } // .expect(";
        assert_eq!(check_source(src, "x.rs"), vec![]);
    }
}
