//! Golden-diff harness for the lint's self-test corpus.
//!
//! The linter is itself a program that can regress, so it is tested the way
//! compilers test diagnostics: fixture files under
//! `crates/xtask/tests/corpus/` carry inline expectation comments, and the
//! harness diffs the scanner's actual findings against them — in both
//! directions. A finding with no expectation fails the build exactly like
//! an expectation with no finding.
//!
//! Fixture format:
//!
//! ```text
//! // lint-rules: determinism seed-discipline
//! fn f(seed: u64, i: u64) -> u64 {
//!     seed + i //~ ERROR seed-discipline
//! }
//! ```
//!
//! * the first line names the rule families to run (see
//!   [`rules_from_header`]);
//! * `//~ ERROR <rule>` expects `<rule>` to fire on the comment's own line;
//! * `//~^ ERROR <rule>` expects it one line up (each extra `^` goes one
//!   line further), for sites that already carry a trailing comment.
//!
//! Expectations are compared as multisets of `(line, rule)` pairs, so two
//! findings on one line need two expectation comments.

use std::path::Path;

use crate::scan::{scan_file, AllowList, RuleSet, ScanConfig};

/// One expected finding: the 1-based line and the rule name.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Expectation {
    /// Line the rule must fire on.
    pub line: usize,
    /// Rule name as printed by [`crate::ViolationKind::name`].
    pub rule: String,
}

/// Parses `//~ ERROR <rule>` / `//~^^ ERROR <rule>` expectation comments.
pub fn parse_expectations(src: &str) -> Vec<Expectation> {
    let mut out = Vec::new();
    for (idx, line) in src.lines().enumerate() {
        let Some(pos) = line.find("//~") else {
            continue;
        };
        let rest = &line[pos + 3..];
        let carets = rest.bytes().take_while(|&b| b == b'^').count();
        let rest = rest[carets..].trim_start();
        let Some(rule) = rest.strip_prefix("ERROR ") else {
            continue;
        };
        out.push(Expectation {
            line: (idx + 1).saturating_sub(carets),
            rule: rule.trim().to_string(),
        });
    }
    out.sort();
    out
}

/// Parses the fixture's `// lint-rules: <family …>` header line into a
/// [`RuleSet`]. Family names match the [`RuleSet`] fields: `signatures`,
/// `float-eq`, `sim-loops`, `determinism`, `seed-discipline`,
/// `ledger-coverage`, `fault-path`.
pub fn rules_from_header(src: &str) -> Result<RuleSet, String> {
    let header = src
        .lines()
        .find_map(|l| l.trim().strip_prefix("// lint-rules:"))
        .ok_or_else(|| "fixture has no `// lint-rules:` header".to_string())?;
    let mut rules = RuleSet::default();
    for word in header.split_whitespace() {
        match word {
            "signatures" => rules.signatures = true,
            "float-eq" => rules.float_eq = true,
            "sim-loops" => rules.sim_loops = true,
            "determinism" => rules.determinism = true,
            "seed-discipline" => rules.seed_discipline = true,
            "ledger-coverage" => rules.ledger_coverage = true,
            "fault-path" => rules.fault_path = true,
            other => return Err(format!("unknown lint-rules family `{other}`")),
        }
    }
    Ok(rules)
}

/// Runs the scanner over one fixture and diffs findings against the
/// fixture's expectations. `Ok(())` when they agree exactly; otherwise the
/// error lists every missing and unexpected finding, golden-diff style.
pub fn check_fixture(rel: &Path, src: &str) -> Result<(), String> {
    let rules = rules_from_header(src)?;
    let config = ScanConfig::default_policy(AllowList::default());
    let actual: Vec<(Expectation, String)> = scan_file(rel, src, rules, &config)
        .into_iter()
        .map(|v| {
            let found = Expectation {
                line: v.line,
                rule: v.kind.name().to_string(),
            };
            (found, v.detail)
        })
        .collect();
    diff(rel, &parse_expectations(src), &actual)
}

/// Multiset comparison of expectations vs. findings, each finding paired
/// with its detail text. Shared by this corpus and the clippy corpus
/// (`tests/clippy_corpus.rs`), whose findings are clippy diagnostics.
pub fn diff(
    rel: &Path,
    expected: &[Expectation],
    actual: &[(Expectation, String)],
) -> Result<(), String> {
    let mut got: Vec<Expectation> = actual.iter().map(|(f, _)| f.clone()).collect();
    got.sort();
    let mut missing: Vec<&Expectation> = Vec::new();
    let mut remaining = got.clone();
    for e in expected {
        if let Some(pos) = remaining.iter().position(|g| g == e) {
            remaining.remove(pos);
        } else {
            missing.push(e);
        }
    }
    if missing.is_empty() && remaining.is_empty() {
        return Ok(());
    }
    let mut msg = format!("corpus divergence in {}:\n", rel.display());
    for e in &missing {
        msg.push_str(&format!(
            "  expected `{}` on line {} — did not fire\n",
            e.rule, e.line
        ));
    }
    for g in &remaining {
        let detail = actual
            .iter()
            .find(|(f, _)| f == g)
            .map_or("", |(_, d)| d.as_str());
        msg.push_str(&format!(
            "  unexpected `{}` on line {}: {}\n",
            g.rule, g.line, detail
        ));
    }
    Err(msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_parser_handles_carets() {
        let src = "\
// lint-rules: float-eq
fn f() {
    x == 1.0; //~ ERROR float-eq
    y == 2.0; // trailing comment
    //~^ ERROR float-eq
}
";
        let exp = parse_expectations(src);
        assert_eq!(
            exp,
            vec![
                Expectation {
                    line: 3,
                    rule: "float-eq".to_string()
                },
                Expectation {
                    line: 4,
                    rule: "float-eq".to_string()
                },
            ]
        );
    }

    #[test]
    fn header_parser_rejects_unknown_families() {
        assert!(rules_from_header("// lint-rules: float-eq determinism").is_ok());
        assert!(rules_from_header("// lint-rules: float-eqq").is_err());
        assert!(rules_from_header("fn main() {}").is_err());
    }
}
