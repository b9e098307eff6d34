//! Static-analysis passes behind `cargo xtask lint`.
//!
//! The SolarML workspace's headline claims are energy-accounting claims, and
//! the classic failure modes of energy-accounting code are silent unit
//! mix-ups (a µJ where a mJ was meant) and NaNs propagating through a
//! transient step. `rustc` cannot see either: every physical quantity is an
//! `f64` to the type system unless the code says otherwise. This crate is
//! the "says otherwise" enforcement:
//!
//! * [`scan`] — the **physics lint**: a lexical scanner that rejects raw
//!   `f64`/`f32` in public signatures of the physics crates (forcing
//!   `solarml-units` newtypes), float `==`/`!=` against literals,
//!   `unwrap()`/`expect()` anywhere in the fault-path files, and manual
//!   time-stepping loops that bypass the co-simulation scheduler.
//! * [`manifest`] — the **workspace lint gate**: every crate must opt into
//!   the `[workspace.lints]` table so the curated clippy deny-set applies
//!   tree-wide.
//! * [`clippy`] — runs clippy on a source snippet, so the self-tests of the
//!   bans clippy alone enforces exercise the shipped configuration.
//!
//! The binary (`cargo xtask lint`) additionally shells out to
//! `cargo fmt --check` and `cargo clippy`. Clippy is the only enforcer of
//! every ban it can resolve by type: `unwrap`/`expect` in library code and
//! the per-crate `clippy.toml` disallowed lists (wall clocks, ambient
//! entropy, hashed containers, `Rc`/`RefCell`, unstable hashers, bare
//! `fs::write`/`File::create`). The lexical rules cover only what clippy
//! cannot. See DESIGN.md §"Correctness tooling" for the ban → enforcer
//! table, the allow-list format and the escape hatches.

pub mod clippy;
pub mod corpus;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod scan;

use std::fmt;
use std::path::PathBuf;

/// One finding from any lint pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// File the finding is in, relative to the workspace root.
    pub file: PathBuf,
    /// 1-based line number (0 for whole-file findings).
    pub line: usize,
    /// What rule fired.
    pub kind: ViolationKind,
    /// Human-readable context (the offending signature, token, …).
    pub detail: String,
}

/// The rules the scanner and manifest gate enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// A `pub fn` in a physics crate mentions raw `f64`/`f32`.
    RawFloatSignature,
    /// `==` or `!=` with a float literal operand. Overlaps clippy's
    /// `float_cmp`, which skips comparisons against zero.
    FloatEq,
    /// `.unwrap()`/`.expect(` anywhere — including tests — in a file on
    /// the brownout/fault path, where a panic would masquerade as the
    /// fault being injected.
    FaultPathUnwrap,
    /// A manual time-stepping loop (`while t < …` / `for _ in 0..n` around
    /// a `.step(` call) outside the co-simulation scheduler crate. All
    /// stepping must go through `solarml_sim::Scheduler` so there is one
    /// clock and one energy ledger.
    AdhocSimLoop,
    /// Iteration over a `HashMap`/`HashSet` (hasher-dependent order) in a
    /// crate whose `clippy.toml` allows hashed containers. Every result this
    /// workspace publishes must be recomputable bit-identically from
    /// `(spec, seed)`.
    Determinism,
    /// Raw seed arithmetic (`seed + i`, `seed ^ 0x…`) outside a sanctioned
    /// mixer function, or a `derive_seed` call whose cycle tag is not a
    /// registered named constant. Ad-hoc seed derivation is how two call
    /// sites silently end up with correlated RNG streams.
    SeedDiscipline,
    /// A side-channel energy accumulator: `+= … * dt` integration outside
    /// the `SimBus`/`EnergyAudit` ledger. Exactly the pattern that once let
    /// `endtoend` double-count harvest energy.
    LedgerCoverage,
    /// A `physics-lint: allow(…)` escape with no `: reason` trailer, or
    /// naming a rule that does not exist. Escapes are reviewed decisions;
    /// an unexplained one is indistinguishable from a stale one.
    AllowWithoutReason,
    /// A crate manifest does not opt into `[workspace.lints]`.
    MissingLintsTable,
    /// The root manifest lacks the `[workspace.lints.clippy]` deny-set.
    MissingWorkspaceLints,
}

impl ViolationKind {
    /// Short rule name used in reports and allow-list docs.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::RawFloatSignature => "raw-float-signature",
            ViolationKind::FloatEq => "float-eq",
            ViolationKind::FaultPathUnwrap => "fault-path",
            ViolationKind::AdhocSimLoop => "adhoc-sim-loop",
            ViolationKind::Determinism => "determinism",
            ViolationKind::SeedDiscipline => "seed-discipline",
            ViolationKind::LedgerCoverage => "ledger-coverage",
            ViolationKind::AllowWithoutReason => "allow-without-reason",
            ViolationKind::MissingLintsTable => "missing-lints-table",
            ViolationKind::MissingWorkspaceLints => "missing-workspace-lints",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.kind.name(),
            self.detail
        )
    }
}

/// Renders the machine-readable report behind `cargo xtask lint --json`.
/// Hand-rolled (xtask has no dependencies by design): stable field order,
/// violations in the scanner's deterministic file/line order, plus the
/// pass/fail status of each subprocess gate that ran. CI uploads this file
/// as an artifact so downstream tooling never has to parse human output.
pub fn json_report(violations: &[Violation], gates: &[(&str, bool)]) -> String {
    let mut s = String::from("{\n  \"violations\": [");
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"file\": \"");
        s.push_str(&json_escape(&v.file.to_string_lossy().replace('\\', "/")));
        s.push_str("\", \"line\": ");
        s.push_str(&v.line.to_string());
        s.push_str(", \"rule\": \"");
        s.push_str(v.kind.name());
        s.push_str("\", \"detail\": \"");
        s.push_str(&json_escape(&v.detail));
        s.push_str("\"}");
    }
    if !violations.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"violation_count\": ");
    s.push_str(&violations.len().to_string());
    s.push_str(",\n  \"gates\": [");
    for (i, (label, ok)) in gates.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str("\n    {\"gate\": \"");
        s.push_str(&json_escape(label));
        s.push_str("\", \"ok\": ");
        s.push_str(if *ok { "true" } else { "false" });
        s.push('}');
    }
    if !gates.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("],\n  \"clean\": ");
    let clean = violations.is_empty() && gates.iter().all(|(_, ok)| *ok);
    s.push_str(if clean { "true" } else { "false" });
    s.push_str("\n}\n");
    s
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_is_well_formed() {
        let vs = vec![Violation {
            file: PathBuf::from("crates/x/src/lib.rs"),
            line: 7,
            kind: ViolationKind::Determinism,
            detail: "iteration over `map` — \"unordered\"".to_string(),
        }];
        let out = json_report(&vs, &[("cargo fmt --check", true), ("cargo clippy", false)]);
        assert!(out.contains("\"rule\": \"determinism\""));
        assert!(out.contains("\\\"unordered\\\""), "quotes escaped: {out}");
        assert!(out.contains("\"violation_count\": 1"));
        assert!(out.contains("\"clean\": false"));
        let empty = json_report(&[], &[("cargo fmt --check", true)]);
        assert!(empty.contains("\"violations\": []"));
        assert!(empty.contains("\"clean\": true"));
    }
}
