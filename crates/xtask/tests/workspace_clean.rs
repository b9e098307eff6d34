//! The shipped tree must pass the physics lint and the manifest gate with
//! the checked-in allow-list — and a seeded-violation fixture must fail.
//!
//! This is the regression guard for the lint itself: if a refactor
//! reintroduces a raw-f64 public signature in a physics crate (or the
//! scanner regresses into accepting one), this test fails before CI even
//! reaches `cargo xtask lint`.

use std::path::Path;

use xtask::manifest::check_manifests;
use xtask::scan::{scan_source, scan_workspace, AllowList, ScanConfig};
use xtask::ViolationKind;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
}

fn shipped_allow_list() -> AllowList {
    let path = workspace_root().join("crates/xtask/physics-lint.allow");
    AllowList::parse(&std::fs::read_to_string(path).expect("allow-list exists"))
}

#[test]
fn shipped_tree_is_lint_clean() {
    let config = ScanConfig::default_policy(shipped_allow_list());
    let violations = scan_workspace(workspace_root(), &config).expect("workspace scans");
    assert!(
        violations.is_empty(),
        "physics lint must be clean on the shipped tree:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn shipped_manifests_opt_into_workspace_lints() {
    let violations = check_manifests(workspace_root()).expect("manifests scan");
    assert!(
        violations.is_empty(),
        "every crate must set `[lints] workspace = true`:\n{}",
        violations
            .iter()
            .map(|v| format!("  {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn seeded_violations_are_caught() {
    // One of each per-source rule family, in a file that matches no
    // allow-list entry.
    let fixture = "\
pub fn leaky(&self, lux: f64) -> f64 { lux }\n\
pub fn check(&self) -> bool { self.v == 3.3 }\n";
    let violations = scan_source(
        Path::new("crates/circuit/src/seeded_fixture.rs"),
        fixture,
        true,
        true,
        &shipped_allow_list(),
    );
    let kinds: Vec<ViolationKind> = violations.iter().map(|v| v.kind).collect();
    assert!(
        kinds.contains(&ViolationKind::RawFloatSignature),
        "{kinds:?}"
    );
    assert!(kinds.contains(&ViolationKind::FloatEq), "{kinds:?}");
}

#[test]
fn inline_escape_is_statement_scoped() {
    // rustfmt keeps a standalone escape comment directly above the
    // statement it annotates; that placement must cover the statement —
    // and ONLY that statement. The old line-adjacency slop let an escape
    // placed after a flagged line suppress it retroactively, and let one
    // escape bleed onto its neighbors.
    let covered = "\
fn pick(&self) {\n\
    // physics-lint: allow(float-eq): sentinel written verbatim at construction\n\
    let v = self.level == 3.3;\n\
    drop(v);\n\
}\n";
    let violations = scan_source(
        Path::new("crates/circuit/src/seeded_fixture.rs"),
        covered,
        true,
        true,
        &shipped_allow_list(),
    );
    assert!(violations.is_empty(), "{violations:?}");

    // The same escape placed after the statement covers nothing before it.
    let trailing_line = "\
fn pick(&self) {\n\
    let v = self.level == 3.3;\n\
    // physics-lint: allow(float-eq): sentinel written verbatim at construction\n\
    drop(v);\n\
}\n";
    let violations = scan_source(
        Path::new("crates/circuit/src/seeded_fixture.rs"),
        trailing_line,
        true,
        true,
        &shipped_allow_list(),
    );
    assert_eq!(violations.len(), 1, "{violations:?}");
    assert_eq!(violations[0].kind, ViolationKind::FloatEq);
    assert_eq!(violations[0].line, 2);
}
