//! The clippy half of the lint's self-test: the bans that clippy, not the
//! lexical scanner, enforces must keep firing, and every crate that used to
//! carry one of the retired lexical families must list its bans.
//!
//! * `clippy_corpus_matches_expectations` lints
//!   `tests/clippy_corpus/fixture.rs` with [`xtask::clippy::lint_source`]:
//!   a throwaway crate with `CLIPPY_CONF_DIR=crates/fleet` (fleet's `clippy.toml` holds every
//!   moved ban) and lint levels copied from the root `[workspace.lints]`,
//!   then diffs clippy's findings against the fixture's `//~ ERROR <lint>`
//!   comments with the same multiset harness as `tests/corpus.rs`.
//! * `shipped_clippy_configs_list_the_moved_bans` is a text check over the
//!   shipped per-crate `clippy.toml` files.
//!
//! The throwaway crate lives under `CARGO_TARGET_TMPDIR` with its own
//! `--target-dir`, so it never contends for the outer build lock and is
//! never part of the workspace (nor of `cargo xtask lint`'s clippy run).

use std::path::{Path, PathBuf};

use xtask::clippy::{denied_lints, lint_source};
use xtask::corpus::{diff, parse_expectations, Expectation};

/// Which crates' `clippy.toml` must list each moved ban, and the retired
/// lexical family that used to enforce it there.
const MOVED_BANS: &[(&str, &[&str], &str)] = &[
    ("std::rc::Rc", SENDSYNC, "rc-refcell"),
    ("std::cell::RefCell", SENDSYNC, "rc-refcell"),
    ("std::hash::DefaultHasher", STORE, "stable-store-key"),
    ("std::hash::RandomState", STORE, "stable-store-key"),
    ("std::hash::SipHasher", STORE, "stable-store-key"),
    ("std::fs::write", STORE, "atomic-persist"),
    ("std::fs::File::create", STORE, "atomic-persist"),
    ("std::time::Instant::now", DETERMINISM, "determinism"),
    ("std::time::SystemTime::now", DETERMINISM, "determinism"),
    ("rand::thread_rng", DETERMINISM, "determinism"),
];
const SENDSYNC: &[&str] = &["fleet", "nas", "nn"];
const STORE: &[&str] = &["fleet", "trace"];
/// The old `determinism` crates plus `scenario` (the old
/// `scenario-hygiene` relabel of the same checks).
const DETERMINISM: &[&str] = &[
    "sim", "circuit", "mcu", "energy", "platform", "fleet", "nas", "scenario",
];

/// crates/xtask sits two levels below the workspace root.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Checks clippy's findings on `src` against its expectations: every
/// expectation must name a lint `[workspace.lints]` denies, and the two
/// sides must agree as multisets of `(line, lint)`.
fn check(src: &str, found: &[(Expectation, String)], denied: &[String]) -> Result<(), String> {
    let expected = parse_expectations(src);
    let unknown: Vec<String> = expected
        .iter()
        .filter(|e| !denied.contains(&e.rule))
        .map(|e| {
            format!(
                "  line {}: `{}` is not denied by [workspace.lints]\n",
                e.line, e.rule
            )
        })
        .collect();
    if !unknown.is_empty() {
        return Err(format!(
            "unknown lint names in expectations:\n{}",
            unknown.concat()
        ));
    }
    diff(Path::new("clippy_corpus/fixture.rs"), &expected, found)
}

#[test]
fn clippy_corpus_matches_expectations() {
    let root = workspace_root();
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let fixture = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/clippy_corpus/fixture.rs"),
    )
    .expect("fixture readable");

    let tmp = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("clippy_corpus");
    let found =
        lint_source(&root, &tmp, "clippy-corpus", &fixture).unwrap_or_else(|e| panic!("{e}"));
    assert!(!found.is_empty(), "clippy reported nothing — did it run?");

    if let Err(e) = check(&fixture, &found, &denied_lints(&manifest)) {
        panic!("\n{e}");
    }
    for (ban, _, family) in MOVED_BANS {
        assert!(
            found
                .iter()
                .any(|(_, msg)| msg.contains(&format!("`{ban}`"))),
            "no fixture site exercises `{ban}` (retired lexical family `{family}`)"
        );
    }
}

#[test]
fn shipped_clippy_configs_list_the_moved_bans() {
    let mut missing = String::new();
    for (ban, crates, family) in MOVED_BANS {
        for name in *crates {
            let path = workspace_root()
                .join("crates")
                .join(name)
                .join("clippy.toml");
            let text = std::fs::read_to_string(&path).unwrap_or_default();
            if !text.contains(&format!("path = \"{ban}\"")) {
                missing.push_str(&format!(
                    "  crates/{name}/clippy.toml does not list `{ban}` (was `{family}`)\n"
                ));
            }
        }
    }
    assert!(missing.is_empty(), "\n{missing}");
}

#[test]
fn harness_rejects_unexpected_finding() {
    let src = "pub fn f(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n";
    let found = [finding_at(2, "clippy::unwrap_used")];
    let err = check(src, &found, &denied()).expect_err("an unannotated finding must fail");
    assert!(
        err.contains("unexpected `clippy::unwrap_used` on line 2"),
        "{err}"
    );
}

#[test]
fn harness_rejects_stale_expectation() {
    let src = "pub fn f() -> u8 {\n    0 //~ ERROR clippy::unwrap_used\n}\n";
    let err = check(src, &[], &denied()).expect_err("a silent expectation must fail");
    assert!(
        err.contains("expected `clippy::unwrap_used` on line 2 — did not fire"),
        "{err}"
    );
}

#[test]
fn harness_rejects_unknown_lint_name() {
    let src = "pub fn f() {\n    g() //~ ERROR clippy::disallowed_method\n}\n";
    let found = [finding_at(2, "clippy::disallowed_method")];
    let err = check(src, &found, &denied()).expect_err("a misspelled lint must fail");
    assert!(
        err.contains("`clippy::disallowed_method` is not denied"),
        "{err}"
    );
}

fn denied() -> Vec<String> {
    let manifest = std::fs::read_to_string(workspace_root().join("Cargo.toml"));
    let denied = denied_lints(&manifest.unwrap_or_default());
    for lint in [
        "clippy::unwrap_used",
        "clippy::disallowed_methods",
        "clippy::disallowed_types",
    ] {
        assert!(
            denied.iter().any(|d| d == lint),
            "{lint} not denied: {denied:?}"
        );
    }
    denied
}

fn finding_at(line: usize, rule: &str) -> (Expectation, String) {
    let found = Expectation {
        line,
        rule: rule.to_string(),
    };
    (found, String::new())
}
