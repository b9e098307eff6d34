//! The workspace lint gate: manifest-level checks.
//!
//! The clippy deny-set lives once, in the root `Cargo.toml`'s
//! `[workspace.lints]` table. That only has teeth if every member crate opts
//! in with `[lints] workspace = true` — a crate that forgets the stanza
//! silently escapes the whole deny-set. This pass makes the opt-in
//! mandatory: the root manifest must carry the table, and every
//! `crates/*/Cargo.toml` must inherit it. (`vendor/` stand-in crates are
//! exempt: they mirror external APIs we do not control.)

use std::path::Path;

use crate::{Violation, ViolationKind};

/// Lints every crate manifest must inherit from the workspace table.
/// Listed here so the gate fails loudly if someone trims the root table:
/// clippy is the only enforcer of the panic and disallowed-list bans.
pub const REQUIRED_CLIPPY_LINTS: &[&str] = &[
    "unwrap_used",
    "expect_used",
    "float_cmp",
    "lossy_float_literal",
    "allow_attributes_without_reason",
    "disallowed_methods",
    "disallowed_types",
];

/// Checks the root manifest for the `[workspace.lints.clippy]` deny-set and
/// each `crates/*/Cargo.toml` for the `[lints] workspace = true` stanza.
pub fn check_manifests(root: &Path) -> std::io::Result<Vec<Violation>> {
    let mut out = Vec::new();

    let root_manifest = root.join("Cargo.toml");
    let root_text = std::fs::read_to_string(&root_manifest)?;
    if !has_table(&root_text, "workspace.lints.clippy") {
        out.push(Violation {
            file: root_manifest
                .strip_prefix(root)
                .unwrap_or(&root_manifest)
                .into(),
            line: 0,
            kind: ViolationKind::MissingWorkspaceLints,
            detail: "root Cargo.toml lacks a [workspace.lints.clippy] table".into(),
        });
    } else {
        for lint in REQUIRED_CLIPPY_LINTS {
            if !root_text.contains(lint) {
                out.push(Violation {
                    file: "Cargo.toml".into(),
                    line: 0,
                    kind: ViolationKind::MissingWorkspaceLints,
                    detail: format!("[workspace.lints.clippy] is missing required lint `{lint}`"),
                });
            }
        }
    }

    let crates_dir = root.join("crates");
    let mut names: Vec<_> = std::fs::read_dir(&crates_dir)?
        .filter_map(|e| e.ok())
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    for name in names {
        let manifest = crates_dir.join(&name).join("Cargo.toml");
        if !manifest.exists() {
            continue;
        }
        let text = std::fs::read_to_string(&manifest)?;
        if !opts_into_workspace_lints(&text) {
            out.push(Violation {
                file: Path::new("crates").join(&name).join("Cargo.toml"),
                line: 0,
                kind: ViolationKind::MissingLintsTable,
                detail: format!(
                    "crate `{name}` does not opt into [workspace.lints] \
                     (add `[lints]\\nworkspace = true`)"
                ),
            });
        }
    }
    Ok(out)
}

/// Whether a TOML text contains the given table header (whitespace-tolerant).
fn has_table(text: &str, name: &str) -> bool {
    text.lines()
        .map(str::trim)
        .any(|l| l == format!("[{name}]"))
}

/// Whether a crate manifest has `[lints]` with `workspace = true` inside it.
fn opts_into_workspace_lints(text: &str) -> bool {
    let mut in_lints = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_lints = line == "[lints]";
            continue;
        }
        if in_lints {
            let compact: String = line
                .split('#')
                .next()
                .unwrap_or("")
                .split_whitespace()
                .collect();
            if compact == "workspace=true" {
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
    fn detects_opt_in_stanza() {
        assert!(opts_into_workspace_lints(
            "[package]\nname = \"x\"\n\n[lints]\nworkspace = true\n"
        ));
        assert!(opts_into_workspace_lints(
            "[lints]\nworkspace   =  true  # inherit\n"
        ));
        assert!(!opts_into_workspace_lints("[package]\nname = \"x\"\n"));
        assert!(!opts_into_workspace_lints("[lints]\nworkspace = false\n"));
        // `workspace = true` under a different table does not count.
        assert!(!opts_into_workspace_lints(
            "[lints]\n\n[dependencies]\nworkspace = true\n"
        ));
    }

    #[test]
    fn detects_workspace_table() {
        assert!(has_table(
            "[workspace.lints.clippy]\nunwrap_used = \"deny\"",
            "workspace.lints.clippy"
        ));
        assert!(!has_table(
            "[workspace.lints.rust]\n",
            "workspace.lints.clippy"
        ));
    }

    #[test]
    fn real_workspace_manifests_pass() {
        // The shipped tree must be clean: this is the self-test the issue's
        // acceptance criteria ask for at the manifest layer.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("xtask lives at <root>/crates/xtask");
        let violations = check_manifests(root).expect("manifests readable");
        assert!(violations.is_empty(), "{violations:#?}");
    }
}
