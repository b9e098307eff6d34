//! Clippy as a test oracle for the bans it alone enforces.
//!
//! `unwrap`/`expect` in library code and the per-crate `clippy.toml`
//! disallowed lists have no lexical copy in this crate, so their
//! self-tests must run clippy itself. [`lint_source`] lints one source
//! string as the library of a throwaway crate, with the `[workspace.lints]`
//! levels copied from the root manifest and `CLIPPY_CONF_DIR` pointing at
//! [`CONF_CRATE`], and returns clippy's findings in the shape of the
//! lexical corpus harness ([`crate::corpus::diff`]).
//!
//! Callers pass a scratch directory under the build's target directory.
//! The throwaway crates build into their own `target/` there, so they never
//! contend for the outer build lock and are never workspace members.

use std::path::Path;
use std::process::Command;

use crate::corpus::Expectation;

/// The crate whose `clippy.toml` lists every ban clippy enforces for the
/// retired lexical families.
pub const CONF_CRATE: &str = "crates/fleet";

/// The body lines of one `[table]` in a TOML file (up to the next header).
pub fn table_body(toml: &str, header: &str) -> String {
    toml.lines()
        .skip_while(|l| l.trim() != header)
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// Lint names `[workspace.lints]` sets to `deny` or `forbid`, spelled as
/// rustc reports them (`clippy::unwrap_used`, `unsafe_code`).
pub fn denied_lints(root_manifest: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (header, prefix) in [
        ("[workspace.lints.rust]", ""),
        ("[workspace.lints.clippy]", "clippy::"),
    ] {
        for line in table_body(root_manifest, header).lines() {
            let Some((name, level)) = line.split_once('=') else {
                continue;
            };
            if matches!(level.trim().trim_matches('"'), "deny" | "forbid") {
                out.push(format!("{prefix}{}", name.trim()));
            }
        }
    }
    out
}

/// Lints `src` as `src/lib.rs` of a crate named `name` created under
/// `scratch/<name>`, building into `scratch/target`. The crate depends on
/// the vendored `rand` (so `rand::thread_rng` resolves) and carries the
/// root manifest's `[workspace.lints]` tables as its own `[lints]`.
///
/// Returns every compiler message whose primary span is in the snippet.
/// Messages without a lint code (a hard error) keep their text as the rule
/// name, so a diff against expectations reports them as unexpected.
pub fn lint_source(
    root: &Path,
    scratch: &Path,
    name: &str,
    src: &str,
) -> Result<Vec<(Expectation, String)>, String> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml"))
        .map_err(|e| format!("root manifest: {e}"))?;
    let dir = scratch.join(name);
    std::fs::create_dir_all(dir.join("src")).map_err(|e| format!("{}: {e}", dir.display()))?;
    let crate_manifest = format!(
        "[package]\nname = {name:?}\nversion = \"0.0.0\"\nedition = \"2021\"\n\
         publish = false\n\n[workspace]\n\n[dependencies]\nrand = {{ path = {:?} }}\n\n\
         [lints.rust]\n{}\n[lints.clippy]\n{}",
        root.join("vendor/rand").display().to_string(),
        table_body(&manifest, "[workspace.lints.rust]"),
        table_body(&manifest, "[workspace.lints.clippy]"),
    );
    std::fs::write(dir.join("Cargo.toml"), crate_manifest)
        .map_err(|e| format!("throwaway manifest: {e}"))?;
    // Rewritten every run, so cargo never replays a cached verdict.
    std::fs::write(dir.join("src/lib.rs"), src).map_err(|e| format!("throwaway lib: {e}"))?;

    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let output = Command::new(cargo)
        .args(["clippy", "--offline", "--quiet", "--message-format=json"])
        .arg("--manifest-path")
        .arg(dir.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(scratch.join("target"))
        .env("CLIPPY_CONF_DIR", root.join(CONF_CRATE))
        .output()
        .map_err(|e| format!("cargo clippy did not run: {e}"))?;
    let found: Vec<(Expectation, String)> = String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(finding)
        .collect();
    if found.is_empty() && !output.status.success() {
        return Err(format!(
            "cargo clippy failed without a diagnostic:\n{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(found)
}

/// One `(line, lint)` finding from a line of `cargo --message-format=json`
/// output: a compiler message with a primary span in `src/lib.rs`.
fn finding(line: &str) -> Option<(Expectation, String)> {
    let msg = Json::parse(line)?;
    if msg.get("reason")?.as_str()? != "compiler-message" {
        return None;
    }
    let diag = msg.get("message")?;
    let text = diag.get("message")?.as_str()?.to_string();
    let span = diag
        .get("spans")?
        .as_array()?
        .iter()
        .find(|s| matches!(s.get("is_primary"), Some(Json::Bool(true))))?;
    if span.get("file_name")?.as_str()? != "src/lib.rs" {
        return None;
    }
    let line = span.get("line_start")?.as_num()?;
    let rule = match diag.get("code").and_then(|c| c.get("code")) {
        Some(code) => code.as_str()?.to_string(),
        None => text.clone(),
    };
    Some((Expectation { line, rule }, text))
}

/// Just enough JSON for cargo's diagnostic stream (xtask has no
/// dependencies).
#[derive(Debug)]
enum Json {
    Null,
    Bool(bool),
    Num(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

type Chars<'a> = std::iter::Peekable<std::str::Chars<'a>>;

impl Json {
    fn parse(text: &str) -> Option<Json> {
        let mut chars = text.trim().chars().peekable();
        let value = Self::value(&mut chars)?;
        chars.next().is_none().then_some(value)
    }

    fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<usize> {
        match self {
            Json::Num(n) => n.parse().ok(),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    fn value(it: &mut Chars<'_>) -> Option<Json> {
        match Self::skip_ws(it)? {
            '"' => Self::string(it).map(Json::Str),
            '{' => {
                it.next();
                let mut fields = Vec::new();
                loop {
                    match Self::skip_ws(it)? {
                        '}' => {
                            it.next();
                            return Some(Json::Obj(fields));
                        }
                        ',' => {
                            it.next();
                        }
                        _ => {
                            let key = Self::string(it)?;
                            if Self::skip_ws(it)? != ':' {
                                return None;
                            }
                            it.next();
                            fields.push((key, Self::value(it)?));
                        }
                    }
                }
            }
            '[' => {
                it.next();
                let mut items = Vec::new();
                loop {
                    match Self::skip_ws(it)? {
                        ']' => {
                            it.next();
                            return Some(Json::Arr(items));
                        }
                        ',' => {
                            it.next();
                        }
                        _ => items.push(Self::value(it)?),
                    }
                }
            }
            _ => {
                let mut word = String::new();
                while let Some(&c) = it.peek() {
                    if !(c.is_ascii_alphanumeric() || matches!(c, '-' | '+' | '.')) {
                        break;
                    }
                    word.push(c);
                    it.next();
                }
                match word.as_str() {
                    "null" => Some(Json::Null),
                    "true" => Some(Json::Bool(true)),
                    "false" => Some(Json::Bool(false)),
                    "" => None,
                    _ => Some(Json::Num(word)),
                }
            }
        }
    }

    fn skip_ws(it: &mut Chars<'_>) -> Option<char> {
        while it.peek()?.is_whitespace() {
            it.next();
        }
        it.peek().copied()
    }

    fn string(it: &mut Chars<'_>) -> Option<String> {
        if it.next()? != '"' {
            return None;
        }
        let mut out = String::new();
        loop {
            match it.next()? {
                '"' => return Some(out),
                '\\' => match it.next()? {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex: String = (0..4).filter_map(|_| it.next()).collect();
                        out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                    }
                    c => out.push(c),
                },
                c => out.push(c),
            }
        }
    }
}

/// Test helper for the unit tests that pin a retired lexical family to its
/// clippy enforcer: lints `src` under `target/<profile>/clippy-snippets/`
/// and panics with the golden diff unless clippy's findings match the
/// snippet's `//~ ERROR` expectations exactly.
#[cfg(test)]
pub(crate) fn assert_clippy_matches(name: &str, src: &str) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // The unit-test binary runs from target/<profile>/deps/.
    let exe = std::env::current_exe().expect("test binary path");
    let scratch = exe
        .ancestors()
        .nth(2)
        .expect("test binary sits in target/<profile>/deps")
        .join("clippy-snippets");
    let found = lint_source(&root, &scratch, name, src).unwrap_or_else(|e| panic!("{e}"));
    let expected = crate::corpus::parse_expectations(src);
    if let Err(e) = crate::corpus::diff(Path::new(name), &expected, &found) {
        panic!("\n{e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn denied_lints_reads_both_tables() {
        let toml = "[workspace.lints.rust]\nunsafe_code = \"forbid\"\nmissing_docs = \"warn\"\n\
                    [workspace.lints.clippy]\nunwrap_used = \"deny\"\nprint_stdout = \"allow\"\n";
        assert_eq!(denied_lints(toml), ["unsafe_code", "clippy::unwrap_used"]);
    }

    #[test]
    fn finding_reads_primary_span_and_lint_code() {
        let line = r#"{"reason":"compiler-message","message":{"message":"used `unwrap()`","code":{"code":"clippy::unwrap_used"},"spans":[{"file_name":"src/lib.rs","line_start":7,"is_primary":true}]}}"#;
        let (at, text) = finding(line).expect("a lint finding");
        assert_eq!((at.line, at.rule.as_str()), (7, "clippy::unwrap_used"));
        assert_eq!(text, "used `unwrap()`");
        assert!(finding(r#"{"reason":"build-finished","success":true}"#).is_none());
    }
}
