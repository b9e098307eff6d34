//! The physics lint: a token-aware scanner over workspace sources.
//!
//! No `syn` is available in the offline build environment, so the pass is
//! built on the hand-rolled lexer in [`crate::lexer`]: sources are lexed
//! once, comments/strings are blanked from the token spans, `#[cfg(test)]`
//! regions are masked, and the remaining code is scanned for the rule
//! families. Lexical rather than type-aware means the rules are
//! deliberately conservative in what they match (a float *literal* next to
//! `==`, a textual `f64` inside a `pub fn` signature, an ident *declared*
//! as a `HashMap`) — everything type-aware is delegated to the clippy gate.
//!
//! This module owns the classic families (signatures, float-eq, fault-path,
//! ad-hoc sim loops) plus the policy plumbing; the determinism families
//! live in [`crate::rules`]. Bans clippy resolves by type (`unwrap`/`expect`
//! in library code, the per-crate `clippy.toml` disallowed lists) have no
//! lexical copy here.

use std::collections::HashSet;
use std::path::{Path, PathBuf};

use crate::lexer;
pub use crate::lexer::blank_noncode;
use crate::{Violation, ViolationKind};

/// Which rule families to run over which crates.
#[derive(Debug, Clone)]
pub struct ScanConfig {
    /// Crates (by `crates/<name>` directory name) whose public signatures
    /// must use `solarml-units` newtypes instead of raw floats.
    pub signature_crates: Vec<String>,
    /// Crates whose non-test library code may not compare floats with `==`
    /// against a literal (rule `float-eq`; clippy's `float_cmp` skips the
    /// `x == 0.0` case).
    pub float_eq_crates: Vec<String>,
    /// Workspace-relative files on the brownout/fault path where
    /// `unwrap`/`expect` are forbidden *everywhere* — tests included, no
    /// inline escapes, no allow-list. A panic in fault-handling code is
    /// indistinguishable from the fault it was supposed to model.
    pub fault_path_files: Vec<PathBuf>,
    /// Crates whose non-test library code may not hand-roll a time-stepping
    /// loop around `.step(…)`: all stepping goes through the
    /// `solarml_sim::Scheduler` so the workspace keeps one clock and one
    /// energy ledger. The scheduler crate itself is exempt by omission.
    pub sim_loop_crates: Vec<String>,
    /// Crates whose non-test library code may not iterate hashed containers
    /// (rule `determinism`). Only crates whose `clippy.toml` allows
    /// `HashMap`/`HashSet` belong here; elsewhere clippy rejects the type.
    pub determinism_crates: Vec<String>,
    /// Crates whose non-test library code may not do raw seed arithmetic
    /// outside a sanctioned mixer function (rule `seed-discipline`).
    pub seed_crates: Vec<String>,
    /// Crates whose non-test library code may not grow `+= … * dt`
    /// side-channel accumulators (rule `ledger-coverage`). The `sim` crate
    /// is exempt by omission: it is where `SimBus`/`EnergyAudit` live.
    pub ledger_crates: Vec<String>,
    /// Registered cycle-tag constants: the only names whose use in seed
    /// arithmetic (and as `derive_seed` cycle arguments) is sanctioned.
    /// Registering a tag here is the reviewed act that reserves its stream.
    pub seed_tags: Vec<String>,
    /// Sanctioned seed-mixer functions; their bodies are exempt from the
    /// seed-discipline rule (the mixing has to happen *somewhere*).
    pub seed_mixer_fns: Vec<String>,
    /// Parsed allow-list (see [`AllowList`]).
    pub allow: AllowList,
}

impl ScanConfig {
    /// The shipped policy: the five physics crates get the signature,
    /// float-eq and sim-loop rules; `units`, `fleet` and the user-facing
    /// `cli` get float-eq; `fleet` also gets the sim-loop rule (campaigns
    /// must drive days through the scheduler) but not the signature rule —
    /// its sampling distributions legitimately traffic in raw `f64`
    /// parameters.
    pub fn default_policy(allow: AllowList) -> Self {
        let physics = ["circuit", "mcu", "energy", "platform", "trace"];
        let to_vec = |names: &[&str]| names.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let with = |extra: &[&str]| to_vec(&[&physics[..], extra].concat());
        Self {
            signature_crates: to_vec(&physics),
            float_eq_crates: with(&["units", "cli", "fleet"]),
            fault_path_files: vec![
                PathBuf::from("crates/circuit/src/fault.rs"),
                PathBuf::from("crates/platform/src/intermittent.rs"),
            ],
            sim_loop_crates: with(&["fleet"]),
            // The one determinism crate whose clippy.toml allows HashMap
            // (ShardedMap is lookup-only); every other determinism crate
            // bans the type outright, so iteration cannot happen there.
            determinism_crates: to_vec(&["nas"]),
            // `energy` is deliberately absent: its xorshift lives in local
            // regression-bootstrap helpers that never share streams.
            seed_crates: to_vec(&[
                "sim", "circuit", "mcu", "platform", "fleet", "nas", "scenario",
            ]),
            ledger_crates: to_vec(&["circuit", "mcu", "platform", "fleet"]),
            seed_tags: to_vec(&[
                "FLEET_SEED_CYCLE",
                "FAULT_STREAM_TAG",
                "POPULATION_STREAM_TAG",
                "ENV_STREAM_TAG",
                "SCENARIO_STREAM_TAG",
            ]),
            seed_mixer_fns: to_vec(&["derive_seed", "mix64", "splitmix64"]),
            allow,
        }
    }
}

/// The allow-list: one entry per line, `path/to/file.rs::item`, where `item`
/// is a function name (for `raw-float-signature`) or `*` (whole file, any
/// rule). `#` starts a comment. Inline escapes are spelled in the source
/// itself: a comment containing `physics-lint: allow(<rule>): <reason>`
/// suppresses that rule on the statement it is attached to — the statement
/// it trails, or (for a comment on its own line) the next statement,
/// brace body included. See [`crate::lexer::allow_spans`]. The reason is
/// mandatory; a bare escape is itself a violation (`allow-without-reason`).
#[derive(Debug, Clone, Default)]
pub struct AllowList {
    entries: HashSet<(String, String)>,
}

impl AllowList {
    /// Parses the allow-list file contents.
    pub fn parse(text: &str) -> Self {
        let mut entries = HashSet::new();
        for line in text.lines() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if let Some((path, item)) = line.rsplit_once("::") {
                entries.insert((path.trim().to_string(), item.trim().to_string()));
            }
        }
        Self { entries }
    }

    /// Whether `item` (a fn name, or any rule via `*`) is allowed in `file`.
    pub fn allows(&self, file: &Path, item: &str) -> bool {
        let key = file.to_string_lossy().replace('\\', "/");
        self.entries.contains(&(key.clone(), item.to_string()))
            || self.entries.contains(&(key, "*".to_string()))
    }
}

/// Byte ranges of `#[cfg(test)]`-gated items (the brace-delimited item that
/// follows the attribute), so test modules are exempt from the strict rules.
pub fn test_regions(blanked: &str) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut from = 0;
    while let Some(pos) = find_cfg_test(blanked, from) {
        let Some(open_rel) = blanked[pos..].find('{') else {
            break;
        };
        let open = pos + open_rel;
        let mut depth = 0usize;
        let mut end = blanked.len();
        for (off, c) in blanked[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = open + off + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        regions.push((pos, end));
        from = end;
    }
    regions
}

/// Finds `#[cfg(test)]` allowing arbitrary internal whitespace.
fn find_cfg_test(s: &str, from: usize) -> Option<usize> {
    let compact: &[u8] = b"#[cfg(test)]";
    let b = s.as_bytes();
    let mut i = from;
    while i < b.len() {
        if b[i] == b'#' {
            let mut j = i;
            let mut k = 0;
            while j < b.len() && k < compact.len() {
                if b[j].is_ascii_whitespace() && compact[k] != b' ' {
                    j += 1;
                    continue;
                }
                if b[j] == compact[k] {
                    j += 1;
                    k += 1;
                } else {
                    break;
                }
            }
            if k == compact.len() {
                return Some(i);
            }
        }
        i += 1;
    }
    None
}

pub(crate) fn line_of(src: &str, byte: usize) -> usize {
    src[..byte].bytes().filter(|&c| c == b'\n').count() + 1
}

pub(crate) fn in_regions(regions: &[(usize, usize)], byte: usize) -> bool {
    regions.iter().any(|&(a, b)| byte >= a && byte < b)
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Scans one source file. `rel` is the path relative to the workspace root
/// (used for reporting and allow-list matching); rule families are chosen by
/// the booleans so callers can apply the per-crate policy.
pub fn scan_source(
    rel: &Path,
    src: &str,
    check_signatures: bool,
    check_float_eq: bool,
    allow: &AllowList,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if allow.allows(rel, "*") {
        return out;
    }
    let tokens = lexer::lex(src);
    let blanked = lexer::blank_with_tokens(src, &tokens);
    let tests = test_regions(&blanked);

    if check_signatures {
        scan_pub_fn_signatures(rel, src, &blanked, &tests, allow, &mut out);
    }
    if check_float_eq {
        scan_float_eq(rel, src, &tokens, &blanked, &tests, &mut out);
    }
    out.sort_by_key(|v| v.line);
    out
}

fn scan_pub_fn_signatures(
    rel: &Path,
    src: &str,
    blanked: &str,
    tests: &[(usize, usize)],
    allow: &AllowList,
    out: &mut Vec<Violation>,
) {
    let b = blanked.as_bytes();
    let mut i = 0;
    while let Some(rel_pos) = blanked[i..].find("pub") {
        let pos = i + rel_pos;
        i = pos + 3;
        // Token boundary on both sides.
        if pos > 0 && is_ident_byte(b[pos - 1]) {
            continue;
        }
        if pos + 3 < b.len() && is_ident_byte(b[pos + 3]) {
            continue;
        }
        // `pub(crate)` / `pub(super)` are not public API.
        let mut j = pos + 3;
        while j < b.len() && b[j].is_ascii_whitespace() {
            j += 1;
        }
        if j < b.len() && b[j] == b'(' {
            continue;
        }
        // Skip qualifier keywords until `fn` (or bail on non-fn items).
        let mut fn_at = None;
        for _ in 0..4 {
            let word_end = {
                let mut e = j;
                while e < b.len() && is_ident_byte(b[e]) {
                    e += 1;
                }
                e
            };
            match &blanked[j..word_end] {
                "fn" => {
                    fn_at = Some(word_end);
                    break;
                }
                "const" | "async" | "unsafe" | "extern" => {
                    j = word_end;
                    while j < b.len() && (b[j].is_ascii_whitespace() || b[j] == b'"') {
                        j += 1;
                    }
                }
                _ => break,
            }
        }
        let Some(after_fn) = fn_at else { continue };
        if in_regions(tests, pos) {
            continue;
        }
        // Function name.
        let mut k = after_fn;
        while k < b.len() && b[k].is_ascii_whitespace() {
            k += 1;
        }
        let name_start = k;
        while k < b.len() && is_ident_byte(b[k]) {
            k += 1;
        }
        let fn_name = &blanked[name_start..k];
        // Signature runs to the first `{` or `;` (brace bodies of const
        // generic expressions do not occur in this workspace).
        let sig_end = blanked[k..]
            .find(['{', ';'])
            .map_or(blanked.len(), |n| k + n);
        let sig = &blanked[k..sig_end];
        let has_raw_float = ["f64", "f32"].iter().any(|t| {
            sig.match_indices(t).any(|(p, _)| {
                let before_ok = p == 0 || !is_ident_byte(sig.as_bytes()[p - 1]);
                let after = p + t.len();
                let after_ok = after >= sig.len() || !is_ident_byte(sig.as_bytes()[after]);
                before_ok && after_ok
            })
        });
        if has_raw_float && !allow.allows(rel, fn_name) {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: line_of(src, pos),
                kind: ViolationKind::RawFloatSignature,
                detail: format!(
                    "`pub fn {fn_name}` exposes raw f64/f32 — use a solarml-units newtype \
                     or add `{}::{fn_name}` to the allow-list",
                    rel.display()
                ),
            });
        }
        i = sig_end;
    }
}

/// Does this token text look like a float literal (`1.0`, `1e-9`, `2f64`)?
fn is_float_literal(tok: &str) -> bool {
    let t = tok
        .trim_end_matches("f64")
        .trim_end_matches("f32")
        .trim_end_matches('_');
    if t.is_empty() {
        // Bare `f64`/`f32` suffix means the original was e.g. `2f64`… but an
        // empty remainder means the token was just the suffix text: not a
        // literal unless digits preceded, which trim would have kept.
        return tok != "f64" && tok != "f32" && !tok.is_empty();
    }
    if !t.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let has_dot = t.contains('.');
    let has_exp =
        t.chars().any(|c| c == 'e' || c == 'E') && !t.starts_with("0x") && !t.starts_with("0b");
    let had_suffix = tok.ends_with("f64") || tok.ends_with("f32");
    (has_dot || has_exp || had_suffix)
        && t.chars().all(|c| {
            c.is_ascii_digit()
                || c == '.'
                || c == 'e'
                || c == 'E'
                || c == '-'
                || c == '+'
                || c == '_'
        })
}

fn scan_float_eq(
    rel: &Path,
    src: &str,
    tokens: &[lexer::Token],
    blanked: &str,
    tests: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    let allowed = lexer::allow_spans(src, tokens, "float-eq");
    let b = blanked.as_bytes();
    let eqs = blanked.match_indices("==").map(|(p, _)| (p, false));
    let neqs = blanked.match_indices("!=").map(|(p, _)| (p, true));
    for (pos, is_neq) in eqs.chain(neqs) {
        // Skip `<=`, `>=`, `=>`-adjacent noise: the operator must stand
        // alone (not preceded by another comparison/assignment byte, not
        // followed by `=`).
        if !is_neq && pos > 0 && matches!(b[pos - 1], b'<' | b'>' | b'=' | b'!') {
            continue;
        }
        if pos + 2 < b.len() && b[pos + 2] == b'=' {
            continue;
        }
        if in_regions(tests, pos) || lexer::in_spans(&allowed, pos) {
            continue;
        }
        let line = line_of(src, pos);
        // Token immediately before (skipping whitespace and a closing paren
        // is NOT attempted: lexical rule, literals only).
        let before = {
            let mut e = pos;
            while e > 0 && b[e - 1].is_ascii_whitespace() {
                e -= 1;
            }
            let mut s = e;
            while s > 0
                && (is_ident_byte(b[s - 1])
                    || b[s - 1] == b'.'
                    // exponent sign: the `-`/`+` inside `1.5e-3`
                    || (matches!(b[s - 1], b'-' | b'+')
                        && s >= 2
                        && matches!(b[s - 2], b'e' | b'E')))
            {
                s -= 1;
            }
            &blanked[s..e]
        };
        let after = {
            let mut s = pos + 2;
            while s < b.len() && b[s].is_ascii_whitespace() {
                s += 1;
            }
            let mut e = s;
            // Allow a leading sign on the literal.
            if e < b.len() && b[e] == b'-' {
                e += 1;
            }
            while e < b.len()
                && (is_ident_byte(b[e])
                    || b[e] == b'.'
                    || (matches!(b[e], b'-' | b'+') && e >= 1 && matches!(b[e - 1], b'e' | b'E')))
            {
                e += 1;
            }
            blanked[s..e].trim_start_matches('-')
        };
        if is_float_literal(before) || is_float_literal(after) {
            out.push(Violation {
                file: rel.to_path_buf(),
                line,
                kind: ViolationKind::FloatEq,
                detail: format!(
                    "float literal compared with `{}` — use a tolerance or \
                     `// physics-lint: allow(float-eq)` with a reason",
                    if is_neq { "!=" } else { "==" }
                ),
            });
        }
    }
}

/// The fault-path rule: flags every `.unwrap()` and `.expect(` in `src`,
/// with *no* exemptions — test regions count (a panicking assertion helper
/// inside a brownout test aborts the run exactly like a product bug would),
/// and neither the allow-list nor `physics-lint: allow(...)` markers are
/// honored. Fault-handling code must thread errors, full stop.
pub fn scan_fault_path(rel: &Path, src: &str) -> Vec<Violation> {
    let blanked = blank_noncode(src);
    let mut out = Vec::new();
    for needle in [".unwrap()", ".expect("] {
        for (pos, _) in blanked.match_indices(needle) {
            out.push(Violation {
                file: rel.to_path_buf(),
                line: line_of(src, pos),
                kind: ViolationKind::FaultPathUnwrap,
                detail: format!(
                    "`{needle}…` on the fault path — a panic here masquerades as the \
                     injected fault; match or propagate instead (no escapes honored)"
                ),
            });
        }
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Does this (blanked) line open a time-stepping loop? Either a `while`
/// whose condition compares a time-like variable (`t`, `…time…`,
/// `…elapsed…`, `…deadline…`, `…clock…`, `…remaining…`) with `<`/`>`, or a
/// `for … in 0..n` counter loop — the two shapes the legacy per-module
/// simulation loops used.
fn is_time_loop_header(line: &str) -> bool {
    let t = line.trim_start();
    if let Some(cond) = t.strip_prefix("while ") {
        if !(cond.contains('<') || cond.contains('>')) {
            return false;
        }
        let mut ident = String::new();
        let mut idents = Vec::new();
        for c in cond.chars() {
            if c.is_ascii_alphanumeric() || c == '_' {
                ident.push(c);
            } else if !ident.is_empty() {
                idents.push(std::mem::take(&mut ident));
            }
        }
        if !ident.is_empty() {
            idents.push(ident);
        }
        idents.iter().any(|id| {
            id == "t"
                || id.contains("time")
                || id.contains("elapsed")
                || id.contains("deadline")
                || id.contains("clock")
                || id.contains("remaining")
        })
    } else if let Some(rest) = t.strip_prefix("for ") {
        rest.contains(" in 0..")
    } else {
        false
    }
}

/// The co-simulation rule: flags a manual time-stepping loop — a loop
/// header matched by [`is_time_loop_header`] whose header or following few
/// lines call `.step(` — in non-test library code. All stepping must go
/// through the `solarml_sim::Scheduler` so the workspace keeps one clock
/// and one bus-owned energy ledger; ad-hoc loops re-grow the per-module dt
/// drift and side-channel accounting the scheduler refactor removed.
/// Honors the file-wildcard allow-list and a
/// `// physics-lint: allow(adhoc-sim-loop)` escape attached to either the
/// loop statement or the statement containing the `.step(` call;
/// `#[cfg(test)]` regions are exempt (a hand-rolled reference loop is
/// exactly how the scheduler itself gets checked).
pub fn scan_sim_loops(rel: &Path, src: &str, allow: &AllowList) -> Vec<Violation> {
    let mut out = Vec::new();
    if allow.allows(rel, "*") {
        return out;
    }
    let tokens = lexer::lex(src);
    let blanked = lexer::blank_with_tokens(src, &tokens);
    let tests = test_regions(&blanked);
    let allowed = lexer::allow_spans(src, &tokens, "adhoc-sim-loop");
    let lines: Vec<&str> = blanked.lines().collect();
    let mut offsets = Vec::with_capacity(lines.len());
    let mut off = 0usize;
    for l in &lines {
        offsets.push(off);
        off += l.len() + 1;
    }
    for (i, header) in lines.iter().enumerate() {
        if !is_time_loop_header(header) || in_regions(&tests, offsets[i]) {
            continue;
        }
        // The stepped component call sits in the header or shortly after it
        // in every loop shape this workspace has had; six lines of lookahead
        // covers a rustfmt-wrapped call without reaching into a sibling loop.
        let window_end = (i + 7).min(lines.len());
        let Some(step_at) = (i..window_end).find(|&j| lines[j].contains(".step(")) else {
            continue;
        };
        let line = i + 1;
        let header_pos = offsets[i] + (header.len() - header.trim_start().len());
        let step_pos = offsets[step_at] + lines[step_at].find(".step(").unwrap_or(0);
        if lexer::in_spans(&allowed, header_pos) || lexer::in_spans(&allowed, step_pos) {
            continue;
        }
        out.push(Violation {
            file: rel.to_path_buf(),
            line,
            kind: ViolationKind::AdhocSimLoop,
            detail: format!(
                "manual stepping loop drives `.step(` (line {}) outside the \
                 co-simulation scheduler — use `solarml_sim::Scheduler` \
                 (run_until/run_span/run_steps) or add \
                 `// physics-lint: allow(adhoc-sim-loop)` with a reason",
                step_at + 1
            ),
        });
    }
    out
}

/// Which rule families apply to one file. Derived from [`ScanConfig`] per
/// crate by [`scan_workspace`]; the corpus harness builds one directly from
/// a fixture's `// lint-rules:` header.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuleSet {
    /// raw-float-signature
    pub signatures: bool,
    /// float-eq
    pub float_eq: bool,
    /// adhoc-sim-loop
    pub sim_loops: bool,
    /// determinism
    pub determinism: bool,
    /// seed-discipline
    pub seed_discipline: bool,
    /// ledger-coverage
    pub ledger_coverage: bool,
    /// fault-path (unwrap/expect everywhere, no escapes)
    pub fault_path: bool,
}

/// Scans one file under an explicit rule set: the classic families from
/// this module plus the determinism families from [`crate::rules`], plus
/// the allow-hygiene check (which runs whenever *any* family does — an
/// unexplained escape is a finding regardless of which rule it names).
pub fn scan_file(rel: &Path, src: &str, rules: RuleSet, config: &ScanConfig) -> Vec<Violation> {
    let mut out = scan_source(rel, src, rules.signatures, rules.float_eq, &config.allow);
    if !config.allow.allows(rel, "*") {
        if rules.sim_loops {
            out.extend(scan_sim_loops(rel, src, &config.allow));
        }
        out.extend(crate::rules::scan_new_families(rel, src, rules, config));
        out.extend(crate::rules::scan_allow_hygiene(rel, src));
    }
    if rules.fault_path {
        out.extend(scan_fault_path(rel, src));
    }
    out.sort_by_key(|v| v.line);
    out
}

/// Walks `crates/<name>/src` for every crate in the policy and scans each
/// `.rs` file. `root` is the workspace root.
pub fn scan_workspace(root: &Path, config: &ScanConfig) -> std::io::Result<Vec<Violation>> {
    let mut out = Vec::new();
    let mut crates: Vec<&String> = config
        .signature_crates
        .iter()
        .chain(config.float_eq_crates.iter())
        .chain(config.sim_loop_crates.iter())
        .chain(config.determinism_crates.iter())
        .chain(config.seed_crates.iter())
        .chain(config.ledger_crates.iter())
        .collect();
    crates.sort();
    crates.dedup();
    for name in crates {
        let has = |list: &[String]| list.iter().any(|c| c == name);
        let rules = RuleSet {
            signatures: has(&config.signature_crates),
            float_eq: has(&config.float_eq_crates),
            sim_loops: has(&config.sim_loop_crates),
            determinism: has(&config.determinism_crates),
            seed_discipline: has(&config.seed_crates),
            ledger_coverage: has(&config.ledger_crates),
            fault_path: false, // fault-path scoping is per file, below
        };
        let src_dir = root.join("crates").join(name).join("src");
        for file in rs_files(&src_dir)? {
            let rel = file.strip_prefix(root).unwrap_or(&file).to_path_buf();
            let text = std::fs::read_to_string(&file)?;
            out.extend(scan_file(&rel, &text, rules, config));
        }
    }
    for rel in &config.fault_path_files {
        let path = root.join(rel);
        if !path.exists() {
            continue;
        }
        let text = std::fs::read_to_string(&path)?;
        out.extend(scan_fault_path(rel, &text));
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

fn rs_files(dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.exists() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d)? {
            let path = entry?.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(vs: &[Violation]) -> Vec<ViolationKind> {
        vs.iter().map(|v| v.kind).collect()
    }

    #[test]
    fn blanking_removes_comments_and_strings() {
        let src = "let x = \"== 1.0\"; // f64 here\nlet y = 2; /* .unwrap() */";
        let blanked = blank_noncode(src);
        assert!(!blanked.contains("1.0"));
        assert!(!blanked.contains("f64"));
        assert!(!blanked.contains("unwrap"));
        assert!(blanked.contains("let y = 2;"));
        assert_eq!(blanked.len(), src.len());
    }

    #[test]
    fn blanking_handles_raw_strings_and_chars() {
        let src = "let s = r#\"a \"quoted\" f64\"#; let c = '\\''; let l: &'static str = s;";
        let blanked = blank_noncode(src);
        assert!(!blanked.contains("f64"));
        assert!(blanked.contains("'static"));
    }

    #[test]
    fn detects_raw_float_in_pub_signature() {
        let src = "pub fn power(&self, lux: f64) -> Power { todo!() }";
        let vs = scan_source(
            Path::new("crates/x/src/lib.rs"),
            src,
            true,
            false,
            &AllowList::default(),
        );
        assert_eq!(kinds(&vs), vec![ViolationKind::RawFloatSignature]);
        // Same file, strict-only policy: no signature finding.
        let vs = scan_source(
            Path::new("crates/x/src/lib.rs"),
            src,
            false,
            true,
            &AllowList::default(),
        );
        assert!(vs.is_empty());
    }

    #[test]
    fn detects_float_return_type() {
        let src = "pub fn efficiency(&self) -> f64 { 0.0 }";
        let vs = scan_source(Path::new("a.rs"), src, true, false, &AllowList::default());
        assert_eq!(kinds(&vs), vec![ViolationKind::RawFloatSignature]);
    }

    #[test]
    fn closure_param_floats_are_flagged() {
        let src = "pub fn step(&mut self, shading: impl Fn(usize) -> f64) -> SimStep { todo!() }";
        let vs = scan_source(Path::new("a.rs"), src, true, false, &AllowList::default());
        assert_eq!(kinds(&vs), vec![ViolationKind::RawFloatSignature]);
    }

    #[test]
    fn units_newtype_signature_is_clean() {
        let src = "pub fn power(&self, lux: Lux, shading: Ratio) -> Power { todo!() }\n\
                   pub fn raw(&self) -> Vec<u64> { vec![] }";
        let vs = scan_source(Path::new("a.rs"), src, true, true, &AllowList::default());
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn pub_crate_fns_are_exempt() {
        let src = "pub(crate) fn helper(x: f64) -> f64 { x }";
        let vs = scan_source(Path::new("a.rs"), src, true, false, &AllowList::default());
        assert!(vs.is_empty());
    }

    #[test]
    fn body_floats_do_not_trip_signature_rule() {
        let src = "pub fn tidy(&self) -> Power {\n    let x: f64 = 1.0;\n    Power::new(x)\n}";
        let vs = scan_source(Path::new("a.rs"), src, true, false, &AllowList::default());
        assert!(vs.is_empty());
    }

    #[test]
    fn allow_list_suppresses_by_fn_name_and_wildcard() {
        let src =
            "pub fn mean(xs: &[f64]) -> f64 { 0.0 }\npub fn median(xs: &[f64]) -> f64 { 0.0 }";
        let allow = AllowList::parse("crates/trace/src/stats.rs::mean\n# comment\n");
        let rel = Path::new("crates/trace/src/stats.rs");
        let vs = scan_source(rel, src, true, false, &allow);
        assert_eq!(vs.len(), 1);
        assert!(vs[0].detail.contains("median"));
        let allow_all = AllowList::parse("crates/trace/src/stats.rs::*");
        assert!(scan_source(rel, src, true, false, &allow_all).is_empty());
    }

    #[test]
    fn detects_float_eq_against_literal() {
        let src = "fn go(x: f64) -> bool { x == 0.0 }";
        let vs = scan_source(Path::new("a.rs"), src, false, true, &AllowList::default());
        assert_eq!(kinds(&vs), vec![ViolationKind::FloatEq]);
        let src_neq = "fn go(x: f64) -> bool { 1.5e-3 != x }";
        let vs = scan_source(
            Path::new("a.rs"),
            src_neq,
            false,
            true,
            &AllowList::default(),
        );
        assert_eq!(kinds(&vs), vec![ViolationKind::FloatEq]);
    }

    #[test]
    fn integer_eq_and_comparisons_are_fine() {
        let src = "fn go(x: usize, y: f64) -> bool { x == 3 && y >= 0.0 && y <= 1.0 }";
        let vs = scan_source(Path::new("a.rs"), src, false, true, &AllowList::default());
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn float_eq_in_doc_comment_is_ignored() {
        let src = "/// Returns true when `x == 0.0`.\nfn go(x: u64) -> bool { x == 0 }";
        let vs = scan_source(Path::new("a.rs"), src, false, true, &AllowList::default());
        assert!(vs.is_empty());
    }

    #[test]
    fn test_region_masking_handles_nested_braces() {
        let src = "#[cfg(test)]\nmod tests {\n    fn deep() { if true { x == 1.0; } }\n}\n\
                   fn live() { y == 1.0; }";
        let vs = scan_source(Path::new("a.rs"), src, false, true, &AllowList::default());
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 5);
    }

    #[test]
    fn fault_path_rule_covers_tests_and_ignores_escapes() {
        let src = "\
fn live() { let x = maybe().unwrap(); } // physics-lint: allow(unwrap): nope\n\
#[cfg(test)]\nmod tests {\n    fn t() { other().expect(\"boom\"); }\n}\n";
        let vs = scan_fault_path(Path::new("crates/circuit/src/fault.rs"), src);
        assert_eq!(
            kinds(&vs),
            vec![
                ViolationKind::FaultPathUnwrap,
                ViolationKind::FaultPathUnwrap
            ],
            "{vs:?}"
        );
        assert_eq!(vs[0].line, 1, "inline escape must not be honored");
        assert_eq!(vs[1].line, 4, "test regions are not exempt");
    }

    #[test]
    fn fault_path_rule_ignores_comments_and_strings() {
        let src = "/// Never call `.unwrap()` here.\nfn go() { log(\".expect(\"); }\n";
        let vs = scan_fault_path(Path::new("crates/circuit/src/fault.rs"), src);
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn detects_while_time_loop_around_step() {
        let src = "\
fn run(sim: &mut Sim) {\n\
    let mut time = 0.0;\n\
    while time < 60.0 {\n\
        let s = sim.step();\n\
        time += 0.001;\n\
    }\n\
}\n";
        let vs = scan_sim_loops(
            Path::new("crates/circuit/src/sim.rs"),
            src,
            &AllowList::default(),
        );
        assert_eq!(kinds(&vs), vec![ViolationKind::AdhocSimLoop]);
        assert_eq!(vs[0].line, 3);
    }

    #[test]
    fn detects_counter_loop_around_step() {
        let src = "fn run(sim: &mut Sim, n: usize) {\n    for _ in 0..n {\n        sim.step();\n    }\n}\n";
        let vs = scan_sim_loops(Path::new("a.rs"), src, &AllowList::default());
        assert_eq!(kinds(&vs), vec![ViolationKind::AdhocSimLoop]);
    }

    #[test]
    fn non_stepping_and_non_time_loops_are_fine() {
        // A time loop that never calls `.step(`, a `.step(` under a
        // non-time `while`, and an iterator `for` are all clean.
        let src = "\
fn a(mut elapsed: f64) { while elapsed < 9.0 { elapsed += 1.0; } }\n\
fn b(q: &mut Vec<Sim>) { while let Some(mut s) = q.pop() { s.step(); } }\n\
fn c(xs: &[u8]) { for x in xs { step_count(*x); } }\n";
        let vs = scan_sim_loops(Path::new("a.rs"), src, &AllowList::default());
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn sim_loops_in_tests_and_comments_are_exempt() {
        let src = "\
/// while t < end { sim.step(); }\n\
#[cfg(test)]\n\
mod tests {\n\
    fn reference() { let mut t = 0.0; while t < 1.0 { sim.step(); t += 0.1; } }\n\
}\n";
        let vs = scan_sim_loops(Path::new("a.rs"), src, &AllowList::default());
        assert!(vs.is_empty(), "{vs:?}");
    }

    #[test]
    fn inline_marker_and_wildcard_suppress_sim_loop() {
        let src = "\
fn run(sim: &mut Sim) {\n\
    let mut time = 0.0;\n\
    // physics-lint: allow(adhoc-sim-loop): scheduler bootstrap\n\
    while time < 60.0 {\n\
        sim.step();\n\
        time += 0.001;\n\
    }\n\
}\n";
        let vs = scan_sim_loops(Path::new("a.rs"), src, &AllowList::default());
        assert!(vs.is_empty(), "{vs:?}");
        let flagged = "fn r(sim: &mut Sim) {\n    let mut t = 0.0;\n    while t < 1.0 {\n        sim.step();\n        t += 0.1;\n    }\n}\n";
        let allow = AllowList::parse("crates/x/src/lib.rs::*");
        let vs = scan_sim_loops(Path::new("crates/x/src/lib.rs"), flagged, &allow);
        assert!(vs.is_empty(), "{vs:?}");
        let vs = scan_sim_loops(
            Path::new("crates/x/src/lib.rs"),
            flagged,
            &AllowList::default(),
        );
        assert_eq!(kinds(&vs), vec![ViolationKind::AdhocSimLoop]);
    }

    #[test]
    fn float_literal_classifier() {
        for yes in ["1.0", "0.5", "1e-9", "2.33e-3", "2f64", "1_000.0", "3.3f32"] {
            assert!(is_float_literal(yes), "{yes} should be a float literal");
        }
        for no in ["1", "x", "0x1e", "len", "f64", "Power", "1_000"] {
            assert!(!is_float_literal(no), "{no} should NOT be a float literal");
        }
    }

    // `unwrap`/`expect` in library code and `Rc`/`RefCell` have no lexical
    // rule any more: clippy enforces them. These tests pin each retired
    // family to that enforcer. The gate lints `--lib`, so test code is
    // outside its reach, as it was outside the lexical rules'.

    #[test]
    fn detects_unwrap_and_expect_outside_tests() {
        let src = "\
//! Panics in library code.

/// `unwrap` and `expect` outside tests.
pub fn go(maybe: Option<u8>, other: Option<u8>) -> u8 {
    let x = maybe.unwrap(); //~ ERROR clippy::unwrap_used
    let y = other.expect(\"boom\"); //~ ERROR clippy::expect_used
    x.wrapping_add(y)
}

/// The non-panicking spellings are fine.
pub fn total(maybe: Option<u8>) -> u8 {
    maybe.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = Some(1u8).unwrap();
    }
}
";
        crate::clippy::assert_clippy_matches("snippet-unwrap", src);
    }

    #[test]
    fn detects_rc_and_refcell_outside_tests() {
        let src = "\
//! Shared state.
use std::cell::RefCell; //~ ERROR clippy::disallowed_types
use std::rc::Rc; //~ ERROR clippy::disallowed_types
use std::sync::{Arc, RwLock};

/// Not `Send`/`Sync`.
pub struct S {
    /// A cache the worker threads cannot share.
    pub cache: Rc<RefCell<Vec<u8>>>,
    //~^ ERROR clippy::disallowed_types
    //~^^ ERROR clippy::disallowed_types
    /// The thread-safe spelling.
    pub shared: Arc<RwLock<Vec<u8>>>,
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = std::rc::Rc::new(std::cell::RefCell::new(0u8));
    }
}
";
        crate::clippy::assert_clippy_matches("snippet-rc-refcell", src);
    }
}
