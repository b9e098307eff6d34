//! The determinism rule families: token-aware passes that statically guard
//! the "bit-identical everywhere" promise where clippy cannot.
//!
//! PR 2 and PR 5 pinned `SearchOutcome` and `FleetReport` byte-identical
//! across worker counts; the incremental-campaign roadmap items are only
//! sound if every cached result is recomputable from `(spec, seed, index)`.
//! Bans clippy can resolve by type (wall clocks, ambient entropy, hashed
//! containers, unstable hashers, bare durable writes) live in the per-crate
//! `clippy.toml` files. These rules reject the patterns no disallowed list
//! can express:
//!
//! * [`determinism`](ViolationKind::Determinism) — iteration over
//!   `HashMap`/`HashSet` (RandomState makes the order — and therefore any
//!   float accumulation over it — run-dependent), in the crates whose
//!   `clippy.toml` allows hashed containers for lookups;
//! * [`seed-discipline`](ViolationKind::SeedDiscipline) — raw seed
//!   arithmetic outside the sanctioned mixer functions, and `derive_seed`
//!   calls whose cycle tag is not a registered named constant (two call
//!   sites inventing `seed + i` and `seed ^ i` is how streams collide);
//! * [`ledger-coverage`](ViolationKind::LedgerCoverage) — `+= … * dt`
//!   side-channel integration outside `SimBus`/`EnergyAudit`, the exact
//!   double-counting pattern the unified-scheduler refactor removed.
//!
//! All three are lexical like the rest of the lint: they reason over the
//! token stream from [`crate::lexer`], so a `HashMap` in a doc comment or a
//! `seed + i` inside a string literal never fires. Escapes use the same
//! statement-scoped `physics-lint: allow(<rule>): <reason>` comments as the
//! classic families — and [`scan_allow_hygiene`] makes the reason
//! mandatory.

use std::collections::HashSet;
use std::path::Path;

use crate::lexer::{self, Token, TokenKind};
use crate::scan::{in_regions, line_of, test_regions, RuleSet, ScanConfig};
use crate::{Violation, ViolationKind};

/// Every inline-escapable rule name the scanner knows. `allow(…)` naming
/// anything else is flagged by [`scan_allow_hygiene`].
pub const KNOWN_RULES: &[&str] = &[
    "raw-float-signature",
    "float-eq",
    "fault-path",
    "adhoc-sim-loop",
    "determinism",
    "seed-discipline",
    "ledger-coverage",
];

/// Methods whose receiver order is the hasher's iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
    "retain",
];

/// Integer-arithmetic methods that count as seed mixing.
const WRAPPING_METHODS: &[&str] = &[
    "wrapping_add",
    "wrapping_sub",
    "wrapping_mul",
    "wrapping_rem",
    "rotate_left",
    "rotate_right",
];

/// Runs whichever of the three determinism families `rules` enables.
/// Shares one lex / one blanked view / one test-region mask across them.
pub fn scan_new_families(
    rel: &Path,
    src: &str,
    rules: RuleSet,
    config: &ScanConfig,
) -> Vec<Violation> {
    let mut out = Vec::new();
    if !(rules.determinism || rules.seed_discipline || rules.ledger_coverage) {
        return out;
    }
    let tokens = lexer::lex(src);
    let blanked = lexer::blank_with_tokens(src, &tokens);
    let tests = test_regions(&blanked);
    let code: Vec<Token> = tokens.iter().filter(|t| t.is_code()).copied().collect();
    if rules.determinism {
        scan_determinism(rel, src, &tokens, &code, &tests, &mut out);
    }
    if rules.seed_discipline {
        scan_seed_discipline(rel, src, &tokens, &code, &tests, config, &mut out);
    }
    if rules.ledger_coverage {
        scan_ledger_coverage(rel, src, &tokens, &code, &tests, &mut out);
    }
    out.sort_by_key(|v| v.line);
    out
}

fn text<'s>(src: &'s str, t: &Token) -> &'s str {
    &src[t.start..t.end]
}

fn is_punct(src: &str, t: Option<&Token>, p: &str) -> bool {
    t.is_some_and(|t| t.kind == TokenKind::Punct && text(src, t) == p)
}

fn ident_text<'s>(src: &'s str, t: Option<&Token>) -> Option<&'s str> {
    t.filter(|t| t.kind == TokenKind::Ident)
        .map(|t| text(src, t))
}

/// Idents *declared* as `HashMap`/`HashSet` in this file: `name: HashMap<…>`
/// (fields, params, typed lets) and `let [mut] name = HashMap::new()`-style
/// initializers. Declaration-driven rather than type-driven keeps the rule
/// lexical; a hashed container smuggled in through a type alias is clippy's
/// `disallowed_types` job.
fn hashed_idents(src: &str, code: &[Token]) -> HashSet<String> {
    let mut out = HashSet::new();
    for i in 0..code.len() {
        let Some(name) = ident_text(src, code.get(i)) else {
            continue;
        };
        // `name: [&] [mut] [std :: collections ::] HashMap<…>` — but not a
        // path segment (`name::`) and not the second half of one (`::name`).
        if is_punct(src, code.get(i + 1), ":")
            && !is_punct(src, code.get(i + 2), ":")
            && !is_punct(src, code.get(i.wrapping_sub(1)), ":")
        {
            let mut j = i + 2;
            while j < code.len() && j < i + 10 {
                let t = &code[j];
                let skip = match t.kind {
                    TokenKind::Punct => matches!(text(src, t), ":" | "&"),
                    TokenKind::Lifetime => true,
                    TokenKind::Ident => matches!(text(src, t), "mut" | "std" | "collections"),
                    _ => false,
                };
                if !skip {
                    break;
                }
                j += 1;
            }
            if matches!(ident_text(src, code.get(j)), Some("HashMap" | "HashSet")) {
                out.insert(name.to_string());
            }
        }
        // `let [mut] bound = … HashMap::new() …` up to the closing `;`.
        if name == "let" {
            let mut j = i + 1;
            if ident_text(src, code.get(j)) == Some("mut") {
                j += 1;
            }
            let Some(bound) = ident_text(src, code.get(j)) else {
                continue;
            };
            if !is_punct(src, code.get(j + 1), "=") {
                continue;
            }
            let mut k = j + 2;
            while k < code.len() && k < j + 40 && !is_punct(src, code.get(k), ";") {
                if matches!(ident_text(src, code.get(k)), Some("HashMap" | "HashSet"))
                    && is_punct(src, code.get(k + 1), ":")
                {
                    out.insert(bound.to_string());
                    break;
                }
                k += 1;
            }
        }
    }
    out
}

/// The determinism rule: flags iteration over hashed containers in non-test
/// library code.
fn scan_determinism(
    rel: &Path,
    src: &str,
    tokens: &[Token],
    code: &[Token],
    tests: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    let allowed = lexer::allow_spans(src, tokens, "determinism");
    let hashed = hashed_idents(src, code);
    let exempt = |pos: usize| -> bool { in_regions(tests, pos) || lexer::in_spans(&allowed, pos) };
    for i in 0..code.len() {
        let t = &code[i];
        let Some(name) = ident_text(src, Some(t)) else {
            continue;
        };
        if exempt(t.start) {
            continue;
        }
        // `recv.iter()` / `recv.values()` / … where recv was declared hashed.
        if ITER_METHODS.contains(&name)
            && is_punct(src, code.get(i + 1), "(")
            && is_punct(src, code.get(i.wrapping_sub(1)), ".")
        {
            if let Some(recv) = ident_text(src, code.get(i.wrapping_sub(2))) {
                if hashed.contains(recv) {
                    out.push(Violation {
                        file: rel.to_path_buf(),
                        line: t.line,
                        kind: ViolationKind::Determinism,
                        detail: format!(
                            "`{recv}.{name}(…)` iterates a hashed container — \
                             RandomState order is run-dependent (and poisons any \
                             float accumulation over it); use BTreeMap/BTreeSet or \
                             sorted keys, or add \
                             `// physics-lint: allow(determinism): <reason>`"
                        ),
                    });
                }
            }
        }
        // `for … in <hashed> {` — direct IntoIterator over the container.
        if name == "for" {
            let header_end = code[i + 1..]
                .iter()
                .take(60)
                .position(|c| {
                    c.kind == TokenKind::Punct && text(src, c) == "{" && c.depth == t.depth
                })
                .map(|off| i + 1 + off);
            if let Some(end) = header_end {
                let over_hashed = code[i + 1..end]
                    .iter()
                    .any(|c| c.kind == TokenKind::Ident && hashed.contains(text(src, c)));
                // `.iter()`-style headers are already flagged above; only
                // report the bare `for k in map` shape here to avoid
                // double-counting one loop.
                let has_method = code[i + 1..end]
                    .iter()
                    .any(|c| ident_text(src, Some(c)).is_some_and(|n| ITER_METHODS.contains(&n)));
                if over_hashed && !has_method {
                    out.push(Violation {
                        file: rel.to_path_buf(),
                        line: t.line,
                        kind: ViolationKind::Determinism,
                        detail: "`for … in` over a hashed container — RandomState \
                                 order is run-dependent; use BTreeMap/BTreeSet or \
                                 sorted keys, or add \
                                 `// physics-lint: allow(determinism): <reason>`"
                            .to_string(),
                    });
                }
            }
        }
    }
}

/// The seed-discipline rule: raw arithmetic on seed-named values is only
/// legal inside the sanctioned mixer functions or against a registered
/// cycle-tag constant, and `derive_seed`'s cycle argument must be one of
/// those registered names.
fn scan_seed_discipline(
    rel: &Path,
    src: &str,
    tokens: &[Token],
    code: &[Token],
    tests: &[(usize, usize)],
    config: &ScanConfig,
    out: &mut Vec<Violation>,
) {
    let allowed = lexer::allow_spans(src, tokens, "seed-discipline");
    let mixer_bodies: Vec<(usize, usize)> = lexer::fn_items(src, tokens)
        .into_iter()
        .filter(|f| config.seed_mixer_fns.iter().any(|m| m == &f.name))
        .map(|f| f.body)
        .collect();
    let is_tag = |name: &str| config.seed_tags.iter().any(|t| t == name);
    let seedish = |t: Option<&Token>| {
        ident_text(src, t).is_some_and(|n| n.to_ascii_lowercase().contains("seed"))
    };
    let exempt = |pos: usize| {
        in_regions(tests, pos) || in_regions(&mixer_bodies, pos) || lexer::in_spans(&allowed, pos)
    };
    for i in 0..code.len() {
        let t = &code[i];
        if exempt(t.start) {
            continue;
        }
        if t.kind == TokenKind::Ident {
            let name = text(src, t);
            // `seed.wrapping_mul(…)`-style mixing.
            if seedish(Some(t))
                && is_punct(src, code.get(i + 1), ".")
                && ident_text(src, code.get(i + 2)).is_some_and(|m| WRAPPING_METHODS.contains(&m))
            {
                let method = ident_text(src, code.get(i + 2)).unwrap_or_default();
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line: t.line,
                    kind: ViolationKind::SeedDiscipline,
                    detail: format!(
                        "`{name}.{method}(…)` mixes a seed by hand — route through \
                         `derive_seed(seed, CYCLE_TAG, index)` (or a registered \
                         mixer fn), or add \
                         `// physics-lint: allow(seed-discipline): <reason>`"
                    ),
                });
            }
            // `derive_seed(seed, <tag>, index)`: the cycle tag must be a
            // registered constant, not a bare literal or an ad-hoc const.
            if name == "derive_seed" && is_punct(src, code.get(i + 1), "(") {
                check_derive_seed_tag(rel, src, code, i, &is_tag, out);
            }
            continue;
        }
        // Binary seed arithmetic: + - * % ^ and << >> (adjacent pairs).
        if t.kind != TokenKind::Punct {
            continue;
        }
        let op = text(src, t);
        let (op_disp, right_idx) = match op {
            "+" | "-" | "*" | "%" | "^" => (op.to_string(), i + 1),
            "<" | ">" => {
                let next = code.get(i + 1);
                let prev = code.get(i.wrapping_sub(1));
                let doubles_next = next.is_some_and(|n| n.start == t.end && text(src, n) == op);
                let doubles_prev =
                    i > 0 && prev.is_some_and(|p| p.end == t.start && text(src, p) == op);
                if doubles_prev || !doubles_next {
                    continue; // second half of a shift, or a comparison
                }
                (format!("{op}{op}"), i + 2)
            }
            _ => continue,
        };
        // `->` return arrows and `=>` match arms never have ident operands
        // adjacent on both sides, so no special-casing needed; compound
        // assignment (`^=`, `+=`…) shifts the RHS right by one.
        let mut right_idx = right_idx;
        if is_punct(src, code.get(right_idx), "=") {
            right_idx += 1;
        }
        let left = if i > 0 { code.get(i - 1) } else { None };
        let right = code.get(right_idx);
        let left_seed = seedish(left);
        let right_seed = seedish(right);
        if !left_seed && !right_seed {
            continue;
        }
        // Unary `-x` / `*x` / `&x`: no left operand means not arithmetic.
        if !left_seed
            && matches!(op, "-" | "*")
            && !left.is_some_and(|l| {
                matches!(l.kind, TokenKind::Ident | TokenKind::Number)
                    || matches!(text(src, l), ")" | "]")
            })
        {
            continue;
        }
        // Sanctioned: the other operand is a registered cycle-tag constant.
        let other = if left_seed { right } else { left };
        if ident_text(src, other).is_some_and(&is_tag) {
            continue;
        }
        let lhs = left.map(|l| text(src, l)).unwrap_or_default();
        let rhs = right.map(|r| text(src, r)).unwrap_or_default();
        out.push(Violation {
            file: rel.to_path_buf(),
            line: t.line,
            kind: ViolationKind::SeedDiscipline,
            detail: format!(
                "raw seed arithmetic `{lhs} {op_disp} {rhs}` — derive per-stream \
                 seeds via `derive_seed(seed, CYCLE_TAG, index)` with a tag \
                 registered in ScanConfig::seed_tags, or add \
                 `// physics-lint: allow(seed-discipline): <reason>`"
            ),
        });
    }
}

/// Checks the second argument of a `derive_seed(…)` call at `code[at]`.
fn check_derive_seed_tag(
    rel: &Path,
    src: &str,
    code: &[Token],
    at: usize,
    is_tag: &dyn Fn(&str) -> bool,
    out: &mut Vec<Violation>,
) {
    // Split top-level commas between the parens.
    let mut depth = 1i32;
    let mut args: Vec<Vec<&Token>> = vec![Vec::new()];
    let mut j = at + 2;
    while j < code.len() && depth > 0 {
        let t = &code[j];
        if t.kind == TokenKind::Punct {
            match text(src, t) {
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                "," if depth == 1 => {
                    args.push(Vec::new());
                    j += 1;
                    continue;
                }
                _ => {}
            }
        }
        if let Some(last) = args.last_mut() {
            last.push(t);
        }
        j += 1;
    }
    let Some(cycle_arg) = args.get(1) else { return };
    let [only] = cycle_arg.as_slice() else {
        return; // an expression (e.g. `req.cycle`) carries its own provenance
    };
    let line = code[at].line;
    match only.kind {
        TokenKind::Number => out.push(Violation {
            file: rel.to_path_buf(),
            line,
            kind: ViolationKind::SeedDiscipline,
            detail: format!(
                "`derive_seed` cycle tag is the bare literal `{}` — use a named \
                 constant registered in ScanConfig::seed_tags so the stream is \
                 reserved exactly once",
                text(src, only)
            ),
        }),
        TokenKind::Ident => {
            let name = text(src, only);
            let screaming = name
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
                && name.chars().any(|c| c.is_ascii_uppercase());
            if screaming && !is_tag(name) {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line,
                    kind: ViolationKind::SeedDiscipline,
                    detail: format!(
                        "`derive_seed` cycle tag `{name}` is not registered — add it \
                         to ScanConfig::seed_tags (reserving the stream is a \
                         reviewed decision)"
                    ),
                });
            }
        }
        _ => {}
    }
}

/// The ledger-coverage rule: a compound assignment whose right-hand side
/// multiplies by `dt` is an energy/charge integral happening outside the
/// bus ledger. Everything integrated over simulated time must flow through
/// `SimBus::record` / `EnergyAudit` so conservation checks see it.
fn scan_ledger_coverage(
    rel: &Path,
    src: &str,
    tokens: &[Token],
    code: &[Token],
    tests: &[(usize, usize)],
    out: &mut Vec<Violation>,
) {
    let allowed = lexer::allow_spans(src, tokens, "ledger-coverage");
    for i in 0..code.len() {
        let t = &code[i];
        if t.kind != TokenKind::Punct || !matches!(text(src, t), "+" | "-") {
            continue;
        }
        let Some(next) = code.get(i + 1) else {
            continue;
        };
        if !(next.start == t.end && text(src, next) == "=") {
            continue; // not `+=` / `-=`
        }
        if in_regions(tests, t.start) || lexer::in_spans(&allowed, t.start) {
            continue;
        }
        // RHS runs to the statement's `;`; look for `… * dt` / `dt * …`.
        let mut integrates = false;
        let mut j = i + 2;
        while j < code.len() && !is_punct(src, code.get(j), ";") {
            if ident_text(src, code.get(j)) == Some("dt")
                && (is_punct(src, code.get(j.wrapping_sub(1)), "*")
                    || is_punct(src, code.get(j + 1), "*"))
            {
                integrates = true;
                break;
            }
            j += 1;
        }
        if !integrates {
            continue;
        }
        let target = if i >= 3 && is_punct(src, code.get(i - 2), ".") {
            format!(
                "{}.{}",
                code.get(i - 3).map(|t| text(src, t)).unwrap_or_default(),
                code.get(i - 1).map(|t| text(src, t)).unwrap_or_default()
            )
        } else {
            code.get(i.wrapping_sub(1))
                .map(|t| text(src, t).to_string())
                .unwrap_or_default()
        };
        out.push(Violation {
            file: rel.to_path_buf(),
            line: t.line,
            kind: ViolationKind::LedgerCoverage,
            detail: format!(
                "`{target} {}= … * dt` integrates energy outside the ledger — \
                 route the flow through SimBus::record / EnergyAudit so \
                 conservation checks see it, or add \
                 `// physics-lint: allow(ledger-coverage): <reason>`",
                text(src, t)
            ),
        });
    }
}

/// The allow-hygiene check: every `physics-lint: allow(<rule>)` escape must
/// name a known rule and carry a `: <reason>` trailer. Runs on every
/// scanned file regardless of which families apply — CI fails on any
/// violation lacking a reasoned escape, so an unreasoned escape must itself
/// be a violation.
pub fn scan_allow_hygiene(rel: &Path, src: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let tokens = lexer::lex(src);
    for t in tokens.iter().filter(|t| t.is_comment()) {
        let body = text(src, t);
        for (off, _) in body.match_indices("physics-lint: allow(") {
            let line = line_of(src, t.start + off);
            let after = &body[off + "physics-lint: allow(".len()..];
            let Some(close) = after.find(')') else {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line,
                    kind: ViolationKind::AllowWithoutReason,
                    detail: "malformed escape: missing `)` after the rule name".to_string(),
                });
                continue;
            };
            let rule = &after[..close];
            if !KNOWN_RULES.contains(&rule) {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line,
                    kind: ViolationKind::AllowWithoutReason,
                    detail: format!(
                        "escape names unknown rule `{rule}` — known rules: {}",
                        KNOWN_RULES.join(", ")
                    ),
                });
                continue;
            }
            let trailer = after[close + 1..]
                .trim_start()
                .trim_start_matches(':')
                .trim();
            let has_reason =
                after[close + 1..].trim_start().starts_with(':') && !trailer.is_empty();
            if !has_reason {
                out.push(Violation {
                    file: rel.to_path_buf(),
                    line,
                    kind: ViolationKind::AllowWithoutReason,
                    detail: format!(
                        "`allow({rule})` has no reason — escapes are reviewed \
                         decisions; spell it \
                         `physics-lint: allow({rule}): <why this is sound>`"
                    ),
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::AllowList;

    fn cfg() -> ScanConfig {
        ScanConfig::default_policy(AllowList::default())
    }

    fn all_rules() -> RuleSet {
        RuleSet {
            determinism: true,
            seed_discipline: true,
            ledger_coverage: true,
            ..RuleSet::default()
        }
    }

    fn kinds(src: &str) -> Vec<ViolationKind> {
        scan_new_families(Path::new("crates/t/src/lib.rs"), src, all_rules(), &cfg())
            .iter()
            .map(|v| v.kind)
            .collect()
    }

    #[test]
    fn hashmap_iteration_is_flagged_lookup_is_not() {
        let src = "\
struct C { table: HashMap<u32, f64> }
impl C {
    fn get(&self, k: u32) -> Option<&f64> { self.table.get(&k) }
    fn all(&self) -> Vec<f64> { self.table.values().copied().collect() }
}
";
        assert_eq!(kinds(src), vec![ViolationKind::Determinism]);
    }

    #[test]
    fn for_loop_over_hashed_container_is_flagged() {
        let src = "\
fn f() {
    let mut seen = std::collections::HashSet::new();
    seen.insert(3u32);
    for v in seen {
        drop(v);
    }
}
";
        assert_eq!(kinds(src), vec![ViolationKind::Determinism]);
    }

    #[test]
    fn btreemap_and_vec_iteration_are_clean() {
        let src = "\
struct C { table: BTreeMap<u32, f64>, rows: Vec<f64> }
impl C {
    fn all(&self) -> Vec<f64> { self.table.values().chain(self.rows.iter()).copied().collect() }
}
";
        assert!(kinds(src).is_empty());
    }

    #[test]
    fn hashed_mention_in_doc_comment_or_string_is_inert() {
        let src = "\
/// Uses a HashMap internally? No: `table.iter()` would be nondeterministic.
fn f() -> &'static str { \"Instant::now() and thread_rng in a string\" }
";
        assert!(kinds(src).is_empty(), "{:?}", kinds(src));
    }

    #[test]
    fn raw_seed_arithmetic_is_flagged_registered_tag_is_not() {
        let flagged = "fn f(seed: u64, i: u64) -> u64 { seed + i }";
        assert_eq!(kinds(flagged), vec![ViolationKind::SeedDiscipline]);
        let xor = "fn f(seed: u64) -> u64 { seed ^ 0xDEAD }";
        assert_eq!(kinds(xor), vec![ViolationKind::SeedDiscipline]);
        let tagged = "fn f(seed: u64) -> u64 { seed ^ FLEET_SEED_CYCLE as u64 }";
        assert!(kinds(tagged).is_empty(), "{:?}", kinds(tagged));
    }

    #[test]
    fn mixer_fn_bodies_are_exempt() {
        let src = "\
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let seed_z = *state ^ (*state >> 31);
    seed_z
}
fn derive_seed(base_seed: u64, cycle: usize, index: usize) -> u64 {
    base_seed ^ (cycle as u64) ^ (index as u64)
}
";
        assert!(kinds(src).is_empty(), "{:?}", kinds(src));
    }

    #[test]
    fn seed_comparisons_and_plain_use_are_clean() {
        let src = "\
fn f(seed: u64, other: u64) -> bool { seed < other && seed != 0 }
fn g(seed: u64) -> Rng { Rng::seed_from_u64(seed) }
";
        assert!(kinds(src).is_empty(), "{:?}", kinds(src));
    }

    #[test]
    fn derive_seed_literal_tag_is_flagged_named_arg_is_not() {
        let lit = "fn f(s: u64) -> u64 { derive_seed(s, 7, 0) }";
        assert_eq!(kinds(lit), vec![ViolationKind::SeedDiscipline]);
        let unregistered = "fn f(s: u64) -> u64 { derive_seed(s, MY_TAG, 0) }";
        assert_eq!(kinds(unregistered), vec![ViolationKind::SeedDiscipline]);
        let registered = "fn f(s: u64, n: usize) -> u64 { derive_seed(s, FLEET_SEED_CYCLE, n) }";
        assert!(kinds(registered).is_empty(), "{:?}", kinds(registered));
        let variable = "fn f(s: u64, req: &Req) -> u64 { derive_seed(s, req.cycle, 0) }";
        assert!(kinds(variable).is_empty(), "{:?}", kinds(variable));
    }

    #[test]
    fn side_channel_integration_is_flagged_plain_time_step_is_not() {
        let flagged = "fn f(&mut self, p: f64, dt: f64) { self.harvested += p * dt; }";
        assert_eq!(kinds(flagged), vec![ViolationKind::LedgerCoverage]);
        let clean = "fn f(&mut self, dt: f64) { self.time += dt; }";
        assert!(kinds(clean).is_empty(), "{:?}", kinds(clean));
    }

    #[test]
    fn test_regions_are_exempt_from_all_three_families() {
        let src = "\
#[cfg(test)]
mod tests {
    fn t(seed: u64, dt: f64) {
        let m: HashMap<u32, u32> = HashMap::new();
        for kv in m.iter() { drop(kv); }
        let s = seed + 1;
        let mut acc = 0.0;
        acc += s as f64 * dt;
    }
}
";
        assert!(kinds(src).is_empty(), "{:?}", kinds(src));
    }

    #[test]
    fn statement_scoped_allows_suppress_each_family() {
        let src = "\
impl C {
    fn f(&mut self, dt: f64) {
        // physics-lint: allow(ledger-coverage): derived metric, bus has the flow
        self.extra += self.rate * dt;
        self.plain += self.rate * dt;
    }
}
";
        let vs = scan_new_families(Path::new("crates/t/src/lib.rs"), src, all_rules(), &cfg());
        assert_eq!(vs.len(), 1, "{vs:?}");
        assert_eq!(vs[0].line, 5, "only the un-annotated statement fires");
    }

    #[test]
    fn hygiene_requires_reason_and_known_rule() {
        let src = "\
fn a() {} // physics-lint: allow(float-eq)
fn b() {} // physics-lint: allow(made-up-rule): whatever
fn c() {} // physics-lint: allow(determinism): cache is rebuilt before read
";
        let vs = scan_allow_hygiene(Path::new("crates/t/src/lib.rs"), src);
        assert_eq!(vs.len(), 2, "{vs:?}");
        assert_eq!(vs[0].line, 1);
        assert!(vs[0].detail.contains("no reason"));
        assert_eq!(vs[1].line, 2);
        assert!(vs[1].detail.contains("unknown rule"));
    }

    // The bans below have no lexical rule any more: clippy enforces them
    // through `crates/fleet/clippy.toml` and `[workspace.lints]`. These
    // tests pin each retired family to that enforcer by running clippy on
    // the same shapes the lexical tests used to scan.

    #[test]
    fn bare_persistence_writes_are_flagged_reads_are_not() {
        let src = "\
//! Durable writes and plain reads.
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// A bare write can leave a torn file.
pub fn save(p: &Path, b: &[u8]) -> io::Result<()> {
    fs::write(p, b) //~ ERROR clippy::disallowed_methods
}

/// So can a bare create.
pub fn open(p: &Path) -> io::Result<File> {
    File::create(p) //~ ERROR clippy::disallowed_methods
}

/// Reads, removals and writes through a caller's handle are fine.
pub fn load(p: &Path, w: &mut impl Write) -> io::Result<Vec<u8>> {
    fs::remove_file(p.with_extension(\"tmp\"))?;
    let bytes = fs::read(p)?;
    w.write_all(&bytes)?;
    Ok(bytes)
}
";
        crate::clippy::assert_clippy_matches("snippet-atomic-persist", src);
    }

    #[test]
    fn unstable_hashers_are_flagged_fnv_is_not() {
        let src = "\
//! Store-key hashers.
use std::collections::hash_map::DefaultHasher; //~ ERROR clippy::disallowed_types
use std::hash::{BuildHasher, Hasher};

/// FNV-1a: the same digest in every run and every std release.
pub struct FnvHasher(u64);

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// A stable key.
pub fn key(node: u64) -> u64 {
    let mut h = FnvHasher(0xcbf2_9ce4_8422_2325);
    h.write_u64(node);
    h.finish()
}

/// A key salted per process.
pub fn salted(node: u64) -> u64 {
    let state = std::hash::RandomState::new(); //~ ERROR clippy::disallowed_types
    state.hash_one(node)
}

/// SipHash under its re-exported name.
pub fn sip() -> DefaultHasher {
    //~^ ERROR clippy::disallowed_types
    DefaultHasher::new() //~ ERROR clippy::disallowed_types
}
";
        crate::clippy::assert_clippy_matches("snippet-stable-store-key", src);
    }

    #[test]
    fn wall_clock_and_entropy_are_flagged() {
        let src = "\
//! Host time and ambient entropy.
use rand::thread_rng;
use std::time::{Duration, Instant};

/// Reads the host clock and the OS entropy pool.
pub fn f() -> u64 {
    let t = Instant::now(); //~ ERROR clippy::disallowed_methods
    let mut rng = thread_rng(); //~ ERROR clippy::disallowed_methods
    u64::from(t.elapsed().subsec_nanos()) ^ rand::RngCore::next_u64(&mut rng)
}

/// A duration is a plain value, not a clock read.
pub fn tick() -> Duration {
    Duration::from_millis(1)
}
";
        crate::clippy::assert_clippy_matches("snippet-wall-clock", src);
    }
}
