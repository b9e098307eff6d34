//! Mutation fuzz for the scenario parser: every shipped `.scn` script is
//! truncated at every byte, bit-flipped at every bit, and token-spliced
//! (each token deleted, doubled, and replaced by every token of the
//! shipped corpus). Each mutant must either be rejected with a typed
//! [`ScenarioError`] at a 1-based position, or parse to a [`Scenario`]
//! whose `render`, `eval` and `env_bucket` run without panicking and whose
//! rendering parses back to the same scenario.
//!
//! Mirrors the fleet crate's `checkpoint_prop.rs` for the codec: hostile
//! input gets a typed error, never a panic.

use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

use solarml_scenario::{registry, Scenario, ScenarioError};

/// Seed for evaluating accepted mutants.
const EVAL_SEED: u64 = 7;

/// Splits a script into tokens: runs of identifier/number characters,
/// runs of whitespace, and single punctuation characters. Concatenating
/// the tokens gives the script back.
fn tokens(src: &str) -> Vec<&str> {
    let class = |c: char| {
        if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
            0
        } else if c.is_whitespace() {
            1
        } else {
            2
        }
    };
    let mut out = Vec::new();
    let mut start = 0;
    let mut chars = src.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        let joins = |next: char| class(c) != 2 && class(next) == class(c);
        if chars.peek().is_some_and(|&(_, next)| joins(next)) {
            continue;
        }
        let end = i + c.len_utf8();
        out.push(&src[start..end]);
        start = end;
    }
    out
}

/// Runs one mutant through the whole public surface. `Err` carries a
/// description of the contract breach.
fn check(src: &str, evaluated: &mut BTreeSet<String>) -> Result<(), String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| match Scenario::parse(src) {
        Err(ScenarioError { line, col, message }) => {
            if line == 0 || col == 0 {
                return Err(format!(
                    "error position {line}:{col} is not 1-based: {message}"
                ));
            }
            Ok(())
        }
        Ok(scenario) => {
            let rendered = scenario.render();
            match Scenario::parse(&rendered) {
                Ok(again) if again.ast() == scenario.ast() => {}
                other => {
                    return Err(format!(
                        "render `{rendered}` does not round-trip: {other:?}"
                    ))
                }
            }
            let bucket = scenario.env_bucket();
            if bucket > 2 {
                return Err(format!("env bucket {bucket} out of range"));
            }
            // Header and comment mutants keep the AST: evaluate each
            // distinct scenario once.
            if evaluated.insert(rendered) {
                let day = scenario.eval(EVAL_SEED);
                if day.env_bucket != bucket {
                    return Err(format!("eval bucket {} != {bucket}", day.env_bucket));
                }
            }
            Ok(())
        }
    }));
    outcome.unwrap_or_else(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(format!("panicked: {message}"))
    })
}

/// Feeds every mutant `make` yields for every shipped script through
/// [`check`]; returns the mutant count and panics listing any breach.
fn fuzz(kind: &str, make: impl Fn(&str, &mut dyn FnMut(String))) -> usize {
    let mut evaluated = BTreeSet::new();
    let mut count = 0;
    let mut breaches = Vec::new();
    for entry in registry::all() {
        make(entry.source, &mut |mutant| {
            count += 1;
            if let Err(why) = check(&mutant, &mut evaluated) {
                breaches.push(format!("{} ({kind}) {mutant:?}: {why}", entry.name));
            }
        });
    }
    assert!(
        breaches.is_empty(),
        "{} breaches:\n{}",
        breaches.len(),
        breaches.join("\n")
    );
    count
}

#[test]
fn every_truncation_is_typed_or_well_formed() {
    let count = fuzz("truncation", |src, emit| {
        let bytes = src.as_bytes();
        for len in 0..bytes.len() {
            emit(String::from_utf8_lossy(&bytes[..len]).into_owned());
        }
    });
    let total: usize = registry::all().iter().map(|e| e.source.len()).sum();
    assert_eq!(count, total);
}

#[test]
fn every_bit_flip_is_typed_or_well_formed() {
    let count = fuzz("bit flip", |src, emit| {
        for at in 0..src.len() {
            for bit in 0..8 {
                let mut bytes = src.as_bytes().to_vec();
                bytes[at] ^= 1 << bit;
                emit(String::from_utf8_lossy(&bytes).into_owned());
            }
        }
    });
    let total: usize = registry::all().iter().map(|e| e.source.len()).sum();
    assert_eq!(count, 8 * total);
}

#[test]
fn every_token_splice_is_typed_or_well_formed() {
    let vocabulary: BTreeSet<&str> = registry::all()
        .iter()
        .flat_map(|e| tokens(e.source))
        .filter(|t| !t.trim().is_empty())
        .collect();
    assert!(
        vocabulary.len() > 50,
        "corpus vocabulary {}",
        vocabulary.len()
    );
    let count = fuzz("token splice", |src, emit| {
        let toks = tokens(src);
        assert_eq!(toks.concat(), src, "tokenizer is lossless");
        let with = |at: usize, replacement: &str| {
            let mut out = toks[..at].concat();
            out.push_str(replacement);
            out.push_str(&toks[at + 1..].concat());
            out
        };
        for (at, tok) in toks.iter().enumerate() {
            if tok.trim().is_empty() {
                continue;
            }
            emit(with(at, ""));
            emit(with(at, &tok.repeat(2)));
            for &other in vocabulary.iter().filter(|&&v| v != *tok) {
                emit(with(at, other));
            }
        }
    });
    assert!(count > 10_000, "only {count} splice mutants");
}
