// lint-rules: determinism
//
// Hashed-container iteration. Lookups stay clean; only order-dependent
// uses fire. Wall-clock reads and ambient entropy are clippy's to reject
// (disallowed_methods), so they stay silent here.

use std::collections::{HashMap, HashSet};
use std::time::{Instant, SystemTime};

pub struct Cache {
    table: HashMap<u32, f64>,
}

impl Cache {
    pub fn lookup(&self, k: u32) -> Option<f64> {
        self.table.get(&k).copied()
    }

    pub fn total(&self) -> f64 {
        self.table.values().sum() //~ ERROR determinism
    }
}

pub fn visit(seen: HashSet<u32>) -> u32 {
    let mut n = 0;
    for v in seen {
        //~^ ERROR determinism
        n += v;
    }
    n
}

pub fn stamp() -> Instant {
    Instant::now()
}

pub fn epoch() -> SystemTime {
    SystemTime::now()
}

pub fn ambient() -> u64 {
    let mut rng = thread_rng();
    rng.gen()
}

pub struct Sorted {
    // Declarations are matched by name file-wide, so this field must not
    // shadow `Cache::table` above — a BTreeMap named `table` here would
    // still fire. Lexical precision has limits; clippy's disallowed_types
    // covers the type-alias and shadowing gaps.
    ordered: std::collections::BTreeMap<u32, f64>,
}

impl Sorted {
    pub fn total(&self) -> f64 {
        self.ordered.values().sum()
    }
}

/// Mentioning `table.iter()` or `Instant::now()` in a doc comment is inert,
/// and so is a string literal:
pub fn inert() -> &'static str {
    "HashMap::new() and thread_rng() in a string never fire"
}

pub struct Snapshot {
    order: HashMap<u32, u32>,
}

impl Snapshot {
    pub fn sorted_sum(&self) -> u64 {
        // physics-lint: allow(determinism): keys are collected and sorted before reduction
        let mut keys: Vec<&u32> = self.order.keys().collect();
        keys.sort();
        keys.into_iter().map(|k| u64::from(*k)).sum()
    }
}
