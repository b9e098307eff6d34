// lint-rules: float-eq
//
// Escapes are statement-scoped: a standalone escape covers exactly the next
// statement, a trailing escape covers exactly its own statement, and an
// escape *after* a statement covers nothing before it. The middle case of
// each function proves an allow on line N no longer masks line N+1.

pub fn standalone_covers_next_only(a: f64, b: f64) -> bool {
    // physics-lint: allow(float-eq): fixture — covers only the statement below
    let x = a == 1.0;
    let y = b == 1.0; //~ ERROR float-eq
    x && y
}

pub fn trailing_covers_own_only(a: f64, b: f64) -> bool {
    let x = a == 1.0; // physics-lint: allow(float-eq): fixture — covers this statement
    let y = b == 1.0; //~ ERROR float-eq
    x && y
}

pub fn escape_after_does_not_leak_backward(a: f64) -> bool {
    let x = a == 1.0; //~ ERROR float-eq
    // physics-lint: allow(float-eq): fixture — placed after; must not reach the line above
    x
}

pub fn standalone_covers_whole_statement(rows: &[f64]) -> f64 {
    // physics-lint: allow(float-eq): fixture — one escape covers the full loop statement
    for r in rows {
        let _ = *r == 1.0;
    }
    0.0
}

pub fn wrong_rule_does_not_cover(a: f64) -> bool {
    // physics-lint: allow(determinism): fixture — names a different rule
    a == 1.0 //~ ERROR float-eq
}
