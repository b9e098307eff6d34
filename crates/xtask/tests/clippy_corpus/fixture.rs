//! Clippy corpus: one annotated site for every ban that clippy, not the
//! lexical lint, enforces. `tests/clippy_corpus.rs` lints this file as the
//! library of a throwaway crate under `fleet`'s `clippy.toml` (which holds
//! every moved ban) and the `[workspace.lints]` levels, then diffs clippy's
//! findings against the expectation comments in both directions.
//!
//! The renamed, aliased and re-imported forms are the ones a lexical rule
//! cannot see; clippy resolves paths, so each still fires.

use std::cell::RefCell; //~ ERROR clippy::disallowed_types
use std::collections::HashMap; //~ ERROR clippy::disallowed_types
use std::fs as f2;
use std::path::Path;
use std::rc::Rc; //~ ERROR clippy::disallowed_types
use std::time::{Instant, SystemTime};

use rand::thread_rng as tr;

/// `unwrap`/`expect` in library code.
pub fn panicking(a: Option<u8>, b: Option<u8>) -> u8 {
    a.unwrap() + b.expect("set")
    //~^ ERROR clippy::unwrap_used
    //~^^ ERROR clippy::expect_used
}

/// `Rc`/`RefCell`: not `Send`/`Sync`.
pub fn shared() -> Rc<RefCell<u8>> {
    //~^ ERROR clippy::disallowed_types
    //~^^ ERROR clippy::disallowed_types
    Rc::new(RefCell::new(0))
    //~^ ERROR clippy::disallowed_types
    //~^^ ERROR clippy::disallowed_types
}

/// Unstable std hashers, one through a type alias.
pub type Alias = std::hash::DefaultHasher; //~ ERROR clippy::disallowed_types

/// The per-process salted state.
pub fn salted() -> std::hash::RandomState {
    //~^ ERROR clippy::disallowed_types
    std::hash::RandomState::new() //~ ERROR clippy::disallowed_types
}

/// The deprecated SipHash type.
#[allow(deprecated, reason = "the corpus names the deprecated type on purpose")]
pub fn sip() -> std::hash::SipHasher {
    //~^ ERROR clippy::disallowed_types
    std::hash::SipHasher::new() //~ ERROR clippy::disallowed_types
}

/// Bare durable writes, one through a renamed module.
pub fn torn(p: &Path) -> std::io::Result<()> {
    f2::write(p, b"x")?; //~ ERROR clippy::disallowed_methods
    std::fs::File::create(p).map(drop) //~ ERROR clippy::disallowed_methods
}

/// Wall clocks.
pub fn clocks() -> (Instant, SystemTime) {
    (Instant::now(), SystemTime::now())
    //~^ ERROR clippy::disallowed_methods
    //~^^ ERROR clippy::disallowed_methods
}

/// Ambient entropy through a renamed import.
pub fn entropy() -> u64 {
    rand::RngCore::next_u64(&mut tr()) //~ ERROR clippy::disallowed_methods
}

/// Hashed containers.
pub fn hashed() -> HashMap<u8, u8> {
    //~^ ERROR clippy::disallowed_types
    HashMap::new() //~ ERROR clippy::disallowed_types
}
