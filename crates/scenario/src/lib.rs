//! `solarml-scenario`: a declarative, units-checked, deterministic
//! scenario language for weather, faults, and workloads.
//!
//! Every campaign condition this workspace used to hard-code as a Rust
//! enum — lighting environments, fault loads, interaction schedules — is
//! expressible as a one-line combinator script:
//!
//! ```text
//! overlay(clear_sky(lat: 47.6 deg), markov_clouds(p: 0.3), outage(12:00..13:00))
//! ```
//!
//! The pipeline is three stages, each with a hard contract:
//!
//! 1. **Parse** ([`Scenario::parse`]) — lexer and recursive-descent parser
//!    producing a typed AST. Arguments are validated against the
//!    `solarml-units` newtypes *at load time*: a lux quantity where a
//!    latitude is expected is a [`ScenarioError`] with a line and column,
//!    never a runtime surprise.
//! 2. **Evaluate** ([`Scenario::eval`]) — a step-state evaluator lowering
//!    the AST into the existing [`solarml_platform::DayProfile`] /
//!    [`solarml_circuit::FaultPlan`] / interaction-schedule types. All
//!    randomness is routed through `derive_seed` under the registered
//!    [`SCENARIO_STREAM_TAG`], so a script plus a seed is bit-reproducible
//!    across runs, platforms, and worker counts. The legacy environment
//!    primitives (`office`, `home`, `sky_markov`) walk the same
//!    [`ENV_STREAM_TAG`] stream the `fleet::env` enums always walked, so
//!    the enum wrappers stay byte-identical through the script path.
//! 3. **Registry** ([`registry`]) — named scenarios shipped as `.scn`
//!    scripts embedded in the crate, each carrying a `# name: description`
//!    header and a golden `FleetReport` fixture pinned in CI.
//!
//! Because evaluation output feeds the fleet's content-addressed node-day
//! store through the fully-resolved `IntermittentConfig`, a script edit
//! invalidates exactly the node-days whose resolved inputs it reaches —
//! editing `p: 0.3` to `p: 0.4` re-runs only the nodes whose profile the
//! cloud layer actually changed.

use std::fmt;

pub mod ast;
mod eval;
mod lexer;
mod parser;
pub mod registry;
pub mod rng;
mod sig;

pub use ast::{render, Arg, Call, TimeOfDay, UnitSuffix, Value};
pub use eval::{clear_sky_desk_lux, ScenarioDay, ENV_STREAM_TAG, SCENARIO_STREAM_TAG};
pub use registry::RegistryEntry;

/// A parse- or type-stage error, pinned to a 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioError {
    /// 1-based source line.
    pub line: usize,
    /// 1-based source column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl ScenarioError {
    /// Builds an error at a source position.
    pub fn at(line: usize, col: usize, message: String) -> Self {
        Self { line, col, message }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}, col {}: {}", self.line, self.col, self.message)
    }
}

impl std::error::Error for ScenarioError {}

/// A parsed, type-checked scenario: the unit of everything downstream —
/// evaluation, campaign configuration, store keys, CLI plumbing.
///
/// Equality compares the AST (and therefore evaluation behavior), not the
/// source text or the registry name: two scripts that differ only in
/// whitespace or comments are the same scenario.
#[derive(Debug, Clone)]
pub struct Scenario {
    name: Option<String>,
    description: Option<String>,
    ast: Call,
}

impl PartialEq for Scenario {
    fn eq(&self, other: &Self) -> bool {
        self.ast == other.ast
    }
}

impl Scenario {
    /// Parses and type-checks a script. A leading `# name: description`
    /// comment line (the registry header convention) is captured as the
    /// scenario's name and description.
    pub fn parse(src: &str) -> Result<Self, ScenarioError> {
        let (name, description) = parse_header(src);
        let tokens = lexer::lex(src)?;
        let ast = parser::parse(&tokens)?;
        sig::check(&ast)?;
        Ok(Self {
            name,
            description,
            ast,
        })
    }

    /// The registry name from the script header, if any.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// The one-line description from the script header, if any.
    pub fn description(&self) -> Option<&str> {
        self.description.as_deref()
    }

    /// The checked AST.
    pub fn ast(&self) -> &Call {
        &self.ast
    }

    /// Canonical single-line rendering of the AST. Round-trips:
    /// `Scenario::parse(&s.render())` yields an equal scenario, and the
    /// rendered form is what campaign fingerprints and store provenance
    /// hash — whitespace and comments never move a key.
    pub fn render(&self) -> String {
        ast::render(&self.ast)
    }

    /// Evaluates the scenario for one node-day. Pure: the same
    /// `(scenario, seed)` yields bit-identical output on every platform
    /// and at any worker count.
    pub fn eval(&self, seed: u64) -> ScenarioDay {
        eval::eval(&self.ast, seed)
    }

    /// Environment bucket of the scenario's light source: 0 = outdoor
    /// (clear-sky family), 1 = office, 2 = home. Drives the fleet
    /// report's composition counters.
    pub fn env_bucket(&self) -> usize {
        eval::env_bucket(&self.ast)
    }
}

/// Extracts `# name: description` from the first comment line, if the
/// line has that shape.
fn parse_header(src: &str) -> (Option<String>, Option<String>) {
    let Some(line) = src.lines().find(|l| !l.trim().is_empty()) else {
        return (None, None);
    };
    let Some(rest) = line.trim().strip_prefix('#') else {
        return (None, None);
    };
    let Some((name, description)) = rest.split_once(':') else {
        return (None, None);
    };
    let name = name.trim();
    if name.is_empty() || !name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return (None, None);
    }
    (Some(name.to_string()), Some(description.trim().to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_issue_example_parses_and_round_trips() {
        let src = "overlay(clear_sky(lat: 47.6 deg), markov_clouds(p: 0.3), outage(12:00..13:00))";
        let sc = Scenario::parse(src).expect("parses");
        assert_eq!(sc.render(), src);
        let again = Scenario::parse(&sc.render()).expect("re-parses");
        assert_eq!(sc, again);
    }

    #[test]
    fn unit_mismatch_is_a_parse_stage_error_with_position() {
        // A lux value where a latitude is expected.
        let err = Scenario::parse("clear_sky(lat: 800 lux)").expect_err("rejects");
        assert!(err.message.contains("latitude"), "{err}");
        assert_eq!(err.line, 1);
        assert!(err.col > 1, "{err}");
    }

    #[test]
    fn headers_are_captured() {
        let sc = Scenario::parse("# polar_winter: No sun for weeks.\nhome(peak: 200 lux)")
            .expect("parses");
        assert_eq!(sc.name(), Some("polar_winter"));
        assert_eq!(sc.description(), Some("No sun for weeks."));
    }

    #[test]
    fn equality_ignores_comments_and_whitespace() {
        let a = Scenario::parse("office(peak: 800 lux)").expect("parses");
        let b = Scenario::parse("# hello: world\noffice(\n  peak: 800 lux,\n)\n").expect("parses");
        assert_eq!(a, b);
    }
}
