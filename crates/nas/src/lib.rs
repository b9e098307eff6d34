//! eNAS: energy-efficient neural architecture search over *sensing and
//! model parameters jointly* — the paper's §IV — plus the µNAS baseline it
//! is evaluated against and two more baselines.
//!
//! The search operates on [`Candidate`]s pairing a sensing configuration
//! (Table II) with a model architecture. A [`TaskContext`] owns everything
//! needed to evaluate one: the synthetic corpus, the fitted energy
//! estimators, and the constraint set. Four search drivers are provided:
//!
//! * [`run_enas`] — Algorithm 1: a broad random phase establishes
//!   `E_min`/`E_max`, then aging evolution optimizes
//!   `A − λ·(E−E_min)/(E_max−E_min)`, mutating the model every cycle and
//!   the sensing parameters (by local grid search) every `R`-th cycle.
//! * [`run_munas`] — the µNAS baseline: model-only aging evolution with
//!   random scalarization of (accuracy, energy) and the total-MACs energy
//!   proxy, run at a fixed sensing configuration.
//! * [`run_harvnet_style`] — aging evolution over the joint space with
//!   HarvNet's single ratio objective `A/E`.
//! * [`run_random_search`] — one batch of random constraint-satisfying
//!   candidates, the sanity baseline.
//!
//! The first three run one aging-evolution loop, [`search`]'s `Evolution`:
//! seeded RNG and evaluation engine, initial population, tournament,
//! child evaluation, aging. Each supplies only its own pieces: how the
//! initial population is drawn (random candidates, or the sampler at the
//! fixed sensing configuration), how a cycle scores parents (the
//! λ-objective over the phase-1 envelope, a fresh random weight over the
//! running envelope, or `A/E`), which children a cycle proposes (a model
//! morphism, eNAS's sensing grid every `R`-th cycle, HarvNet's one sensing
//! step every 4th), whether the total-MACs proxy overrides the estimate,
//! and its final pick. µNAS, HarvNet-style and random search share
//! [`SearchConfig`].
//!
//! All four report every trained candidate, so Pareto fronts (Fig. 10) fall
//! out of the history.

// The physics crates keep the strict `unwrap_used`/`expect_used` deny,
// enforced by clippy in `cargo xtask lint`.
#![allow(
    clippy::expect_used,
    clippy::unwrap_used,
    reason = "panicking on violated shape/sampling invariants is the right contract for the tensor \
              and search internals: every shape is validated once at `ModelSpec` construction, and \
              threading `Result` through each layer micro-op would bury the math"
)]

pub mod baselines;
pub mod candidate;
pub mod enas;
pub mod munas;
pub mod parallel;
pub mod pareto;
pub mod report;
pub mod search;
pub mod task;

pub use baselines::{run_harvnet_style, run_random_search};
pub use candidate::{Candidate, Evaluated, SensingConfig};
pub use enas::{run_enas, EnasConfig, EnergyProxy};
pub use munas::run_munas;
pub use parallel::{available_workers, derive_seed, EvalEngine, EvalRequest};
pub use pareto::pareto_front;
pub use report::{render_report, SearchSummary};
pub use search::SearchConfig;
pub use task::{Constraints, SearchOutcome, TaskContext, TaskKind};
