//! eNAS — the paper's Algorithm 1.
//!
//! Phase 1 samples `population` random constraint-satisfying candidates to
//! establish the energy envelope `E_min`/`E_max`. Phase 2 runs aging
//! evolution: each cycle tournaments `sample_size` population members,
//! mutates the winner's *model* half, and every `grid_period`-th cycle
//! instead performs a local grid search over the winner's *sensing*
//! neighbours (Table II morphisms) — the paper's `GRIDMUTATE`, rate-limited
//! by `R` because sensing changes invalidate the trained-model cache and
//! pay the highest evaluation cost.

use serde::{Deserialize, Serialize};

use crate::candidate::Evaluated;
use crate::search::{best_by, envelope, resense, Evolution, SearchConfig};
use crate::task::{SearchOutcome, TaskContext};

/// Which energy estimator the search consults — the paper's layer-wise
/// model, or (as an ablation) the µNAS-style total-MACs proxy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum EnergyProxy {
    /// The paper's layer-wise-MACs linear model plus the sensing model.
    #[default]
    Layerwise,
    /// Ablation: the coarse `E = a·MACs + b` proxy, sensing unmodelled.
    TotalMacs,
}

/// eNAS hyperparameters. Paper defaults: population 50, sample 20,
/// 150 cycles, `R` = 20.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EnasConfig {
    /// Phase-1 population size `P`.
    pub population: usize,
    /// Tournament size `S`.
    pub sample_size: usize,
    /// Phase-2 evolutionary cycles `C`.
    pub cycles: usize,
    /// Sensing grid-mutation period `R` (the paper's `t`). Zero disables
    /// sensing mutations entirely (ablation: model-only evolution).
    pub grid_period: usize,
    /// Accuracy/energy trade-off `λ ∈ [0, 1]`.
    pub lambda: f64,
    /// RNG seed.
    pub seed: u64,
    /// Energy estimator ablation switch.
    pub energy_proxy: EnergyProxy,
    /// Worker threads for candidate evaluation (0 = available parallelism).
    /// Results are identical at any worker count.
    #[serde(default)]
    pub workers: usize,
}

impl EnasConfig {
    /// The paper's full-scale settings at a given λ.
    pub fn paper(lambda: f64) -> Self {
        Self {
            population: 50,
            sample_size: 20,
            cycles: 150,
            grid_period: 20,
            lambda,
            seed: 0xE7A5,
            energy_proxy: EnergyProxy::Layerwise,
            workers: 0,
        }
    }

    /// Reduced settings for tests and quick demos.
    pub fn quick(lambda: f64) -> Self {
        Self {
            population: 8,
            sample_size: 4,
            cycles: 12,
            grid_period: 4,
            ..Self::paper(lambda)
        }
    }
}

/// Runs eNAS on a task.
///
/// # Panics
///
/// Panics if `population` or `sample_size` is zero, or if the constraint
/// set rejects the entire candidate space.
pub fn run_enas(ctx: &TaskContext, config: &EnasConfig) -> SearchOutcome {
    let search = SearchConfig {
        population: config.population,
        sample_size: config.sample_size,
        cycles: config.cycles,
        seed: config.seed,
        workers: config.workers,
    };
    let total_macs = config.energy_proxy == EnergyProxy::TotalMacs;
    // Phase 1: broad exploration with random candidates; it fixes the
    // energy envelope the objective normalizes by.
    let mut evo = Evolution::start(ctx, search, total_macs, |rng| ctx.random_candidate(rng));
    let (e_min, e_max) = envelope(&evo.population);
    let objective = |e: &Evaluated| e.objective(config.lambda, e_min, e_max);
    // Phase 2: a model morphism every cycle; every `R`-th cycle instead the
    // paper's GRIDMUTATE, every single-step sensing neighbour as one batch,
    // of which the best by objective survives.
    evo.run(
        |_, _| objective,
        |rng, parent, cycle| {
            if config.grid_period > 0 && cycle % config.grid_period == 0 {
                ctx.sensing_neighbors(parent.sensing)
                    .into_iter()
                    .map(|sensing| resense(ctx, parent, sensing, rng))
                    .collect()
            } else {
                vec![ctx.mutate_model(parent, rng)]
            }
        },
    );
    SearchOutcome {
        best: best_by(&evo.history, objective).clone(),
        history: evo.history,
        energy_envelope: (e_min, e_max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskContext;
    use solarml_nn::TrainConfig;

    fn tiny_ctx() -> TaskContext {
        let mut ctx = TaskContext::gesture(4, 3);
        ctx.train_config = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        ctx
    }

    #[test]
    fn enas_runs_and_reports_history() {
        let ctx = tiny_ctx();
        let config = EnasConfig {
            population: 4,
            sample_size: 2,
            cycles: 5,
            grid_period: 3,
            seed: 1,
            ..EnasConfig::quick(0.5)
        };
        let out = run_enas(&ctx, &config);
        assert!(out.history.len() >= config.population);
        assert!(out.energy_envelope.0 <= out.energy_envelope.1);
        // The best candidate's objective is maximal over the history.
        let (e0, e1) = out.energy_envelope;
        let best_obj = out.best.objective(0.5, e0, e1);
        for h in &out.history {
            assert!(h.objective(0.5, e0, e1) <= best_obj + 1e-12);
        }
    }

    #[test]
    fn lambda_extremes_change_the_winner_profile() {
        let ctx = tiny_ctx();
        let accurate = run_enas(
            &ctx,
            &EnasConfig {
                lambda: 0.0,
                ..EnasConfig::quick(0.0)
            },
        );
        let frugal = run_enas(
            &ctx,
            &EnasConfig {
                lambda: 1.0,
                ..EnasConfig::quick(1.0)
            },
        );
        // The λ=1 winner must not cost more than the λ=0 winner.
        assert!(
            frugal.best.estimated_energy <= accurate.best.estimated_energy,
            "λ=1 should find cheaper candidates: {} vs {}",
            frugal.best.estimated_energy,
            accurate.best.estimated_energy,
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let ctx = tiny_ctx();
        let config = EnasConfig {
            population: 3,
            sample_size: 2,
            cycles: 3,
            grid_period: 2,
            seed: 9,
            ..EnasConfig::quick(0.5)
        };
        let a = run_enas(&ctx, &config);
        let b = run_enas(&ctx, &config);
        assert_eq!(a.best.candidate, b.best.candidate);
        assert_eq!(a.history.len(), b.history.len());
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn zero_population_panics() {
        let ctx = tiny_ctx();
        let _ = run_enas(
            &ctx,
            &EnasConfig {
                population: 0,
                ..EnasConfig::quick(0.5)
            },
        );
    }
}
