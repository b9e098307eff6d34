//! Additional search baselines from the paper's related-work discussion.
//!
//! * [`run_harvnet_style`] — HarvNet (MobiSys '23) combines accuracy and
//!   energy into the single ratio objective `max A/E`. The paper's critique:
//!   "the lack of parameters does not allow exploring the Pareto frontier" —
//!   the ratio has one fixed exchange rate, so the search cannot be steered
//!   toward accuracy-first or energy-first corners.
//! * [`run_random_search`] — pure random sampling under the constraints, the
//!   standard sanity baseline for any NAS claim (Liashchynskyi &
//!   Liashchynskyi, the paper's grid/random/GA comparison reference).
//!
//! Both share eNAS's trainer, candidate space and constraint handling, so
//! differences are attributable to the search strategy alone.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::candidate::Evaluated;
use crate::parallel::{EvalEngine, EvalRequest};
use crate::search::{best_by, envelope, most_accurate_feasible, resense, Evolution, SearchConfig};
use crate::task::{SearchOutcome, TaskContext};

/// The HarvNet-style ratio objective `A / E` (estimated energy, µJ).
fn ratio_objective(e: &Evaluated) -> f64 {
    let uj = e.estimated_energy.as_micro_joules().max(1e-6);
    let base = e.accuracy / uj;
    if e.meets_accuracy {
        base
    } else {
        base * 1e-3 // infeasible candidates are strongly discounted
    }
}

/// Runs a HarvNet-style aging evolution over the *joint* space with the
/// ratio objective (every fourth cycle steps to one random sensing
/// neighbour instead of a model morphism, so the comparison isolates the
/// objective, not the space).
///
/// # Panics
///
/// Panics if `population` or `sample_size` is zero.
pub fn run_harvnet_style(ctx: &TaskContext, config: &SearchConfig) -> SearchOutcome {
    let mut evo = Evolution::start(ctx, *config, false, |rng| ctx.random_candidate(rng));
    evo.run(
        |_, _| ratio_objective,
        |rng, parent, cycle| {
            let step = if cycle % 4 == 0 {
                ctx.sensing_neighbors(parent.sensing).choose(rng).copied()
            } else {
                None
            };
            vec![match step {
                Some(sensing) => resense(ctx, parent, sensing, rng),
                None => ctx.mutate_model(parent, rng),
            }]
        },
    );
    SearchOutcome {
        best: best_by(&evo.history, ratio_objective).clone(),
        energy_envelope: envelope(&evo.history),
        history: evo.history,
    }
}

/// Pure random search: `population + cycles` constraint-satisfying samples
/// in one batch (the sample index is the recorded cycle), best by accuracy
/// among feasible candidates.
///
/// # Panics
///
/// Panics if `population` or `sample_size` is zero.
pub fn run_random_search(ctx: &TaskContext, config: &SearchConfig) -> SearchOutcome {
    config.check();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let requests: Vec<EvalRequest> = (0..config.population + config.cycles)
        .map(|i| EvalRequest::new(ctx.random_candidate(&mut rng), i))
        .collect();
    let history: Vec<Evaluated> = EvalEngine::new(ctx, config.seed, config.workers)
        .evaluate_batch(&requests)
        .into_iter()
        .flatten()
        .collect();
    SearchOutcome {
        best: most_accurate_feasible(&history),
        energy_envelope: envelope(&history),
        history,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_nn::TrainConfig;

    fn tiny_ctx() -> TaskContext {
        let mut ctx = TaskContext::gesture(4, 21);
        ctx.train_config = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        ctx
    }

    #[test]
    fn harvnet_style_runs_and_prefers_cheap_accurate() {
        let ctx = tiny_ctx();
        let out = run_harvnet_style(&ctx, &SearchConfig::baseline_quick());
        assert!(!out.history.is_empty());
        // The winner's ratio is maximal over the history.
        let best_ratio = ratio_objective(&out.best);
        for e in &out.history {
            assert!(ratio_objective(e) <= best_ratio + 1e-15);
        }
    }

    #[test]
    fn harvnet_winner_avoids_the_expensive_tail() {
        // The ratio objective weights energy heavily, but a sufficiently
        // accurate candidate can outrank cheaper ones — so assert only that
        // the winner stays out of the most expensive quartile.
        let ctx = tiny_ctx();
        let cfg = SearchConfig {
            seed: 7,
            ..SearchConfig::baseline_quick()
        };
        let out = run_harvnet_style(&ctx, &cfg);
        let mut energies: Vec<f64> = out
            .history
            .iter()
            .map(|e| e.estimated_energy.as_micro_joules())
            .collect();
        energies.sort_by(f64::total_cmp);
        let p75 = energies[(energies.len() * 3) / 4];
        assert!(out.best.estimated_energy.as_micro_joules() <= p75 + 1e-9);
    }

    #[test]
    fn random_search_exhausts_budget() {
        let ctx = tiny_ctx();
        let cfg = SearchConfig::baseline_quick();
        let out = run_random_search(&ctx, &cfg);
        assert_eq!(out.history.len(), cfg.population + cfg.cycles);
    }

    #[test]
    #[should_panic(expected = "population must be positive")]
    fn random_search_rejects_an_empty_budget() {
        let cfg = SearchConfig {
            population: 0,
            cycles: 0,
            ..SearchConfig::baseline_quick()
        };
        let _ = run_random_search(&tiny_ctx(), &cfg);
    }

    #[test]
    #[should_panic(expected = "sample size must be positive")]
    fn harvnet_rejects_an_empty_tournament() {
        let cfg = SearchConfig {
            sample_size: 0,
            ..SearchConfig::baseline_quick()
        };
        let _ = run_harvnet_style(&tiny_ctx(), &cfg);
    }

    #[test]
    fn baselines_are_deterministic() {
        let ctx = tiny_ctx();
        let cfg = SearchConfig {
            population: 3,
            sample_size: 2,
            cycles: 3,
            seed: 5,
            ..SearchConfig::baseline_quick()
        };
        let a = run_harvnet_style(&ctx, &cfg);
        let b = run_harvnet_style(&ctx, &cfg);
        assert_eq!(a.best.candidate, b.best.candidate);
        let c = run_random_search(&ctx, &cfg);
        let d = run_random_search(&ctx, &cfg);
        assert_eq!(c.best.candidate, d.best.candidate);
    }
}
