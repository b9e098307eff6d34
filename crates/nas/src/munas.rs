//! The µNAS baseline: model-only aging evolution with random scalarization
//! and the total-MACs energy proxy.
//!
//! µNAS does not know the sensing parameters exist: it searches only the
//! architecture at whatever fixed front-end it is handed (the paper
//! evaluates it at 20 random sensing configurations, §V-D), and its energy
//! signal is the coarse `E = a·MACs + b` proxy.

use rand::Rng;
use solarml_units::Energy;

use crate::candidate::{Candidate, Evaluated, SensingConfig};
use crate::search::{envelope, most_accurate_feasible, Evolution, SearchConfig};
use crate::task::{SearchOutcome, TaskContext};

/// Runs µNAS at a fixed sensing configuration.
///
/// Selection uses *random scalarization*: each cycle draws a fresh weight
/// `w ~ U(0,1)` and ranks by `w·A − (1−w)·Ê_norm`, where `Ê` is the
/// total-MACs proxy normalized by the population's running envelope (µJ).
/// The reported `best` maximizes accuracy among accuracy-feasible candidates
/// (falling back to raw accuracy when none are feasible).
///
/// # Panics
///
/// Panics if `population` or `sample_size` is zero.
pub fn run_munas(
    ctx: &TaskContext,
    sensing: SensingConfig,
    config: &SearchConfig,
) -> SearchOutcome {
    let sampler = ctx.sampler(sensing);
    let mut evo = Evolution::start(ctx, *config, true, |rng| Candidate {
        sensing,
        spec: sampler.sample(rng),
    });
    evo.run(
        |rng, population| {
            let w: f64 = rng.gen_range(0.0..1.0);
            let (lo, hi) = envelope(population);
            let (lo, hi) = (lo.as_micro_joules(), hi.as_micro_joules());
            let span = (hi - lo).max(1e-12);
            move |e: &Evaluated| {
                let norm = ((e.estimated_energy.as_micro_joules() - lo) / span).clamp(0.0, 1.0);
                let base = w * e.accuracy - (1.0 - w) * norm;
                if e.meets_accuracy {
                    base
                } else {
                    base - 10.0
                }
            }
        },
        |rng, parent, _| vec![ctx.mutate_model(parent, rng)],
    );
    // The final population's envelope, reported through the µJ values the
    // score normalizes by.
    let (lo, hi) = envelope(&evo.population);
    SearchOutcome {
        best: most_accurate_feasible(&evo.history),
        history: evo.history,
        energy_envelope: (
            Energy::from_micro_joules(lo.as_micro_joules()),
            Energy::from_micro_joules(hi.as_micro_joules()),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskContext;
    use solarml_dsp::{GestureSensingParams, Resolution};
    use solarml_nn::TrainConfig;

    fn tiny_ctx() -> TaskContext {
        let mut ctx = TaskContext::gesture(4, 5);
        ctx.train_config = TrainConfig {
            epochs: 4,
            ..TrainConfig::default()
        };
        ctx
    }

    fn fixed_sensing() -> SensingConfig {
        SensingConfig::Gesture(GestureSensingParams::new(6, 60, Resolution::Int, 8).expect("valid"))
    }

    #[test]
    fn munas_runs_at_fixed_sensing() {
        let ctx = tiny_ctx();
        let out = run_munas(&ctx, fixed_sensing(), &SearchConfig::munas_quick());
        assert!(!out.history.is_empty());
        // Every candidate carries the same sensing config.
        for e in &out.history {
            assert_eq!(e.candidate.sensing, fixed_sensing());
        }
    }

    #[test]
    fn munas_best_is_max_accuracy_feasible() {
        let ctx = tiny_ctx();
        let out = run_munas(&ctx, fixed_sensing(), &SearchConfig::munas_quick());
        if out.best.meets_accuracy {
            for e in out.history.iter().filter(|e| e.meets_accuracy) {
                assert!(e.accuracy <= out.best.accuracy + 1e-12);
            }
        }
    }

    #[test]
    fn munas_is_deterministic() {
        let ctx = tiny_ctx();
        let cfg = SearchConfig {
            population: 3,
            sample_size: 2,
            cycles: 3,
            seed: 4,
            ..SearchConfig::munas_quick()
        };
        let a = run_munas(&ctx, fixed_sensing(), &cfg);
        let b = run_munas(&ctx, fixed_sensing(), &cfg);
        assert_eq!(a.best.candidate, b.best.candidate);
    }
}
