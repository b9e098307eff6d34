//! The aging-evolution loop shared by eNAS, µNAS and the HarvNet-style
//! baseline, and the result helpers every search driver reuses. The crate
//! docs list what each driver supplies to the loop.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use solarml_nn::ModelSpec;
use solarml_units::Energy;

use crate::candidate::{Candidate, Evaluated, SensingConfig};
use crate::parallel::{EvalEngine, EvalRequest};
use crate::task::TaskContext;

/// Hyperparameters of the µNAS, HarvNet-style and random searches (µNAS is
/// matched to the eNAS run for fairness, §V-D).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchConfig {
    /// Population size (random search: samples before the `cycles` extra).
    pub population: usize,
    /// Tournament size (unused by random search).
    pub sample_size: usize,
    /// Evolution cycles (random search: extra samples).
    pub cycles: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads for candidate evaluation (0 = available parallelism).
    #[serde(default)]
    pub workers: usize,
}

impl SearchConfig {
    /// µNAS at the paper's full scale.
    pub fn munas_paper() -> Self {
        Self {
            population: 50,
            sample_size: 20,
            cycles: 150,
            ..Self::munas_quick()
        }
    }

    /// µNAS reduced for tests and quick demos.
    pub fn munas_quick() -> Self {
        Self {
            seed: 0x33A5,
            ..Self::baseline_quick()
        }
    }

    /// The HarvNet-style and random baselines reduced for tests and quick
    /// demos.
    pub fn baseline_quick() -> Self {
        Self {
            population: 8,
            sample_size: 4,
            cycles: 12,
            seed: 0xBA5E,
            workers: 0,
        }
    }

    /// The one precondition every search shares.
    pub(crate) fn check(&self) {
        assert!(self.population > 0, "population must be positive");
        assert!(self.sample_size > 0, "sample size must be positive");
    }
}

/// The state of one aging-evolution run.
pub(crate) struct Evolution<'a> {
    ctx: &'a TaskContext,
    engine: EvalEngine<'a>,
    rng: StdRng,
    config: SearchConfig,
    total_macs: bool,
    /// The live population, oldest first.
    pub population: Vec<Evaluated>,
    /// Every evaluated candidate, in evaluation order.
    pub history: Vec<Evaluated>,
}

impl<'a> Evolution<'a> {
    /// Fills the initial population with candidates from `draw`, batched at
    /// cycle 0 and redrawn until `config.population` evaluate. Under
    /// `total_macs` every estimate is replaced by the total-MACs proxy.
    pub fn start(
        ctx: &'a TaskContext,
        config: SearchConfig,
        total_macs: bool,
        mut draw: impl FnMut(&mut StdRng) -> Candidate,
    ) -> Self {
        config.check();
        let mut evo = Self {
            ctx,
            engine: EvalEngine::new(ctx, config.seed, config.workers),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            total_macs,
            population: Vec::with_capacity(config.population),
            history: Vec::new(),
        };
        while evo.population.len() < config.population {
            let requests: Vec<EvalRequest> = (evo.population.len()..config.population)
                .map(|_| EvalRequest::new(draw(&mut evo.rng), 0))
                .collect();
            let evals = evo.evaluate(&requests);
            evo.population.extend(evals);
        }
        evo.history = evo.population.clone();
        evo
    }

    /// Runs the evolution cycles. Each cycle builds its parent score with
    /// `cycle_score` (which may draw from the RNG first), picks the tournament
    /// winner of `sample_size` members, evaluates the children `propose`
    /// returns as one batch, and ages the best of them into the population.
    pub fn run<F: Fn(&Evaluated) -> f64>(
        &mut self,
        mut cycle_score: impl FnMut(&mut StdRng, &[Evaluated]) -> F,
        mut propose: impl FnMut(&mut StdRng, &Candidate, usize) -> Vec<Candidate>,
    ) {
        for cycle in 1..=self.config.cycles {
            let score = cycle_score(&mut self.rng, &self.population);
            let size = self.config.sample_size.min(self.population.len());
            let sample = self.population.choose_multiple(&mut self.rng, size);
            let parent = best_by(sample, &score).candidate.clone();
            let requests: Vec<EvalRequest> = propose(&mut self.rng, &parent, cycle)
                .into_iter()
                .map(|child| EvalRequest::new(child, cycle))
                .collect();
            let child = self.evaluate(&requests).into_iter().reduce(|best, e| {
                if score(&e) > score(&best) {
                    e
                } else {
                    best
                }
            });
            if let Some(eval) = child {
                self.history.push(eval.clone());
                self.population.push(eval);
                self.population.remove(0); // aging: drop the oldest
            }
        }
    }

    /// Evaluates a batch, dropping rejected candidates. The proxy override
    /// is applied after cache retrieval: the memo cache always stores the
    /// layer-wise estimate, and the override is a pure function of the
    /// candidate, so hits and misses agree. The true energy is untouched.
    fn evaluate(&self, requests: &[EvalRequest]) -> Vec<Evaluated> {
        let override_estimate = |mut eval: Evaluated| {
            if self.total_macs {
                eval.estimated_energy = self.ctx.munas_estimated_energy(&eval.candidate);
            }
            eval
        };
        let evals = self.engine.evaluate_batch(requests).into_iter().flatten();
        evals.map(override_estimate).collect()
    }
}

/// Moves `parent` to `sensing`: its layer sequence is kept if it still
/// validates for the new input shape, else a fresh model is sampled in the
/// new shape's space.
pub(crate) fn resense(
    ctx: &TaskContext,
    parent: &Candidate,
    sensing: SensingConfig,
    rng: &mut impl Rng,
) -> Candidate {
    let spec = ModelSpec::new(ctx.input_shape(sensing), parent.spec.layers().to_vec())
        .unwrap_or_else(|_| ctx.sampler(sensing).sample(rng));
    Candidate { sensing, spec }
}

/// The highest-scoring candidate (the last one on a tie).
pub(crate) fn best_by<'e>(
    evals: impl IntoIterator<Item = &'e Evaluated>,
    score: impl Fn(&Evaluated) -> f64,
) -> &'e Evaluated {
    evals
        .into_iter()
        .max_by(|a, b| score(a).total_cmp(&score(b)))
        .expect("searches never pick from an empty set")
}

/// The most accurate candidate that meets the accuracy bound, or the most
/// accurate one overall when none does.
pub(crate) fn most_accurate_feasible(history: &[Evaluated]) -> Evaluated {
    let accuracy = |e: &Evaluated| e.accuracy;
    if history.iter().any(|e| e.meets_accuracy) {
        best_by(history.iter().filter(|e| e.meets_accuracy), accuracy).clone()
    } else {
        best_by(history, accuracy).clone()
    }
}

/// The (lowest, highest) estimated energy of `evals`.
pub(crate) fn envelope(evals: &[Evaluated]) -> (Energy, Energy) {
    evals
        .iter()
        .fold((Energy::new(f64::INFINITY), Energy::ZERO), |(lo, hi), e| {
            (lo.min(e.estimated_energy), hi.max(e.estimated_energy))
        })
}
