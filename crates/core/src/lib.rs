//! **SolarML** — a reproduction of *"SolarML: Optimizing Sensing and
//! Inference for Solar-Powered TinyML Platforms"* (DATE 2025) as a pure-Rust
//! workspace.
//!
//! The crate re-exports the whole stack and adds a high-level [`Pipeline`]
//! that wires the typical workflow together: pick a task, run eNAS, and ask
//! what the winning configuration costs end-to-end and how long the solar
//! array needs to harvest for it.
//!
//! # Quickstart
//!
//! ```no_run
//! use solarml::{EnasConfig, Pipeline, TaskSelection};
//!
//! let report = Pipeline::new(TaskSelection::GestureDigits)
//!     .samples_per_class(12)
//!     .quick_search(0.5) // λ = 0.5: balance accuracy and energy
//!     .run();
//! println!("best: {}", report.best.candidate);
//! println!("accuracy {:.2}, energy {}", report.best.accuracy, report.best.true_energy);
//! println!("harvest at 500 lux: {}", report.harvest_office);
//! ```
//!
//! The layer crates are re-exported under their domain names: [`units`],
//! [`trace`], [`sim`], [`circuit`], [`mcu`], [`dsp`], [`nn`], [`datasets`],
//! [`energy`], [`nas`], [`platform`], [`fleet`], [`scenario`].

pub use solarml_circuit as circuit;
pub use solarml_datasets as datasets;
pub use solarml_dsp as dsp;
pub use solarml_energy as energy;
pub use solarml_fleet as fleet;
pub use solarml_mcu as mcu;
pub use solarml_nas as nas;
pub use solarml_nn as nn;
pub use solarml_platform as platform;
pub use solarml_scenario as scenario;
pub use solarml_sim as sim;
pub use solarml_trace as trace;
pub use solarml_units as units;

pub use solarml_nas::{
    pareto_front, run_enas, run_munas, Candidate, EnasConfig, Evaluated, SearchConfig,
    SearchOutcome, SensingConfig, TaskContext,
};
pub use solarml_platform::{harvesting_time, EndToEndBudget, HarvestScenario};
pub use solarml_units::{Energy, Power, Seconds};

use solarml_nas::TaskKind;
use solarml_nn::TrainConfig;
use solarml_units::Lux;

/// Which of the paper's two applications to optimize.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskSelection {
    /// Digit recognition over the solar-cell array.
    GestureDigits,
    /// Audio keyword spotting.
    Kws,
}

/// End-to-end report produced by a [`Pipeline`] run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The winning candidate.
    pub best: Evaluated,
    /// Full search outcome (history, envelope).
    pub outcome: SearchOutcome,
    /// End-to-end per-inference budget for the winner (5 s wait).
    pub budget: EndToEndBudget,
    /// Harvesting time at 250 lux.
    pub harvest_dim: Seconds,
    /// Harvesting time at 500 lux (office).
    pub harvest_office: Seconds,
    /// Harvesting time at 1000 lux (window).
    pub harvest_window: Seconds,
}

/// High-level workflow builder: task → search → end-to-end economics.
///
/// # Examples
///
/// See the [crate-level quickstart](crate).
#[derive(Debug, Clone)]
pub struct Pipeline {
    task: TaskSelection,
    samples_per_class: usize,
    seed: u64,
    search: EnasConfig,
    epochs: usize,
}

impl Pipeline {
    /// Creates a pipeline for a task with quick-search defaults.
    pub fn new(task: TaskSelection) -> Self {
        Self {
            task,
            samples_per_class: 12,
            seed: 0x50AA,
            search: EnasConfig::quick(0.5),
            epochs: 10,
        }
    }

    /// Sets the synthetic corpus size per class.
    pub fn samples_per_class(mut self, n: usize) -> Self {
        self.samples_per_class = n;
        self
    }

    /// Sets the RNG seed for corpus generation and search.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses reduced search settings at the given λ (tests, demos).
    pub fn quick_search(mut self, lambda: f64) -> Self {
        self.search = EnasConfig {
            seed: self.seed,
            ..EnasConfig::quick(lambda)
        };
        self
    }

    /// Uses the paper's full-scale search settings at the given λ.
    pub fn paper_search(mut self, lambda: f64) -> Self {
        self.search = EnasConfig {
            seed: self.seed,
            ..EnasConfig::paper(lambda)
        };
        self
    }

    /// Sets per-candidate training epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Sets the evaluation worker-thread count (0 = available parallelism).
    /// Search results are identical at any worker count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.search.workers = workers;
        self
    }

    /// Builds the task context this pipeline would search over (exposed for
    /// callers that want to drive `run_enas`/`run_munas` themselves).
    pub fn context(&self) -> TaskContext {
        let mut ctx = match self.task {
            TaskSelection::GestureDigits => TaskContext::gesture(self.samples_per_class, self.seed),
            TaskSelection::Kws => TaskContext::kws(self.samples_per_class, self.seed),
        };
        ctx.train_config = TrainConfig {
            epochs: self.epochs,
            ..TrainConfig::default()
        };
        ctx
    }

    /// Runs the search and computes the end-to-end economics of the winner.
    pub fn run(&self) -> PipelineReport {
        let ctx = self.context();
        let outcome = run_enas(&ctx, &self.search);
        let best = outcome.best.clone();

        // Decompose the winner's true energy for the budget.
        let sensing = match best.candidate.sensing {
            SensingConfig::Gesture(p) => {
                solarml_energy::device::GestureSensingGround::default().true_energy(&p)
            }
            SensingConfig::Audio(p) => {
                solarml_energy::device::AudioSensingGround::default().true_energy(&p)
            }
        };
        let inference =
            solarml_energy::device::InferenceGround::default().true_energy(&best.candidate.spec);
        let budget = EndToEndBudget::solarml(sensing, inference, Seconds::new(5.0));

        let [dim, office, window] = HarvestScenario::paper_conditions();
        PipelineReport {
            harvest_dim: harvesting_time(budget.total(), &dim),
            harvest_office: harvesting_time(budget.total(), &office),
            harvest_window: harvesting_time(budget.total(), &window),
            budget,
            best,
            outcome,
        }
    }
}

/// Maps a [`TaskSelection`] to the NAS-level [`TaskKind`].
impl From<TaskSelection> for TaskKind {
    fn from(t: TaskSelection) -> TaskKind {
        match t {
            TaskSelection::GestureDigits => TaskKind::GestureDigits,
            TaskSelection::Kws => TaskKind::Kws,
        }
    }
}

/// A 500-lux office scenario helper.
pub fn office_light() -> Lux {
    Lux::new(500.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_runs_end_to_end_for_gesture() {
        let report = Pipeline::new(TaskSelection::GestureDigits)
            .samples_per_class(4)
            .epochs(3)
            .quick_search(0.5)
            .run();
        assert!(report.best.accuracy > 0.0);
        assert!(report.budget.total().as_micro_joules() > 100.0);
        assert!(report.harvest_window < report.harvest_office);
        assert!(report.harvest_office < report.harvest_dim);
    }

    #[test]
    fn task_selection_maps_to_kind() {
        assert_eq!(TaskKind::from(TaskSelection::Kws), TaskKind::Kws);
        assert_eq!(
            TaskKind::from(TaskSelection::GestureDigits),
            TaskKind::GestureDigits
        );
    }
}
