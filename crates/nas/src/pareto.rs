//! Pareto-front extraction over (accuracy ↑, energy ↓).

use crate::candidate::Evaluated;

/// Returns the subset of `points` not dominated by any other point, sorted
/// by increasing true energy. A point dominates another if it has at least
/// equal accuracy *and* at most equal true energy, with at least one strict.
pub fn pareto_front(points: &[Evaluated]) -> Vec<Evaluated> {
    let mut front: Vec<Evaluated> = points
        .iter()
        .filter(|p| {
            !points.iter().any(|q| {
                let better_acc = q.accuracy >= p.accuracy;
                let better_energy = q.true_energy <= p.true_energy;
                let strictly = q.accuracy > p.accuracy || q.true_energy < p.true_energy;
                better_acc && better_energy && strictly
            })
        })
        .cloned()
        .collect();
    front.sort_by(|a, b| {
        a.true_energy
            .partial_cmp(&b.true_energy)
            .expect("energies are finite")
    });
    #[allow(
        clippy::float_cmp,
        reason = "dedup of *identical* evaluation records: bitwise equality is the intent"
    )]
    front.dedup_by(|a, b| a.accuracy == b.accuracy && a.true_energy == b.true_energy);
    front
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{Candidate, SensingConfig};
    use solarml_dsp::{GestureSensingParams, Resolution};
    use solarml_nn::{LayerSpec, ModelSpec};
    use solarml_units::Energy;

    fn point(accuracy: f64, energy_uj: f64) -> Evaluated {
        let params = GestureSensingParams::new(1, 10, Resolution::Int, 1).expect("valid");
        let spec = ModelSpec::new([4, 1, 1], vec![LayerSpec::flatten(), LayerSpec::dense(2)])
            .expect("valid");
        Evaluated {
            candidate: Candidate {
                sensing: SensingConfig::Gesture(params),
                spec,
            },
            accuracy,
            estimated_energy: Energy::from_micro_joules(energy_uj),
            true_energy: Energy::from_micro_joules(energy_uj),
            meets_accuracy: true,
            cycle: 0,
        }
    }

    #[test]
    fn dominated_points_are_removed() {
        let pts = vec![point(0.9, 100.0), point(0.8, 200.0), point(0.95, 50.0)];
        let front = pareto_front(&pts);
        // (0.95, 50) dominates everything.
        assert_eq!(front.len(), 1);
        assert_eq!(front[0].accuracy, 0.95);
    }

    #[test]
    fn incomparable_points_all_survive() {
        let pts = vec![point(0.7, 10.0), point(0.8, 20.0), point(0.9, 40.0)];
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 3);
        // Sorted by energy.
        assert!(front[0].true_energy < front[2].true_energy);
    }

    #[test]
    fn duplicates_collapse() {
        let pts = vec![point(0.8, 20.0), point(0.8, 20.0)];
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 1);
    }

    #[test]
    fn empty_input_gives_empty_front() {
        assert!(pareto_front(&[]).is_empty());
    }

    #[test]
    fn equal_accuracy_cheaper_wins() {
        let pts = vec![point(0.8, 20.0), point(0.8, 30.0)];
        let front = pareto_front(&pts);
        assert_eq!(front.len(), 1);
        assert!((front[0].true_energy.as_micro_joules() - 20.0).abs() < 1e-9);
    }
}
