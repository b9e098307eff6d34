//! The event-detector comparison of Table III.
//!
//! The three reference detectors (proximity sensor, time-of-flight,
//! SolarGest) carry the paper's published numbers; SolarML's row is
//! *measured* from the circuit simulation in [`solarml_detector_spec`].

use serde::{Deserialize, Serialize};
use solarml_circuit::env::Illumination;
use solarml_circuit::event::EventDetector;
use solarml_units::{Energy, Lux, Power, Ratio, Seconds, Volts};

/// One detector's Table III row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectorSpec {
    /// Approach name.
    pub name: &'static str,
    /// Sensing range in millimetres `(min, max)`.
    pub sensing_range_mm: (f64, f64),
    /// Response time range in milliseconds `(min, max)`.
    pub response_time_ms: (f64, f64),
    /// Standby power.
    pub standby: Power,
    /// Working power range `(min, max)`.
    pub working: (Power, Power),
}

impl DetectorSpec {
    /// Energy to wait `wait` seconds and then perform one detection (the
    /// paper's "5-s work energy" row): standby draw over the wait plus
    /// worst-case working draw over the response time.
    pub fn wait_and_detect_energy(&self, wait: Seconds) -> Energy {
        let worst_response = Seconds::from_millis(self.response_time_ms.1);
        self.standby * wait + self.working.1 * worst_response
    }
}

/// The three published reference detectors (paper Table III).
pub const REFERENCE_DETECTORS: [DetectorSpec; 3] = [
    DetectorSpec {
        name: "PS",
        sensing_range_mm: (0.0, 100.0),
        response_time_ms: (10.0, 700.0),
        standby: Power::new(7e-6),
        working: (Power::new(1000e-6), Power::new(1000e-6)),
    },
    DetectorSpec {
        name: "ToF",
        sensing_range_mm: (0.0, 4000.0),
        response_time_ms: (20.0, 1000.0),
        standby: Power::new(10e-6),
        working: (Power::new(1000e-6), Power::new(1000e-6)),
    },
    DetectorSpec {
        name: "SolarGest",
        sensing_range_mm: (0.0, 20.0),
        response_time_ms: (1000.0, 1000.0),
        // SolarGest's standby draw is "not available" in the paper; its
        // 5-s energy (100 µJ) implies ≈20 µW continuous processing.
        standby: Power::new(20e-6),
        working: (Power::new(20e-6), Power::new(20e-6)),
    },
];

/// Measures SolarML's detector row from the circuit simulation: standby
/// power and working power at 250–1000 lux, and the response time at
/// `v_cap` = 3 V.
pub fn solarml_detector_spec() -> DetectorSpec {
    let v_cap = Volts::new(3.0);
    let dt = Seconds::from_millis(1.0);

    let standby_at = |lux: f64| -> Power {
        let mut det = EventDetector::default();
        let ill = Illumination {
            ambient: Lux::new(lux),
            event_cell_shading: Ratio::ZERO,
        };
        det.settle(ill, v_cap);
        let mut out = det.step(dt, ill, Volts::ZERO, false, v_cap);
        // physics-lint: allow(adhoc-sim-loop): detector settling sweep, no energy ledger
        for _ in 0..100 {
            out = det.step(dt, ill, Volts::ZERO, false, v_cap);
        }
        out.detector_power
    };
    let working_at = |lux: f64| -> Power {
        let mut det = EventDetector::default();
        let ill = Illumination {
            ambient: Lux::new(lux),
            event_cell_shading: Ratio::ZERO,
        };
        det.settle(ill, v_cap);
        let mut out = det.step(dt, ill, Volts::new(3.3), false, v_cap);
        // physics-lint: allow(adhoc-sim-loop): detector settling sweep, no energy ledger
        for _ in 0..100 {
            out = det.step(dt, ill, Volts::new(3.3), false, v_cap);
        }
        out.detector_power
    };

    let standby = standby_at(500.0);
    let working_lo = working_at(250.0).min(working_at(1000.0));
    let working_hi = working_at(250.0).max(working_at(1000.0));

    let det = EventDetector::default();
    #[allow(
        clippy::expect_used,
        reason = "default detector triggers at 1000 lux by construction (covered by tests)"
    )]
    let rt_bright = det
        .response_time(Lux::new(1000.0), v_cap)
        .expect("bright light triggers");
    #[allow(
        clippy::expect_used,
        reason = "250 lux is inside the calibrated trigger range (covered by tests)"
    )]
    let rt_dim = det
        .response_time(Lux::new(250.0), v_cap)
        .expect("dim office light still triggers");
    let rt_lo = rt_bright.as_millis().min(rt_dim.as_millis());
    let rt_hi = rt_bright.as_millis().max(rt_dim.as_millis());

    DetectorSpec {
        name: "SolarML",
        sensing_range_mm: (0.0, 20.0),
        response_time_ms: (rt_lo, rt_hi),
        standby,
        working: (working_lo, working_hi),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solarml_row_matches_paper_claims() {
        let row = solarml_detector_spec();
        // Standby ≈2 µW.
        let uw = row.standby.as_micro_watts();
        assert!((1.0..5.0).contains(&uw), "standby {uw:.2} µW");
        // Working within the paper's 7.5–28 µW envelope.
        assert!(row.working.0.as_micro_watts() >= 5.0);
        assert!(row.working.1.as_micro_watts() <= 30.0);
        // Response a few milliseconds.
        assert!(
            row.response_time_ms.1 < 25.0,
            "response {:?}",
            row.response_time_ms
        );
    }

    #[test]
    fn five_second_energy_ordering_matches_table3() {
        let wait = Seconds::new(5.0);
        let solarml = solarml_detector_spec().wait_and_detect_energy(wait);
        for reference in REFERENCE_DETECTORS {
            let e = reference.wait_and_detect_energy(wait);
            assert!(
                solarml < e,
                "SolarML {} should beat {} ({})",
                solarml,
                reference.name,
                e
            );
        }
    }

    #[test]
    fn solarml_beats_solargest_by_order_of_magnitude() {
        // Paper: "10× lower than SolarGest" for a 5-s wait.
        let wait = Seconds::new(5.0);
        let solarml = solarml_detector_spec().wait_and_detect_energy(wait);
        let solargest = REFERENCE_DETECTORS[2].wait_and_detect_energy(wait);
        let factor = solargest / solarml;
        assert!(
            factor > 5.0,
            "expected ~10× advantage over SolarGest, got {factor:.1}×"
        );
    }

    #[test]
    fn reference_five_second_energies_match_table3_ranges() {
        let wait = Seconds::new(5.0);
        // PS: 45–735 µJ; ToF: 70–1150 µJ; SolarGest: ≈100 µJ.
        let ps = REFERENCE_DETECTORS[0].wait_and_detect_energy(wait);
        assert!((35.0..800.0).contains(&ps.as_micro_joules()), "PS {}", ps);
        let tof = REFERENCE_DETECTORS[1].wait_and_detect_energy(wait);
        assert!(
            (50.0..1200.0).contains(&tof.as_micro_joules()),
            "ToF {}",
            tof
        );
        let sg = REFERENCE_DETECTORS[2].wait_and_detect_energy(wait);
        assert!(
            (80.0..130.0).contains(&sg.as_micro_joules()),
            "SolarGest {}",
            sg
        );
    }
}
