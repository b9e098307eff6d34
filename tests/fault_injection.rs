//! Acceptance tests for the intermittency-aware runtime (ISSUE 3).
//!
//! The contract under test:
//!
//! 1. on the seeded cloudy day, checkpoint+degrade completes strictly more
//!    interaction cycles than naive restart while wasting strictly less
//!    energy on lost progress;
//! 2. the `DayFaultReport` accounts for every joule — the embedded
//!    `EnergyAudit` conservation residual stays ≤ 1 nJ over the day;
//! 3. identical seeds produce bit-identical reports across repeated runs
//!    *and* across parallel worker counts (the fault simulation rides the
//!    shared worker pool without picking up nondeterminism).

use solarml::circuit::FaultPlan;
use solarml::platform::{
    simulate_faulted_day, stressed_office_day, DayFaultReport, DegradationLadder,
    IntermittentConfig, PhasePlan,
};
use solarml::sim::pool::parallel_map;
use solarml::units::{Energy, Lux, Ratio};

const SEED: u64 = 42;

fn ladder() -> DegradationLadder {
    DegradationLadder::from_exit_macs(&[100_000, 400_000, 1_000_000])
        .with_coarse_sensing(Ratio::new(0.5), Ratio::new(0.55))
}

fn naive_config(peak: f64) -> IntermittentConfig {
    IntermittentConfig::naive(
        stressed_office_day(Lux::new(peak)),
        FaultPlan::seeded_cloudy_day(SEED),
        PhasePlan::representative_gesture(),
    )
}

fn resilient_config(peak: f64) -> IntermittentConfig {
    IntermittentConfig::resilient(
        stressed_office_day(Lux::new(peak)),
        FaultPlan::seeded_cloudy_day(SEED),
        PhasePlan::representative_gesture(),
        ladder(),
    )
}

#[test]
fn checkpoint_and_degrade_strictly_beats_naive_restart() {
    let naive = simulate_faulted_day(&naive_config(200.0));
    let resilient = simulate_faulted_day(&resilient_config(200.0));

    assert!(
        naive.brownouts > 0,
        "the scenario must actually stress the naive runtime: {naive:?}"
    );
    assert!(
        resilient.completed > naive.completed,
        "resilient completed {} vs naive {}",
        resilient.completed,
        naive.completed
    );
    assert!(
        resilient.wasted < naive.wasted,
        "resilient wasted {} vs naive {}",
        resilient.wasted,
        naive.wasted
    );
}

#[test]
fn every_joule_is_accounted_for() {
    for cfg in [naive_config(200.0), resilient_config(200.0)] {
        let report = simulate_faulted_day(&cfg);
        let residual = report.audit.discrepancy;
        assert!(
            residual <= Energy::from_nano_joules(1.0),
            "conservation residual {residual} exceeds 1 nJ"
        );
    }
}

#[test]
fn identical_seeds_are_bit_identical_across_runs_and_worker_counts() {
    // The same four configurations, evaluated three ways: sequentially,
    // through the worker pool with 1 worker, and with 4 workers.
    let configs = [
        naive_config(200.0),
        resilient_config(200.0),
        naive_config(400.0),
        resilient_config(400.0),
    ];
    let sequential: Vec<DayFaultReport> = configs.iter().map(simulate_faulted_day).collect();
    for workers in [1usize, 4] {
        let pooled = parallel_map(workers, &configs, |_, cfg| simulate_faulted_day(cfg));
        assert_eq!(sequential, pooled, "reports diverged at {workers} workers");
        let json_a: Vec<String> = sequential.iter().map(DayFaultReport::to_json).collect();
        let json_b: Vec<String> = pooled.iter().map(DayFaultReport::to_json).collect();
        assert_eq!(json_a, json_b, "JSON bytes diverged at {workers} workers");
    }
}
