//! The parallel engine's core contract: worker count must not influence
//! search results. One worker and four workers over identically-built
//! contexts must produce bit-identical `SearchOutcome`s.

use solarml_nas::{run_enas, run_munas, EnasConfig, SearchConfig, SensingConfig, TaskContext};
use solarml_nn::TrainConfig;

fn tiny_ctx() -> TaskContext {
    let mut ctx = TaskContext::gesture(4, 11);
    ctx.train_config = TrainConfig {
        epochs: 3,
        ..TrainConfig::default()
    };
    ctx
}

#[test]
fn enas_history_is_bit_identical_at_1_and_4_workers() {
    // Fresh context per run so neither run sees the other's memo cache.
    let serial = run_enas(
        &tiny_ctx(),
        &EnasConfig {
            workers: 1,
            ..EnasConfig::quick(0.5)
        },
    );
    let parallel = run_enas(
        &tiny_ctx(),
        &EnasConfig {
            workers: 4,
            ..EnasConfig::quick(0.5)
        },
    );

    assert_eq!(serial.history.len(), parallel.history.len());
    for (i, (s, p)) in serial.history.iter().zip(&parallel.history).enumerate() {
        assert_eq!(s.candidate, p.candidate, "candidate diverges at step {i}");
        assert_eq!(s.cycle, p.cycle, "cycle diverges at step {i}");
        assert_eq!(
            s.accuracy.to_bits(),
            p.accuracy.to_bits(),
            "accuracy diverges at step {i}: {} vs {}",
            s.accuracy,
            p.accuracy
        );
        assert_eq!(
            s.estimated_energy.as_joules().to_bits(),
            p.estimated_energy.as_joules().to_bits(),
            "estimated energy diverges at step {i}"
        );
        assert_eq!(
            s.true_energy.as_joules().to_bits(),
            p.true_energy.as_joules().to_bits(),
            "true energy diverges at step {i}"
        );
        assert_eq!(s.meets_accuracy, p.meets_accuracy);
    }
    assert_eq!(serial.best, parallel.best);
    assert_eq!(serial.energy_envelope, parallel.energy_envelope);
}

#[test]
fn munas_history_is_bit_identical_at_1_and_4_workers() {
    let sensing = {
        use solarml_dsp::{GestureSensingParams, Resolution};
        SensingConfig::Gesture(GestureSensingParams::new(6, 60, Resolution::Int, 8).expect("valid"))
    };
    let cfg_serial = SearchConfig {
        population: 4,
        sample_size: 2,
        cycles: 4,
        workers: 1,
        ..SearchConfig::munas_quick()
    };
    let cfg_parallel = SearchConfig {
        workers: 4,
        ..cfg_serial
    };
    let serial = run_munas(&tiny_ctx(), sensing, &cfg_serial);
    let parallel = run_munas(&tiny_ctx(), sensing, &cfg_parallel);
    assert_eq!(serial.history, parallel.history);
    assert_eq!(serial.best, parallel.best);
}

#[test]
fn memoization_serves_duplicate_candidates_from_cache() {
    // Running the same search twice on one context must not retrain: the
    // second run resolves entirely from the memo cache and reproduces the
    // first run's history.
    let ctx = tiny_ctx();
    let config = EnasConfig {
        population: 4,
        sample_size: 2,
        cycles: 4,
        grid_period: 2,
        workers: 2,
        ..EnasConfig::quick(0.5)
    };
    let first = run_enas(&ctx, &config);
    let cached = ctx.eval_cache_len();
    assert!(cached > 0, "search populates the memo cache");
    let second = run_enas(&ctx, &config);
    assert_eq!(
        ctx.eval_cache_len(),
        cached,
        "identical rerun must not train new candidates"
    );
    assert_eq!(first.history, second.history);
}
