//! Integration tests for the search drivers on live task contexts.

use solarml::nas::{pareto_front, run_enas, run_munas, EnasConfig, SearchConfig, TaskContext};
use solarml::nn::TrainConfig;
use solarml::SensingConfig;

fn quick_ctx() -> TaskContext {
    let mut ctx = TaskContext::gesture(6, 42);
    ctx.train_config = TrainConfig {
        epochs: 5,
        ..TrainConfig::default()
    };
    ctx
}

#[test]
fn enas_respects_static_constraints_throughout() {
    let ctx = quick_ctx();
    let out = run_enas(&ctx, &EnasConfig::quick(0.5));
    for e in &out.history {
        assert!(
            e.candidate.spec.memory_bytes() <= ctx.constraints.max_memory_bytes,
            "memory constraint violated by {}",
            e.candidate
        );
        assert!(e.candidate.spec.mac_summary().total() <= ctx.constraints.max_macs);
    }
}

#[test]
fn enas_history_is_pareto_consistent() {
    let ctx = quick_ctx();
    let out = run_enas(&ctx, &EnasConfig::quick(0.5));
    let front = pareto_front(&out.history);
    assert!(!front.is_empty());
    // No front point is dominated by any history point.
    for p in &front {
        for h in &out.history {
            let dominates = h.accuracy > p.accuracy && h.true_energy < p.true_energy;
            assert!(!dominates, "front point dominated by history point");
        }
    }
}

#[test]
fn lambda_one_winner_sits_at_the_cheap_end() {
    // With λ = 1 the objective is energy-dominated, so the winner must sit
    // in the cheap half of everything that run evaluated. (Comparing
    // winners *across* λ runs is not guaranteed: a pure-accuracy search can
    // stumble on a cheap model by luck.)
    let ctx = quick_ctx();
    let out = run_enas(&ctx, &EnasConfig::quick(1.0));
    let mut energies: Vec<f64> = out
        .history
        .iter()
        .map(|e| e.estimated_energy.as_micro_joules())
        .collect();
    energies.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let median = energies[energies.len() / 2];
    assert!(
        out.best.estimated_energy.as_micro_joules() <= median,
        "λ=1 winner {} should be below the run's median {:.0} µJ",
        out.best.estimated_energy,
        median
    );
}

#[test]
fn munas_never_changes_sensing() {
    let ctx = quick_ctx();
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let sensing = ctx.random_sensing(&mut rng);
    let out = run_munas(&ctx, sensing, &SearchConfig::munas_quick());
    assert!(out.history.iter().all(|e| e.candidate.sensing == sensing));
}

#[test]
fn enas_does_explore_the_sensing_space() {
    let ctx = quick_ctx();
    let out = run_enas(
        &ctx,
        &EnasConfig {
            cycles: 16,
            grid_period: 4,
            ..EnasConfig::quick(0.5)
        },
    );
    let distinct: std::collections::HashSet<_> = out
        .history
        .iter()
        .map(|e| match e.candidate.sensing {
            SensingConfig::Gesture(p) => format!("{p}"),
            SensingConfig::Audio(p) => format!("{p}"),
        })
        .collect();
    assert!(
        distinct.len() > 3,
        "phase 1 randomness + grid mutations should visit several sensing configs, saw {}",
        distinct.len()
    );
}

#[test]
fn kws_search_runs_end_to_end() {
    let mut ctx = TaskContext::kws(4, 11);
    ctx.train_config = TrainConfig {
        epochs: 4,
        ..TrainConfig::default()
    };
    let out = run_enas(
        &ctx,
        &EnasConfig {
            population: 4,
            sample_size: 2,
            cycles: 4,
            grid_period: 3,
            seed: 2,
            ..EnasConfig::quick(0.5)
        },
    );
    assert!(
        out.best.true_energy.as_milli_joules() > 1.0,
        "KWS energy is mJ scale"
    );
    assert!(matches!(
        out.best.candidate.sensing,
        SensingConfig::Audio(_)
    ));
}
