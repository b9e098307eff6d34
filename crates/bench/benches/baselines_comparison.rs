//! Extension: four search strategies on the same task and budget — eNAS
//! (the paper), µNAS (model-only + random scalarization), HarvNet-style
//! (joint space, `max A/E` ratio objective) and pure random search.
//!
//! Every strategy shares the trainer, candidate space and constraints, so
//! the comparison isolates the search policy.

use rand::SeedableRng;
use solarml::nas::{
    run_enas, run_harvnet_style, run_munas, run_random_search, EnasConfig, Evaluated, SearchConfig,
    TaskContext,
};
use solarml::nn::TrainConfig;
use solarml_bench::{full_scale, header};

fn describe(name: &str, best: &Evaluated, evaluations: usize) {
    println!(
        "{:<18} acc {:>5.1}%  E_true {:>10}  feasible {}  ({} evaluations)",
        name,
        100.0 * best.accuracy,
        best.true_energy.to_string(),
        best.meets_accuracy,
        evaluations
    );
}

fn main() {
    header(
        "Search baselines",
        "eNAS vs µNAS vs HarvNet-style vs random, same budget",
    );
    let full = full_scale();
    let mut ctx = TaskContext::gesture(if full { 20 } else { 10 }, 0xD161);
    ctx.train_config = TrainConfig {
        epochs: if full { 15 } else { 8 },
        ..TrainConfig::default()
    };

    let (population, sample_size, cycles) = if full { (50, 20, 150) } else { (10, 5, 20) };

    let enas = run_enas(
        &ctx,
        &EnasConfig {
            population,
            sample_size,
            cycles,
            grid_period: 7,
            ..EnasConfig::quick(0.5)
        },
    );
    describe("eNAS (λ=0.5)", &enas.best, enas.history.len());

    // µNAS gets a mid-range sensing configuration (it cannot choose).
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBA5E11);
    let sensing = ctx.random_sensing(&mut rng);
    let munas = run_munas(
        &ctx,
        sensing,
        &SearchConfig {
            population,
            sample_size,
            cycles,
            seed: 0x33A5,
            ..SearchConfig::munas_quick()
        },
    );
    describe(
        &format!("µNAS @ {sensing}"),
        &munas.best,
        munas.history.len(),
    );

    let baseline_cfg = SearchConfig {
        population,
        sample_size,
        cycles,
        seed: 0xBA5E,
        ..SearchConfig::baseline_quick()
    };
    let harvnet = run_harvnet_style(&ctx, &baseline_cfg);
    describe("HarvNet-style A/E", &harvnet.best, harvnet.history.len());

    let random = run_random_search(&ctx, &baseline_cfg);
    describe("random search", &random.best, random.history.len());

    // Scalarized comparison at λ = 0.5 over true energies.
    let all: Vec<&Evaluated> = [&enas.best, &munas.best, &harvnet.best, &random.best]
        .into_iter()
        .collect();
    let e_lo = all
        .iter()
        .map(|e| e.true_energy.as_micro_joules())
        .fold(f64::INFINITY, f64::min);
    let e_hi = all
        .iter()
        .map(|e| e.true_energy.as_micro_joules())
        .fold(0.0f64, f64::max);
    let score = |e: &Evaluated| {
        let norm = (e.true_energy.as_micro_joules() - e_lo) / (e_hi - e_lo).max(1e-9);
        e.accuracy - 0.5 * norm
    };
    println!();
    println!("objective A − 0.5·Ê over the four winners:");
    for (name, best) in [
        ("eNAS", &enas.best),
        ("µNAS", &munas.best),
        ("HarvNet-style", &harvnet.best),
        ("random", &random.best),
    ] {
        println!("  {:<15} {:.3}", name, score(best));
    }
    println!();
    println!("eNAS's edge comes from moving through the sensing space with an");
    println!("accurate per-class energy model; the ratio objective cannot be");
    println!("steered and the baselines cannot move the front-end at all.");
}
