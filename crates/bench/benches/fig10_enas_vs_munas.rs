//! Fig. 10 — eNAS (λ ∈ {0, 0.5, 1}) vs µNAS (random sensing configurations)
//! on the accuracy–energy plane, for digits and KWS.
//!
//! Quick mode (default) uses reduced search settings and 6 µNAS sensing
//! configurations; `SOLARML_FULL=1` runs the paper's 50/20/150 settings and
//! 20 µNAS configurations.

use rand::SeedableRng;
use solarml::nas::{pareto_front, run_enas, run_munas, EnasConfig, SearchConfig, TaskContext};
use solarml::nn::TrainConfig;
use solarml_bench::{full_scale, header};

struct Scale {
    enas: fn(f64) -> EnasConfig,
    munas: SearchConfig,
    munas_configs: usize,
    samples_per_class: usize,
    epochs: usize,
}

fn scale() -> Scale {
    if full_scale() {
        Scale {
            enas: EnasConfig::paper,
            munas: SearchConfig::munas_paper(),
            munas_configs: 20,
            samples_per_class: 20,
            epochs: 15,
        }
    } else {
        Scale {
            enas: |l| EnasConfig {
                population: 10,
                sample_size: 5,
                cycles: 20,
                grid_period: 7,
                ..EnasConfig::quick(l)
            },
            munas: SearchConfig {
                population: 10,
                sample_size: 5,
                cycles: 20,
                seed: 0x33A5,
                ..SearchConfig::munas_quick()
            },
            munas_configs: 6,
            samples_per_class: 12,
            epochs: 10,
        }
    }
}

fn run_task(name: &str, mut ctx: TaskContext, s: &Scale) {
    ctx.train_config = TrainConfig {
        epochs: s.epochs,
        ..TrainConfig::default()
    };
    println!();
    println!("--- {name} ---");

    // eNAS at the three λ values.
    let mut enas_points = Vec::new();
    for lambda in [0.0, 0.5, 1.0] {
        let out = run_enas(&ctx, &(s.enas)(lambda));
        println!(
            "eNAS λ={lambda}: best acc {:.3}, energy {} [{}]",
            out.best.accuracy, out.best.true_energy, out.best.candidate
        );
        enas_points.extend(out.history);
    }
    let enas_front = pareto_front(&enas_points);
    println!("eNAS Pareto front ({} points):", enas_front.len());
    for p in &enas_front {
        println!("    acc {:.3}  energy {}", p.accuracy, p.true_energy);
    }

    // µNAS at random sensing configurations.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF16_10);
    let mut munas_points = Vec::new();
    for i in 0..s.munas_configs {
        let sensing = ctx.random_sensing(&mut rng);
        let cfg = SearchConfig {
            seed: s.munas.seed + i as u64,
            ..s.munas
        };
        let out = run_munas(&ctx, sensing, &cfg);
        println!(
            "µNAS @ {}: best acc {:.3}, energy {}",
            sensing, out.best.accuracy, out.best.true_energy
        );
        munas_points.push(out.best);
    }

    // Matched-accuracy energy comparison: for each µNAS point, find the
    // cheapest eNAS point with at least that accuracy.
    let mut ratios = Vec::new();
    for m in &munas_points {
        if let Some(e) = enas_front
            .iter()
            .filter(|p| p.accuracy + 1e-9 >= m.accuracy)
            .min_by(|a, b| a.true_energy.partial_cmp(&b.true_energy).expect("finite"))
        {
            ratios.push(m.true_energy / e.true_energy);
        }
    }
    if !ratios.is_empty() {
        let avg = ratios.iter().sum::<f64>() / ratios.len() as f64;
        let max = ratios.iter().copied().fold(f64::MIN, f64::max);
        println!(
            "matched-accuracy energy: µNAS spends avg {avg:.2}x / max {max:.2}x vs eNAS ({} matches)",
            ratios.len()
        );
        assert!(
            avg > 1.0,
            "eNAS should dominate µNAS at matched accuracy on average"
        );
    } else {
        println!("no µNAS point was matched in accuracy by the eNAS front");
    }
}

fn main() {
    header(
        "Fig. 10",
        "eNAS vs µNAS accuracy-energy trade-off (digits and KWS)",
    );
    let s = scale();
    println!(
        "mode: {} (SOLARML_FULL=1 for the paper's 50/20/150 settings)",
        if full_scale() { "FULL" } else { "quick" }
    );
    run_task(
        "Application 1: digit recognition",
        TaskContext::gesture(s.samples_per_class, 0xD161),
        &s,
    );
    run_task(
        "Application 2: keyword spotting",
        TaskContext::kws(s.samples_per_class, 0xA0D10),
        &s,
    );
    println!();
    println!("Paper: ≥1.5x energy advantage for eNAS at matched accuracy (digits),");
    println!("2.1x at ≥90% accuracy (KWS).");
}
