//! Drive eNAS and µNAS directly: run the two searches on the gesture task,
//! print their histories' Pareto fronts, and compare matched-accuracy
//! energy — a miniature of the paper's Fig. 10 evaluation.
//!
//! ```sh
//! cargo run --release --example nas_search
//! ```

use solarml::nas::{pareto_front, run_enas, run_munas, EnasConfig, SearchConfig, TaskContext};
use solarml::nn::TrainConfig;
use solarml::SensingConfig;

fn main() {
    let mut ctx = TaskContext::gesture(12, 0xD161);
    ctx.train_config = TrainConfig {
        epochs: 10,
        ..TrainConfig::default()
    };
    println!(
        "task: digit gestures | constraints: {:?}\n",
        ctx.constraints
    );

    // eNAS across the λ spectrum.
    let mut all = Vec::new();
    for lambda in [0.0, 0.5, 1.0] {
        let out = run_enas(&ctx, &EnasConfig::quick(lambda));
        println!(
            "eNAS λ={lambda:<3} -> acc {:.3}, E {} | {}",
            out.best.accuracy, out.best.true_energy, out.best.candidate.sensing
        );
        all.extend(out.history);
    }
    println!("\neNAS Pareto front over all runs:");
    for p in pareto_front(&all) {
        println!(
            "  acc {:.3}  E {}  ({})",
            p.accuracy, p.true_energy, p.candidate.sensing
        );
    }

    // µNAS at two fixed sensing configurations: one expensive, one cheap.
    println!("\nµNAS baselines (model-only search, total-MACs proxy):");
    for sensing in [
        SensingConfig::Gesture(solarml::dsp::GestureSensingParams::full()),
        SensingConfig::Gesture(
            solarml::dsp::GestureSensingParams::new(3, 30, solarml::dsp::Resolution::Int, 6)
                .expect("params in range"),
        ),
    ] {
        let out = run_munas(&ctx, sensing, &SearchConfig::munas_quick());
        println!(
            "  @ {sensing} -> acc {:.3}, E {}",
            out.best.accuracy, out.best.true_energy
        );
    }
    println!("\nµNAS can only be as frugal as the sensing configuration it was");
    println!("handed; eNAS moves through that space during the search.");
}
