//! §V-D — end-to-end energy per inference (SolarML vs PS+µNAS) and
//! harvesting times at 250/500/1000 lux.
//!
//! Runs a small eNAS and µNAS per task (full paper settings under
//! `SOLARML_FULL=1`), then prices the winners end-to-end.

use solarml::energy::device::{AudioSensingGround, GestureSensingGround, InferenceGround};
use solarml::nas::{run_enas, run_munas, EnasConfig, SearchConfig, SensingConfig, TaskContext};
use solarml::nn::TrainConfig;
use solarml::platform::{harvesting_time, EndToEndBudget, HarvestScenario};
use solarml::{Energy, Seconds};
use solarml_bench::{full_scale, header};

fn true_split(sensing: SensingConfig, spec: &solarml::nn::ModelSpec) -> (Energy, Energy) {
    let e_s = match sensing {
        SensingConfig::Gesture(p) => GestureSensingGround::default().true_energy(&p),
        SensingConfig::Audio(p) => AudioSensingGround::default().true_energy(&p),
    };
    let e_m = InferenceGround::default().true_energy(spec);
    (e_s, e_m)
}

fn run_task(name: &str, mut ctx: TaskContext, full: bool) -> (Energy, Energy) {
    let (enas_cfg, munas_cfg, epochs) = if full {
        (EnasConfig::paper(0.5), SearchConfig::munas_paper(), 15)
    } else {
        (EnasConfig::quick(0.5), SearchConfig::munas_quick(), 8)
    };
    ctx.train_config = TrainConfig {
        epochs,
        ..TrainConfig::default()
    };
    // eNAS averaged over the three λ settings (as in the paper).
    let mut enas_total = Energy::ZERO;
    let mut n = 0.0;
    let mut last_sensing = None;
    for lambda in [0.0, 0.5, 1.0] {
        let out = run_enas(&ctx, &EnasConfig { lambda, ..enas_cfg });
        let (es, em) = true_split(out.best.candidate.sensing, &out.best.candidate.spec);
        enas_total += es + em;
        n += 1.0;
        last_sensing = Some(out.best.candidate.sensing);
    }
    let enas_avg = enas_total / n;

    // µNAS at several random sensing configurations (the paper runs 20 and
    // compares "the three accuracy points closest to eNAS"); we run a few
    // and keep the accuracy-closest winner.
    let _ = last_sensing;
    use rand::SeedableRng;
    let mut srng = rand::rngs::StdRng::seed_from_u64(0xE2E);
    let reference = run_enas(
        &ctx,
        &EnasConfig {
            lambda: 0.5,
            ..enas_cfg
        },
    );
    let mut closest: Option<(f64, solarml::nas::Evaluated)> = None;
    let configs = if full { 8 } else { 4 };
    for i in 0..configs {
        let sensing = ctx.random_sensing(&mut srng);
        let out = run_munas(
            &ctx,
            sensing,
            &SearchConfig {
                seed: munas_cfg.seed + i,
                ..munas_cfg
            },
        );
        let gap = (out.best.accuracy - reference.best.accuracy).abs();
        let better = closest.as_ref().map(|(g, _)| gap < *g).unwrap_or(true);
        if better {
            closest = Some((gap, out.best));
        }
    }
    let munas_best = closest.expect("ran at least one µNAS config").1;
    let (mes, mem) = true_split(munas_best.candidate.sensing, &munas_best.candidate.spec);

    // Price E_S/E_M of the λ=0.5 winner directly (the averaged eNAS energy
    // is reported alongside for the paper's "average across settings").
    let wait = Seconds::new(5.0);
    let (es, em) = true_split(
        reference.best.candidate.sensing,
        &reference.best.candidate.spec,
    );
    let solarml_budget = EndToEndBudget::solarml(es, em, wait);
    let baseline_budget = EndToEndBudget::ps_baseline(mes, mem, wait);

    println!();
    println!("--- {name} ---");
    println!("eNAS average E_S+E_M across λ settings: {enas_avg}");
    println!(
        "SolarML (eNAS λ=0.5 winner): E_S {}  E_M {}  total/inference {}",
        es,
        em,
        solarml_budget.total()
    );
    println!(
        "PS + µNAS baseline:          E_S {}  E_M {}  total/inference {}",
        mes,
        mem,
        baseline_budget.total()
    );
    println!(
        "energy saving: {:.0}% (paper: 27% digits / 48% KWS)",
        100.0 * solarml_budget.saving_vs(&baseline_budget).get()
    );
    (solarml_budget.total(), baseline_budget.total())
}

fn main() {
    header(
        "End-to-end (§V-D)",
        "per-inference energy and harvesting time vs illuminance",
    );
    let full = full_scale();
    println!(
        "mode: {} (SOLARML_FULL=1 for paper settings)",
        if full { "FULL" } else { "quick" }
    );
    let (gesture_budget, _) = run_task(
        "digit recognition",
        TaskContext::gesture(if full { 20 } else { 8 }, 0xD161),
        full,
    );
    let (kws_budget, _) = run_task(
        "keyword spotting",
        TaskContext::kws(if full { 20 } else { 6 }, 0xA0D10),
        full,
    );

    println!();
    println!("Harvesting time for one end-to-end inference:");
    println!(
        "{:<12} {:>14} {:>16} {:>16}",
        "lux", "net power", "digits", "KWS"
    );
    for scenario in HarvestScenario::paper_conditions() {
        println!(
            "{:<12} {:>14} {:>16} {:>16}",
            scenario.lux.to_string(),
            scenario.harvest_power().to_string(),
            harvesting_time(gesture_budget, &scenario).to_string(),
            harvesting_time(kws_budget, &scenario).to_string()
        );
    }
    println!();
    println!("Paper (for its 6660/12746 µJ budgets): 31 s / 57 s at 500 lux,");
    println!("19 s / 36 s at 1000 lux, one-two minutes at 250 lux.");
    println!("Reference harvest times for the paper's budgets on our array:");
    for scenario in HarvestScenario::paper_conditions() {
        println!(
            "  {}: digits {} | KWS {}",
            scenario.lux,
            harvesting_time(Energy::from_micro_joules(6660.0), &scenario),
            harvesting_time(Energy::from_micro_joules(12_746.0), &scenario)
        );
    }
}
