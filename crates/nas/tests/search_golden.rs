//! Golden pin for every search driver: the full `SearchOutcome` of small
//! eNAS, µNAS, HarvNet-style and random-search runs, byte for byte.
//!
//! Each history entry is one line — cycle, the f64 bit patterns of
//! accuracy and the estimated and true energies, then the candidate — so a
//! reordered RNG draw or a moved evaluation cycle shows up as a named diff.
//! Fixtures live in `tests/golden/`; regenerate them deliberately with
//! `SOLARML_BLESS=1 cargo test --release -p solarml-nas --test search_golden`.

use std::fmt::Write as _;
use std::path::PathBuf;

use solarml_dsp::{GestureSensingParams, Resolution};
use solarml_nas::{
    run_enas, run_harvnet_style, run_munas, run_random_search, EnasConfig, EnergyProxy, Evaluated,
    SearchConfig, SearchOutcome, SensingConfig, TaskContext,
};
use solarml_nn::TrainConfig;
use solarml_units::Energy;

/// A fresh context per run, so no search sees another's memo cache.
fn tiny_gesture() -> TaskContext {
    let mut ctx = TaskContext::gesture(4, 15);
    ctx.train_config = TrainConfig {
        epochs: 3,
        ..TrainConfig::default()
    };
    ctx
}

fn tiny_kws() -> TaskContext {
    let mut ctx = TaskContext::kws(3, 15);
    ctx.train_config = TrainConfig {
        epochs: 2,
        ..TrainConfig::default()
    };
    ctx
}

fn enas(lambda: f64) -> EnasConfig {
    EnasConfig {
        population: 5,
        sample_size: 3,
        cycles: 8,
        grid_period: 3,
        seed: 0x601D,
        workers: 2,
        ..EnasConfig::quick(lambda)
    }
}

fn munas() -> SearchConfig {
    SearchConfig {
        population: 5,
        sample_size: 3,
        cycles: 8,
        workers: 2,
        ..SearchConfig::munas_quick()
    }
}

fn baseline() -> SearchConfig {
    SearchConfig {
        population: 5,
        sample_size: 3,
        cycles: 8,
        workers: 2,
        ..SearchConfig::baseline_quick()
    }
}

fn bits(e: Energy) -> u64 {
    e.as_joules().to_bits()
}

fn entry(e: &Evaluated) -> String {
    format!(
        "{} {:016x} {:016x} {:016x} {}",
        e.cycle,
        e.accuracy.to_bits(),
        bits(e.estimated_energy),
        bits(e.true_energy),
        e.candidate
    )
}

fn render(out: &SearchOutcome) -> String {
    let mut s = String::new();
    for e in &out.history {
        writeln!(s, "{}", entry(e)).expect("write to String");
    }
    writeln!(s, "best {}", entry(&out.best)).expect("write to String");
    let (lo, hi) = out.energy_envelope;
    writeln!(s, "energy_envelope {:016x} {:016x}", bits(lo), bits(hi)).expect("write to String");
    s
}

fn check(name: &str, out: &SearchOutcome) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let rendered = render(out);
    if std::env::var_os("SOLARML_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("golden dir");
        std::fs::write(&path, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden `{name}` ({e}); regenerate with \
             SOLARML_BLESS=1 cargo test --release -p solarml-nas --test search_golden"
        )
    });
    for (i, (want, got)) in golden.lines().zip(rendered.lines()).enumerate() {
        assert_eq!(
            want,
            got,
            "`{name}` drifted from its golden at line {}",
            i + 1
        );
    }
    assert_eq!(golden, rendered, "`{name}` changed length");
}

#[test]
fn enas_lambda_half() {
    check("enas_l05", &run_enas(&tiny_gesture(), &enas(0.5)));
}

#[test]
fn enas_total_macs_proxy() {
    let config = EnasConfig {
        energy_proxy: EnergyProxy::TotalMacs,
        ..enas(0.5)
    };
    check("enas_total_macs", &run_enas(&tiny_gesture(), &config));
}

#[test]
fn enas_without_grid_mutation() {
    let config = EnasConfig {
        grid_period: 0,
        ..enas(0.5)
    };
    check("enas_no_grid", &run_enas(&tiny_gesture(), &config));
}

#[test]
fn enas_kws() {
    check("enas_kws", &run_enas(&tiny_kws(), &enas(0.5)));
}

#[test]
fn munas_fixed_sensing() {
    let sensing = SensingConfig::Gesture(
        GestureSensingParams::new(6, 60, Resolution::Int, 8).expect("valid"),
    );
    check("munas", &run_munas(&tiny_gesture(), sensing, &munas()));
}

#[test]
fn harvnet_style() {
    check("harvnet", &run_harvnet_style(&tiny_gesture(), &baseline()));
}

#[test]
fn random_search() {
    check("random", &run_random_search(&tiny_gesture(), &baseline()));
}
