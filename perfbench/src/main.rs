//! End-to-end campaign benchmark for the SolarML fleet engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_fleet|scenario_resume|warm_replay> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: `scenario_resume` reads the scenario
//! goldens from `tests/golden/scenarios/` at run time, and scratch stores,
//! checkpoints and span dumps go under `.perfbench/`.
//!
//! Each workload is a closed loop of real campaign traffic on 2 workers:
//! a campaign's next wave starts only when the previous one has finished.
//! Inputs are derived from `--seed`; the program receives only the
//! generated campaign configurations.
//!
//! * `--trace 0` prints the end-to-end metrics of an untraced run.
//! * `--trace 1` additionally re-runs the first campaigns of the timed
//!   phase through the engine's public injection seams with spans recorded
//!   around each layer's public calls, checks that the traced reports are
//!   byte-identical to the untraced ones, and prints the per-layer metrics.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`, counting node-days.
//! Any failed gate makes `correct` false and the exit code 1.
//!
//! Accuracy metrics (`dt_parity_*`, `max_residual_nj`) come from a fixed
//! probe sample that does not depend on `--seed` (see [`probe`]); the
//! model is unvalidated against hardware and its reference is fixed-dt.
//! Scheduler step counts and the per-phase split of a node-day are not
//! visible through the public API and are not reported.

mod cold_fleet;
mod gates;
mod layers;
mod probe;
mod scenario_resume;
mod trace;
mod warm_replay;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use solarml_nas::parallel::derive_seed;

use crate::gates::Tally;
use crate::trace::median_f64;

/// Worker threads of every campaign (the benchmark host has 2 cores).
pub const WORKERS: usize = 2;

/// Setup repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Stream tag for deriving campaign seeds from the benchmark seed.
const BENCH_SEED_CYCLE: usize = 0xBE7C4;

/// Seed of the `k`-th campaign of a run.
pub fn campaign_seed(seed: u64, k: usize) -> u64 {
    derive_seed(seed, BENCH_SEED_CYCLE, k)
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Named metrics in print order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|(name, value, unit)| {
                let v = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub tally: Tally,
    pub e2e: Metrics,
    pub layers: Metrics,
}

/// Scratch directory for stores and checkpoints, removed on drop.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> std::io::Result<Self> {
        let dir = PathBuf::from(".perfbench").join(format!("work-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Self(dir))
    }

    /// Path of a subdirectory (not created); names are unique per run.
    pub fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `f` `SETUP_REPS` times and returns the last result with the
/// median duration in seconds.
pub fn repeated_setup<T>(mut f: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for rep in 0..SETUP_REPS {
        let t = Instant::now();
        last = Some(f(rep));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPS > 0"), median_f64(&times))
}

/// `VmHWM` of this process in MiB (0 where `/proc` is absent).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Pushes the end-to-end metrics shared by every workload.
pub fn push_e2e(
    e2e: &mut Metrics,
    node_days_per_s: f64,
    setup_s: f64,
    rss_mib: f64,
    tally: &Tally,
    probe: &probe::Probe,
) {
    e2e.push("node_days_per_s", node_days_per_s, "node-days/s");
    e2e.push("setup_s", setup_s, "s");
    e2e.push("peak_rss_mib", rss_mib, "MiB");
    e2e.push("ok_frac", tally.ok_frac(), "ratio");
    e2e.push("max_residual_nj", probe.max_residual_nj, "nJ");
    e2e.push("dt_parity_match_frac", probe.match_frac(), "ratio");
    e2e.push("dt_parity_max_mv", probe.max_gap_mv, "mV");
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let work = match WorkDir::create() {
        Ok(w) => w,
        Err(e) => {
            eprintln!("perfbench: cannot create the scratch directory: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "cold_fleet" => cold_fleet::run(&args, &work),
        "scenario_resume" => scenario_resume::run(&args, &work),
        "warm_replay" => warm_replay::run(&args, &work),
        other => {
            eprintln!(
                "perfbench: unknown workload {other} (cold_fleet, scenario_resume, warm_replay)"
            );
            return ExitCode::from(2);
        }
    };
    drop(work);

    let Outcome { tally, e2e, layers } = outcome;
    for reason in &tally.failures {
        println!("FAILED: {reason}");
    }
    let shown = if args.trace { &layers } else { &e2e };
    for (name, value, unit) in &shown.0 {
        println!("{:<28} {value:>16.6} {unit}", name);
    }
    println!(
        "note: accuracy figures are against the fixed-dt reference model; \
         the model is unvalidated against hardware"
    );
    let correct = tally.failed == 0 && tally.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.attempted.max(1),
        tally.failed.min(tally.attempted.max(1)),
        shown.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload cold_fleet --seed 3 --seconds 10 --trace 1").expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.trace),
            ("cold_fleet", 3, true)
        );
        assert!(args("--workload x --seed 3 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed 3 --seconds 1 --trace 2").is_err());
        assert!(args("--workload x --seconds 1").is_err());
        assert!(args("--bogus 1").is_err());
    }

    #[test]
    fn metrics_render_as_json_numbers() {
        let mut m = Metrics::default();
        m.push("a", 1.0, "s");
        m.push("b", 0.25, "ratio");
        assert_eq!(
            m.to_json(),
            "{\"a\": {\"value\": 1.0, \"unit\": \"s\"}, \"b\": {\"value\": 0.25, \"unit\": \"ratio\"}}"
        );
    }
}
