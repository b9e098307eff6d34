//! `scenario_resume`: every shipped registry scenario as a durable
//! campaign (16 nodes, 2 workers, chunk 4), killed mid-campaign with the
//! `abort_after_nodes` hook and finished with `resume_campaign`; rounds of
//! all 14 scenarios run back to back until the timed phase is over. The
//! same day simulator meets very different days (dark polar winter,
//! brownout-dense cloudy days, long active office days), plus scenario
//! evaluation inside resolve and checkpoint write, load and resume.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use solarml_fleet::{
    campaign_fingerprint, load_latest, resume_campaign, resume_campaign_with, run_campaign,
    run_campaign_durable, run_campaign_durable_with, write_snapshot, CampaignCheckpoints,
    CampaignConfig, CampaignError, FleetReport, PopulationSpec, FLEET_SEED_CYCLE,
};
use solarml_nas::parallel::derive_seed;
use solarml_scenario::{registry, Scenario};

use crate::gates::{healthy, same_bytes, Tally};
use crate::layers::{self, Capture, LayerFacts};
use crate::probe::{self, PROBE_SEED};
use crate::trace::Tracer;
use crate::{
    campaign_seed, peak_rss_mib, push_e2e, repeated_setup, Args, Outcome, WorkDir, WORKERS,
};

/// Nodes per timed durable campaign.
pub const NODES: usize = 16;
/// Nodes per parallel work item: small, so the kill point cuts a wave.
const CHUNK: usize = 4;
/// Checkpoint cadence in node-days.
const EVERY: u64 = 4;
/// Snapshots kept per campaign: all of them, so they can be counted.
const KEEP: usize = 64;
/// Node count of the golden campaigns (seed [`PROBE_SEED`]).
pub const GOLDEN_NODES: usize = 8;
/// Rounds of the timed phase re-run under the tracer.
const TRACED_ROUNDS: usize = 1;

/// Where the scenario goldens live, relative to the repository root.
pub fn golden_dir() -> PathBuf {
    PathBuf::from("tests/golden/scenarios")
}

/// A scenario campaign on the benchmark's worker count.
fn config(nodes: usize, seed: u64, scenario: &Scenario, chunk: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(nodes, seed);
    cfg.workers = WORKERS;
    cfg.chunk = chunk;
    cfg.population.scenario = Some(scenario.clone());
    cfg
}

/// One registry scenario, parsed from its source, with its golden run.
pub struct Scripted {
    pub name: &'static str,
    pub scenario: Scenario,
    pub golden_cfg: CampaignConfig,
    pub golden_report: FleetReport,
}

/// Parses every registry script, runs its golden-shape campaign and
/// byte-compares the report against the golden read from `dir`.
pub fn setup(dir: &Path, tracer: &Tracer, tally: &mut Tally) -> Vec<Scripted> {
    let mut out = Vec::new();
    for entry in registry::all() {
        let parsed = tracer.time("scenario.parse", || Scenario::parse(entry.source));
        let scenario = match parsed {
            Ok(s) => s,
            Err(e) => {
                tally.check(GOLDEN_NODES as u64, Err(format!("{}: {e}", entry.name)));
                continue;
            }
        };
        let golden_cfg = config(GOLDEN_NODES, PROBE_SEED, &scenario, CHUNK);
        let golden_report = run_campaign(&golden_cfg);
        let label = format!("{} golden", entry.name);
        let verdict = std::fs::read_to_string(dir.join(format!("{}.json", entry.name)))
            .map_err(|e| format!("{label}: cannot read: {e}"))
            .and_then(|golden| same_bytes(&label, &golden, &(golden_report.to_json() + "\n")));
        tally.check(GOLDEN_NODES as u64, verdict);
        out.push(Scripted {
            name: entry.name,
            scenario,
            golden_cfg,
            golden_report,
        });
    }
    out
}

/// One timed crash-and-resume campaign.
struct Timed {
    cfg: CampaignConfig,
    kill: u64,
    secs: f64,
    json: String,
}

fn checkpoints(dir: PathBuf, kill: Option<u64>) -> CampaignCheckpoints {
    CampaignCheckpoints {
        dir,
        every_nodes: EVERY,
        keep: KEEP,
        abort_after_nodes: kill,
    }
}

/// The abort must land exactly on the kill point.
fn expect_abort(result: Result<FleetReport, CampaignError>, kill: u64) -> Result<(), String> {
    match result {
        Err(CampaignError::Aborted { nodes_done }) if nodes_done == kill => Ok(()),
        Err(e) => Err(format!(
            "expected an abort after {kill} node-days, got: {e}"
        )),
        Ok(_) => Err(format!(
            "expected an abort after {kill} node-days, the campaign finished"
        )),
    }
}

pub fn run(args: &Args, work: &WorkDir) -> Outcome {
    let mut out = Outcome::default();
    let tally = &mut out.tally;
    // One capture for the whole run: setup records its parse spans into it.
    let capture = Capture::default();
    let (scripted, setup_s) = repeated_setup(|_| setup(&golden_dir(), &capture.tracer, tally));

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut timed: Vec<Timed> = Vec::new();
    while timed.is_empty() || start.elapsed() < budget {
        for s in &scripted {
            let k = timed.len();
            let cfg = config(NODES, campaign_seed(args.seed, k), &s.scenario, CHUNK);
            let kill = 1 + cfg.seed % (NODES as u64 - 1);
            let dir = work.path(&format!("ckpt-{k}"));
            let t = Instant::now();
            let aborted = run_campaign_durable(&cfg, &checkpoints(dir.clone(), Some(kill)));
            let resumed = resume_campaign(&cfg, &checkpoints(dir.clone(), None));
            let secs = t.elapsed().as_secs_f64();
            let _ = std::fs::remove_dir_all(&dir);
            let label = format!("{} resume", s.name);
            let verdict = expect_abort(aborted, kill)
                .and_then(|()| resumed.map_err(|e| e.to_string()))
                .map_err(|e| format!("{label}: {e}"))
                .and_then(|report| healthy(&label, &report, NODES).map(|()| report.to_json()));
            let json = match verdict {
                Ok(json) => {
                    tally.check(NODES as u64, Ok(()));
                    json
                }
                Err(reason) => {
                    tally.check(NODES as u64, Err(reason));
                    String::new()
                }
            };
            timed.push(Timed {
                cfg,
                kill,
                secs,
                json,
            });
        }
    }
    let rss = peak_rss_mib();
    // Campaigns differ in work, so the rate is over all of them.
    let rate = (timed.len() * NODES) as f64 / timed.iter().map(|t| t.secs).sum::<f64>();

    // Every resumed report must equal the uninterrupted in-memory report.
    for (t, s) in timed.iter().zip(scripted.iter().cycle()) {
        let uninterrupted = run_campaign(&t.cfg).to_json();
        let label = format!("{} resumed vs uninterrupted", s.name);
        tally.require(NODES as u64, same_bytes(&label, &uninterrupted, &t.json));
    }

    let campaigns: Vec<(CampaignConfig, &FleetReport)> = scripted
        .iter()
        .map(|s| (s.golden_cfg.clone(), &s.golden_report))
        .collect();
    let probe = probe::run(&campaigns, WORKERS, tally);
    push_e2e(&mut out.e2e, rate, setup_s, rss, tally, &probe);
    if args.trace {
        let mut facts = traced(
            &capture,
            &timed[..(scripted.len() * TRACED_ROUNDS).min(timed.len())],
            &scripted,
            work,
            tally,
        );
        facts.probe = probe.counts;
        out.layers = layers::finish(capture, &facts, args);
    }
    out
}

/// Snapshot files in `dir` and their total size.
fn snapshot_files(dir: &Path) -> (u64, u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return (0, 0);
    };
    entries
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().starts_with("ckpt-"))
        .fold((0, 0), |(n, bytes), e| {
            (n + 1, bytes + e.metadata().map(|m| m.len()).unwrap_or(0))
        })
}

/// Re-runs the given timed campaigns through the injection seams with
/// spans around resolve and execute, and times the checkpoint layer's
/// public calls at the real resume point.
fn traced(
    capture: &Capture,
    timed: &[Timed],
    scripted: &[Scripted],
    work: &WorkDir,
    tally: &mut Tally,
) -> LayerFacts {
    let t = &capture.tracer;
    let mut facts = LayerFacts::default();
    let mut untraced_s = 0.0;
    for (k, run) in timed.iter().enumerate() {
        let cfg = &run.cfg;
        let dir = work.path(&format!("traced-ckpt-{k}"));
        let sim = |spec: &PopulationSpec, node: usize, seed: u64| {
            capture.simulate(k as u64, spec, node, seed)
        };
        let t0 = Instant::now();
        let aborted =
            run_campaign_durable_with(cfg, &checkpoints(dir.clone(), Some(run.kill)), &sim);
        let mut wall = t0.elapsed();
        let resume_point = t.time("checkpoint.load", || {
            load_latest(&dir, campaign_fingerprint(cfg))
        });
        let t1 = Instant::now();
        let resumed = resume_campaign_with(cfg, &checkpoints(dir.clone(), None), &sim);
        wall += t1.elapsed();
        facts.campaign_wall_s += wall.as_secs_f64();
        untraced_s += run.secs;

        let label = format!("{} traced resume", scripted[k % scripted.len()].name);
        let verdict = expect_abort(aborted, run.kill).and_then(|()| {
            let report = resumed.map_err(|e| e.to_string())?;
            let json = t.time("report.to_json", || report.to_json());
            same_bytes(&label, &run.json, &json)?;
            let (folded, depth) = capture.refold(cfg.chunk);
            facts.tree_depth = depth;
            if folded != report.aggregate {
                return Err(format!(
                    "{label}: re-folded summaries differ from the engine's aggregate"
                ));
            }
            Ok(())
        });
        tally.require(cfg.nodes as u64, verdict);

        let (files, bytes) = snapshot_files(&dir);
        facts.checkpoint_snapshots += files;
        facts.checkpoint_bytes += bytes;
        match resume_point {
            Ok(resumed) => {
                let copy = work.path(&format!("traced-ckpt-copy-{k}"));
                if let Err(e) = t.time("checkpoint.write", || {
                    write_snapshot(&copy, &resumed.snapshot, KEEP)
                }) {
                    tally.require(
                        cfg.nodes as u64,
                        Err(format!("{label}: write_snapshot: {e}")),
                    );
                }
                let _ = std::fs::remove_dir_all(&copy);
            }
            Err(e) => tally.require(cfg.nodes as u64, Err(format!("{label}: load_latest: {e}"))),
        }
        let _ = std::fs::remove_dir_all(&dir);

        // Scenario evaluation runs inside resolve on a seed derived there;
        // time the public `Scenario::eval` on each node's seed instead.
        if let Some(scenario) = &cfg.population.scenario {
            for i in 0..cfg.nodes {
                let seed = derive_seed(cfg.seed, FLEET_SEED_CYCLE, i);
                std::hint::black_box(t.time("scenario.eval", || scenario.eval(seed)));
            }
        }
    }
    facts.overhead_frac = facts.campaign_wall_s / untraced_s.max(1e-9) - 1.0;
    facts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_golden_dir() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(golden_dir())
    }

    #[test]
    fn a_mismatched_golden_fails_the_gate() {
        let scratch = std::env::temp_dir().join(format!("perfbench-golden-{}", std::process::id()));
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        for entry in registry::all() {
            let real =
                std::fs::read_to_string(repo_golden_dir().join(format!("{}.json", entry.name)))
                    .expect("golden present");
            // Swap one digit: still a plausible report, no longer the golden.
            let at = real.find(|c: char| c.is_ascii_digit()).expect("a digit");
            let mut bent = real.clone();
            let digit = if &real[at..=at] == "9" { "8" } else { "9" };
            bent.replace_range(at..=at, digit);
            std::fs::write(scratch.join(format!("{}.json", entry.name)), bent).expect("write");
        }
        let mut good = Tally::default();
        let mut bad = Tally::default();
        let tracer = Tracer::new();
        setup(&repo_golden_dir(), &tracer, &mut good);
        setup(&scratch, &tracer, &mut bad);
        let _ = std::fs::remove_dir_all(&scratch);
        assert_eq!(good.failed, 0, "{:?}", good.failures);
        let n = registry::all().len() as u64;
        assert_eq!(good.attempted, n * GOLDEN_NODES as u64);
        assert_eq!(
            bad.failed,
            n * GOLDEN_NODES as u64,
            "every bent golden fails"
        );
    }

    #[test]
    fn a_missed_kill_point_fails() {
        assert!(expect_abort(Err(CampaignError::Aborted { nodes_done: 3 }), 3).is_ok());
        assert!(expect_abort(Err(CampaignError::Aborted { nodes_done: 4 }), 3).is_err());
    }
}
