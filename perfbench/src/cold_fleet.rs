//! `cold_fleet`: in-memory `run_campaign` over the representative
//! population (the CLI `fleet` default), 256 nodes per campaign on 2
//! workers, campaigns back to back until the timed phase is over. No
//! store, checkpoint or scenario work: day simulation is nearly all of the
//! busy time, and node-day cost spreads about 10x, so wave stragglers show.

use std::time::{Duration, Instant};

use solarml_fleet::{run_campaign, run_campaign_with, CampaignConfig, FleetReport, PopulationSpec};

use crate::gates::{healthy, same_bytes, Tally};
use crate::layers::{self, Capture, LayerFacts};
use crate::probe::{self, Probe, PROBE_SEED};
use crate::{
    campaign_seed, peak_rss_mib, push_e2e, repeated_setup, Args, Outcome, WorkDir, WORKERS,
};

/// Nodes per timed campaign.
pub const NODES: usize = 256;
/// Nodes per parallel work item (the engine default).
const CHUNK: usize = 16;
/// Nodes of the fixed probe campaign.
pub const PROBE_NODES: usize = 64;
/// Timed campaigns re-run under the tracer; the timed phase runs at least these.
const TRACED_CAMPAIGNS: usize = 2;

/// A representative campaign on the benchmark's worker count.
pub fn config(nodes: usize, seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::new(nodes, seed);
    cfg.workers = WORKERS;
    cfg.chunk = CHUNK;
    cfg
}

/// One untraced campaign of the timed phase.
struct Timed {
    cfg: CampaignConfig,
    secs: f64,
    json: String,
}

/// The fixed probe on the representative population: the probe campaign
/// (already run as setup) plus fixed-dt parity over its nodes.
pub fn representative_probe(report: &FleetReport, tally: &mut Tally) -> Probe {
    let cfg = config(PROBE_NODES, PROBE_SEED);
    tally.check(
        PROBE_NODES as u64,
        healthy("probe campaign", report, PROBE_NODES),
    );
    probe::run(&[(cfg, report)], WORKERS, tally)
}

pub fn run(args: &Args, _work: &WorkDir) -> Outcome {
    let mut out = Outcome::default();
    let tally = &mut out.tally;

    // Setup: the fixed probe campaign, which also warms the simulator.
    let probe_cfg = config(PROBE_NODES, PROBE_SEED);
    let (probe_report, setup_s) = repeated_setup(|_| run_campaign(&probe_cfg));

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut timed = Vec::new();
    while timed.len() < TRACED_CAMPAIGNS || start.elapsed() < budget {
        let cfg = config(NODES, campaign_seed(args.seed, timed.len()));
        let t = Instant::now();
        let report = run_campaign(&cfg);
        let secs = t.elapsed().as_secs_f64();
        tally.check(NODES as u64, healthy("cold campaign", &report, NODES));
        timed.push(Timed {
            cfg,
            secs,
            json: report.to_json(),
        });
    }
    let rss = peak_rss_mib();
    // Campaigns differ in work, so the rate is over all of them.
    let rate = (timed.len() * NODES) as f64 / timed.iter().map(|t| t.secs).sum::<f64>();

    let probe = representative_probe(&probe_report, tally);
    push_e2e(&mut out.e2e, rate, setup_s, rss, tally, &probe);
    if args.trace {
        let capture = Capture::default();
        let mut facts = traced(&capture, &timed[..timed.len().min(TRACED_CAMPAIGNS)], tally);
        facts.probe = probe.counts;
        out.layers = layers::finish(capture, &facts, args);
    }
    out
}

/// Re-runs the given timed campaigns with spans around each layer call.
fn traced(capture: &Capture, timed: &[Timed], tally: &mut Tally) -> LayerFacts {
    let mut facts = LayerFacts::default();
    let mut untraced_s = 0.0;
    for (i, run) in timed.iter().enumerate() {
        let t = Instant::now();
        let report = run_campaign_with(&run.cfg, &|spec: &PopulationSpec, node, seed| {
            capture.simulate(i as u64, spec, node, seed)
        });
        facts.campaign_wall_s += t.elapsed().as_secs_f64();
        untraced_s += run.secs;
        let json = capture.tracer.time("report.to_json", || report.to_json());
        let nodes = run.cfg.nodes as u64;
        tally.require(nodes, same_bytes("traced cold campaign", &run.json, &json));
        let (folded, depth) = capture.refold(run.cfg.chunk);
        facts.tree_depth = depth;
        if folded != report.aggregate {
            tally.require(
                nodes,
                Err("re-folded summaries differ from the engine's aggregate".into()),
            );
        }
    }
    facts.overhead_frac = facts.campaign_wall_s / untraced_s.max(1e-9) - 1.0;
    facts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_traced_untraced_mismatch_fails_the_gate() {
        let mut cfg = config(6, 9);
        cfg.population = PopulationSpec::smoke();
        cfg.chunk = 2;
        let untraced = run_campaign(&cfg).to_json();
        let mut other = cfg.clone();
        other.seed += 1;
        let foreign = run_campaign(&other).to_json();
        for (json, should_fail) in [(untraced, false), (foreign, true)] {
            let mut tally = Tally::default();
            let capture = Capture::default();
            let facts = traced(
                &capture,
                &[Timed {
                    cfg: cfg.clone(),
                    secs: 1.0,
                    json,
                }],
                &mut tally,
            );
            assert_eq!(tally.failed > 0, should_fail, "{:?}", tally.failures);
            assert_eq!(capture.tracer.finish().count("sim.execute"), 6);
            assert!(facts.campaign_wall_s > 0.0);
        }
    }
}
