//! `warm_replay`: a finished two-variant sweep (128 representative nodes,
//! then the one-parameter edit `office-peak-hi` 800 → 900) re-run from a
//! freshly opened `NodeDayStore` on 2 workers, sweep after sweep until the
//! timed phase is over. Every lookup hits and the page cache is warm (the
//! store was just written), so this measures the store's read side: open,
//! load, resolve and content key, record and merge. Filling the store —
//! the day simulation and the store's writes — is this workload's setup.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use solarml_fleet::{
    run_campaign, run_campaign_cached, run_campaign_with, CacheStats, CampaignConfig, FleetReport,
    NodeDayStore, NodeDayTask, PopulationSpec, FLEET_SEED_CYCLE,
};
use solarml_nas::parallel::derive_seed;

use crate::cold_fleet::{self, PROBE_NODES};
use crate::gates::{healthy, same_bytes, sweep_radius, Tally};
use crate::layers::{self, Capture, LayerFacts};
use crate::probe::PROBE_SEED;
use crate::trace::median_f64;
use crate::{campaign_seed, peak_rss_mib, push_e2e, repeated_setup, Args, Outcome, WorkDir};

/// Nodes per sweep variant.
pub const NODES: usize = 128;
/// The sweep edit: one population parameter and its new value.
pub const EDIT: (&str, f64) = ("office-peak-hi", 900.0);
/// Timed sweeps re-run under the tracer; the timed phase runs at least these.
const TRACED_SWEEPS: usize = 32;

/// The sweep's two variants: the representative spec and its edit.
pub fn variants(seed: u64, edit: (&str, f64)) -> (CampaignConfig, CampaignConfig) {
    let a = cold_fleet::config(NODES, seed);
    let mut b = a.clone();
    b.population
        .set_param(edit.0, edit.1)
        .expect("the sweep edit names a known parameter");
    (a, b)
}

/// Content keys of every node-day of `cfg`, in node order.
pub fn keys(cfg: &CampaignConfig) -> Vec<u64> {
    (0..cfg.nodes)
        .map(|i| {
            NodeDayTask::resolve(
                &cfg.population,
                i,
                derive_seed(cfg.seed, FLEET_SEED_CYCLE, i),
            )
            .key()
        })
        .collect()
}

/// Nodes whose content key the edit from `a` to `b` moved.
pub fn sweep_affected(a: &CampaignConfig, b: &CampaignConfig) -> usize {
    keys(a)
        .iter()
        .zip(keys(b))
        .filter(|(x, y)| **x != *y)
        .count()
}

/// A store filled with both variants, and what each variant reported.
pub struct Filled {
    pub dir: PathBuf,
    pub affected: usize,
    pub report_a: FleetReport,
    pub report_b: FleetReport,
}

/// Opens a fresh store in `dir` and runs the sweep into it, checking that
/// variant A misses everything and variant B misses exactly the keys the
/// edit moved.
pub fn fill(
    dir: PathBuf,
    a: &CampaignConfig,
    b: &CampaignConfig,
    tally: &mut Tally,
) -> Result<Filled, String> {
    let nodes = a.nodes as u64;
    let store = NodeDayStore::open(&dir).map_err(|e| format!("store open: {e}"))?;
    let affected = sweep_affected(a, b);
    let report_a = run_campaign_cached(a, &store);
    let stats_a = store.stats();
    store.reset_stats();
    let report_b = run_campaign_cached(b, &store);
    let stats_b = store.stats();

    tally.check(nodes, healthy("fill variant A", &report_a, a.nodes));
    tally.require(
        nodes,
        if (stats_a.hits, stats_a.misses) == (0, nodes) {
            Ok(())
        } else {
            Err(format!("fill variant A: {stats_a:?} on a fresh store"))
        },
    );
    tally.check(nodes, healthy("fill variant B", &report_b, b.nodes));
    tally.require(nodes, sweep_radius(affected, stats_b.misses));
    tally.require(
        nodes,
        if stats_b.hits + stats_b.misses == nodes && stats_b.corrupt == 0 {
            Ok(())
        } else {
            Err(format!("fill variant B: {stats_b:?}"))
        },
    );
    Ok(Filled {
        dir,
        affected,
        report_a,
        report_b,
    })
}

/// Replays both variants from a freshly opened store: the reports and the
/// store counters after the two campaigns.
fn replay(
    filled: &Filled,
    a: &CampaignConfig,
    b: &CampaignConfig,
) -> Result<(FleetReport, FleetReport, CacheStats), String> {
    let store = NodeDayStore::open(&filled.dir).map_err(|e| format!("store open: {e}"))?;
    let ra = run_campaign_cached(a, &store);
    let rb = run_campaign_cached(b, &store);
    Ok((ra, rb, store.stats()))
}

/// Every replay hits, and reproduces the filled reports.
fn replay_gate(
    filled: &Filled,
    ra: &FleetReport,
    rb: &FleetReport,
    stats: &CacheStats,
) -> Result<(), String> {
    let lookups = 2 * NODES as u64;
    if (stats.hits, stats.misses, stats.corrupt) != (lookups, 0, 0) {
        return Err(format!(
            "replay expected {lookups} hits and nothing else, got {stats:?}"
        ));
    }
    if *ra != filled.report_a || *rb != filled.report_b {
        return Err("replayed report differs from the report of its fill".to_string());
    }
    Ok(())
}

pub fn run(args: &Args, work: &WorkDir) -> Outcome {
    let mut out = Outcome::default();
    let tally = &mut out.tally;
    let (a, b) = variants(campaign_seed(args.seed, 0), EDIT);
    let lookups = 2 * NODES as u64;

    let (filled, setup_s) =
        repeated_setup(|rep| fill(work.path(&format!("store-{rep}")), &a, &b, tally));
    let filled = match filled {
        Ok(f) => f,
        Err(reason) => {
            tally.check(lookups, Err(reason));
            return out;
        }
    };

    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < TRACED_SWEEPS || start.elapsed() < budget {
        let t = Instant::now();
        let replayed = replay(&filled, &a, &b);
        secs.push(t.elapsed().as_secs_f64());
        let verdict = replayed.and_then(|(ra, rb, stats)| replay_gate(&filled, &ra, &rb, &stats));
        tally.check(lookups, verdict);
    }
    let rss = peak_rss_mib();
    // Every sweep is the same work: the median sweep sets the rate.
    let rate = (2 * NODES) as f64 / median_f64(&secs);

    let probe_report = run_campaign(&cold_fleet::config(PROBE_NODES, PROBE_SEED));
    let probe = cold_fleet::representative_probe(&probe_report, tally);
    push_e2e(&mut out.e2e, rate, setup_s, rss, tally, &probe);
    if args.trace {
        let capture = Capture::default();
        let mut facts = traced(&capture, &filled, &a, &b, &secs, work, tally);
        facts.probe = probe.counts;
        out.layers = layers::finish(capture, &facts, args);
    }
    out
}

/// Re-runs the first timed sweeps through `run_campaign_with` with spans
/// around resolve and `NodeDayStore::require`, then times the store's
/// public `open`, `load` and `persist` calls on the sweep's own entries.
fn traced(
    capture: &Capture,
    filled: &Filled,
    a: &CampaignConfig,
    b: &CampaignConfig,
    untraced: &[f64],
    work: &WorkDir,
    tally: &mut Tally,
) -> LayerFacts {
    let t = &capture.tracer;
    let mut facts = LayerFacts {
        sweep_affected: filled.affected,
        ..LayerFacts::default()
    };
    let expected = [filled.report_a.to_json(), filled.report_b.to_json()];
    let mut stats = CacheStats::default();
    let sweeps = untraced.len().min(TRACED_SWEEPS);
    for i in 0..sweeps {
        let t0 = Instant::now();
        let store = match t.time("store.open", || NodeDayStore::open(&filled.dir)) {
            Ok(s) => s,
            Err(e) => {
                tally.require(2 * NODES as u64, Err(format!("traced store open: {e}")));
                continue;
            }
        };
        facts.campaign_wall_s += t0.elapsed().as_secs_f64();
        for (v, (cfg, want)) in [a, b].into_iter().zip(&expected).enumerate() {
            let campaign = (2 * i + v) as u64;
            let t1 = Instant::now();
            let report = run_campaign_with(cfg, &|spec: &PopulationSpec, node, seed| {
                capture.cached(campaign, &store, spec, node, seed)
            });
            facts.campaign_wall_s += t1.elapsed().as_secs_f64();
            let json = t.time("report.to_json", || report.to_json());
            tally.require(NODES as u64, same_bytes("traced replay", want, &json));
            let (folded, depth) = capture.refold(cfg.chunk);
            facts.tree_depth = depth;
            if folded != report.aggregate {
                tally.require(
                    NODES as u64,
                    Err("re-folded summaries differ from the engine's aggregate".into()),
                );
            }
        }
        let s = store.stats();
        stats.hits += s.hits;
        stats.misses += s.misses;
        stats.corrupt += s.corrupt;
        stats.bytes = s.bytes;
    }
    let untraced_s: f64 = untraced[..sweeps].iter().sum();
    facts.overhead_frac = facts.campaign_wall_s / untraced_s.max(1e-9) - 1.0;
    facts.store = Some(stats);

    // The store's own public calls, on the sweep's entries.
    match NodeDayStore::open(&filled.dir) {
        Ok(store) => {
            facts.store_entries = store.entry_count().unwrap_or(0);
            let persisted = work.path("persist-timing");
            let copy = NodeDayStore::open(&persisted);
            let mut all_keys = keys(a);
            all_keys.extend(keys(b));
            all_keys.sort_unstable();
            all_keys.dedup();
            for key in all_keys {
                match t.time("store.load", || store.load(key)) {
                    Ok(Some(outcome)) => {
                        let written = copy.as_ref().map_err(|e| e.to_string()).and_then(|copy| {
                            t.time("store.persist", || copy.persist(key, &outcome))
                                .map_err(|e| e.to_string())
                        });
                        tally.require(1, written.map_err(|e| format!("store.persist: {e}")));
                    }
                    other => {
                        tally.require(1, Err(format!("store.load({key:016x}) gave {other:?}")))
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&persisted);
        }
        Err(e) => tally.require(1, Err(format!("store open: {e}"))),
    }
    facts
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("perfbench-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn a_zero_radius_sweep_edit_fails_the_gate() {
        // Re-setting `office-peak-hi` to its current value moves no key.
        let (a, b) = variants(3, ("office-peak-hi", 800.0));
        let affected = sweep_affected(&a, &b);
        assert_eq!(affected, 0);
        assert!(sweep_radius(affected, 0).is_err());
        // The workload's own edit moves some keys and not all.
        let (a, b) = variants(3, EDIT);
        let affected = sweep_affected(&a, &b);
        assert!(affected > 0 && affected < NODES, "{affected}");
    }

    #[test]
    fn fill_and_replay_pass_their_gates_and_a_foreign_report_does_not() {
        let dir = scratch("warm-fill");
        let mut a = cold_fleet::config(12, 5);
        a.population = PopulationSpec::smoke();
        let mut b = a.clone();
        b.population.set_param(EDIT.0, EDIT.1).expect("known");
        let mut tally = Tally::default();
        let filled = fill(dir.clone(), &a, &b, &mut tally).expect("fills");
        assert_eq!(tally.failed, 0, "{:?}", tally.failures);
        let store = NodeDayStore::open(&filled.dir).expect("opens");
        let ra = run_campaign_cached(&a, &store);
        let rb = run_campaign_cached(&b, &store);
        assert_eq!(ra, filled.report_a);
        assert_eq!(rb, filled.report_b);
        assert_eq!(store.stats().misses, 0);
        // A report from another campaign must not pass as the replay.
        let mut other = a.clone();
        other.seed += 1;
        let foreign = run_campaign(&other);
        assert!(same_bytes("replay", &filled.report_a.to_json(), &foreign.to_json()).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
