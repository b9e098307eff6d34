//! The traced run's building blocks: node-day closures that do exactly
//! what the engine's own node functions do, with spans around each layer
//! call, the timed re-fold of the aggregate layer, and the per-layer
//! metric table derived from the spans.

use std::sync::Mutex;

use solarml_fleet::{
    CacheStats, Context, FleetAggregate, IncrementalContext, MergeTree, NodeDayStore, NodeDayTask,
    NodeSummary, NonIncrementalContext, PopulationSpec, Task,
};

use crate::probe::FaultCounts;
use crate::trace::{quantile, Spans, Tracer};
use crate::{Args, Metrics, WORKERS};

/// Spans and captured summaries of one traced run.
#[derive(Debug, Default)]
pub struct Capture {
    pub tracer: Tracer,
    pub summaries: Mutex<Vec<NodeSummary>>,
}

impl Capture {
    fn keep(&self, summary: &NodeSummary) {
        self.summaries
            .lock()
            .expect("a traced node-day panicked")
            .push(summary.clone());
    }

    /// The traced twin of `simulate_node`: resolve (with its content key),
    /// execute under the always-recompute context, rehydrate the summary.
    pub fn simulate(
        &self,
        campaign: u64,
        spec: &PopulationSpec,
        node: usize,
        seed: u64,
    ) -> NodeSummary {
        let t = &self.tracer;
        let t0 = t.now();
        let task = NodeDayTask::resolve(spec, node, seed);
        std::hint::black_box(task.content_key());
        let t1 = t.now();
        let outcome = task.execute(&mut NonIncrementalContext);
        let t2 = t.now();
        let summary = task.summary(&outcome);
        let t3 = t.now();
        t.node_day(
            campaign << 32 | node as u64,
            "node_day",
            t0,
            t3,
            &[("task.resolve", t0, t1), ("sim.execute", t1, t2)],
        );
        self.keep(&summary);
        summary
    }

    /// The traced twin of `run_campaign_cached`'s node function: resolve,
    /// require through the store, rehydrate the summary.
    pub fn cached(
        &self,
        campaign: u64,
        store: &NodeDayStore,
        spec: &PopulationSpec,
        node: usize,
        seed: u64,
    ) -> NodeSummary {
        let t = &self.tracer;
        let t0 = t.now();
        let task = NodeDayTask::resolve(spec, node, seed);
        std::hint::black_box(task.content_key());
        let t1 = t.now();
        let outcome = IncrementalContext::new(store).require_task(&task);
        let t2 = t.now();
        let summary = task.summary(&outcome);
        let t3 = t.now();
        t.node_day(
            campaign << 32 | node as u64,
            "node_day",
            t0,
            t3,
            &[("task.resolve", t0, t1), ("store.require", t1, t2)],
        );
        self.keep(&summary);
        summary
    }

    /// Re-folds the captured summaries the way the engine does — node
    /// order, `chunk`-sized partials, binomial merge tree — timing each
    /// `FleetAggregate::record`, `MergeTree::push` and the final
    /// `MergeTree::finish`. Returns the aggregate and the tree depth.
    pub fn refold(&self, chunk: usize) -> (FleetAggregate, usize) {
        let mut summaries =
            std::mem::take(&mut *self.summaries.lock().expect("a traced node-day panicked"));
        summaries.sort_by_key(|s| s.node);
        let t = &self.tracer;
        let mut tree = MergeTree::new();
        for part in summaries.chunks(chunk.max(1)) {
            let mut partial = FleetAggregate::new();
            for s in part {
                t.time("aggregate.record", || partial.record(s));
            }
            t.time("aggregate.merge", || tree.push(partial));
        }
        let depth = tree.depth();
        (t.time("aggregate.finish", || tree.finish()), depth)
    }
}

/// Facts of the traced run that are not span durations.
#[derive(Debug, Default, Clone)]
pub struct LayerFacts {
    /// Wall time of the traced campaigns, seconds.
    pub campaign_wall_s: f64,
    /// Day counts of the accuracy probe at the fleet's `DtPolicy`.
    pub probe: FaultCounts,
    /// Store counters over the traced replay (absent without a store).
    pub store: Option<CacheStats>,
    /// Entries on disk after the traced replay.
    pub store_entries: usize,
    /// Content keys moved by the sweep edit.
    pub sweep_affected: usize,
    /// Merge-tree depth after the re-fold.
    pub tree_depth: usize,
    /// Snapshot bytes on disk after the traced durable campaigns.
    pub checkpoint_bytes: u64,
    /// Snapshot files written by the traced durable campaigns.
    pub checkpoint_snapshots: u64,
    /// Traced over untraced wall time of the same campaigns, minus 1.
    pub overhead_frac: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Ends a traced run: writes the span dump to
/// `.perfbench/trace-<workload>-seed<n>.jsonl` and derives the per-layer
/// table from the spans.
pub fn finish(capture: Capture, facts: &LayerFacts, args: &Args) -> Metrics {
    let spans = capture.tracer.finish();
    let dump = std::path::Path::new(".perfbench")
        .join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed));
    if let Err(e) = spans.write_jsonl(&dump) {
        eprintln!("perfbench: could not write the span dump: {e}");
    }
    layer_metrics(&spans, facts)
}

/// The per-layer metric table, in a fixed order, every metric present.
pub fn layer_metrics(spans: &Spans, f: &LayerFacts) -> Metrics {
    let mut m = Metrics::default();
    let sim = spans.durations("sim.execute");
    let store = f.store.unwrap_or_default();
    // Inside `store.require`, a miss executes the node-day in the store.
    let sim_days = sim.len() as u64 + store.misses;
    m.push("sim.node_day_ms_p50", ms(quantile(&sim, 0.5)), "ms");
    m.push("sim.node_day_ms_p90", ms(quantile(&sim, 0.9)), "ms");
    m.push("sim.node_day_ms_max", ms(quantile(&sim, 1.0)), "ms");
    m.push(
        "sim.busy_s",
        spans.total_ns("sim.execute") as f64 / 1e9,
        "s",
    );
    m.push("sim.node_days", sim_days as f64, "count");
    let p = &f.probe;
    m.push("sim.attempted", p.attempted as f64, "count");
    m.push("sim.completed", p.completed as f64, "count");
    m.push("sim.interrupted", p.interrupted as f64, "count");
    m.push("sim.resumed", p.resumed as f64, "count");
    m.push("sim.abandoned", p.abandoned as f64, "count");
    m.push("sim.degraded", p.degraded as f64, "count");
    m.push("sim.warns", p.warns as f64, "count");
    m.push("sim.brownouts", p.brownouts as f64, "count");
    m.push("sim.recoveries", p.recoveries as f64, "count");

    let capacity_ns = f.campaign_wall_s * 1e9 * WORKERS as f64;
    let share = |ns: u64| {
        if capacity_ns > 0.0 {
            ns as f64 / capacity_ns
        } else {
            0.0
        }
    };
    m.push("campaign.wall_s", f.campaign_wall_s, "s");
    m.push(
        "campaign.wave_idle_frac",
        (1.0 - share(spans.total_ns("node_day"))).max(0.0),
        "ratio",
    );
    m.push(
        "campaign.unattributed_frac",
        share(spans.self_ns("node_day")),
        "ratio",
    );

    let resolve = spans.durations("task.resolve");
    m.push("task.resolve_us_p50", us(quantile(&resolve, 0.5)), "us");
    m.push("task.resolve_us_p90", us(quantile(&resolve, 0.9)), "us");
    m.push("task.resolves", resolve.len() as f64, "count");

    let parse = spans.durations("scenario.parse");
    let eval = spans.durations("scenario.eval");
    m.push("scenario.parse_us", us(quantile(&parse, 0.5)), "us");
    m.push("scenario.eval_us_p50", us(quantile(&eval, 0.5)), "us");
    m.push("scenario.evals", eval.len() as f64, "count");

    let open = spans.durations("store.open");
    let load = spans.durations("store.load");
    let persist = spans.durations("store.persist");
    let lookups = store.hits + store.misses;
    let require = spans.durations("store.require");
    m.push("store.open_ms", ms(quantile(&open, 0.5)), "ms");
    m.push("store.require_us_p50", us(quantile(&require, 0.5)), "us");
    m.push("store.load_us_p50", us(quantile(&load, 0.5)), "us");
    m.push("store.load_us_p90", us(quantile(&load, 0.9)), "us");
    m.push("store.loads", load.len() as f64, "count");
    m.push("store.hits", store.hits as f64, "count");
    m.push("store.misses", store.misses as f64, "count");
    m.push("store.corrupt", store.corrupt as f64, "count");
    m.push(
        "store.hit_ratio",
        if lookups > 0 {
            store.hits as f64 / lookups as f64
        } else {
            0.0
        },
        "ratio",
    );
    m.push("store.bytes", store.bytes as f64, "bytes");
    m.push("store.entries", f.store_entries as f64, "count");
    m.push("store.persist_us_p50", us(quantile(&persist, 0.5)), "us");
    m.push("store.persist_us_p90", us(quantile(&persist, 0.9)), "us");
    m.push("store.persists", persist.len() as f64, "count");
    m.push("store.sweep_affected", f.sweep_affected as f64, "count");

    let record = spans.durations("aggregate.record");
    let merge = spans.durations("aggregate.merge");
    m.push("aggregate.record_us_p50", us(quantile(&record, 0.5)), "us");
    m.push("aggregate.records", record.len() as f64, "count");
    m.push("aggregate.merge_us_p50", us(quantile(&merge, 0.5)), "us");
    m.push("aggregate.merges", merge.len() as f64, "count");
    m.push("aggregate.tree_depth", f.tree_depth as f64, "count");

    let write = spans.durations("checkpoint.write");
    let ckpt_load = spans.durations("checkpoint.load");
    m.push("checkpoint.write_ms_p50", ms(quantile(&write, 0.5)), "ms");
    m.push(
        "checkpoint.load_ms_p50",
        ms(quantile(&ckpt_load, 0.5)),
        "ms",
    );
    m.push("checkpoint.bytes", f.checkpoint_bytes as f64, "bytes");
    m.push(
        "checkpoint.snapshots",
        f.checkpoint_snapshots as f64,
        "count",
    );

    let json = spans.durations("report.to_json");
    m.push("report.to_json_us", us(quantile(&json, 0.5)), "us");
    m.push("trace.overhead_frac", f.overhead_frac, "ratio");
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_fleet::{run_campaign, run_campaign_with, CampaignConfig};

    #[test]
    fn traced_closure_reproduces_the_engine_report() {
        let mut cfg = CampaignConfig::smoke(6, 11);
        cfg.workers = 2;
        cfg.chunk = 2;
        let capture = Capture::default();
        let traced = run_campaign_with(&cfg, &|spec: &PopulationSpec, node, seed| {
            capture.simulate(0, spec, node, seed)
        });
        let plain = run_campaign(&cfg);
        assert_eq!(traced.to_json(), plain.to_json());
        let (folded, depth) = capture.refold(cfg.chunk);
        assert_eq!(folded, plain.aggregate, "the re-fold is the engine's fold");
        assert!(depth >= 1);
        let spans = capture.tracer.finish();
        assert_eq!(spans.count("sim.execute"), 6);
        assert_eq!(spans.count("node_day"), 6);
        assert_eq!(spans.count("aggregate.record"), 6);

        let m = layer_metrics(
            &spans,
            &LayerFacts {
                campaign_wall_s: 1.0,
                ..LayerFacts::default()
            },
        );
        let names: Vec<&str> = m.0.iter().map(|(n, _, _)| *n).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "metric names are unique");
        assert!(m.0.iter().all(|(_, v, _)| v.is_finite()));
    }
}
