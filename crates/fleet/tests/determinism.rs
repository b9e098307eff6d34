//! The fleet crate's headline guarantees, pinned:
//!
//! 1. a seeded campaign's report is *byte-identical* across repeated runs
//!    and across worker counts (1/4/8) and chunk sizes;
//! 2. every node's energy ledger closes to ≤ 1 nJ over its day;
//! 3. the parallel merged aggregate equals the sequential fold exactly.
//!
//! The campaign size scales with the build profile: the release suite (and
//! the CI fleet job) runs the full 1000-node acceptance campaign; debug
//! runs a 64-node slice of the same population so `cargo test` stays
//! fast. The invariants under test are size-independent.

use solarml_fleet::{
    run_campaign, CampaignConfig, FleetAggregate, NodeSummary, PopulationSpec, FLEET_SEED_CYCLE,
};
use solarml_sim::seed::derive_seed;

const SEED: u64 = 0xF1EE_7CA4;

/// Acceptance campaign size: 1000 nodes in release, a fast slice in debug.
const FLEET_N: usize = if cfg!(debug_assertions) { 64 } else { 1000 };

/// Size of the smaller chunking/merge fixtures, profile-scaled like
/// [`FLEET_N`].
const SLICE_N: usize = if cfg!(debug_assertions) { 32 } else { 64 };

/// One simulated smoke-population node per index.
fn summaries(count: usize) -> Vec<NodeSummary> {
    let spec = PopulationSpec::smoke();
    (0..count)
        .map(|i| {
            solarml_fleet::campaign::simulate_node(&spec, i, derive_seed(SEED, FLEET_SEED_CYCLE, i))
        })
        .collect()
}

#[test]
fn campaign_is_byte_identical_across_runs_and_workers_and_ledgers_close() {
    let mut cfg = CampaignConfig::smoke(FLEET_N, SEED);
    cfg.workers = 4;
    let baseline = run_campaign(&cfg);
    let repeat = run_campaign(&cfg);
    assert_eq!(baseline, repeat, "repeat run must match");
    assert_eq!(baseline.to_json(), repeat.to_json());

    for workers in [1usize, 8] {
        cfg.workers = workers;
        let run = run_campaign(&cfg);
        assert_eq!(baseline, run, "{workers} workers");
        assert_eq!(
            baseline.to_json(),
            run.to_json(),
            "{workers}-worker JSON must be byte-identical"
        );
    }
    assert_eq!(baseline.aggregate.nodes, FLEET_N as u64);

    // Every node's ledger must close within tolerance.
    assert_eq!(
        baseline.aggregate.residual_violations, 0,
        "max residual {} nJ",
        baseline.aggregate.residual_nj_stat.max
    );
    assert!(
        baseline.aggregate.residual_nj_stat.max_or_zero() <= 1.0,
        "worst ledger residual {} nJ exceeds tolerance",
        baseline.aggregate.residual_nj_stat.max
    );
}

#[test]
fn chunk_size_does_not_change_the_report() {
    let mut cfg = CampaignConfig::smoke(SLICE_N, SEED ^ 1);
    cfg.workers = 3;
    cfg.chunk = 16;
    let baseline = run_campaign(&cfg);
    for chunk in [1usize, 7, SLICE_N, 1000] {
        cfg.chunk = chunk;
        let run = run_campaign(&cfg);
        assert_eq!(baseline, run, "chunk {chunk}");
        assert_eq!(baseline.to_json(), run.to_json(), "chunk {chunk}");
    }
}

#[test]
fn merged_aggregate_equals_sequential_fold_for_any_chunking() {
    let nodes = summaries(SLICE_N);
    let mut sequential = FleetAggregate::new();
    for n in &nodes {
        sequential.record(n);
    }
    for chunk in [1usize, 7, SLICE_N] {
        let mut merged = FleetAggregate::new();
        for group in nodes.chunks(chunk) {
            let mut partial = FleetAggregate::new();
            for n in group {
                partial.record(n);
            }
            merged.merge(&partial);
        }
        assert_eq!(merged, sequential, "chunk {chunk}");
    }
    // Merge order flipped: fold right-to-left.
    let mut reversed = FleetAggregate::new();
    for n in nodes.iter().rev() {
        let mut single = FleetAggregate::new();
        single.record(n);
        let mut swapped = single;
        swapped.merge(&reversed);
        reversed = swapped;
    }
    assert_eq!(reversed, sequential, "reverse-order merge");
}

#[test]
fn campaigns_with_different_seeds_differ() {
    let a = run_campaign(&CampaignConfig::smoke(16, 1));
    let b = run_campaign(&CampaignConfig::smoke(16, 2));
    assert_ne!(a.to_json(), b.to_json());
}
