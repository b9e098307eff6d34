//! Property suites for the incremental node-day store: any cached-prefix /
//! recomputed-suffix split folds byte-identically to an all-cold run, any
//! mangled entry or `store.meta` stamp decodes to a typed error (entries
//! then recompute transparently), and a one-`Dist` spec edit invalidates
//! exactly the nodes whose resolved configuration it reaches — pinned by a
//! mutation sweep over every [`PopulationSpec`] parameter.
//!
//! Simulation-backed properties run a stripped population (zero
//! interactions, clouds, outages) so each node-day costs microseconds;
//! key-space properties never simulate at all.
#![allow(
    clippy::disallowed_methods,
    reason = "the properties mangle store files in place with bare writes on purpose"
)]

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use proptest::prelude::*;
use solarml_fleet::campaign::FLEET_SEED_CYCLE;
use solarml_fleet::task::Task;
use solarml_fleet::{
    run_campaign, run_campaign_cached, CampaignConfig, Dist, NodeDayOutcome, NodeDayStore,
    NodeDayTask, PopulationSpec, StoreError,
};
use solarml_sim::seed::{derive_seed, splitmix64};
use solarml_trace::EnvelopeError;

/// A population whose day simulations are nearly free: no interactions,
/// no transients — the store machinery is what's under test, not the
/// physics.
fn cheap_spec() -> PopulationSpec {
    let mut spec = PopulationSpec::smoke();
    spec.interaction_count = Dist::Constant(0.0);
    spec.cloud_count = Dist::Constant(0.0);
    spec.outage_count = Dist::Constant(0.0);
    spec
}

fn cheap_cfg(nodes: usize) -> CampaignConfig {
    let mut cfg = CampaignConfig::smoke(nodes, 0x5EED);
    cfg.population = cheap_spec();
    cfg.workers = 2;
    cfg.chunk = 3;
    cfg
}

const PROP_NODES: usize = 8;

fn node_task(spec: &PopulationSpec, seed: u64, node: usize) -> NodeDayTask {
    NodeDayTask::resolve(spec, node, derive_seed(seed, FLEET_SEED_CYCLE, node))
}

/// A master store holding all [`PROP_NODES`] outcomes, built once; cases
/// seed their per-case store by copying a prefix of its entry files.
fn master_store() -> &'static (PathBuf, Vec<u64>, String) {
    static MASTER: OnceLock<(PathBuf, Vec<u64>, String)> = OnceLock::new();
    MASTER.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("solarml-prop-master-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = cheap_cfg(PROP_NODES);
        let store = NodeDayStore::open(&dir).expect("open master store");
        let cold = run_campaign_cached(&cfg, &store);
        let keys = (0..PROP_NODES)
            .map(|node| node_task(&cfg.population, cfg.seed, node).content_key())
            .collect();
        (dir, keys, cold.to_json())
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("solarml-prop-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A synthetic outcome spanning the codec's value space (signed zero
/// included), derived from one generated seed — no simulation needed.
fn outcome_from(seed: u64) -> NodeDayOutcome {
    fn mix(seed: u64, lane: u64) -> u64 {
        let mut state = seed;
        std::iter::repeat_with(|| splitmix64(&mut state))
            .nth(lane as usize)
            .unwrap_or_default()
    }
    fn unit(bits: u64) -> f64 {
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }
    let dead = match mix(seed, 1) % 8 {
        0 => -0.0,
        1 => 0.0,
        _ => unit(mix(seed, 2)) * 86_400.0,
    };
    NodeDayOutcome {
        attempted: (mix(seed, 3) % 64) as usize,
        completed: (mix(seed, 4) % 64) as usize,
        abandoned: (mix(seed, 5) % 64) as usize,
        degraded: (mix(seed, 6) % 16) as usize,
        brownouts: (mix(seed, 7) % 16) as usize,
        dead_window_s: dead,
        harvested_j: unit(mix(seed, 8)) * 50.0,
        consumed_j: unit(mix(seed, 9)) * 50.0,
        wasted_j: unit(mix(seed, 10)) * 5.0,
        residual_j: (unit(mix(seed, 11)) - 0.5) * 4e-9,
        mean_accuracy: unit(mix(seed, 12)),
    }
}

/// Environment bucket of each node under `spec` (0 outdoor, 1 office,
/// 2 home).
fn env_of(spec: &PopulationSpec, seed: u64, nodes: usize) -> Vec<usize> {
    (0..nodes)
        .map(|node| {
            spec.node_blueprint(derive_seed(seed, FLEET_SEED_CYCLE, node))
                .env_index
        })
        .collect()
}

fn keys_of(spec: &PopulationSpec, seed: u64, nodes: usize) -> Vec<u64> {
    (0..nodes)
        .map(|node| node_task(spec, seed, node).content_key())
        .collect()
}

proptest! {
    /// Satellite (a): seed the store with any prefix of cached entries,
    /// recompute the rest, and the report — down to its JSON bytes — is
    /// the all-cold report, at any worker count and chunking.
    #[test]
    fn cached_prefix_plus_recomputed_suffix_is_byte_identical_to_cold(
        split_frac in 0.0f64..=1.0,
        workers in 1usize..4,
        chunk in 1usize..5,
    ) {
        let (master_dir, keys, cold_json) = master_store();
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "the fraction is in [0, 1], so the product is a non-negative count no larger than the length"
        )]
        let split = ((PROP_NODES as f64) * split_frac) as usize % (PROP_NODES + 1);

        let dir = fresh_dir("prefix");
        let store = NodeDayStore::open(&dir).expect("open");
        for key in &keys[..split] {
            let name = format!("nd-{key:016x}.bin");
            std::fs::copy(master_dir.join(&name), dir.join(&name)).expect("copy entry");
        }

        let mut cfg = cheap_cfg(PROP_NODES);
        cfg.workers = workers;
        cfg.chunk = chunk;
        let warm = run_campaign_cached(&cfg, &store);
        prop_assert_eq!(warm.to_json(), cold_json.clone());
        let stats = store.stats();
        prop_assert_eq!(stats.hits as usize, split);
        prop_assert_eq!(stats.misses as usize, PROP_NODES - split);
        prop_assert_eq!(stats.corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite (b), decode half: every truncation and every single-byte
    /// flip of a persisted entry is a typed [`StoreError`] — never a
    /// panic, never a silently wrong outcome.
    #[test]
    fn every_entry_mutation_is_a_typed_error(
        payload_seed in 0u64..=u64::MAX,
        key in 0u64..=u64::MAX,
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
        truncate_sel in 0u8..2,
    ) {
        let truncate = truncate_sel == 1;
        let dir = fresh_dir("mangle");
        let store = NodeDayStore::open(&dir).expect("open");
        let outcome = outcome_from(payload_seed);
        store.persist(key, &outcome).expect("persist");
        prop_assert_eq!(store.load(key).expect("load"), Some(outcome));

        let path = dir.join(format!("nd-{key:016x}.bin"));
        let mut bytes = std::fs::read(&path).expect("read");
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "the fraction is in [0, 1], so the product is a non-negative count no larger than the length"
        )]
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        if truncate {
            bytes.truncate(pos);
        } else {
            bytes[pos] ^= flip;
        }
        std::fs::write(&path, &bytes).expect("rewrite");

        match store.load(key) {
            Err(StoreError::Corrupt { .. } | StoreError::KeyMismatch { .. }) => {}
            other => prop_assert!(false, "expected a typed decode error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Satellite (c): editing one `Dist` bound moves exactly the keys of
    /// the nodes whose resolved configuration consumes that draw — the
    /// whole environment bucket it feeds, and nothing else.
    #[test]
    fn one_dist_edit_invalidates_exactly_the_affected_env_bucket(
        which in 0usize..3,
        delta in 1.0f64..800.0,
        nodes in 8usize..40,
        seed in 0u64..=u64::MAX,
    ) {
        let spec = cheap_spec();
        let (param, base_hi, env) = match which {
            0 => ("office-peak-hi", 800.0, 1usize),
            1 => ("home-peak-hi", 500.0, 2),
            _ => ("latitude-hi", 60.0, 0),
        };
        let mut edited = spec.clone();
        edited.set_param(param, base_hi + delta).expect("known param");

        let before = keys_of(&spec, seed, nodes);
        let after = keys_of(&edited, seed, nodes);
        let envs = env_of(&spec, seed, nodes);
        for node in 0..nodes {
            if envs[node] == env {
                // This node consumes the edited draw: its key must move.
                prop_assert_ne!(before[node], after[node]);
            } else {
                // This node never uses the draw: its key must survive.
                prop_assert_eq!(before[node], after[node]);
            }
        }
        // Bucket assignment itself never moved — only the configs inside
        // the targeted bucket.
        prop_assert_eq!(env_of(&edited, seed, nodes), envs);
    }
}

/// Every truncation and every single-byte flip of a valid `store.meta`
/// makes `open` return a typed [`StoreError`], classified by the envelope
/// field it hit — never a panic, never `Ok`. The stamp is 20 bytes, so the
/// sweep is exhaustive rather than sampled.
#[test]
fn every_meta_mutation_is_a_typed_open_error() {
    let dir = fresh_dir("meta");
    drop(NodeDayStore::open(&dir).expect("open"));
    let meta_path = dir.join("store.meta");
    let meta = std::fs::read(&meta_path).expect("read meta");
    assert_eq!(meta.len(), 20);

    let reason_of = |bytes: &[u8]| -> EnvelopeError {
        std::fs::write(&meta_path, bytes).expect("rewrite meta");
        match NodeDayStore::open(&dir) {
            Err(StoreError::Corrupt { reason, .. }) => reason,
            other => panic!("expected a typed Corrupt error, got {other:?}"),
        }
    };
    for cut in 0..meta.len() {
        let reason = reason_of(&meta[..cut]);
        if cut < 8 {
            assert_eq!(reason, EnvelopeError::BadMagic, "{cut}-byte prefix");
        } else {
            assert!(
                matches!(reason, EnvelopeError::Malformed { .. }),
                "{cut}-byte prefix: {reason}"
            );
        }
    }
    for pos in 0..meta.len() {
        for flip in 1..=255u8 {
            let mut mangled = meta.clone();
            mangled[pos] ^= flip;
            let reason = reason_of(&mangled);
            let expected = match pos {
                0..=7 => matches!(reason, EnvelopeError::BadMagic),
                8..=11 => matches!(reason, EnvelopeError::UnsupportedVersion { .. }),
                _ => matches!(reason, EnvelopeError::ChecksumMismatch { .. }),
            };
            assert!(expected, "flip {flip:#04x} at byte {pos}: {reason}");
        }
    }
    let mut extended = meta.clone();
    extended.push(0);
    assert!(matches!(
        reason_of(&extended),
        EnvelopeError::ChecksumMismatch { .. }
    ));

    std::fs::write(&meta_path, &meta).expect("restore meta");
    assert!(NodeDayStore::open(&dir).is_ok(), "the pristine stamp opens");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite (b), recompute half: a campaign over a store whose entries
/// were all bit-flipped reproduces the cold report exactly, counting each
/// corruption, and heals the store in passing.
#[test]
fn corrupted_store_recomputes_transparently_and_heals() {
    let dir = fresh_dir("heal");
    let cfg = cheap_cfg(6);
    let cold = run_campaign(&cfg);
    let store = NodeDayStore::open(&dir).expect("open");
    assert_eq!(run_campaign_cached(&cfg, &store), cold);

    let mut mangled = 0;
    for (i, item) in std::fs::read_dir(&dir).expect("read_dir").enumerate() {
        let path = item.expect("entry").path();
        if !path
            .file_name()
            .is_some_and(|n| n.to_string_lossy().starts_with("nd-"))
        {
            continue;
        }
        let mut bytes = std::fs::read(&path).expect("read");
        let pos = (i * 17) % bytes.len();
        bytes[pos] ^= 1 << (i % 8);
        std::fs::write(&path, &bytes).expect("write");
        mangled += 1;
    }
    assert_eq!(mangled, 6);

    store.reset_stats();
    assert_eq!(
        run_campaign_cached(&cfg, &store).to_json(),
        cold.to_json(),
        "corruption is invisible in the report"
    );
    assert_eq!(store.stats().corrupt, 6);

    store.reset_stats();
    run_campaign_cached(&cfg, &store);
    let healed = store.stats();
    assert_eq!((healed.hits, healed.corrupt), (6, 0), "rewrites healed it");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The staleness-impossible pin: flipping any single [`PopulationSpec`]
/// parameter (every share, scalar, and distribution bound the sweep
/// surface exposes) changes the campaign's key set. If a new spec field
/// ever leaks into the simulation without entering the key, this sweep is
/// the test that fails.
#[test]
fn every_spec_parameter_flip_changes_the_key_set() {
    // Decisive edits: each lands well outside the representative range so
    // no draw can round it away.
    let edits: &[(&str, f64)] = &[
        ("outdoor-share", 5.0),
        ("office-share", 5.0),
        ("home-share", 5.0),
        ("retained-share", 5.0),
        ("volatile-share", 5.0),
        ("none-share", 5.0),
        ("ladder-share", 0.0),
        ("day-of-year", 20.0),
        ("latitude-lo", 5.0),
        ("latitude-hi", 85.0),
        ("office-peak-lo", 50.0),
        ("office-peak-hi", 2000.0),
        ("home-peak-lo", 20.0),
        ("home-peak-hi", 1500.0),
        ("panel-scale-lo", 0.05),
        ("panel-scale-hi", 10.0),
        ("capacitance-lo", 0.001),
        ("capacitance-hi", 1.0),
        ("initial-voltage-lo", 1.0),
        ("initial-voltage-hi", 3.3),
        ("capacity-factor-lo", 0.06),
        ("capacity-factor-hi", 0.5),
        ("esr-scale-lo", 4.0),
        ("esr-scale-hi", 9.0),
        ("interactions-lo", 100.0),
        ("interactions-hi", 200.0),
        ("clouds-lo", 50.0),
        ("clouds-hi", 80.0),
        ("outages-lo", 40.0),
        ("outages-hi", 60.0),
    ];
    let nodes = 64;
    let seed = 0xF1EE7;
    let spec = PopulationSpec::representative();
    let base = keys_of(&spec, seed, nodes);
    for &(param, value) in edits {
        let mut edited = spec.clone();
        edited.set_param(param, value).expect("known param");
        assert_ne!(
            keys_of(&edited, seed, nodes),
            base,
            "editing `{param}` must move at least one node-day key"
        );
    }
    assert_eq!(
        edits.len(),
        30,
        "the sweep covers the whole set_param surface"
    );
}
