//! On-disk format pins: the exact bytes of one fixed campaign snapshot,
//! one fixed store entry and the `store.meta` stamp, each pinned by its
//! FNV-1a-64 digest and length.
//!
//! Checkpoints and store entries outlive the build that wrote them, so a
//! codec refactor must write the same bytes under the same version. If one
//! of these pins moves, the change altered the on-disk format: bump
//! `CHECKPOINT_VERSION` / `STORE_VERSION` and re-pin, never re-pin alone.

use std::path::PathBuf;

use solarml_fleet::campaign::{FailedNode, NodeSummary};
use solarml_fleet::{
    CampaignSnapshot, FleetAggregate, MergeTree, NodeDayOutcome, NodeDayStore, CHECKPOINT_VERSION,
    STORE_VERSION,
};
use solarml_trace::fnv1a64;

// Lengths and FNV-1a-64 digests of the version-1 encodings.
const PIN_SNAPSHOT_LEN: usize = 2615;
const PIN_SNAPSHOT_FNV: u64 = 0x6fbf_433d_0a39_c9f1;
const PIN_ENTRY_LEN: usize = 116;
const PIN_ENTRY_FNV: u64 = 0xa80c_cf4f_a24d_ec18;
const PIN_META_LEN: usize = 20;
const PIN_META_FNV: u64 = 0x70f4_6cf5_06d0_c393;

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("solarml-pin-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn summary(node: usize) -> NodeSummary {
    NodeSummary {
        node,
        seed: 0x5EED_0000 + node as u64,
        env_index: node % 3,
        policy_index: (node / 3) % 3,
        attempted: 12 + node,
        completed: 9 + node,
        abandoned: 3,
        degraded: 2,
        brownouts: node % 4,
        dead_window_s: 1_234.5 * node as f64,
        harvested_j: 3.25 + node as f64,
        consumed_j: 2.75 + node as f64,
        wasted_j: 0.125,
        residual_j: -1.5e-10 * node as f64,
        mean_accuracy: 0.875,
    }
}

/// Three partials folded chunk-wise (so the tree has a carry) plus one
/// quarantined node.
fn fixed_snapshot() -> CampaignSnapshot {
    let mut tree = MergeTree::new();
    for chunk in 0..3 {
        let mut partial = FleetAggregate::new();
        for node in chunk * 2..chunk * 2 + 2 {
            partial.record(&summary(node));
        }
        tree.push(partial);
    }
    CampaignSnapshot {
        fingerprint: 0x0123_4567_89AB_CDEF,
        nodes_done: 7,
        tree,
        failed: vec![FailedNode {
            node: 6,
            seed: 0xDEAD_BEEF,
            message: "supercap voltage went NaN".to_string(),
        }],
    }
}

fn fixed_outcome() -> NodeDayOutcome {
    NodeDayOutcome {
        attempted: 14,
        completed: 11,
        abandoned: 3,
        degraded: 1,
        brownouts: 2,
        dead_window_s: 5_400.25,
        harvested_j: 4.5,
        consumed_j: 4.375,
        wasted_j: -0.0,
        residual_j: 3.0e-10,
        mean_accuracy: 0.9,
    }
}

#[test]
fn checkpoint_snapshot_bytes_are_pinned() {
    assert_eq!(CHECKPOINT_VERSION, 1);
    let bytes = fixed_snapshot().encode();
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (PIN_SNAPSHOT_LEN, PIN_SNAPSHOT_FNV),
        "checkpoint bytes moved under version {CHECKPOINT_VERSION}"
    );
}

#[test]
fn store_entry_and_meta_bytes_are_pinned() {
    assert_eq!(STORE_VERSION, 1);
    let dir = scratch_dir("store");
    let store = NodeDayStore::open(&dir).expect("open");
    let key = 0xFEED_FACE_CAFE_BEEF;
    store.persist(key, &fixed_outcome()).expect("persist");

    let entry = std::fs::read(dir.join(format!("nd-{key:016x}.bin"))).expect("read entry");
    assert_eq!(
        (entry.len(), fnv1a64(&entry)),
        (PIN_ENTRY_LEN, PIN_ENTRY_FNV),
        "store entry bytes moved under version {STORE_VERSION}"
    );
    let meta = std::fs::read(dir.join("store.meta")).expect("read meta");
    assert_eq!(
        (meta.len(), fnv1a64(&meta)),
        (PIN_META_LEN, PIN_META_FNV),
        "store.meta bytes moved under version {STORE_VERSION}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
