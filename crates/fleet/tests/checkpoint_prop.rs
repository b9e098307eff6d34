//! Property suites for the checkpoint codec: round-trips are bit-exact,
//! a snapshot splits the streaming fold without changing its result, and
//! every mangled byte sequence decodes to a typed error — never a panic.
//!
//! The vendored proptest stand-in supplies range strategies and
//! `collection::vec` but no combinators, so compound inputs are generated
//! as vectors of `u64` seeds and expanded into [`NodeSummary`] /
//! [`FailedNode`] values by lanes of a SplitMix64 stream — the
//! same coverage as a composed strategy, each case still fully described
//! by its primitive inputs.

use proptest::prelude::*;
use solarml_fleet::campaign::{FailedNode, NodeSummary};
use solarml_fleet::{CampaignSnapshot, FleetAggregate, MergeTree};
use solarml_sim::seed::splitmix64;

/// Output `lane` of the SplitMix64 stream seeded by one generated seed:
/// expands that seed into as many independent field lanes as a summary
/// needs.
fn mix(seed: u64, lane: u64) -> u64 {
    let mut state = seed;
    std::iter::repeat_with(|| splitmix64(&mut state))
        .nth(lane as usize)
        .unwrap_or_default()
}

/// Uniform `[0, 1)` from a mixed lane, 53 mantissa bits.
fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// A synthetic node-day summary spanning the aggregate's value ranges,
/// signed-zero and tiny-residual corners included.
fn summary_from(node: usize, seed: u64) -> NodeSummary {
    let attempted = (mix(seed, 1) % 64) as usize;
    let completed = (mix(seed, 2) % 64) as usize;
    let (attempted, completed) = (attempted.max(completed), attempted.min(completed));
    // One case in eight pins each signed zero, so the codec's f64
    // bit-exactness is exercised where `==` can't tell values apart.
    let dead_window_s = match mix(seed, 3) % 8 {
        0 => -0.0,
        1 => 0.0,
        _ => unit(mix(seed, 4)) * 86_400.0,
    };
    NodeSummary {
        node,
        seed,
        env_index: (mix(seed, 5) % 3) as usize,
        policy_index: (mix(seed, 6) % 3) as usize,
        attempted,
        completed,
        abandoned: attempted - completed,
        degraded: (mix(seed, 7) % 16) as usize,
        brownouts: (mix(seed, 8) % 16) as usize,
        dead_window_s,
        harvested_j: unit(mix(seed, 9)) * 50.0,
        consumed_j: unit(mix(seed, 10)) * 50.0,
        wasted_j: unit(mix(seed, 11)) * 5.0,
        residual_j: (unit(mix(seed, 12)) - 0.5) * 4e-9,
        mean_accuracy: unit(mix(seed, 13)),
    }
}

/// A quarantined node with a seed-derived message (empty included).
fn failed_from(node: usize, seed: u64) -> FailedNode {
    let len = (mix(seed, 20) % 40) as usize;
    let message: String = (0..len)
        .map(|i| char::from(b' ' + (mix(seed, 21 + i as u64) % 95) as u8))
        .collect();
    FailedNode {
        node,
        seed,
        message,
    }
}

/// Folds summaries chunk-wise into a merge tree, the way the engine does.
fn tree_from(summaries: &[NodeSummary], chunk: usize) -> MergeTree {
    let mut tree = MergeTree::new();
    for block in summaries.chunks(chunk) {
        let mut partial = FleetAggregate::new();
        for s in block {
            partial.record(s);
        }
        tree.push(partial);
    }
    tree
}

/// A snapshot built from generated seeds: summaries folded chunk-wise,
/// plus a quarantine list.
fn snapshot_from(
    seeds: &[u64],
    failed_seeds: &[u64],
    fingerprint: u64,
    chunk: usize,
) -> CampaignSnapshot {
    let summaries: Vec<NodeSummary> = seeds
        .iter()
        .enumerate()
        .map(|(i, &s)| summary_from(i, s))
        .collect();
    CampaignSnapshot {
        fingerprint,
        nodes_done: summaries.len() as u64,
        tree: tree_from(&summaries, chunk),
        failed: failed_seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| failed_from(i, s))
            .collect(),
    }
}

proptest! {
    #[test]
    fn snapshot_round_trips_bit_exactly(
        seeds in collection::vec(0u64..=u64::MAX, 0..40),
        failed_seeds in collection::vec(0u64..=u64::MAX, 0..4),
        fingerprint in 0u64..=u64::MAX,
        chunk in 1usize..7,
    ) {
        let snap = snapshot_from(&seeds, &failed_seeds, fingerprint, chunk);
        let bytes = snap.encode();
        // Encoding is pure, and decode→encode is the identity on bytes.
        prop_assert_eq!(&bytes, &snap.encode());
        let back = CampaignSnapshot::decode(&bytes, "prop").expect("valid snapshot decodes");
        prop_assert_eq!(&back, &snap);
        prop_assert_eq!(back.encode(), bytes);
    }

    /// The resume equation: folding a suffix into a decoded snapshot's
    /// tree yields the same final aggregate — bit for bit — as the
    /// uninterrupted in-memory fold, wherever the checkpoint split the
    /// stream and however the prefix was chunked.
    #[test]
    fn checkpointed_prefix_plus_suffix_equals_the_unbroken_fold(
        seeds in collection::vec(0u64..=u64::MAX, 1..48),
        split_frac in 0.0f64..1.0,
        chunk in 1usize..7,
    ) {
        let summaries: Vec<NodeSummary> = seeds
            .iter()
            .enumerate()
            .map(|(i, &s)| summary_from(i, s))
            .collect();
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "the fraction is in [0, 1], so the product is a non-negative count no larger than the length"
        )]
        let split = ((summaries.len() as f64) * split_frac) as usize;

        let mut unbroken = FleetAggregate::new();
        for s in &summaries {
            unbroken.record(s);
        }

        let snap = CampaignSnapshot {
            fingerprint: 1,
            nodes_done: split as u64,
            tree: tree_from(&summaries[..split], chunk),
            failed: Vec::new(),
        };
        // Through the wire and back, then fold the suffix one-by-one (a
        // different chunking than the prefix used — associativity says it
        // cannot matter).
        let mut resumed = CampaignSnapshot::decode(&snap.encode(), "prop").expect("decodes");
        for s in &summaries[split..] {
            let mut partial = FleetAggregate::new();
            partial.record(s);
            resumed.tree.push(partial);
        }
        prop_assert_eq!(resumed.tree.finish(), unbroken);
    }

    #[test]
    fn every_truncation_is_a_typed_error(
        seeds in collection::vec(0u64..=u64::MAX, 0..40),
        cut_frac in 0.0f64..1.0,
    ) {
        let snap = snapshot_from(&seeds, &[], 7, 3);
        let bytes = snap.encode();
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "the fraction is in [0, 1], so the product is a non-negative count no larger than the length"
        )]
        let cut = ((bytes.len() as f64) * cut_frac) as usize % bytes.len();
        // Must return an error value; a panic fails the test harness.
        prop_assert!(CampaignSnapshot::decode(&bytes[..cut], "prop").is_err());
    }

    #[test]
    fn every_single_byte_flip_is_detected(
        seeds in collection::vec(0u64..=u64::MAX, 0..40),
        pos_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let snap = snapshot_from(&seeds, &[], 7, 3);
        let mut bytes = snap.encode();
        #[allow(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "the fraction is in [0, 1], so the product is a non-negative count no larger than the length"
        )]
        let pos = ((bytes.len() as f64) * pos_frac) as usize % bytes.len();
        bytes[pos] ^= flip;
        // FNV-1a's per-byte mix is bijective, so any one-byte change moves
        // the content hash — the decode must reject, with a typed error.
        prop_assert!(CampaignSnapshot::decode(&bytes, "prop").is_err());
    }

    #[test]
    fn random_garbage_never_panics_the_decoder(
        bytes in collection::vec(0u64..=255, 0..256),
    ) {
        #[allow(
            clippy::cast_possible_truncation,
            reason = "proptest draws each byte from 0..=255"
        )]
        let bytes: Vec<u8> = bytes.iter().map(|&b| b as u8).collect();
        let _ = CampaignSnapshot::decode(&bytes, "prop");
    }
}
