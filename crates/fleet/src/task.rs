//! The incremental-build seam: node-days as pure, content-keyed tasks.
//!
//! This module adopts the `Task`/`Context` pattern of PIE-style
//! incremental build systems: a [`Task`] is a pure unit of work whose
//! output depends only on its own state, and a [`Context`] decides — per
//! `require_task` call — whether to *execute* the task or *replay* a
//! previously persisted output. The campaign engine is written against
//! the trait pair, so the same streaming fold runs cold (every task
//! executes) or warm (unchanged tasks replay from the content-addressed
//! store in [`crate::store`]) without either side knowing which happened.
//!
//! The one task the fleet needs is [`NodeDayTask`]: simulate one node's
//! day. Its identity is a **content key** — a stable FNV-1a hash
//! ([`solarml_trace::FnvHasher`], never `DefaultHasher`/`RandomState`,
//! which fleet's `clippy.toml` disallows) over every input that can
//! change the outcome:
//!
//! * the *fully resolved* node parameters — the sampled
//!   [`IntermittentConfig`] after all population draws, not the
//!   [`PopulationSpec`] they were drawn from. This is what makes warm
//!   sweeps incremental: PR 5's fixed-draw-order contract means editing
//!   one spec distribution leaves unaffected nodes' resolved configs
//!   bit-identical, so their keys — and their cached outcomes — survive;
//! * the environment/policy buckets the node landed in;
//! * the node's derived seed;
//! * [`SIM_FINGERPRINT`], a simulator-version tag bumped whenever
//!   `simulate_faulted_day`'s semantics change, so a stale binary can
//!   never replay outputs produced by different physics.
//!
//! Staleness is impossible by construction: the key covers the complete
//! closure of [`NodeDayTask::execute`]'s inputs (pinned by a mutation test
//! that flips every spec field and watches the key set move), and the
//! output [`NodeDayOutcome`] deliberately excludes the node index — it is
//! a pure function of the key material, so a replayed outcome is
//! bit-identical to a recomputed one.

use solarml_platform::{simulate_faulted_day, IntermittentConfig};
use solarml_trace::{ByteReader, ByteWriter, CodecError, FnvHasher};

use crate::campaign::NodeSummary;
use crate::population::{NodeBlueprint, PopulationSpec};

/// Simulator-version fingerprint folded into every node-day content key.
///
/// Bump the trailing version whenever the day simulator's observable
/// behavior changes (physics, scheduler stepping, ledger accounting…):
/// every existing store entry then misses and recomputes, which is the
/// *only* correct response to new semantics.
pub const SIM_FINGERPRINT: &str = "solarml-node-day-sim/v1";

/// A pure unit of work with a stable content identity.
///
/// `execute` may only depend on the task's own state (and, transitively,
/// other tasks it `require`s through the context) — never on ambient
/// state — and `content_key` must cover all of it. Those two properties
/// are what let a [`Context`] replay a persisted output in place of a
/// re-execution without changing any downstream byte.
pub trait Task: Clone + std::fmt::Debug {
    /// What executing the task produces.
    type Output;

    /// Computes the output from scratch. Pure: two executions of equal
    /// tasks yield equal outputs, bit for bit.
    fn execute<C: Context<Self>>(&self, context: &mut C) -> Self::Output;

    /// Stable hash of every execute-affecting input. Equal keys ⇒ equal
    /// outputs; any input change ⇒ (with FNV's 64-bit spread) a new key.
    fn content_key(&self) -> u64;
}

/// A task-execution strategy: how `require`d tasks get their outputs.
pub trait Context<T: Task> {
    /// Returns `task`'s output — by executing it, or by replaying a
    /// cached output proven (via [`Task::content_key`]) to be current.
    fn require_task(&mut self, task: &T) -> T::Output;
}

/// The cold strategy: always execute, never cache. [`crate::run_campaign`]
/// runs through this context; the incremental twin lives in
/// [`crate::store::IncrementalContext`].
#[derive(Debug, Clone, Copy, Default)]
pub struct NonIncrementalContext;

impl<T: Task> Context<T> for NonIncrementalContext {
    fn require_task(&mut self, task: &T) -> T::Output {
        task.execute(self)
    }
}

/// One node's simulated day, as a task: resolve the node out of the
/// population once, then carry everything `execute` needs.
#[derive(Debug, Clone)]
pub struct NodeDayTask {
    /// Node index within the campaign (display/summary only — not key
    /// material, because the outcome does not depend on it).
    pub node: usize,
    /// The node's derived seed.
    pub seed: u64,
    blueprint: NodeBlueprint,
    key: u64,
}

impl NodeDayTask {
    /// Resolves node `node` of `spec` from its derived seed: samples the
    /// blueprint (cheap — microseconds against the day simulation's
    /// milliseconds) and derives the content key from the result.
    pub fn resolve(spec: &PopulationSpec, node: usize, seed: u64) -> Self {
        let blueprint = spec.node_blueprint(seed);
        let key = node_day_key(&blueprint, seed);
        Self {
            node,
            seed,
            blueprint,
            key,
        }
    }

    /// The content key this node-day is stored under: a pure function of
    /// the resolved simulation inputs. Two specs that resolve a node to
    /// identical inputs (a scenario edit that misses this node, say)
    /// share the key — which is exactly what lets the incremental store
    /// replay unaffected node-days across spec edits.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// Rehydrates a full [`NodeSummary`] from a (cached or fresh) outcome
    /// plus the task's own identity fields.
    pub fn summary(&self, outcome: &NodeDayOutcome) -> NodeSummary {
        NodeSummary {
            node: self.node,
            seed: self.seed,
            env_index: self.blueprint.env_index,
            policy_index: self.blueprint.policy_index,
            attempted: outcome.attempted,
            completed: outcome.completed,
            abandoned: outcome.abandoned,
            degraded: outcome.degraded,
            brownouts: outcome.brownouts,
            dead_window_s: outcome.dead_window_s,
            harvested_j: outcome.harvested_j,
            consumed_j: outcome.consumed_j,
            wasted_j: outcome.wasted_j,
            residual_j: outcome.residual_j,
            mean_accuracy: outcome.mean_accuracy,
        }
    }
}

impl Task for NodeDayTask {
    type Output = NodeDayOutcome;

    fn execute<C: Context<Self>>(&self, _context: &mut C) -> NodeDayOutcome {
        let report = simulate_faulted_day(&self.blueprint.config);
        NodeDayOutcome {
            attempted: report.attempted,
            completed: report.completed,
            abandoned: report.abandoned,
            degraded: report.degraded,
            brownouts: report.brownouts,
            dead_window_s: report.dead_window.as_seconds(),
            harvested_j: report.harvested.as_joules(),
            consumed_j: report.consumed.as_joules(),
            wasted_j: report.wasted.as_joules(),
            residual_j: report.audit.discrepancy.as_joules(),
            mean_accuracy: report.mean_accuracy.get(),
        }
    }

    fn content_key(&self) -> u64 {
        self.key
    }
}

/// What one node-day leaves behind, minus the task identity: exactly the
/// fields that are a pure function of the content key. This is the store's
/// payload type — caching identity fields like the node index would let a
/// (hash-collision-grade unlikely, but structurally possible) foreign entry
/// masquerade as another node, so they are reconstructed at replay instead.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeDayOutcome {
    /// Interaction cycles attempted.
    pub attempted: usize,
    /// Cycles completed (any rung).
    pub completed: usize,
    /// Cycles abandoned after retries ran out.
    pub abandoned: usize,
    /// Completions below the full rung.
    pub degraded: usize,
    /// Brownout events.
    pub brownouts: usize,
    /// Time below the brownout threshold (seconds).
    pub dead_window_s: f64,
    /// Energy harvested over the day (joules).
    pub harvested_j: f64,
    /// Energy consumed over the day (joules).
    pub consumed_j: f64,
    /// Energy wasted on lost progress (joules).
    pub wasted_j: f64,
    /// Signed ledger conservation residual (joules).
    pub residual_j: f64,
    /// Mean accuracy proxy across completed cycles.
    pub mean_accuracy: f64,
}

impl NodeDayOutcome {
    /// Appends the outcome's canonical byte encoding: five `u64` counters
    /// then six `f64` bit patterns, little-endian, fixed width. The store
    /// wraps this payload in its own envelope and checksum.
    pub fn encode_into(&self, w: &mut ByteWriter) {
        w.push_u64(self.attempted as u64);
        w.push_u64(self.completed as u64);
        w.push_u64(self.abandoned as u64);
        w.push_u64(self.degraded as u64);
        w.push_u64(self.brownouts as u64);
        w.push_f64_bits(self.dead_window_s.to_bits());
        w.push_f64_bits(self.harvested_j.to_bits());
        w.push_f64_bits(self.consumed_j.to_bits());
        w.push_f64_bits(self.wasted_j.to_bits());
        w.push_f64_bits(self.residual_j.to_bits());
        w.push_f64_bits(self.mean_accuracy.to_bits());
    }

    /// Reads one outcome back; the exact inverse of [`Self::encode_into`].
    pub fn decode_from(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            attempted: r.read_u64()? as usize,
            completed: r.read_u64()? as usize,
            abandoned: r.read_u64()? as usize,
            degraded: r.read_u64()? as usize,
            brownouts: r.read_u64()? as usize,
            dead_window_s: f64::from_bits(r.read_f64_bits()?),
            harvested_j: f64::from_bits(r.read_f64_bits()?),
            consumed_j: f64::from_bits(r.read_f64_bits()?),
            wasted_j: f64::from_bits(r.read_f64_bits()?),
            residual_j: f64::from_bits(r.read_f64_bits()?),
            mean_accuracy: f64::from_bits(r.read_f64_bits()?),
        })
    }
}

/// Content key of one resolved node-day: simulator fingerprint, derived
/// seed, bucket indices, then the complete resolved simulation config. The
/// hash walks *values*, not the spec — two specs that resolve a node to
/// the same config produce the same key, which is exactly the cache-hit
/// condition a parameter sweep needs.
fn node_day_key(blueprint: &NodeBlueprint, seed: u64) -> u64 {
    let mut h = FnvHasher::new();
    h.write(SIM_FINGERPRINT.as_bytes());
    h.write_u64(seed);
    h.write_u64(blueprint.env_index as u64);
    h.write_u64(blueprint.policy_index as u64);
    hash_config(&mut h, &blueprint.config);
    h.finish()
}

/// Folds every field of a resolved [`IntermittentConfig`] into `h`, in
/// declaration order, floats by bit pattern, variable-length sequences
/// length-prefixed (so `[a] ++ [b]` never aliases `[a, b]`).
fn hash_config(h: &mut FnvHasher, cfg: &IntermittentConfig) {
    // base: DaySimConfig
    for lux in &cfg.base.profile.lux_by_hour {
        h.write_f64_bits(lux.to_bits());
    }
    h.write_f64_bits(cfg.base.budget_per_inference.value().to_bits());
    h.write_u64(cfg.base.interactions.len() as u64);
    for t in &cfg.base.interactions {
        h.write_f64_bits(t.value().to_bits());
    }
    h.write_f64_bits(cfg.base.capacitance.value().to_bits());
    h.write_f64_bits(cfg.base.initial_voltage.value().to_bits());
    h.write_f64_bits(cfg.base.inference_threshold.value().to_bits());
    h.write_f64_bits(cfg.base.standby_power.value().to_bits());
    // faults: FaultPlan
    h.write_u64(cfg.faults.clouds.len() as u64);
    for c in &cfg.faults.clouds {
        h.write_f64_bits(c.at.value().to_bits());
        h.write_f64_bits(c.duration.value().to_bits());
        h.write_f64_bits(c.depth.get().to_bits());
        h.write_f64_bits(c.ramp.value().to_bits());
    }
    h.write_u64(cfg.faults.outages.len() as u64);
    for o in &cfg.faults.outages {
        h.write_f64_bits(o.at.value().to_bits());
        h.write_f64_bits(o.duration.value().to_bits());
    }
    h.write_f64_bits(cfg.faults.degradation.capacity_factor.get().to_bits());
    h.write_f64_bits(cfg.faults.degradation.esr_scale.get().to_bits());
    // thresholds: BrownoutThresholds
    h.write_f64_bits(cfg.thresholds.warn.value().to_bits());
    h.write_f64_bits(cfg.thresholds.brownout.value().to_bits());
    h.write_f64_bits(cfg.thresholds.hysteresis.value().to_bits());
    // plan: PhasePlan
    h.write_f64_bits(cfg.plan.sense_duration.value().to_bits());
    h.write_f64_bits(cfg.plan.sense_power.value().to_bits());
    h.write_f64_bits(cfg.plan.process_duration.value().to_bits());
    h.write_f64_bits(cfg.plan.process_power.value().to_bits());
    h.write_f64_bits(cfg.plan.infer_duration.value().to_bits());
    h.write_f64_bits(cfg.plan.infer_power.value().to_bits());
    // ladder: DegradationLadder
    let rungs = cfg.ladder.rungs();
    h.write_u64(rungs.len() as u64);
    for rung in rungs {
        h.write_u64(rung.name.len() as u64);
        h.write(rung.name.as_bytes());
        h.write_f64_bits(rung.sense_scale.get().to_bits());
        h.write_f64_bits(rung.infer_scale.get().to_bits());
        h.write_f64_bits(rung.accuracy_proxy.get().to_bits());
    }
    // checkpoint policy + cost model
    h.write(&[match cfg.checkpoint {
        solarml_platform::CheckpointPolicy::None => 0u8,
        solarml_platform::CheckpointPolicy::Volatile => 1,
        solarml_platform::CheckpointPolicy::Retained => 2,
    }]);
    h.write_f64_bits(cfg.checkpoint_costs.save_energy.value().to_bits());
    h.write_f64_bits(cfg.checkpoint_costs.save_duration.value().to_bits());
    h.write_f64_bits(cfg.checkpoint_costs.restore_energy.value().to_bits());
    h.write_f64_bits(cfg.checkpoint_costs.restore_duration.value().to_bits());
    h.write_f64_bits(cfg.checkpoint_costs.retention_power.value().to_bits());
    // mcu: McuPowerModel
    h.write_f64_bits(cfg.mcu.rail_voltage.value().to_bits());
    h.write_f64_bits(cfg.mcu.deep_sleep.value().to_bits());
    h.write_f64_bits(cfg.mcu.standby.value().to_bits());
    h.write_f64_bits(cfg.mcu.wake_power.value().to_bits());
    h.write_f64_bits(cfg.mcu.wake_duration.value().to_bits());
    h.write_f64_bits(cfg.mcu.cold_boot_duration.value().to_bits());
    h.write_f64_bits(cfg.mcu.tickless_base.value().to_bits());
    h.write_f64_bits(cfg.mcu.active.value().to_bits());
    h.write_f64_bits(cfg.mcu.clock.value().to_bits());
    // runtime knobs
    h.write_u64(cfg.max_retries as u64);
    h.write_f64_bits(cfg.retry_backoff.value().to_bits());
    h.write_f64_bits(cfg.active_dt.value().to_bits());
    // dt_policy: DtPolicy
    h.write(&[u8::from(cfg.dt_policy.adaptive)]);
    h.write_f64_bits(cfg.dt_policy.min_dt.value().to_bits());
    h.write_f64_bits(cfg.dt_policy.max_dt.value().to_bits());
    h.write_f64_bits(cfg.dt_policy.edge_hold.value().to_bits());
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_sim::seed::derive_seed;

    use crate::campaign::FLEET_SEED_CYCLE;

    fn task(spec: &PopulationSpec, node: usize) -> NodeDayTask {
        NodeDayTask::resolve(spec, node, derive_seed(7, FLEET_SEED_CYCLE, node))
    }

    #[test]
    fn content_keys_are_pure_and_distinct_per_node() {
        let spec = PopulationSpec::smoke();
        assert_eq!(task(&spec, 0).content_key(), task(&spec, 0).content_key());
        assert_ne!(task(&spec, 0).content_key(), task(&spec, 1).content_key());
    }

    #[test]
    fn execute_matches_simulate_node_bit_for_bit() {
        let spec = PopulationSpec::smoke();
        let t = task(&spec, 3);
        let outcome = t.execute(&mut NonIncrementalContext);
        assert_eq!(
            t.summary(&outcome),
            crate::campaign::simulate_node(&spec, 3, t.seed)
        );
    }

    #[test]
    fn unaffected_nodes_keep_their_keys_across_a_spec_edit() {
        let spec = PopulationSpec::smoke();
        let mut edited = spec.clone();
        edited.office_peak_lux = crate::population::Dist::Uniform {
            lo: 250.0,
            hi: 900.0,
        };
        let mut office = 0;
        let mut moved = 0;
        for node in 0..48 {
            let a = task(&spec, node);
            let b = task(&edited, node);
            let is_office = spec.node_blueprint(a.seed).env_index == 1;
            office += usize::from(is_office);
            moved += usize::from(a.content_key() != b.content_key());
            if !is_office {
                assert_eq!(
                    a.content_key(),
                    b.content_key(),
                    "node {node} does not use office_peak_lux; its key must survive"
                );
            }
        }
        assert!(office > 0, "a 48-node smoke fleet has office nodes");
        assert_eq!(moved, office, "exactly the office nodes were invalidated");
    }
}
