//! Node-population sampling: per-node configurations drawn from declared
//! distributions.
//!
//! A [`PopulationSpec`] declares *distributions* over everything that
//! varies across a deployed fleet — environment mix, supercap sizing and
//! aging, panel area, interaction load, runtime policy — and
//! [`PopulationSpec::node_config`] collapses one node out of it from a
//! per-node seed. Draws happen in one fixed program order from a private
//! SplitMix64 stream, and every [`Dist`] variant (including
//! [`Dist::Constant`]) consumes exactly one draw, so editing a spec field
//! from a constant to a distribution never shifts the stream of the draws
//! after it: the rest of the node stays bit-identical.

use solarml_circuit::{CloudTransient, FaultPlan, OutageWindow, SupercapDegradation};
use solarml_platform::{
    CheckpointPolicy, DaySimConfig, DegradationLadder, IntermittentConfig, PhasePlan,
};
use solarml_scenario::Scenario;
use solarml_sim::seed::{pick_weighted, splitmix64, uniform};
use solarml_sim::DtPolicy;
use solarml_units::{Energy, Farads, Lux, Power, Ratio, Seconds, Volts};

use crate::env::Environment;

/// Domain-separation tag for per-node blueprint draws: XORed into the
/// node seed so blueprint sampling never replays another consumer of the
/// same seed. Registered with the seed-discipline lint.
pub const POPULATION_STREAM_TAG: u64 = 0xF1EE_7000_0000_0001;

/// A one-dimensional sampling distribution over `f64`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Always this value. Still consumes one stream draw, so swapping a
    /// constant for a distribution (or back) never desynchronizes the
    /// draws that follow it.
    Constant(f64),
    /// Uniform over `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Log-uniform over `[lo, hi)`: uniform in `ln x`, for scale
    /// parameters spanning decades (capacitance, panel area).
    LogUniform {
        /// Inclusive lower bound (must be positive).
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
}

impl Dist {
    /// Draws one sample, always consuming exactly one stream advance.
    pub fn sample(&self, state: &mut u64) -> f64 {
        match *self {
            Dist::Constant(v) => {
                splitmix64(state);
                v
            }
            Dist::Uniform { lo, hi } => uniform(state, lo, hi),
            Dist::LogUniform { lo, hi } => {
                debug_assert!(lo > 0.0 && hi > lo, "log-uniform needs 0 < lo < hi");
                uniform(state, lo.ln(), hi.ln()).exp()
            }
        }
    }
}

/// Declared distributions a fleet's nodes are drawn from.
///
/// Shares are relative weights, not probabilities — they are normalized by
/// the weighted pick, so `[2.0, 1.0, 1.0]` means half the fleet in the
/// first bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct PopulationSpec {
    /// Relative share of nodes at window desks (clear-sky + weather).
    pub outdoor_share: f64,
    /// Relative share of nodes under office lighting.
    pub office_share: f64,
    /// Relative share of nodes in homes.
    pub home_share: f64,
    /// Relative share of nodes running retained (FRAM) checkpoints.
    pub retained_share: f64,
    /// Relative share running volatile (SRAM) checkpoints.
    pub volatile_share: f64,
    /// Relative share running the naive no-checkpoint runtime.
    pub none_share: f64,
    /// Probability in `[0, 1]` that a node carries the multi-exit
    /// degradation ladder (vs full-model-only).
    pub ladder_share: f64,
    /// Site latitude in degrees for outdoor nodes.
    pub latitude_deg: Dist,
    /// Day of year the whole campaign simulates (one day per node).
    pub day_of_year: u32,
    /// Office midday illuminance peak (lux).
    pub office_peak_lux: Dist,
    /// Home evening illuminance peak (lux).
    pub home_peak_lux: Dist,
    /// Multiplier on the node's whole light profile: panel area and
    /// optical coupling relative to the reference array.
    pub panel_scale: Dist,
    /// Supercap nameplate capacitance (farads).
    pub capacitance_f: Dist,
    /// Supercap voltage at midnight (volts).
    pub initial_voltage_v: Dist,
    /// Aged-supercap capacity retention, in `(0, 1]`.
    pub capacity_factor: Dist,
    /// Aged-supercap ESR multiplier, `≥ 1`.
    pub esr_scale: Dist,
    /// Number of user interactions over the day (rounded down, ≥ 0).
    pub interaction_count: Dist,
    /// Number of cloud transients hitting outdoor nodes (rounded down).
    /// Indoor nodes draw but ignore it — their sky is the ceiling lights.
    pub cloud_count: Dist,
    /// Number of harvester disconnect windows (rounded down, any
    /// environment — loose wiring does not care about the weather).
    pub outage_count: Dist,
    /// Scripted conditions overriding the sampled ones: when set, every
    /// node's profile/faults/workload come from this scenario (evaluated
    /// on the node's own profile seed) instead of the environment mix
    /// above. The full draw program still runs identically, so fields the
    /// script does not declare keep their sampled values. `None` is the
    /// legacy fully-sampled fleet.
    pub scenario: Option<Scenario>,
}

impl PopulationSpec {
    /// A representative deployed fleet: mostly indoor nodes around the
    /// paper's office operating point, a window-desk minority, realistic
    /// supercap aging spread, and a runtime-policy mix dominated by the
    /// resilient configuration.
    pub fn representative() -> Self {
        Self {
            outdoor_share: 0.25,
            office_share: 0.50,
            home_share: 0.25,
            retained_share: 0.60,
            volatile_share: 0.20,
            none_share: 0.20,
            ladder_share: 0.70,
            latitude_deg: Dist::Uniform { lo: 25.0, hi: 60.0 },
            day_of_year: 172,
            office_peak_lux: Dist::Uniform {
                lo: 250.0,
                hi: 800.0,
            },
            home_peak_lux: Dist::Uniform {
                lo: 150.0,
                hi: 500.0,
            },
            panel_scale: Dist::LogUniform { lo: 0.5, hi: 2.0 },
            capacitance_f: Dist::LogUniform { lo: 0.022, hi: 0.1 },
            initial_voltage_v: Dist::Uniform { lo: 2.3, hi: 2.6 },
            capacity_factor: Dist::Uniform { lo: 0.45, hi: 1.0 },
            esr_scale: Dist::Uniform { lo: 1.0, hi: 2.5 },
            interaction_count: Dist::Uniform { lo: 20.0, hi: 61.0 },
            cloud_count: Dist::Uniform { lo: 4.0, hi: 13.0 },
            outage_count: Dist::Uniform { lo: 0.0, hi: 2.5 },
            scenario: None,
        }
    }

    /// A cheap preset for tests and smoke campaigns: the same structure as
    /// [`Self::representative`] with a light interaction load, so a
    /// 1000-node campaign stays fast even in debug builds.
    pub fn smoke() -> Self {
        Self {
            interaction_count: Dist::Uniform { lo: 4.0, hi: 9.0 },
            cloud_count: Dist::Uniform { lo: 1.0, hi: 5.0 },
            ..Self::representative()
        }
    }

    /// Edits one named parameter in place — the CLI's sweep surface.
    ///
    /// Share and scalar parameters replace the field; `<dist>-lo` /
    /// `<dist>-hi` edit one bound of a distribution field, leaving the
    /// other bound and the variant untouched (a `Constant` becomes a
    /// `Uniform` over the implied range). Unknown names return `Err` with
    /// the full parameter list, so the CLI error is self-documenting.
    pub fn set_param(&mut self, name: &str, value: f64) -> Result<(), String> {
        fn set_lo(d: &mut Dist, value: f64) {
            *d = match *d {
                Dist::Constant(v) => Dist::Uniform { lo: value, hi: v },
                Dist::Uniform { hi, .. } => Dist::Uniform { lo: value, hi },
                Dist::LogUniform { hi, .. } => Dist::LogUniform { lo: value, hi },
            };
        }
        fn set_hi(d: &mut Dist, value: f64) {
            *d = match *d {
                Dist::Constant(v) => Dist::Uniform { lo: v, hi: value },
                Dist::Uniform { lo, .. } => Dist::Uniform { lo, hi: value },
                Dist::LogUniform { lo, .. } => Dist::LogUniform { lo, hi: value },
            };
        }
        match name {
            "outdoor-share" => self.outdoor_share = value,
            "office-share" => self.office_share = value,
            "home-share" => self.home_share = value,
            "retained-share" => self.retained_share = value,
            "volatile-share" => self.volatile_share = value,
            "none-share" => self.none_share = value,
            "ladder-share" => self.ladder_share = value,
            "day-of-year" => self.day_of_year = value.max(0.0) as u32,
            "latitude-lo" => set_lo(&mut self.latitude_deg, value),
            "latitude-hi" => set_hi(&mut self.latitude_deg, value),
            "office-peak-lo" => set_lo(&mut self.office_peak_lux, value),
            "office-peak-hi" => set_hi(&mut self.office_peak_lux, value),
            "home-peak-lo" => set_lo(&mut self.home_peak_lux, value),
            "home-peak-hi" => set_hi(&mut self.home_peak_lux, value),
            "panel-scale-lo" => set_lo(&mut self.panel_scale, value),
            "panel-scale-hi" => set_hi(&mut self.panel_scale, value),
            "capacitance-lo" => set_lo(&mut self.capacitance_f, value),
            "capacitance-hi" => set_hi(&mut self.capacitance_f, value),
            "initial-voltage-lo" => set_lo(&mut self.initial_voltage_v, value),
            "initial-voltage-hi" => set_hi(&mut self.initial_voltage_v, value),
            "capacity-factor-lo" => set_lo(&mut self.capacity_factor, value),
            "capacity-factor-hi" => set_hi(&mut self.capacity_factor, value),
            "esr-scale-lo" => set_lo(&mut self.esr_scale, value),
            "esr-scale-hi" => set_hi(&mut self.esr_scale, value),
            "interactions-lo" => set_lo(&mut self.interaction_count, value),
            "interactions-hi" => set_hi(&mut self.interaction_count, value),
            "clouds-lo" => set_lo(&mut self.cloud_count, value),
            "clouds-hi" => set_hi(&mut self.cloud_count, value),
            "outages-lo" => set_lo(&mut self.outage_count, value),
            "outages-hi" => set_hi(&mut self.outage_count, value),
            unknown => {
                return Err(format!(
                    "unknown population parameter `{unknown}`; known: \
                     outdoor-share, office-share, home-share, retained-share, \
                     volatile-share, none-share, ladder-share, day-of-year, \
                     and the -lo/-hi bounds of latitude, office-peak, \
                     home-peak, panel-scale, capacitance, initial-voltage, \
                     capacity-factor, esr-scale, interactions, clouds, outages"
                ));
            }
        }
        Ok(())
    }

    /// Collapses one node's configuration from its per-node seed. See
    /// [`Self::node_blueprint`] for the determinism contract.
    pub fn node_config(&self, node_seed: u64) -> IntermittentConfig {
        self.node_blueprint(node_seed).config
    }

    /// Collapses one node out of the spec from its per-node seed,
    /// including which environment and policy buckets it landed in.
    ///
    /// Deterministic and order-fixed: the same `(spec, node_seed)` always
    /// yields the same blueprint, bit for bit. All top-level draws happen
    /// unconditionally in a fixed order before any branch, so every node
    /// consumes the same prefix of its stream regardless of which
    /// environment or policy it lands in.
    pub fn node_blueprint(&self, node_seed: u64) -> NodeBlueprint {
        self.node_blueprint_with(node_seed, self.scenario.as_ref())
    }

    /// [`Self::node_blueprint`] with an optional scenario override.
    ///
    /// The full legacy draw program runs **unconditionally and
    /// identically** whether or not a scenario is supplied — the scenario
    /// replaces *values* (profile, faults, workload, capacitance) after
    /// the draws, never the draws themselves. That keeps every other
    /// per-node quantity (panel scale, voltage, policy, ladder) on the
    /// same stream positions, so switching a campaign between scripted
    /// and sampled conditions perturbs exactly the fields the script
    /// declares.
    pub fn node_blueprint_with(
        &self,
        node_seed: u64,
        scenario: Option<&Scenario>,
    ) -> NodeBlueprint {
        let mut state = node_seed ^ POPULATION_STREAM_TAG;

        // Fixed draw program: every node consumes these in this order.
        let env_pick = pick_weighted(
            &mut state,
            &[self.outdoor_share, self.office_share, self.home_share],
        );
        let latitude = self.latitude_deg.sample(&mut state);
        let office_peak = self.office_peak_lux.sample(&mut state);
        let home_peak = self.home_peak_lux.sample(&mut state);
        let panel_scale = self.panel_scale.sample(&mut state);
        let capacitance = self.capacitance_f.sample(&mut state);
        let initial_voltage = self.initial_voltage_v.sample(&mut state);
        let capacity_factor = self.capacity_factor.sample(&mut state).clamp(0.05, 1.0);
        let esr_scale = self.esr_scale.sample(&mut state).max(1.0);
        let n_interactions = self.interaction_count.sample(&mut state).max(0.0) as usize;
        let n_clouds = self.cloud_count.sample(&mut state).max(0.0) as usize;
        let n_outages = self.outage_count.sample(&mut state).max(0.0) as usize;
        let policy_pick = pick_weighted(
            &mut state,
            &[self.retained_share, self.volatile_share, self.none_share],
        );
        let has_ladder = uniform(&mut state, 0.0, 1.0) < self.ladder_share;
        let profile_seed = splitmix64(&mut state);

        // The scenario (when present) is evaluated on the same profile
        // seed the sampled environment would have used, then hardware
        // diversity (panel scale) applies on top either way.
        let day = scenario.map(|s| s.eval(profile_seed));
        let mut profile = match &day {
            Some(day) => day.profile.clone(),
            None => {
                let environment = match env_pick {
                    0 => Environment::OutdoorWindow {
                        latitude_deg: latitude,
                        day_of_year: self.day_of_year,
                    },
                    1 => Environment::Office {
                        peak: Lux::new(office_peak),
                    },
                    _ => Environment::Home {
                        peak: Lux::new(home_peak),
                    },
                };
                environment.day_profile(profile_seed)
            }
        };
        for lux in &mut profile.lux_by_hour {
            *lux *= panel_scale;
        }

        // Interaction times: sorted uniform draws over the waking window.
        let mut interactions: Vec<f64> = (0..n_interactions)
            .map(|_| uniform(&mut state, 8.0 * 3600.0, 22.0 * 3600.0))
            .collect();
        interactions.sort_by(f64::total_cmp);
        let interactions: Vec<Seconds> = interactions.into_iter().map(Seconds::new).collect();

        // Cloud transients only darken outdoor nodes — ceiling lights have
        // no weather — but the count draw above happened for everyone.
        let clouds = if env_pick == 0 {
            (0..n_clouds)
                .map(|_| {
                    let at = uniform(&mut state, 7.0 * 3600.0, 19.0 * 3600.0);
                    let duration = uniform(&mut state, 180.0, 1500.0);
                    let depth = uniform(&mut state, 0.4, 0.95);
                    let ramp = uniform(&mut state, 20.0, 120.0);
                    CloudTransient {
                        at: Seconds::new(at),
                        duration: Seconds::new(duration),
                        depth: Ratio::new(depth),
                        ramp: Seconds::new(ramp),
                    }
                })
                .collect()
        } else {
            Vec::new()
        };
        let outages = (0..n_outages)
            .map(|_| {
                let at = uniform(&mut state, 8.0 * 3600.0, 21.0 * 3600.0);
                let duration = uniform(&mut state, 60.0, 600.0);
                OutageWindow {
                    at: Seconds::new(at),
                    duration: Seconds::new(duration),
                }
            })
            .collect();
        let sampled_faults = FaultPlan {
            clouds,
            outages,
            degradation: SupercapDegradation {
                capacity_factor: Ratio::new(capacity_factor),
                esr_scale: Ratio::new(esr_scale),
            },
        };
        // Scenario overrides land here, after every draw has happened:
        // declared fault combinators replace the sampled plan (falling
        // back to the sampled aging when the script declares none), a
        // declared workload replaces the sampled interaction times, and a
        // declared supercap replaces the sampled capacitance.
        let faults = match &day {
            Some(day) => day.fault_plan(&sampled_faults),
            None => sampled_faults,
        };
        let interactions = match day.as_ref().and_then(|d| d.interactions.clone()) {
            Some(times) => times,
            None => interactions,
        };
        let capacitance = day
            .as_ref()
            .and_then(|d| d.capacitance)
            .unwrap_or(Farads::new(capacitance));
        let env_index = match (&day, scenario) {
            (Some(_), Some(s)) => s.env_bucket(),
            _ => env_pick,
        };

        let base = DaySimConfig {
            profile,
            budget_per_inference: Energy::from_milli_joules(30.0),
            interactions,
            capacitance,
            initial_voltage: Volts::new(initial_voltage),
            inference_threshold: Volts::new(2.2),
            standby_power: Power::from_micro_watts(2.4),
        };

        let mut cfg = IntermittentConfig::naive(base, faults, PhasePlan::representative_gesture());
        cfg.checkpoint = match policy_pick {
            0 => CheckpointPolicy::Retained,
            1 => CheckpointPolicy::Volatile,
            _ => CheckpointPolicy::None,
        };
        if has_ladder {
            cfg.ladder = DegradationLadder::from_exit_macs(&[100_000, 400_000, 1_000_000])
                .with_coarse_sensing(Ratio::new(0.5), Ratio::new(0.55));
        }
        // Adaptive stepping: same physics, ~60× cheaper through dead and
        // idle windows, pinned against fixed-dt by the sim parity suites.
        // The 50 ms floor (vs the parity suites' 1 ms) keeps nodes that
        // hover at the brownout threshold from grinding the clock; the
        // trapezoidal ledger flows hold the ≤ 1 nJ residual at any dt.
        cfg.dt_policy = DtPolicy::adaptive(Seconds::from_millis(50.0), Seconds::new(3600.0));
        NodeBlueprint {
            env_index,
            policy_index: policy_pick,
            config: cfg,
        }
    }
}

/// One sampled node: its simulation config plus which population buckets
/// it fell into (the aggregate reports fleet composition by these).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeBlueprint {
    /// Environment bucket: 0 = outdoor window, 1 = office, 2 = home.
    pub env_index: usize,
    /// Checkpoint-policy bucket: 0 = retained, 1 = volatile, 2 = none.
    pub policy_index: usize,
    /// The fully-instantiated day-simulation configuration.
    pub config: IntermittentConfig,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_dist_consumes_a_draw() {
        // Two streams, one sampling a constant and one a uniform, must
        // stay aligned for the draws that follow.
        let mut a = 123u64;
        let mut b = 123u64;
        let _ = Dist::Constant(5.0).sample(&mut a);
        let _ = Dist::Uniform { lo: 0.0, hi: 1.0 }.sample(&mut b);
        assert_eq!(a, b, "both variants must advance the stream identically");
        assert_eq!(splitmix64(&mut a), splitmix64(&mut b));
    }

    #[test]
    fn log_uniform_spans_the_declared_range() {
        let d = Dist::LogUniform { lo: 0.01, hi: 10.0 };
        let mut state = 5u64;
        for _ in 0..500 {
            let v = d.sample(&mut state);
            assert!((0.01..10.0).contains(&v), "{v}");
        }
    }

    #[test]
    fn node_configs_are_deterministic_per_seed() {
        let spec = PopulationSpec::representative();
        assert_eq!(spec.node_config(17), spec.node_config(17));
        assert_ne!(spec.node_config(17), spec.node_config(18));
    }

    #[test]
    fn sampled_nodes_satisfy_physical_invariants() {
        let spec = PopulationSpec::representative();
        for seed in 0..100 {
            let cfg = spec.node_config(seed);
            let cf = cfg.faults.degradation.capacity_factor.get();
            assert!(cf > 0.0 && cf <= 1.0, "seed {seed}: capacity {cf}");
            assert!(
                cfg.faults.degradation.esr_scale.get() >= 1.0,
                "seed {seed}: esr below fresh"
            );
            assert!(cfg.base.capacitance.as_farads() > 0.0);
            assert!(
                cfg.base
                    .interactions
                    .windows(2)
                    .all(|w| w[0].as_seconds() <= w[1].as_seconds()),
                "seed {seed}: interactions must be sorted"
            );
        }
    }

    #[test]
    fn set_param_edits_exactly_one_field() {
        let base = PopulationSpec::representative();
        let mut edited = base.clone();
        edited.set_param("office-peak-hi", 900.0).expect("known");
        assert_eq!(
            edited.office_peak_lux,
            Dist::Uniform {
                lo: 250.0,
                hi: 900.0
            }
        );
        // Everything else untouched.
        edited.office_peak_lux = base.office_peak_lux;
        assert_eq!(edited, base);

        let mut shares = base.clone();
        shares.set_param("ladder-share", 0.5).expect("known");
        assert!((shares.ladder_share - 0.5).abs() < 1e-12);

        let err = base
            .clone()
            .set_param("flux-capacitor", 1.21)
            .expect_err("unknown");
        assert!(err.contains("flux-capacitor") && err.contains("office-peak"));
    }

    #[test]
    fn indoor_nodes_carry_no_cloud_transients() {
        let spec = PopulationSpec {
            outdoor_share: 0.0,
            office_share: 1.0,
            home_share: 0.0,
            ..PopulationSpec::representative()
        };
        for seed in 0..30 {
            assert!(spec.node_config(seed).faults.clouds.is_empty());
        }
    }
}
