//! The step-state evaluator: a checked AST plus a seed becomes one
//! node-day's worth of concrete simulation input.
//!
//! Determinism contract, the crate's load-bearing invariant:
//!
//! * The **legacy environment primitives** (`office`, `home`,
//!   `sky_markov`) walk the single SplitMix64 stream seeded
//!   `seed ^ ENV_STREAM_TAG`, in exactly the draw order the
//!   `fleet::env::Environment` enums always used — that is what keeps the
//!   enum wrappers byte-identical through the script path. A scenario has
//!   exactly one light source (checked at load), so this stream has
//!   exactly one walker.
//! * Every **new randomized combinator** instance gets its own private
//!   stream, `derive_seed(seed, SCENARIO_STREAM_TAG, instance)`, with
//!   instances numbered in source order. Streams never interleave, so
//!   adding or editing one combinator never shifts another's draws — the
//!   same stream-stability discipline `PopulationSpec`'s fixed draw
//!   program gives spec edits.
//! * `seeded_cloudy_day()` delegates to
//!   [`FaultPlan::seeded_cloudy_day`], which owns the `FAULT_STREAM_TAG`
//!   stream — byte parity with the hard-coded cloudy-day example.
//!
//! No clocks, no OS entropy, no hashed containers — disallowed by the
//! crate's `clippy.toml` — and no seed arithmetic outside `derive_seed`,
//! enforced by the `seed-discipline` lint.

use solarml_circuit::{CloudTransient, FaultPlan, OutageWindow, SupercapDegradation};
use solarml_platform::{DayProfile, DaySimConfig};
use solarml_sim::seed::{derive_seed, pick_weighted, uniform};
use solarml_units::{Energy, Farads, Power, Ratio, Seconds, Volts};

use crate::ast::{Call, TimeOfDay, UnitSuffix, Value};
use crate::sig::{bind, spec, Kind};

/// Cycle tag for scenario-combinator streams: every randomized combinator
/// instance draws from `derive_seed(seed, SCENARIO_STREAM_TAG, instance)`.
/// Registered with the seed-discipline lint.
pub const SCENARIO_STREAM_TAG: usize = 0x5CE2_AA10;

/// Domain-separation tag for the legacy environment stream: XORed into
/// the caller's seed so weather draws never replay another consumer of
/// the same seed. Moved here from `fleet::env` (which re-exports it) when
/// the environment generators became scenario primitives. Registered with
/// the seed-discipline lint.
pub const ENV_STREAM_TAG: u64 = 0xF1EE_7DAE_11F0_0D5E;

/// Peak direct solar illuminance at normal incidence (lux). The standard
/// full-sun figure; scaled by the sine of the solar elevation.
const DIRECT_SOLAR_LUX: f64 = 130_000.0;

/// Diffuse-sky illuminance scale (lux); grows with the square root of the
/// elevation sine, the usual clear-sky approximation shape.
const DIFFUSE_SKY_LUX: f64 = 12_000.0;

/// Fraction of outdoor illuminance reaching a harvesting array lying flat
/// on a desk near a window: glazing transmission × solid-angle of sky the
/// desk sees.
const WINDOW_DESK_TRANSFER: f64 = 0.005;

/// Hourly Markov sky states with their illuminance retention factors.
const SKY_FACTORS: [f64; 3] = [1.0, 0.55, 0.25]; // clear, partly, overcast

/// Row-stochastic hourly transition matrix between sky states.
const SKY_TRANSITIONS: [[f64; 3]; 3] = [[0.80, 0.15, 0.05], [0.25, 0.55, 0.20], [0.08, 0.32, 0.60]];

/// Initial sky-state weights (≈ the chain's stationary distribution).
const SKY_INITIAL: [f64; 3] = [0.45, 0.35, 0.20];

/// One evaluated node-day: the concrete inputs a scenario contributes to
/// a node's simulation. Fields a scenario does not declare stay `None`
/// so the consumer (population sampling, the parity wrappers) can fall
/// back to its own values.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDay {
    /// The 24-hour illuminance profile after all modifiers.
    pub profile: DayProfile,
    /// Light-source bucket: 0 = outdoor family, 1 = office, 2 = home.
    pub env_bucket: usize,
    /// Whether any fault combinator was present (when `false`, the
    /// consumer keeps its own fault plan).
    pub has_faults: bool,
    /// Cloud transients contributed by fault combinators.
    pub clouds: Vec<CloudTransient>,
    /// Outage windows contributed by fault combinators.
    pub outages: Vec<OutageWindow>,
    /// Supercap aging, when an `aging(...)` or seeded plan declared it.
    pub degradation: Option<SupercapDegradation>,
    /// Interaction schedule, when a workload combinator declared one.
    pub interactions: Option<Vec<Seconds>>,
    /// Supercap capacitance override from `supercap(...)`.
    pub capacitance: Option<Farads>,
}

impl ScenarioDay {
    /// Folds this day's fault declarations over a fallback plan: no fault
    /// combinators means the fallback is kept verbatim; otherwise clouds
    /// and outages are replaced and degradation falls back only when the
    /// scenario did not declare aging.
    pub fn fault_plan(&self, fallback: &FaultPlan) -> FaultPlan {
        if !self.has_faults {
            return fallback.clone();
        }
        FaultPlan {
            clouds: self.clouds.clone(),
            outages: self.outages.clone(),
            degradation: self.degradation.unwrap_or(fallback.degradation),
        }
    }

    /// Builds a standalone [`DaySimConfig`] around this day, using the
    /// workspace's reference operating point (30 mJ budget, 2.4 V start,
    /// 2.2 V threshold, 2.4 µW standby) for everything the scenario did
    /// not override.
    pub fn day_sim_config(&self) -> DaySimConfig {
        DaySimConfig {
            profile: self.profile.clone(),
            budget_per_inference: Energy::from_milli_joules(30.0),
            interactions: self.interactions.clone().unwrap_or_default(),
            capacitance: self.capacitance.unwrap_or(Farads::new(1.0)),
            initial_voltage: Volts::new(2.4),
            inference_threshold: Volts::new(2.2),
            standby_power: Power::from_micro_watts(2.4),
        }
    }
}

/// Evaluates a checked AST for one seed. Callers reach this through
/// [`crate::Scenario::eval`]; the AST is known well-typed, so every
/// binding below resolves and out-of-table names are unreachable.
pub fn eval(root: &Call, seed: u64) -> ScenarioDay {
    let members = members_of(root);
    let mut ctx = EvalCtx {
        seed,
        env_state: seed ^ ENV_STREAM_TAG,
        next_instance: 0,
    };
    let mut day = ScenarioDay {
        profile: DayProfile {
            lux_by_hour: [0.0; 24],
        },
        env_bucket: env_bucket(root),
        has_faults: false,
        clouds: Vec::new(),
        outages: Vec::new(),
        degradation: None,
        interactions: None,
        capacitance: None,
    };
    // Pass 1, source order: the light source fills the profile and every
    // randomized combinator claims its stream. Modifier applications are
    // deferred so that a modifier written before the light source still
    // acts on it — stream assignment, not application order, is what
    // draws depend on.
    let mut modifiers: Vec<(&Call, u64)> = Vec::new();
    for member in &members {
        let kind = spec(&member.name).map(|s| s.kind);
        match kind {
            Some(Kind::Light) => day.profile = eval_light(member, &mut ctx),
            Some(Kind::Modifier) => {
                let stream = if member.name == "markov_clouds" {
                    ctx.claim_stream()
                } else {
                    0
                };
                modifiers.push((member, stream));
            }
            Some(Kind::Fault) => {
                day.has_faults = true;
                eval_fault(member, &mut ctx, &mut day);
            }
            Some(Kind::Workload) => {
                day.interactions = Some(eval_workload(member, &mut ctx));
            }
            Some(Kind::Hardware) => {
                let b = bind(member).map(|(_, b)| b).unwrap_or_default();
                day.capacitance = Some(Farads::new(farads(&b, "capacitance", 1.0)));
            }
            _ => {}
        }
    }
    for (member, stream) in modifiers {
        apply_modifier(member, stream, &mut day.profile);
    }
    day
}

/// Environment bucket of the AST's light source (0 outdoor family,
/// 1 office, 2 home).
pub fn env_bucket(root: &Call) -> usize {
    for member in members_of(root) {
        match member.name.as_str() {
            "office" | "office_table" => return 1,
            "home" => return 2,
            "clear_sky" | "sky_markov" | "constant" => return 0,
            _ => {}
        }
    }
    0
}

/// The overlay's members, or the call itself when the top level is a
/// bare light source.
fn members_of(root: &Call) -> Vec<&Call> {
    if root.name == "overlay" {
        root.args
            .iter()
            .filter_map(|a| match &a.value {
                Value::Call(c) => Some(c),
                _ => None,
            })
            .collect()
    } else {
        vec![root]
    }
}

struct EvalCtx {
    seed: u64,
    /// The legacy environment stream — one walker per scenario.
    env_state: u64,
    /// Next scenario-combinator instance index.
    next_instance: usize,
}

impl EvalCtx {
    /// Claims the next per-instance stream seed.
    fn claim_stream(&mut self) -> u64 {
        let instance = self.next_instance;
        self.next_instance += 1;
        derive_seed(self.seed, SCENARIO_STREAM_TAG, instance)
    }
}

// --- binding helpers -------------------------------------------------

type Binding<'a> = crate::sig::Binding<'a>;

fn bound<'a>(call: &'a Call) -> Binding<'a> {
    bind(call).map(|(_, b)| b).unwrap_or_default()
}

fn num(b: &Binding<'_>, name: &str, default: f64) -> f64 {
    match b.get(name) {
        Some(Value::Num(v)) => *v,
        _ => default,
    }
}

fn quantity(b: &Binding<'_>, name: &str, unit: UnitSuffix, default: f64) -> f64 {
    match b.get(name) {
        Some(Value::Quantity(v, u)) if *u == unit => *v,
        _ => default,
    }
}

fn farads(b: &Binding<'_>, name: &str, default: f64) -> f64 {
    quantity(b, name, UnitSuffix::Farad, default)
}

fn duration_s(b: &Binding<'_>, name: &str, default: f64) -> f64 {
    match b.get(name) {
        Some(Value::Quantity(v, UnitSuffix::Sec)) => *v,
        Some(Value::Quantity(v, UnitSuffix::Min)) => *v * 60.0,
        _ => default,
    }
}

fn time_s(b: &Binding<'_>, name: &str, default: f64) -> f64 {
    match b.get(name) {
        Some(Value::Time(t)) => t.as_seconds(),
        _ => default,
    }
}

fn span_s(b: &Binding<'_>, name: &str, default: (f64, f64)) -> (f64, f64) {
    match b.get(name) {
        Some(Value::Span(from, to)) => (from.as_seconds(), to.as_seconds()),
        _ => default,
    }
}

fn span_value(value: &Value) -> Option<(TimeOfDay, TimeOfDay)> {
    match value {
        Value::Span(from, to) => Some((*from, *to)),
        _ => None,
    }
}

// --- light sources ---------------------------------------------------

fn eval_light(call: &Call, ctx: &mut EvalCtx) -> DayProfile {
    let b = bound(call);
    let mut lux = [0.0_f64; 24];
    match call.name.as_str() {
        "clear_sky" => {
            let lat = quantity(&b, "lat", UnitSuffix::Deg, 47.6);
            let doy = num(&b, "doy", 172.0).max(0.0) as u32;
            for (h, v) in lux.iter_mut().enumerate() {
                *v = clear_sky_desk_lux(lat, doy, h as f64 + 0.5);
            }
        }
        "sky_markov" => {
            let lat = quantity(&b, "lat", UnitSuffix::Deg, 47.6);
            let doy = num(&b, "doy", 172.0).max(0.0) as u32;
            let mut sky = pick_weighted(&mut ctx.env_state, &SKY_INITIAL);
            for (h, v) in lux.iter_mut().enumerate() {
                // Advance the weather chain every hour, including dark
                // ones, so the same seed carries the same weather
                // regardless of latitude-dependent day length.
                sky = pick_weighted(&mut ctx.env_state, &SKY_TRANSITIONS[sky]);
                let clear = clear_sky_desk_lux(lat, doy, h as f64 + 0.5);
                *v = (clear * SKY_FACTORS[sky]).max(0.05);
            }
        }
        "office" => {
            let peak = quantity(&b, "peak", UnitSuffix::Lux, 800.0);
            let base = DayProfile::office();
            let scale = peak / 800.0;
            for (h, v) in lux.iter_mut().enumerate() {
                let jitter = uniform(&mut ctx.env_state, 0.85, 1.15);
                let nominal = base.lux_by_hour[h];
                *v = if nominal > 1.0 {
                    nominal * scale * jitter
                } else {
                    nominal
                };
            }
        }
        "office_table" => {
            // The deterministic office schedule `stressed_office_day`
            // scales: lit hours move with `peak`, dark hours stay put.
            let peak = quantity(&b, "peak", UnitSuffix::Lux, 800.0);
            let base = DayProfile::office();
            let scale = peak / 800.0;
            for (h, v) in lux.iter_mut().enumerate() {
                let nominal = base.lux_by_hour[h];
                *v = if nominal > 1.0 {
                    nominal * scale
                } else {
                    nominal
                };
            }
        }
        "home" => {
            let p = quantity(&b, "peak", UnitSuffix::Lux, 300.0);
            for (h, v) in lux.iter_mut().enumerate() {
                let jitter = uniform(&mut ctx.env_state, 0.85, 1.15);
                let nominal = match h {
                    7..=8 => 0.6 * p,
                    9..=16 => 0.15 * p,
                    17 => 0.5 * p,
                    18..=21 => p,
                    22 => 0.4 * p,
                    _ => 1.0,
                };
                *v = if nominal > 1.0 {
                    nominal * jitter
                } else {
                    nominal
                };
            }
        }
        "constant" => {
            let level = quantity(&b, "level", UnitSuffix::Lux, 0.0);
            lux = [level; 24];
        }
        _ => {}
    }
    DayProfile { lux_by_hour: lux }
}

/// Clear-sky illuminance at the window desk for solar-time `hour`
/// (fractional, 0–24) at `latitude_deg` on `day_of_year`: direct
/// component proportional to the solar-elevation sine plus a diffuse
/// term, through the window/desk transfer. Zero when the sun is below
/// the horizon.
pub fn clear_sky_desk_lux(latitude_deg: f64, day_of_year: u32, hour: f64) -> f64 {
    let phi = latitude_deg.to_radians();
    // Cooper's declination approximation, in phase with the solstices.
    let declination = (-23.44_f64).to_radians()
        * (std::f64::consts::TAU * (day_of_year as f64 + 10.0) / 365.0).cos();
    let hour_angle = (15.0 * (hour - 12.0)).to_radians();
    let sin_elevation =
        phi.sin() * declination.sin() + phi.cos() * declination.cos() * hour_angle.cos();
    if sin_elevation <= 0.0 {
        return 0.0;
    }
    let outdoor = DIRECT_SOLAR_LUX * sin_elevation + DIFFUSE_SKY_LUX * sin_elevation.sqrt();
    outdoor * WINDOW_DESK_TRANSFER
}

// --- modifiers -------------------------------------------------------

fn apply_modifier(call: &Call, stream: u64, profile: &mut DayProfile) {
    let b = bound(call);
    match call.name.as_str() {
        "markov_clouds" => {
            let p = num(&b, "p", 0.3);
            let mut state = stream;
            for v in &mut profile.lux_by_hour {
                // Fixed draw count per hour: the gate and the factor are
                // both always drawn, so editing `p` changes only the
                // hours whose gate crosses the threshold — every other
                // hour (and therefore every unaffected node-day content
                // key) stays bit-identical.
                let gate = uniform(&mut state, 0.0, 1.0);
                let factor = uniform(&mut state, 0.2, 0.7);
                if gate < p {
                    *v *= factor;
                }
            }
        }
        "scale" => {
            let by = num(&b, "by", 1.0);
            for v in &mut profile.lux_by_hour {
                *v *= by;
            }
        }
        "blinds" => {
            let (open_from, open_to) = span_s(&b, "open", (9.0 * 3600.0, 17.0 * 3600.0));
            let transmit = num(&b, "transmit", 0.25);
            for (h, v) in profile.lux_by_hour.iter_mut().enumerate() {
                let center = (h as f64 + 0.5) * 3600.0;
                if !(open_from..open_to).contains(&center) {
                    *v *= transmit;
                }
            }
        }
        "windows" => {
            let spans: Vec<(f64, f64)> = call
                .args
                .iter()
                .filter_map(|a| span_value(&a.value))
                .map(|(from, to)| (from.as_seconds(), to.as_seconds()))
                .collect();
            for (h, v) in profile.lux_by_hour.iter_mut().enumerate() {
                let center = (h as f64 + 0.5) * 3600.0;
                if !spans
                    .iter()
                    .any(|(from, to)| (*from..*to).contains(&center))
                {
                    *v = 0.0;
                }
            }
        }
        _ => {}
    }
}

// --- faults ----------------------------------------------------------

fn eval_fault(call: &Call, ctx: &mut EvalCtx, day: &mut ScenarioDay) {
    let b = bound(call);
    match call.name.as_str() {
        "outage" => {
            for arg in &call.args {
                if let Some((from, to)) = span_value(&arg.value) {
                    day.outages.push(OutageWindow {
                        at: Seconds::new(from.as_seconds()),
                        duration: Seconds::new(to.as_seconds() - from.as_seconds()),
                    });
                }
            }
        }
        "random_outages" => {
            let n = num(&b, "n", 1.0).max(0.0) as usize;
            let (lo, hi) = span_s(&b, "window", (8.0 * 3600.0, 21.0 * 3600.0));
            let mut state = ctx.claim_stream();
            for _ in 0..n {
                let at = uniform(&mut state, lo, hi);
                let duration = uniform(&mut state, 60.0, 600.0);
                day.outages.push(OutageWindow {
                    at: Seconds::new(at),
                    duration: Seconds::new(duration),
                });
            }
        }
        "random_clouds" => {
            let n = num(&b, "n", 4.0).max(0.0) as usize;
            let depth_lo = num(&b, "depth_lo", 0.4);
            let depth_hi = num(&b, "depth_hi", 0.95).max(depth_lo);
            let mut state = ctx.claim_stream();
            for _ in 0..n {
                let at = uniform(&mut state, 7.0 * 3600.0, 19.0 * 3600.0);
                let duration = uniform(&mut state, 180.0, 1500.0);
                let depth = uniform(&mut state, depth_lo, depth_hi);
                let ramp = uniform(&mut state, 20.0, 120.0);
                day.clouds.push(CloudTransient {
                    at: Seconds::new(at),
                    duration: Seconds::new(duration),
                    depth: Ratio::new(depth),
                    ramp: Seconds::new(ramp),
                });
            }
        }
        "flaky_harvester" => {
            // Many short disconnects: a loose wire, not the weather.
            let n = num(&b, "n", 24.0).max(0.0) as usize;
            let mut state = ctx.claim_stream();
            for _ in 0..n {
                let at = uniform(&mut state, 6.0 * 3600.0, 22.0 * 3600.0);
                let duration = uniform(&mut state, 5.0, 45.0);
                day.outages.push(OutageWindow {
                    at: Seconds::new(at),
                    duration: Seconds::new(duration),
                });
            }
        }
        "seeded_cloudy_day" => {
            let plan = FaultPlan::seeded_cloudy_day(ctx.seed);
            day.clouds.extend(plan.clouds);
            day.outages.extend(plan.outages);
            day.degradation = Some(plan.degradation);
        }
        "aging" => {
            let capacity = num(&b, "capacity", 1.0);
            let esr = num(&b, "esr", 1.0).max(1.0);
            day.degradation = Some(SupercapDegradation {
                capacity_factor: Ratio::new(capacity),
                esr_scale: Ratio::new(esr),
            });
        }
        _ => {}
    }
}

// --- workloads -------------------------------------------------------

fn eval_workload(call: &Call, ctx: &mut EvalCtx) -> Vec<Seconds> {
    let b = bound(call);
    match call.name.as_str() {
        "interactions_every" => {
            let period = duration_s(&b, "period", 600.0);
            let count = num(&b, "count", 0.0).max(0.0) as usize;
            let from = time_s(&b, "from", 8.0 * 3600.0);
            (0..count)
                .map(|i| Seconds::new(from + i as f64 * period))
                .collect()
        }
        "random_interactions" => {
            let n = num(&b, "n", 0.0).max(0.0) as usize;
            let (lo, hi) = span_s(&b, "window", (8.0 * 3600.0, 22.0 * 3600.0));
            let mut state = ctx.claim_stream();
            let mut times: Vec<f64> = (0..n).map(|_| uniform(&mut state, lo, hi)).collect();
            times.sort_by(f64::total_cmp);
            times.into_iter().map(Seconds::new).collect()
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scenario;

    fn eval_src(src: &str, seed: u64) -> ScenarioDay {
        Scenario::parse(src).expect("parses").eval(seed)
    }

    #[test]
    fn evaluation_is_deterministic_and_seed_sensitive() {
        let src = "overlay(sky_markov(lat: 48 deg), markov_clouds(p: 0.4), random_outages(n: 2))";
        assert_eq!(eval_src(src, 7), eval_src(src, 7));
        assert_ne!(eval_src(src, 7).profile, eval_src(src, 8).profile);
    }

    #[test]
    fn combinator_streams_are_independent() {
        // Adding a second randomized combinator must not shift the first
        // one's draws: each instance owns a derived stream.
        let lone = eval_src(
            "overlay(office_table(peak: 800 lux), random_outages(n: 2))",
            5,
        );
        let paired = eval_src(
            "overlay(office_table(peak: 800 lux), random_outages(n: 2), random_interactions(n: 4))",
            5,
        );
        assert_eq!(lone.outages, paired.outages);
    }

    #[test]
    fn markov_clouds_edit_changes_only_gated_hours() {
        let base = eval_src(
            "overlay(office_table(peak: 800 lux), markov_clouds(p: 0.3))",
            11,
        );
        let edited = eval_src(
            "overlay(office_table(peak: 800 lux), markov_clouds(p: 0.4))",
            11,
        );
        let flat = eval_src("office_table(peak: 800 lux)", 11);
        let mut changed = 0usize;
        for h in 0..24 {
            let b = base.profile.lux_by_hour[h];
            let e = edited.profile.lux_by_hour[h];
            if b.to_bits() != e.to_bits() {
                changed += 1;
                // Every changed hour went from un-attenuated to
                // attenuated: its gate draw sits in (0.3, 0.4].
                assert_eq!(b.to_bits(), flat.profile.lux_by_hour[h].to_bits());
                assert!(e < b);
            }
        }
        assert!(changed < 24, "a one-token edit must not move every hour");
    }

    #[test]
    fn fixed_outage_spans_lower_to_windows() {
        let day = eval_src("overlay(office(peak: 800 lux), outage(12:00..13:00))", 3);
        assert_eq!(day.outages.len(), 1);
        assert_eq!(day.outages[0].at.as_seconds(), 12.0 * 3600.0);
        assert_eq!(day.outages[0].duration.as_seconds(), 3600.0);
        assert!(day.has_faults);
    }

    #[test]
    fn windows_mask_and_blinds_attenuate() {
        let day = eval_src(
            "overlay(constant(level: 100 lux), windows(07:00..08:00, 17:00..18:00))",
            1,
        );
        assert_eq!(day.profile.lux_by_hour[7], 100.0);
        assert_eq!(day.profile.lux_by_hour[17], 100.0);
        assert_eq!(day.profile.lux_by_hour[12], 0.0);

        let day = eval_src(
            "overlay(constant(level: 100 lux), blinds(open: 09:00..17:00, transmit: 0.25))",
            1,
        );
        assert_eq!(day.profile.lux_by_hour[12], 100.0);
        assert_eq!(day.profile.lux_by_hour[3], 25.0);
    }

    #[test]
    fn interactions_every_matches_the_stressed_schedule() {
        let day = eval_src(
            "overlay(office_table(peak: 800 lux), \
             interactions_every(period: 600 s, count: 60, from: 08:00))",
            0,
        );
        let ints = day.interactions.expect("declared");
        assert_eq!(ints.len(), 60);
        assert_eq!(ints[0].as_seconds(), 8.0 * 3600.0);
        assert_eq!(ints[59].as_seconds(), 8.0 * 3600.0 + 59.0 * 600.0);
    }

    #[test]
    fn seeded_cloudy_day_delegates_byte_for_byte() {
        let day = eval_src(
            "overlay(office_table(peak: 200 lux), seeded_cloudy_day())",
            42,
        );
        let plan = FaultPlan::seeded_cloudy_day(42);
        assert_eq!(day.clouds, plan.clouds);
        assert_eq!(day.outages, plan.outages);
        assert_eq!(day.degradation, Some(plan.degradation));
    }

    #[test]
    fn env_buckets_follow_the_light_source() {
        assert_eq!(eval_src("office(peak: 1 lux)", 0).env_bucket, 1);
        assert_eq!(eval_src("home(peak: 1 lux)", 0).env_bucket, 2);
        assert_eq!(eval_src("clear_sky(lat: 48 deg)", 0).env_bucket, 0);
    }
}
