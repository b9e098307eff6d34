//! The intermittency-aware runtime: resumable lifecycle runs under a
//! [`FaultPlan`], with checkpoint/restore and graceful degradation.
//!
//! [`crate::endtoend::simulate_day`] assumes every sensing→inference cycle
//! that starts also finishes — no real solar-powered node does that under
//! the paper's 200–600 lux conditions once clouds, connector faults and an
//! aged supercap enter the picture. This module replays a day against a
//! seeded [`FaultPlan`] with the full electrical stack in the loop:
//!
//! * the **physical** supercap is built by the plan (possibly degraded),
//!   while the runtime's energy gate keeps planning with the *nominal*
//!   capacitance — exactly the mismatch that produces mid-task brownouts
//!   the plan said could not happen;
//! * a [`BrownoutComparator`] watches the ESR-sagged terminal voltage and
//!   cuts the MCU (via [`Mcu::brownout`]) when it crosses the threshold;
//! * task phases ([`TaskPhase`]) checkpoint at phase boundaries under a
//!   volatile-vs-retained-RAM cost model ([`CheckpointPolicy`]);
//! * interrupted cycles retry with bounded wait-for-energy backoff instead
//!   of returning an opaque error;
//! * when the energy at wake cannot cover the full model, the runtime
//!   downshifts along a [`DegradationLadder`] (earlier exits of the
//!   `nn::multi_exit` model, or coarser sensing) and reports the
//!   accuracy/energy trade taken.
//!
//! Every joule flows through [`Supercap::step`] and is folded into the
//! [`EnergyAudit`] ledger on the co-simulation bus, so injected faults
//! cannot silently create or destroy energy: a healthy run keeps the
//! accumulated conservation residual below a nanojoule. The whole day is
//! driven by one [`Scheduler`] clock: the MCU state machine and the
//! electrical rail are [`Clocked`] components exchanging signals over a
//! [`SimBus`], and the runtime's control flow (retries, suspends,
//! checkpoint windows) observes bus events between steps. The simulation
//! is seeded and wall-clock free — identical configs yield bit-identical
//! [`DayFaultReport`]s.

use solarml_circuit::fault::{BrownoutComparator, BrownoutThresholds, FaultPlan, PowerEvent};
use solarml_circuit::harvest::HarvestingArray;
use solarml_circuit::sim::{EnergyAudit, ADAPTIVE_EPS_V};
use solarml_circuit::Supercap;
use solarml_mcu::{Mcu, McuPowerModel, PowerState};
use solarml_sim::{Clocked, DtPolicy, Scheduler, SimBus, SimEvent, StepControl, StepOutcome};
use solarml_trace::JsonObject;
use solarml_units::{Amps, Energy, Farads, Lux, Power, Ratio, Seconds, Volts};

use crate::endtoend::DaySimConfig;
use crate::lifecycle::{LifecycleError, TaskPhase, TaskProfile};

/// Durations and powers of the three task phases, the unit of work the
/// runtime schedules and checkpoints. Derive one from a [`TaskProfile`]
/// with [`PhasePlan::from_task`], or use the dependency-free
/// [`PhasePlan::representative_gesture`] in examples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhasePlan {
    /// Tickless sampling window.
    pub sense_duration: Seconds,
    /// Total MCU power while sampling.
    pub sense_power: Power,
    /// Preprocessing compute time.
    pub process_duration: Seconds,
    /// MCU power while preprocessing (active draw).
    pub process_power: Power,
    /// Inference time of the *full* model (a [`DegradationRung`] scales it).
    pub infer_duration: Seconds,
    /// MCU power while inferring (active draw).
    pub infer_power: Power,
}

impl PhasePlan {
    /// Derives the plan from a task profile and MCU power model.
    pub fn from_task(task: &TaskProfile, mcu: &McuPowerModel) -> Self {
        Self {
            sense_duration: task.sampling_duration(),
            sense_power: task.sampling_power(mcu),
            process_duration: task.processing_duration(mcu),
            process_power: mcu.active,
            infer_duration: task.inference_duration(mcu),
            infer_power: mcu.active,
        }
    }

    /// A representative gesture task sized so day-scale fault scenarios
    /// exercise the interesting regime (tens of millijoules per cycle,
    /// inference-dominated so the degradation ladder has leverage).
    pub fn representative_gesture() -> Self {
        let mcu = McuPowerModel::default();
        Self {
            sense_duration: Seconds::new(2.0),
            sense_power: Power::from_milli_watts(1.2),
            process_duration: Seconds::new(0.3),
            process_power: mcu.active,
            infer_duration: Seconds::new(1.2),
            infer_power: mcu.active,
        }
    }

    /// Duration of `phase` at degradation rung `rung`.
    pub fn duration(&self, phase: TaskPhase, rung: &DegradationRung) -> Seconds {
        match phase {
            TaskPhase::Sense => self.sense_duration * rung.sense_scale,
            // Preprocessing work tracks the number of captured samples.
            TaskPhase::Process => self.process_duration * rung.sense_scale,
            TaskPhase::Infer => self.infer_duration * rung.infer_scale,
        }
    }

    /// MCU power during `phase` (rung-independent; degradation shortens
    /// phases rather than changing draws).
    pub fn power(&self, phase: TaskPhase) -> Power {
        match phase {
            TaskPhase::Sense => self.sense_power,
            TaskPhase::Process => self.process_power,
            TaskPhase::Infer => self.infer_power,
        }
    }

    /// Energy of `phase` at `rung`.
    pub fn energy(&self, phase: TaskPhase, rung: &DegradationRung) -> Energy {
        self.power(phase) * self.duration(phase, rung)
    }
}

/// One rung of the degradation ladder: how much of the full sensing window
/// and inference to run, and the estimated accuracy retained.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationRung {
    /// Human-readable name (`"full"`, `"exit-1"`, `"coarse-sense"`, …).
    pub name: String,
    /// Fraction of the full sensing window captured.
    pub sense_scale: Ratio,
    /// Fraction of the full inference executed (an early exit's MAC share).
    pub infer_scale: Ratio,
    /// Estimated fraction of full-model accuracy retained at this rung.
    pub accuracy_proxy: Ratio,
}

impl DegradationRung {
    /// The undegraded configuration.
    pub fn full() -> Self {
        Self {
            name: "full".to_string(),
            sense_scale: Ratio::ONE,
            infer_scale: Ratio::ONE,
            accuracy_proxy: Ratio::ONE,
        }
    }
}

/// The graceful-degradation ladder, ordered best-first: rung 0 is the full
/// configuration, later rungs trade accuracy for energy. The runtime picks
/// the *first* rung whose remaining-work budget fits the energy at wake.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationLadder {
    rungs: Vec<DegradationRung>,
}

impl DegradationLadder {
    /// A ladder with only the full configuration — the "naive" runtime that
    /// would rather fail than degrade.
    pub fn full_only() -> Self {
        Self {
            rungs: vec![DegradationRung::full()],
        }
    }

    /// Builds the ladder from a multi-exit model's per-exit cumulative MAC
    /// counts (earliest exit first, as returned by
    /// `nn::multi_exit::MultiExitModel::exit_macs`). Rung 0 is the final
    /// exit (the full model); each earlier exit becomes a cheaper rung with
    /// `infer_scale = macs_i / macs_final`. The accuracy proxy is linear in
    /// the retained MAC share, calibrated to the ~30 % relative accuracy
    /// an earliest exit typically gives up: `1 − 0.3·(1 − share)`.
    ///
    /// # Panics
    ///
    /// Panics if `exit_macs` is empty or its final entry is zero.
    pub fn from_exit_macs(exit_macs: &[u64]) -> Self {
        let Some(&full) = exit_macs.last() else {
            panic!("exit_macs must not be empty");
        };
        assert!(full > 0, "final exit must have nonzero MACs");
        let mut rungs = vec![DegradationRung::full()];
        for (i, &macs) in exit_macs.iter().enumerate().rev().skip(1) {
            let share = macs as f64 / full as f64;
            rungs.push(DegradationRung {
                name: format!("exit-{i}"),
                sense_scale: Ratio::ONE,
                infer_scale: Ratio::new(share),
                accuracy_proxy: Ratio::new(1.0 - 0.3 * (1.0 - share)),
            });
        }
        Self { rungs }
    }

    /// Appends a coarse-sensing rung below everything else: the cheapest
    /// existing inference paired with a truncated sensing window.
    pub fn with_coarse_sensing(mut self, sense_scale: Ratio, accuracy_proxy: Ratio) -> Self {
        let cheapest = self
            .rungs
            .last()
            .map(|r| r.infer_scale)
            .unwrap_or(Ratio::ONE);
        self.rungs.push(DegradationRung {
            name: "coarse-sense".to_string(),
            sense_scale,
            infer_scale: cheapest,
            accuracy_proxy,
        });
        self
    }

    /// The rungs, best (full) first.
    pub fn rungs(&self) -> &[DegradationRung] {
        &self.rungs
    }
}

/// Where checkpoints live, which determines what survives a brownout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CheckpointPolicy {
    /// No checkpoints: any interruption restarts the cycle from scratch.
    None,
    /// Progress markers in ordinary SRAM: free, and completed phases
    /// survive a *voluntary* suspend on [`PowerEvent::BrownoutWarn`]
    /// (power stays up in standby) — but a full brownout wipes them.
    Volatile,
    /// Phase snapshots written to retained RAM / FRAM: each phase boundary
    /// pays a save cost and the region draws retention power, but progress
    /// survives a full power-loss brownout and resumes after cold boot +
    /// restore.
    Retained,
}

/// Energy/time cost model of the retained-checkpoint path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CheckpointCostModel {
    /// Energy to serialize one phase snapshot into the retained region.
    pub save_energy: Energy,
    /// Wall time of one save (the snapshot is vulnerable until done).
    pub save_duration: Seconds,
    /// Energy to restore a snapshot after a cold boot.
    pub restore_energy: Energy,
    /// Wall time of one restore.
    pub restore_duration: Seconds,
    /// Standby draw of the retained region while a checkpoint is live.
    pub retention_power: Power,
}

impl Default for CheckpointCostModel {
    /// FRAM/backup-SRAM scale: ~120 µJ to save, ~60 µJ to restore, 1.5 µW
    /// retention.
    fn default() -> Self {
        Self {
            save_energy: Energy::from_micro_joules(120.0),
            save_duration: Seconds::from_millis(8.0),
            restore_energy: Energy::from_micro_joules(60.0),
            restore_duration: Seconds::from_millis(4.0),
            retention_power: Power::from_micro_watts(1.5),
        }
    }
}

/// Configuration of an intermittency-aware day simulation.
///
/// `base.budget_per_inference` is superseded by the phase-resolved
/// [`PhasePlan`]; the other [`DaySimConfig`] fields (profile, interaction
/// schedule, supercap sizing, thresholds, standby draw) are used as-is.
#[derive(Debug, Clone, PartialEq)]
pub struct IntermittentConfig {
    /// The fault-free day this run perturbs.
    pub base: DaySimConfig,
    /// The seeded fault schedule.
    pub faults: FaultPlan,
    /// Brownout supervisor thresholds.
    pub thresholds: BrownoutThresholds,
    /// Phase durations/powers of the task.
    pub plan: PhasePlan,
    /// The degradation ladder (rung 0 = full).
    pub ladder: DegradationLadder,
    /// Checkpoint placement policy.
    pub checkpoint: CheckpointPolicy,
    /// Costs of the retained-checkpoint path.
    pub checkpoint_costs: CheckpointCostModel,
    /// MCU power model.
    pub mcu: McuPowerModel,
    /// Brownout retries allowed per cycle before abandoning.
    pub max_retries: usize,
    /// Idle wait between energy-gate checks (wait-for-energy backoff), and
    /// the longest a warned task will stay suspended hoping for recovery.
    pub retry_backoff: Seconds,
    /// Fine timestep while the MCU is running a task.
    pub active_dt: Seconds,
    /// Timestep policy of the day's scheduler clock. [`DtPolicy::fixed`]
    /// reproduces the legacy stepping bit-for-bit; an adaptive policy lets
    /// the clock stretch through dead/idle windows.
    pub dt_policy: DtPolicy,
}

impl IntermittentConfig {
    /// The naive-restart runtime: no checkpoints, no degradation — every
    /// interruption loses all progress and only the full model ever runs.
    pub fn naive(base: DaySimConfig, faults: FaultPlan, plan: PhasePlan) -> Self {
        Self {
            base,
            faults,
            thresholds: BrownoutThresholds::default(),
            plan,
            ladder: DegradationLadder::full_only(),
            checkpoint: CheckpointPolicy::None,
            checkpoint_costs: CheckpointCostModel::default(),
            mcu: McuPowerModel::default(),
            max_retries: 3,
            retry_backoff: Seconds::new(30.0),
            active_dt: Seconds::from_millis(10.0),
            dt_policy: DtPolicy::fixed(),
        }
    }

    /// The resilient runtime: retained checkpoints plus the given
    /// degradation ladder.
    pub fn resilient(
        base: DaySimConfig,
        faults: FaultPlan,
        plan: PhasePlan,
        ladder: DegradationLadder,
    ) -> Self {
        Self {
            ladder,
            checkpoint: CheckpointPolicy::Retained,
            ..Self::naive(base, faults, plan)
        }
    }
}

/// Outcome of one simulated day under faults. All counters are exact and
/// the energy fields reconcile against the embedded [`EnergyAudit`] ledger
/// (conservation residual ≤ 1 nJ on a healthy run).
#[derive(Debug, Clone, PartialEq)]
pub struct DayFaultReport {
    /// Interaction cycles the user attempted.
    pub attempted: usize,
    /// Cycles that ran to a completed inference.
    pub completed: usize,
    /// Brownout interruptions suffered while a task was running.
    pub interrupted: usize,
    /// Boots or warn-suspends that resumed earlier progress instead of
    /// restarting from scratch.
    pub resumed: usize,
    /// Cycles abandoned (retries or energy exhausted).
    pub abandoned: usize,
    /// Completed cycles that ran below the full rung.
    pub degraded: usize,
    /// Brownout warnings emitted by the comparator.
    pub warns: usize,
    /// Brownouts emitted by the comparator.
    pub brownouts: usize,
    /// Recoveries emitted by the comparator.
    pub recoveries: usize,
    /// Completions per ladder rung (index-aligned with the config ladder).
    pub rung_completions: Vec<usize>,
    /// Mean accuracy proxy over completed cycles (1.0 when none degraded,
    /// 0.0 when nothing completed).
    pub mean_accuracy: Ratio,
    /// Energy delivered into the supercap over the day.
    pub harvested: Energy,
    /// Energy drawn by all loads over the day.
    pub consumed: Energy,
    /// Energy spent on task progress that was subsequently lost.
    pub wasted: Energy,
    /// Energy spent on checkpoint save/restore/retention.
    pub checkpoint_overhead: Energy,
    /// Total time the MCU sat dead in brownout windows.
    pub dead_window: Seconds,
    /// Supercap voltage at midnight.
    pub final_voltage: Volts,
    /// Minimum supercap voltage seen.
    pub min_voltage: Volts,
    /// The conservation ledger for the whole day.
    pub audit: EnergyAudit,
}

impl DayFaultReport {
    /// Renders the report as a JSON document via the workspace's shared
    /// byte-stable writer ([`solarml_trace::JsonObject`]; the workspace has
    /// no JSON dependency). Numeric formatting uses Rust's shortest
    /// round-trip `f64` representation, so identical reports produce
    /// byte-identical JSON — the exact bytes are pinned by the golden
    /// fixtures in `tests/golden/`.
    pub fn to_json(&self) -> String {
        self.to_json_object().render()
    }

    /// The report as a [`JsonObject`], for embedding in larger documents
    /// (the cloudy-day example nests two of these; fleet campaigns embed
    /// per-cohort summaries).
    pub fn to_json_object(&self) -> JsonObject {
        let mut obj = JsonObject::new();
        obj.count("attempted", self.attempted)
            .count("completed", self.completed)
            .count("interrupted", self.interrupted)
            .count("resumed", self.resumed)
            .count("abandoned", self.abandoned)
            .count("degraded", self.degraded)
            .count("brownout_warns", self.warns)
            .count("brownouts", self.brownouts)
            .count("recoveries", self.recoveries)
            .counts("rung_completions", &self.rung_completions)
            .number("mean_accuracy", self.mean_accuracy.get())
            .number("harvested_j", self.harvested.as_joules())
            .number("consumed_j", self.consumed.as_joules())
            .number("wasted_j", self.wasted.as_joules())
            .number(
                "checkpoint_overhead_j",
                self.checkpoint_overhead.as_joules(),
            )
            .number("dead_window_s", self.dead_window.as_seconds())
            .number("final_voltage_v", self.final_voltage.as_volts())
            .number("min_voltage_v", self.min_voltage.as_volts())
            .number("audit_discrepancy_j", self.audit.discrepancy.as_joules());
        obj
    }
}

/// How one attempt to run (or finish) a cycle ended.
enum AttemptEnd {
    /// All phases done.
    Completed,
    /// Interrupted; the caller decides whether to retry.
    Interrupted(LifecycleError),
}

/// The electrical side of the faulted day as one [`Clocked`] component:
/// fault-modulated harvesting, the (possibly degraded) supercap, standby /
/// retention / checkpoint-overhead loads and the brownout comparator.
///
/// Each step it reads the MCU's pre-advance draw and metered energy off
/// the bus (the MCU component must be listed first), pushes every flow
/// through [`Supercap::step`] into the bus ledger, and republishes rail
/// state plus any comparator event.
struct Rail<'a> {
    cfg: &'a IntermittentConfig,
    array: HarvestingArray,
    cap: Supercap,
    comparator: BrownoutComparator,
    /// Extra load of an in-flight checkpoint save/restore window.
    extra: Power,
    /// Whether a retained checkpoint is live (draws retention power).
    retained_live: bool,
    min_voltage: Volts,
    /// MCU-side energy spent since the last durable point of the current
    /// attempt (lost if a brownout hits now).
    unsaved: Energy,
    checkpoint_overhead: Energy,
    warns: usize,
    brownouts: usize,
    recoveries: usize,
}

impl Clocked for Rail<'_> {
    fn step(&mut self, t: Seconds, dt: Seconds, bus: &mut SimBus) -> StepOutcome {
        let lux = self.cfg.base.profile.lux_at(t) * self.cfg.faults.lux_factor(t);
        let charge = if self.cfg.faults.harvester_connected(t) {
            self.array
                .charging_current(lux, self.cap.voltage(), |_| Ratio::ZERO)
        } else {
            Amps::ZERO
        };
        // While browned out the supervisor latches the whole rail off (the
        // Fig. 5 MOSFET network physically disconnects the load), so only
        // the cap's own leakage drains storage and recharge is possible.
        // Retained checkpoints are FRAM-like: they persist unpowered.
        let rail_up = !self.comparator.is_browned_out();
        let retention = if self.retained_live && rail_up {
            self.cfg.checkpoint_costs.retention_power
        } else {
            Power::ZERO
        };
        let standby = if rail_up {
            self.cfg.base.standby_power
        } else {
            Power::ZERO
        };
        let load = bus.mcu_load + standby + retention + self.extra;
        let flows = self.cap.step(dt, charge, load);
        bus.record(flows.into());
        // physics-lint: allow(ledger-coverage): unsaved-work meter, not an energy ledger — the joules themselves flow through bus.record above
        self.unsaved += bus.mcu_spent + self.extra * dt;
        // physics-lint: allow(ledger-coverage): derived checkpoint-overhead metric; the underlying draw is already in the bus flows recorded above
        self.checkpoint_overhead += (self.extra + retention) * dt;
        self.min_voltage = self.min_voltage.min(self.cap.voltage());
        let event = self.comparator.observe(self.cap.terminal_voltage(load));
        match event {
            Some(PowerEvent::BrownoutWarn) => {
                self.warns += 1;
                bus.emit(SimEvent::BrownoutWarn);
            }
            Some(PowerEvent::Brownout) => {
                self.brownouts += 1;
                bus.emit(SimEvent::Brownout);
            }
            Some(PowerEvent::Recovered) => {
                self.recoveries += 1;
                bus.emit(SimEvent::Recovered);
            }
            None => {}
        }
        bus.illuminance = lux;
        bus.rail_voltage = self.cap.voltage();
        bus.rail_connected = rail_up;
        bus.load_power = load;
        let hint = self.cap.stable_dt(charge, load, ADAPTIVE_EPS_V);
        StepOutcome::hint(hint).with_edge(event.is_some())
    }
}

/// The day-scale simulation engine. One instance per run; everything is
/// deterministic given the config. The [`Scheduler`] owns the single
/// monotonic clock; the engine's methods are the control flow *between*
/// steps, reacting to [`SimEvent`]s the rail publishes.
struct Engine<'a> {
    cfg: &'a IntermittentConfig,
    sched: Scheduler,
    bus: SimBus,
    mcu: Mcu,
    rail: Rail<'a>,
    // Report counters.
    attempted: usize,
    completed: usize,
    interrupted: usize,
    resumed: usize,
    abandoned: usize,
    degraded: usize,
    rung_completions: Vec<usize>,
    accuracy_sum: f64,
    wasted: Energy,
    /// Energy banked behind retained checkpoints of the current cycle
    /// (lost only if the whole cycle is abandoned).
    banked: Energy,
}

impl<'a> Engine<'a> {
    fn new(cfg: &'a IntermittentConfig) -> Self {
        let cap = cfg
            .faults
            .build_supercap(cfg.base.capacitance, cfg.base.initial_voltage);
        Self {
            cfg,
            sched: Scheduler::new(cfg.dt_policy),
            bus: SimBus::new(),
            mcu: Mcu::new(cfg.mcu),
            rail: Rail {
                cfg,
                array: HarvestingArray::new(),
                cap,
                comparator: BrownoutComparator::new(cfg.thresholds),
                extra: Power::ZERO,
                retained_live: false,
                min_voltage: cfg.base.initial_voltage,
                unsaved: Energy::ZERO,
                checkpoint_overhead: Energy::ZERO,
                warns: 0,
                brownouts: 0,
                recoveries: 0,
            },
            attempted: 0,
            completed: 0,
            interrupted: 0,
            resumed: 0,
            abandoned: 0,
            degraded: 0,
            rung_completions: vec![0; cfg.ladder.rungs().len()],
            accuracy_sum: 0.0,
            wasted: Energy::ZERO,
            banked: Energy::ZERO,
        }
    }

    /// The clock, read off the scheduler.
    fn time(&self) -> Seconds {
        self.sched.time()
    }

    /// Runs the `[mcu, rail]` pair until `until` at one-second slices,
    /// stopping early when the rail raises any event in `stop_on`.
    /// Returns the stopping event, `None` when the deadline was reached.
    fn drive_until(&mut self, until: Seconds, stop_on: &[SimEvent]) -> Option<SimEvent> {
        let Self {
            sched,
            bus,
            mcu,
            rail,
            ..
        } = self;
        let mut hit = None;
        sched.run_until(
            until,
            Seconds::new(1.0),
            &mut [&mut *mcu as &mut dyn Clocked, &mut *rail],
            bus,
            |_, _, bus| {
                for &ev in stop_on {
                    if bus.saw(ev) {
                        hit = Some(ev);
                        return StepControl::Stop;
                    }
                }
                StepControl::Continue
            },
        );
        hit
    }

    /// Runs the `[mcu, rail]` pair through a span of `duration` at the
    /// fine `active_dt`, resuming from the caller's `elapsed` accumulator.
    /// Stops on a brownout (always) or a brownout warning (when
    /// `stop_on_warn`), returning the stopping event.
    fn drive_span(
        &mut self,
        duration: Seconds,
        elapsed: &mut Seconds,
        stop_on_warn: bool,
    ) -> Option<PowerEvent> {
        let Self {
            cfg,
            sched,
            bus,
            mcu,
            rail,
            ..
        } = self;
        let mut hit = None;
        sched.run_span(
            duration,
            cfg.active_dt,
            elapsed,
            &mut [&mut *mcu as &mut dyn Clocked, &mut *rail],
            bus,
            |_, _, bus| {
                if bus.saw(SimEvent::Brownout) {
                    hit = Some(PowerEvent::Brownout);
                    return StepControl::Stop;
                }
                if stop_on_warn && bus.saw(SimEvent::BrownoutWarn) {
                    hit = Some(PowerEvent::BrownoutWarn);
                    return StepControl::Stop;
                }
                StepControl::Continue
            },
        );
        hit
    }

    /// Idles (MCU off or browned out) until `until`, at one-second steps.
    fn idle_until(&mut self, until: Seconds) {
        self.drive_until(until, &[]);
    }

    /// The runtime's belief about usable energy: *nominal* capacitance at
    /// the measured open-circuit voltage, above the inference threshold.
    /// A degraded cell makes this an overestimate — by design.
    fn believed_usable(&self) -> Energy {
        let v = self.rail.cap.voltage();
        let v_th = self.cfg.base.inference_threshold;
        if v <= v_th {
            return Energy::ZERO;
        }
        let c = self.cfg.base.capacitance;
        c.stored_energy(v) - c.stored_energy(v_th)
    }

    /// Budget to finish the cycle from `from_phase` at ladder rung `rung`:
    /// cold boot, restore if resuming, remaining phases, and the retained
    /// saves still to pay.
    fn remaining_cost(&self, from_phase: usize, rung: &DegradationRung) -> Energy {
        let costs = &self.cfg.checkpoint_costs;
        let mut total = self.cfg.mcu.cold_boot_energy();
        if from_phase > 0 {
            total += costs.restore_energy;
        }
        for phase in &TaskPhase::ALL[from_phase..] {
            total += self.cfg.plan.energy(*phase, rung);
            if self.cfg.checkpoint == CheckpointPolicy::Retained {
                total += costs.save_energy;
            }
        }
        total
    }

    /// The best affordable rung at or below `min_rung`, per the runtime's
    /// (optimistic) energy belief. `None` when even the cheapest rung does
    /// not fit, or while the supervisor still holds the rail cut.
    fn affordable_rung(&self, from_phase: usize, min_rung: usize) -> Option<usize> {
        if self.rail.comparator.is_browned_out() {
            return None;
        }
        let usable = self.believed_usable();
        self.cfg
            .ladder
            .rungs()
            .iter()
            .enumerate()
            .skip(min_rung)
            .find(|(_, rung)| usable >= self.remaining_cost(from_phase, rung))
            .map(|(i, _)| i)
    }

    /// Wait-for-energy: idles in `retry_backoff` slices until a rung fits
    /// or `deadline` passes. Returns the selected rung index.
    fn wait_for_energy(
        &mut self,
        from_phase: usize,
        min_rung: usize,
        deadline: Seconds,
    ) -> Option<usize> {
        loop {
            if let Some(r) = self.affordable_rung(from_phase, min_rung) {
                return Some(r);
            }
            if self.time() >= deadline {
                return None;
            }
            let until = (self.time() + self.cfg.retry_backoff).min(deadline);
            self.idle_until(until);
        }
    }

    /// Books the loss of this attempt's unsaved progress. Retained
    /// checkpoints keep `resume_phase`; everything else restarts the cycle
    /// from scratch.
    fn account_loss(&mut self, resume_phase: &mut usize) {
        self.wasted += self.rail.unsaved;
        self.rail.unsaved = Energy::ZERO;
        if self.cfg.checkpoint != CheckpointPolicy::Retained {
            *resume_phase = 0;
            self.wasted += self.banked;
            self.banked = Energy::ZERO;
        }
    }

    /// A brownout hit: the rail died under us.
    fn lose_progress(&mut self, resume_phase: &mut usize) {
        self.mcu.brownout();
        self.account_loss(resume_phase);
    }

    /// The runtime gives up this attempt voluntarily (suspend timed out):
    /// an orderly power-down, not a brownout — but SRAM state is still
    /// gone once the MCU is off.
    fn give_up(&mut self, resume_phase: &mut usize) {
        if !matches!(self.mcu.state(), PowerState::Off | PowerState::Brownout) {
            self.mcu.power_off();
        }
        self.account_loss(resume_phase);
    }

    /// Voluntary suspend after a [`PowerEvent::BrownoutWarn`]: park in
    /// standby (volatile state retained, power still up) and wait for the
    /// comparator to recover, for at most `retry_backoff`. Returns `true`
    /// when recovered, `false` when a brownout (or the timeout, treated as
    /// imminent brownout by powering off) ended the wait.
    fn suspend_for_recovery(&mut self, deadline: Seconds) -> Result<bool, LifecycleError> {
        self.mcu
            .enter(PowerState::Standby)
            .map_err(LifecycleError::Transition)?;
        let until = (self.time() + self.cfg.retry_backoff).min(deadline);
        match self.drive_until(until, &[SimEvent::Recovered, SimEvent::Brownout]) {
            Some(SimEvent::Recovered) => Ok(true),
            _ => Ok(false),
        }
    }

    /// Runs a checkpoint save/restore window of `duration` at the extra
    /// power that delivers `energy` over it, watching the comparator.
    fn run_overhead_window(&mut self, energy: Energy, duration: Seconds) -> Option<PowerEvent> {
        let extra = if duration.as_seconds() > 0.0 {
            Power::new(energy.as_joules() / duration.as_seconds())
        } else {
            Power::ZERO
        };
        self.rail.extra = extra;
        let mut elapsed = Seconds::ZERO;
        let ev = self.drive_span(duration, &mut elapsed, false);
        self.rail.extra = Power::ZERO;
        ev
    }

    /// One powered attempt: cold boot, restore if resuming, then the
    /// remaining phases with per-boundary checkpoints.
    fn run_attempt(
        &mut self,
        rung_idx: usize,
        resume_phase: &mut usize,
        deadline: Seconds,
    ) -> Result<AttemptEnd, LifecycleError> {
        let costs = self.cfg.checkpoint_costs;
        let rung = self.cfg.ladder.rungs()[rung_idx].clone();
        let starting_phase = *resume_phase;
        if starting_phase > 0 {
            self.resumed += 1;
        }
        self.mcu.power_on().map_err(LifecycleError::Transition)?;
        // Burn through the cold boot at the fine timestep.
        let boot_phase = TaskPhase::ALL[starting_phase.min(2)];
        if let Some(PowerEvent::Brownout) =
            self.run_overhead_window(Energy::ZERO, self.cfg.mcu.cold_boot_duration)
        {
            self.lose_progress(resume_phase);
            return Ok(AttemptEnd::Interrupted(
                LifecycleError::BrownoutDuringPhase {
                    phase: boot_phase,
                    elapsed: Seconds::ZERO,
                },
            ));
        }
        if starting_phase > 0 {
            // Restore the retained snapshot.
            if let Some(PowerEvent::Brownout) =
                self.run_overhead_window(costs.restore_energy, costs.restore_duration)
            {
                self.lose_progress(resume_phase);
                return Ok(AttemptEnd::Interrupted(
                    LifecycleError::BrownoutDuringPhase {
                        phase: boot_phase,
                        elapsed: Seconds::ZERO,
                    },
                ));
            }
        }

        for pi in starting_phase..TaskPhase::ALL.len() {
            let phase = TaskPhase::ALL[pi];
            let duration = self.cfg.plan.duration(phase, &rung);
            match self.run_phase(phase, duration, deadline, resume_phase)? {
                None => {}
                Some(err) => return Ok(AttemptEnd::Interrupted(err)),
            }
            // Phase boundary: bank progress.
            if self.cfg.checkpoint == CheckpointPolicy::Retained {
                if let Some(PowerEvent::Brownout) =
                    self.run_overhead_window(costs.save_energy, costs.save_duration)
                {
                    // Died mid-save: this boundary is not durable.
                    self.lose_progress(resume_phase);
                    return Ok(AttemptEnd::Interrupted(
                        LifecycleError::BrownoutDuringPhase {
                            phase,
                            elapsed: duration,
                        },
                    ));
                }
                self.rail.retained_live = true;
                self.banked += self.rail.unsaved;
                self.rail.unsaved = Energy::ZERO;
            }
            *resume_phase = pi + 1;
        }
        self.mcu.power_off();
        Ok(AttemptEnd::Completed)
    }

    /// Runs one phase window. Returns `Ok(None)` when the phase completed,
    /// `Ok(Some(err))` when it was interrupted (brownout or failed
    /// suspend), `Err` only on state-machine bugs.
    fn run_phase(
        &mut self,
        phase: TaskPhase,
        duration: Seconds,
        deadline: Seconds,
        resume_phase: &mut usize,
    ) -> Result<Option<LifecycleError>, LifecycleError> {
        self.enter_phase_state(phase)?;
        let mut elapsed = Seconds::ZERO;
        loop {
            let stop_on_warn = self.cfg.checkpoint != CheckpointPolicy::None;
            match self.drive_span(duration, &mut elapsed, stop_on_warn) {
                None => return Ok(None),
                Some(PowerEvent::Brownout) => {
                    self.lose_progress(resume_phase);
                    return Ok(Some(LifecycleError::BrownoutDuringPhase { phase, elapsed }));
                }
                Some(_) => {
                    // Pause before the rail dies: standby retains SRAM, so
                    // compute phases continue where they stopped after the
                    // supply recovers (the span resumes from the same
                    // elapsed accumulator). Only an in-flight *capture* is
                    // stale and must be redone.
                    if self.suspend_for_recovery(deadline)? {
                        self.resumed += 1;
                        if phase == TaskPhase::Sense {
                            self.wasted += self.rail.unsaved;
                            self.rail.unsaved = Energy::ZERO;
                            elapsed = Seconds::ZERO;
                        }
                        self.enter_phase_state(phase)?;
                    } else if self.rail.comparator.is_browned_out() {
                        // The rail died while suspended.
                        self.lose_progress(resume_phase);
                        return Ok(Some(LifecycleError::BrownoutDuringPhase { phase, elapsed }));
                    } else {
                        // Recovery took too long: orderly give-up.
                        self.give_up(resume_phase);
                        return Ok(Some(LifecycleError::EnergyExhausted));
                    }
                }
            }
        }
    }

    /// Puts the MCU in the right state for `phase`.
    fn enter_phase_state(&mut self, phase: TaskPhase) -> Result<(), LifecycleError> {
        match phase {
            TaskPhase::Sense => self
                .mcu
                .begin_sampling(self.cfg.plan.sense_power)
                .map_err(LifecycleError::Transition),
            TaskPhase::Process | TaskPhase::Infer => self
                .mcu
                .enter(PowerState::Active)
                .map_err(LifecycleError::Transition),
        }
    }

    /// Runs one user interaction cycle: energy gate, attempt, bounded
    /// retries, final bookkeeping.
    fn run_cycle(&mut self, deadline: Seconds) {
        self.attempted += 1;
        self.rail.unsaved = Energy::ZERO;
        self.banked = Energy::ZERO;
        let mut resume_phase = 0usize;
        let mut min_rung = 0usize;
        let mut retries = 0usize;
        loop {
            let Some(rung_idx) = self.wait_for_energy(resume_phase, min_rung, deadline) else {
                self.abandon();
                return;
            };
            min_rung = rung_idx;
            match self.run_attempt(rung_idx, &mut resume_phase, deadline) {
                Ok(AttemptEnd::Completed) => {
                    self.completed += 1;
                    self.rung_completions[rung_idx] += 1;
                    let rung = &self.cfg.ladder.rungs()[rung_idx];
                    self.accuracy_sum += rung.accuracy_proxy.get();
                    if rung_idx > 0 {
                        self.degraded += 1;
                    }
                    self.rail.retained_live = false;
                    self.rail.unsaved = Energy::ZERO;
                    self.banked = Energy::ZERO;
                    return;
                }
                Ok(AttemptEnd::Interrupted(err)) => {
                    debug_assert!(
                        matches!(
                            err,
                            LifecycleError::BrownoutDuringPhase { .. }
                                | LifecycleError::EnergyExhausted
                        ),
                        "only interruptions are retryable, got {err}"
                    );
                    self.interrupted += 1;
                    retries += 1;
                    if retries > self.cfg.max_retries {
                        self.abandon();
                        return;
                    }
                }
                Err(_) => {
                    // A state-machine corner (configuration bug): abandon
                    // the cycle rather than unwinding the whole day.
                    self.abandon();
                    return;
                }
            }
        }
    }

    /// Abandons the current cycle; all banked progress is wasted.
    fn abandon(&mut self) {
        self.abandoned += 1;
        self.wasted += self.rail.unsaved + self.banked;
        self.rail.unsaved = Energy::ZERO;
        self.banked = Energy::ZERO;
        self.rail.retained_live = false;
        if !matches!(self.mcu.state(), PowerState::Off | PowerState::Brownout) {
            self.mcu.power_off();
        }
    }

    fn finish(self) -> DayFaultReport {
        let mean_accuracy = if self.completed > 0 {
            Ratio::new(self.accuracy_sum / self.completed as f64)
        } else {
            Ratio::ZERO
        };
        let audit = *self.bus.audit();
        DayFaultReport {
            attempted: self.attempted,
            completed: self.completed,
            interrupted: self.interrupted,
            resumed: self.resumed,
            abandoned: self.abandoned,
            degraded: self.degraded,
            warns: self.rail.warns,
            brownouts: self.rail.brownouts,
            recoveries: self.rail.recoveries,
            rung_completions: self.rung_completions,
            mean_accuracy,
            harvested: audit.harvested,
            consumed: audit.consumed,
            wasted: self.wasted,
            checkpoint_overhead: self.rail.checkpoint_overhead,
            dead_window: self.mcu.time_in(PowerState::Brownout),
            final_voltage: self.rail.cap.voltage(),
            min_voltage: self.rail.min_voltage,
            audit,
        }
    }
}

/// An office day rescaled into the regime where intermittency actually
/// bites: the lit hours are scaled so the midday peak equals `peak`, the
/// user interacts every ten minutes of the working day, and storage is a
/// small 47 mF cap (≈ 1–2 cycles of buffer) instead of the paper's 1 F
/// tank. Under [`FaultPlan::seeded_cloudy_day`] this produces genuine
/// energy droughts; under [`FaultPlan::none`] it is comfortably solvent.
pub fn stressed_office_day(peak: Lux) -> DaySimConfig {
    let mut base = DaySimConfig::office_day(Energy::from_milli_joules(30.0));
    let scale = peak.as_lux() / 800.0;
    for lux in &mut base.profile.lux_by_hour {
        if *lux > 1.0 {
            *lux *= scale;
        }
    }
    base.interactions = (0..60)
        .map(|i| Seconds::new(8.0 * 3600.0 + i as f64 * 600.0))
        .collect();
    base.capacitance = Farads::new(0.047);
    base
}

/// Simulates 24 hours of the intermittency-aware runtime under the given
/// fault plan. Deterministic: identical configs yield bit-identical
/// reports, independent of anything outside the config.
pub fn simulate_faulted_day(cfg: &IntermittentConfig) -> DayFaultReport {
    let mut engine = Engine::new(cfg);
    let mut interactions = cfg.base.interactions.clone();
    interactions.sort_by(|a, b| a.as_seconds().total_cmp(&b.as_seconds()));
    let day_end = Seconds::new(24.0 * 3600.0);
    for (i, &at) in interactions.iter().enumerate() {
        let at = at.min(day_end);
        engine.idle_until(at);
        let deadline = interactions
            .get(i + 1)
            .copied()
            .unwrap_or(day_end)
            .min(day_end);
        engine.run_cycle(deadline);
    }
    engine.idle_until(day_end);
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use solarml_units::Farads;

    /// A scenario sized so the fault plan actually bites: a small supercap,
    /// a dim office and an inference-heavy task.
    fn scenario(seed: u64) -> (DaySimConfig, FaultPlan, PhasePlan) {
        (
            stressed_office_day(Lux::new(200.0)),
            FaultPlan::seeded_cloudy_day(seed),
            PhasePlan::representative_gesture(),
        )
    }

    #[test]
    fn faultless_fresh_day_completes_everything() {
        let (mut base, _, plan) = scenario(1);
        base.capacitance = Farads::new(1.0);
        base.initial_voltage = Volts::new(3.0);
        let cfg = IntermittentConfig::naive(base, FaultPlan::none(), plan);
        let report = simulate_faulted_day(&cfg);
        assert_eq!(report.attempted, 60);
        assert_eq!(report.completed, 60, "report: {report:?}");
        assert_eq!(report.brownouts, 0);
        assert_eq!(report.abandoned, 0);
        assert_eq!(report.wasted, Energy::ZERO);
    }

    #[test]
    fn audit_ledger_stays_below_a_nanojoule() {
        let (base, faults, plan) = scenario(42);
        let ladder = DegradationLadder::from_exit_macs(&[100_000, 400_000, 1_000_000]);
        for cfg in [
            IntermittentConfig::naive(base.clone(), faults.clone(), plan),
            IntermittentConfig::resilient(base, faults, plan, ladder),
        ] {
            let report = simulate_faulted_day(&cfg);
            assert!(
                report.audit.discrepancy.as_joules() <= 1e-9,
                "conservation residual {} J",
                report.audit.discrepancy.as_joules()
            );
            // Ledger identity: harvested - consumed - leaked - clamped
            // equals the net stored-energy change.
            let a = &report.audit;
            let net = a.harvested.as_joules()
                - a.consumed.as_joules()
                - a.leaked.as_joules()
                - a.clamped.as_joules();
            assert!(
                (net - a.delta_stored.as_joules()).abs() <= a.discrepancy.as_joules() + 1e-12,
                "ledger identity broken"
            );
        }
    }

    #[test]
    fn identical_seeds_give_bit_identical_reports() {
        let (base, faults, plan) = scenario(7);
        let ladder = DegradationLadder::from_exit_macs(&[150_000, 600_000]);
        let cfg = IntermittentConfig::resilient(base, faults, plan, ladder);
        let a = simulate_faulted_day(&cfg);
        let b = simulate_faulted_day(&cfg);
        assert_eq!(a, b, "same config must reproduce bit-identically");
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn degraded_cap_with_clouds_causes_brownouts_for_the_naive_runtime() {
        let (base, faults, plan) = scenario(42);
        let cfg = IntermittentConfig::naive(base, faults, plan);
        let report = simulate_faulted_day(&cfg);
        assert!(
            report.brownouts > 0,
            "a 40-55% degraded cap must brown out mid-task: {report:?}"
        );
        assert!(report.wasted > Energy::ZERO);
        assert!(report.warns >= report.brownouts);
        assert!(report.dead_window > Seconds::ZERO);
    }

    #[test]
    fn checkpoint_and_degrade_beats_naive_restart() {
        let (base, faults, plan) = scenario(42);
        let ladder = DegradationLadder::from_exit_macs(&[100_000, 400_000, 1_000_000])
            .with_coarse_sensing(Ratio::new(0.5), Ratio::new(0.55));
        let naive = simulate_faulted_day(&IntermittentConfig::naive(
            base.clone(),
            faults.clone(),
            plan,
        ));
        let resilient =
            simulate_faulted_day(&IntermittentConfig::resilient(base, faults, plan, ladder));
        assert!(
            resilient.completed > naive.completed,
            "checkpoint+degrade {} must beat naive {}: naive {:?} vs resilient {:?}",
            resilient.completed,
            naive.completed,
            naive,
            resilient
        );
        assert!(
            resilient.wasted < naive.wasted,
            "lost-progress energy must shrink: {} vs {}",
            resilient.wasted,
            naive.wasted
        );
    }

    #[test]
    fn degradation_ladder_orders_full_first() {
        let ladder = DegradationLadder::from_exit_macs(&[100, 400, 1000]);
        let rungs = ladder.rungs();
        assert_eq!(rungs.len(), 3);
        assert_eq!(rungs[0].name, "full");
        assert_eq!(rungs[0].infer_scale, Ratio::ONE);
        assert!(rungs[1].infer_scale.get() > rungs[2].infer_scale.get());
        assert!(rungs[1].accuracy_proxy.get() > rungs[2].accuracy_proxy.get());
        let with_coarse = ladder.with_coarse_sensing(Ratio::new(0.5), Ratio::new(0.5));
        let last = with_coarse.rungs().last();
        match last {
            Some(r) => {
                assert_eq!(r.name, "coarse-sense");
                assert!((r.sense_scale.get() - 0.5).abs() < 1e-12);
            }
            None => unreachable!("ladder cannot be empty"),
        }
    }

    #[test]
    fn report_json_has_all_fields() {
        let (base, faults, plan) = scenario(3);
        let cfg = IntermittentConfig::naive(base, faults, plan);
        let json = simulate_faulted_day(&cfg).to_json();
        for key in [
            "attempted",
            "completed",
            "interrupted",
            "resumed",
            "abandoned",
            "degraded",
            "brownout_warns",
            "brownouts",
            "recoveries",
            "rung_completions",
            "mean_accuracy",
            "harvested_j",
            "consumed_j",
            "wasted_j",
            "checkpoint_overhead_j",
            "dead_window_s",
            "final_voltage_v",
            "min_voltage_v",
            "audit_discrepancy_j",
        ] {
            assert!(
                json.contains(&format!("\"{key}\"")),
                "missing {key}: {json}"
            );
        }
    }

    #[test]
    fn phase_plan_scales_with_rungs() {
        let plan = PhasePlan::representative_gesture();
        let full = DegradationRung::full();
        let early = DegradationRung {
            name: "exit-0".to_string(),
            sense_scale: Ratio::ONE,
            infer_scale: Ratio::new(0.25),
            accuracy_proxy: Ratio::new(0.8),
        };
        let e_full = plan.energy(TaskPhase::Infer, &full);
        let e_early = plan.energy(TaskPhase::Infer, &early);
        assert!((e_early.as_joules() / e_full.as_joules() - 0.25).abs() < 1e-12);
        assert_eq!(
            plan.energy(TaskPhase::Sense, &full),
            plan.energy(TaskPhase::Sense, &early)
        );
    }
}
