//! The fixed accuracy probe: fixed-dt parity, day fault counts and the
//! ledger residual, on a fixed sample of a workload's nodes.
//!
//! The sample does not depend on the benchmark seed, so every number here
//! is a deterministic function of the program and compares exactly across
//! runs and commits. The model is unvalidated against hardware (the
//! repository holds no hardware measurements); the reference is the same
//! day simulated with `DtPolicy::fixed()`.

use solarml_fleet::{CampaignConfig, FleetReport, FLEET_SEED_CYCLE};
use solarml_nas::parallel::{derive_seed, parallel_map};
use solarml_platform::{simulate_faulted_day, DayFaultReport};
use solarml_sim::DtPolicy;

use crate::gates::Tally;

/// Seed of every probe campaign; also the seed the scenario goldens use.
pub const PROBE_SEED: u64 = 7;

/// Deterministic day-level counts from `DayFaultReport`, summed over the
/// probe sample at the fleet's own `DtPolicy`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    pub attempted: u64,
    pub completed: u64,
    pub interrupted: u64,
    pub resumed: u64,
    pub abandoned: u64,
    pub degraded: u64,
    pub warns: u64,
    pub brownouts: u64,
    pub recoveries: u64,
}

impl FaultCounts {
    fn add(&mut self, r: &DayFaultReport) {
        self.attempted += r.attempted as u64;
        self.completed += r.completed as u64;
        self.interrupted += r.interrupted as u64;
        self.resumed += r.resumed as u64;
        self.abandoned += r.abandoned as u64;
        self.degraded += r.degraded as u64;
        self.warns += r.warns as u64;
        self.brownouts += r.brownouts as u64;
        self.recoveries += r.recoveries as u64;
    }
}

/// What the probe measured.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Probe {
    /// Sample size in node-days.
    pub nodes: usize,
    /// Nodes whose completed/brownouts/degraded/abandoned counts equal the
    /// fixed-dt reference.
    pub matched: usize,
    /// Worst |final voltage (fleet dt) − final voltage (fixed dt)|, mV.
    pub max_gap_mv: f64,
    /// Day counts at the fleet's `DtPolicy`.
    pub counts: FaultCounts,
    /// Worst per-node ledger residual in the probe campaigns' reports, nJ.
    pub max_residual_nj: f64,
}

impl Probe {
    /// Share of the sample whose integer outcomes match fixed dt.
    pub fn match_frac(&self) -> f64 {
        if self.nodes == 0 {
            return 0.0;
        }
        self.matched as f64 / self.nodes as f64
    }
}

/// Runs the probe over every node of `campaigns`, each paired with the
/// engine's report for that same campaign. Besides the parity figures it
/// checks that the probe simulated what the engine simulated: the
/// per-campaign sums of the fleet-dt day counts must equal the report's
/// totals, or the probe's node-days fail in `tally`.
pub fn run(
    campaigns: &[(CampaignConfig, &FleetReport)],
    workers: usize,
    tally: &mut Tally,
) -> Probe {
    let items: Vec<(usize, usize)> = campaigns
        .iter()
        .enumerate()
        .flat_map(|(c, (cfg, _))| (0..cfg.nodes).map(move |i| (c, i)))
        .collect();
    let days = parallel_map(workers, &items, |_, &(c, i)| {
        let cfg = &campaigns[c].0;
        let blueprint = cfg
            .population
            .node_blueprint(derive_seed(cfg.seed, FLEET_SEED_CYCLE, i));
        let fleet = simulate_faulted_day(&blueprint.config);
        let mut fixed_cfg = blueprint.config;
        fixed_cfg.dt_policy = DtPolicy::fixed();
        let fixed = simulate_faulted_day(&fixed_cfg);
        (c, fleet, fixed)
    });

    let mut probe = Probe {
        nodes: days.len(),
        ..Probe::default()
    };
    let mut per_campaign = vec![FaultCounts::default(); campaigns.len()];
    for (c, fleet, fixed) in &days {
        let outcome = |r: &DayFaultReport| (r.completed, r.brownouts, r.degraded, r.abandoned);
        probe.matched += usize::from(outcome(fleet) == outcome(fixed));
        let gap = (fleet.final_voltage.value() - fixed.final_voltage.value()).abs() * 1e3;
        probe.max_gap_mv = probe.max_gap_mv.max(gap);
        probe.counts.add(fleet);
        per_campaign[*c].add(fleet);
    }

    for ((cfg, report), counts) in campaigns.iter().zip(&per_campaign) {
        let a = &report.aggregate;
        probe.max_residual_nj = probe.max_residual_nj.max(a.residual_nj_stat.max_or_zero());
        let engine = (
            a.attempted,
            a.completed,
            a.abandoned,
            a.degraded,
            a.brownouts,
        );
        let direct = (
            counts.attempted,
            counts.completed,
            counts.abandoned,
            counts.degraded,
            counts.brownouts,
        );
        let verdict = if engine == direct {
            Ok(())
        } else {
            Err(format!(
                "probe of campaign (nodes {}, seed {}) simulated {direct:?} \
                 (attempted, completed, abandoned, degraded, brownouts) but the report has {engine:?}",
                cfg.nodes, cfg.seed
            ))
        };
        tally.require(cfg.nodes as u64, verdict);
    }
    probe
}
