//! Unified discrete-time co-simulation scheduler for SolarML.
//!
//! Every simulation loop in the workspace — circuit, MCU lifecycle, and
//! platform day-scale runs — advances through this crate's single clock:
//!
//! * [`Clocked`] is the component contract: one `step(t, dt, bus)` per
//!   timestep, publishing outputs and constraints on the shared [`SimBus`].
//! * [`Scheduler`] owns the monotonic clock and reproduces the legacy
//!   stepping disciplines (deadline-clipped, resumable spans, free-running,
//!   fixed-count) so ports are bit-exact at fixed dt.
//! * [`DtPolicy`] optionally makes timesteps adaptive: stretched through
//!   quiescent standby/deep-sleep windows, shrunk to the policy minimum
//!   around detector edges, brownout transitions, and MOSFET switching.
//! * [`EnergyAudit`] is the one conservation ledger, owned by the bus;
//!   components fold [`EnergyFlows`] into it each step. Because flows are
//!   computed trapezoidally from the same intermediates as the storage
//!   update, the residual is round-off only at *any* timestep — the
//!   adaptive policy keeps the ≤ 1 nJ/day bound by construction.
//!
//! [`seed`] (the one SplitMix64) and [`pool`] (the worker pool) serve NAS,
//! fleet and scenario code alike.

mod bus;
mod clocked;
mod ledger;
pub mod pool;
mod sched;
pub mod seed;

pub use bus::{SimBus, SimEvent};
pub use clocked::{Clocked, StepOutcome};
pub use ledger::{EnergyAudit, EnergyFlows};
pub use sched::{DtPolicy, Scheduler, StepControl};
