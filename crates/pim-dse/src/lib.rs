//! # pim-dse — design-space exploration and auto-tuning
//!
//! Sweeps the hybrid accelerator's architectural knobs — N:M sparsity
//! pattern, SRAM tile shape, weight precision, worker/thread split, batch
//! policy — over a validated [`ArchConfig`](pim_arch::ArchConfig) grid,
//! in two tiers:
//!
//! 1. **Analytic** ([`evaluate()`]): the `pim-arch` mapper roll-up, bit-exact
//!    against the `pim-pe` cycle simulators, prices every grid point in
//!    microseconds of host time.
//! 2. **Measured** ([`measure()`]): Pareto-frontier survivors are promoted to
//!    real PE micro-benches via `pim_bench::measure_ns_into`, so winners
//!    carry executable evidence.
//!
//! [`pareto_frontier`] prunes dominated points over the four minimized
//! objectives {latency, energy, area, EDP}; [`run_sweep`] orchestrates the
//! whole pipeline with telemetry counters; [`TunedDoc`] renders the result
//! as `TUNED.json`, which `pim_runtime::RuntimeBuilder::tuned` consumes as
//! runtime defaults (explicit builder calls always win).

#![forbid(unsafe_code)]

pub mod evaluate;
pub mod measure;
pub mod pareto;
pub mod space;
pub mod sweep;
pub mod tuned;

pub use evaluate::{evaluate, AnalyticCost, EvalError, Workload};
pub use measure::{measure, MeasuredCost};
pub use pareto::{dominates, pareto_frontier, DesignPoint, Tier};
pub use space::SweepSpace;
pub use sweep::{run_sweep, SweepError, SweepOptions, SweepOutcome};
pub use tuned::{FrontierEntry, TunedDoc};
