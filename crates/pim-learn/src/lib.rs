//! # pim-learn — online continual learning with hot model swap
//!
//! The paper's end state is a device that **keeps learning while it
//! serves**: the frozen backbone sits in MRAM, the sparse Rep-Net adaptor
//! sits in SRAM, and on-device training rewrites only the adaptor. This
//! crate closes that loop over the rest of the workspace:
//!
//! * **Incremental training** — [`OnlineLearner`] feeds a labelled sample
//!   stream through a bounded replay buffer and takes
//!   [`pim_nn::train::train_step_from_taps`] SGD steps on memoised
//!   backbone taps (bit-identical to the offline `fit` loop's
//!   `train_step`), backbone frozen.
//! * **Differential write-back** — [`LearnEngine`] keeps the adaptor
//!   *resident* as loaded SRAM PE tiles (`pim_core::pe_inference::PeRepNet`)
//!   and, on [`LearnEngine::write_back`], re-quantizes each tile's block
//!   and toggles only the changed bit-cells, charging real write energy
//!   from `pim-device`. A differential update never costs more than a
//!   full reload (property-tested at the PE level).
//! * **The hybrid contract, enforced** — [`WritePolicy`] write-protects
//!   the MRAM backbone and pre-authorizes every adaptor write against an
//!   [`EnduranceModel`](pim_device::EnduranceModel) budget *before* any
//!   bit toggles. The [`LearnReport`] ledger proves the invariant at run
//!   time: MRAM write counter zero, SRAM meter within budget.
//! * **Hot model swap** — [`LearnEngine::publish`] wraps the resident
//!   tiles into a `CompiledModel` (bit-for-bit, no recompile) and
//!   atomically swaps it into a serving `pim_runtime::Runtime`
//!   (RCU-style: in-flight batches finish on the old version). Serving
//!   output after a swap is bit-exact with a cold recompile of the
//!   learner's current weights.
//! * **Live Figure 8** — [`LearnEngine::fig8`] compares the measured
//!   hybrid write-back EDP against a modelled finetune-all-in-NVM
//!   deployment, regenerating the paper's headline comparison from a
//!   real run instead of the analytical workload model.
//! * **Telemetry** — [`LearnEngine::attach_telemetry`] times every
//!   learning stage (`step`/`preflight`/`write_back`/`swap`) into
//!   histograms, mirrors the PE write ledger into `source="learn"`
//!   counters, tracks the endurance budget as a gauge, and traces each
//!   publish as spans.
//!
//! See `examples/continual.rs` for the full loop against a live runtime
//! and `examples/telemetry.rs` for the instrumented one.

#![forbid(unsafe_code)]

mod engine;
mod error;
mod learner;
mod policy;
mod stats;
pub mod telemetry;

pub use engine::LearnEngine;
pub use error::LearnError;
pub use learner::{OnlineLearner, OnlineLearnerConfig};
pub use policy::{PolicyViolation, Region, WritePolicy};
pub use stats::{LearnReport, LearnStats};
