//! Spec-to-report benchmark of the latsched engine.
//!
//! One client submits one spec at a time (a closed loop) through the engine's
//! public API — `SweepSpec::parse_spec` / `run_sweep` and
//! `SearchSpec::parse_spec` / `run_search` — with the engine at the worker
//! count each workload names. An op runs from JSON text to a serialized
//! report; every op's output is checked against a reference digest. See
//! `README.md` for the workloads and metrics.

pub mod layers;
pub mod metrics;
pub mod op;
pub mod sys;
pub mod workload;

/// Whole cycles the closed loop runs at least (525 ops), unless the run's
/// time is up first: enough that each op of a sweep workload's period is
/// issued 11 times or more.
pub const MIN_CYCLES: usize = 35;

/// Ops the traced pass decomposes: the first two cycles of the closed loop.
pub const TRACE_OPS: usize = 2 * workload::CYCLE;
