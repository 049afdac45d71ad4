//! Running one op — spec text to serialized report — and checking its output.
//!
//! A failed op is one that returns `Err` or panics; either way its time runs
//! from the spec to the failure. Panics are caught per op behind a quiet
//! panic hook that keeps the first message (a worker thread's panic arrives
//! before the scope re-raises it on the calling thread), so a crash becomes a
//! counted fault instead of ending the measurement.

use crate::workload::{Op, OpKind};
use latsched_engine::{
    fold_full_report, run_search, run_sweep, SearchReport, SearchSpec, SweepCaches, SweepMode,
    SweepReport, SweepSpec,
};
use serde_json::Value;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The first panic message seen since the last [`take_panic`].
static LAST_PANIC: Mutex<Option<String>> = Mutex::new(None);

/// Replaces the default panic hook (which prints to stderr) with one that
/// records the first panic message for [`take_panic`].
pub fn install_quiet_panic_hook() {
    std::panic::set_hook(Box::new(|info| {
        if let Ok(mut slot) = LAST_PANIC.lock() {
            slot.get_or_insert_with(|| info.to_string().replace('\n', " "));
        }
    }));
}

/// Takes the recorded panic message, if any.
pub fn take_panic() -> Option<String> {
    LAST_PANIC.lock().ok().and_then(|mut slot| slot.take())
}

/// The engine report an op produced.
pub enum Report {
    /// A sweep's report.
    Sweep(Box<SweepReport>),
    /// A search's report.
    Search(Box<SearchReport>),
}

/// A succeeded op's output.
pub struct Output {
    /// The engine report (its serialized form, the op's deliverable, is
    /// produced inside the timed op and dropped).
    pub report: Report,
    /// Simulated node-slots the report stands for: nodes × slots × runs,
    /// over every window of a sweep and every candidate of a search (a
    /// search answered from the search tier delivers the same outcome, so it
    /// counts the same).
    pub node_slots: u64,
}

/// Why an op failed.
#[derive(Clone, Debug)]
pub enum Failure {
    /// The engine returned `Err`.
    Error(String),
    /// The engine panicked.
    Panic(String),
    /// The output's digest differs from the reference path's.
    Mismatch(String),
}

impl Failure {
    /// A one-line description.
    pub fn describe(&self) -> String {
        match self {
            Failure::Error(e) => format!("error: {e}"),
            Failure::Panic(p) => format!("panic: {p}"),
            Failure::Mismatch(m) => format!("digest mismatch: {m}"),
        }
    }
}

/// Parses, runs and serializes one op against `caches`.
fn execute(op: &Op, caches: &SweepCaches) -> Result<Output, String> {
    match op.kind {
        OpKind::Sweep => {
            let spec = single(SweepSpec::parse_spec(&op.spec).map_err(|e| e.to_string())?)?;
            let report = run_sweep(&spec, caches).map_err(|e| e.to_string())?;
            black_box(serde_json::to_string(&report.to_json_value()));
            Ok(Output {
                report: Report::Sweep(Box::new(report)),
                node_slots: sweep_node_slots(&spec),
            })
        }
        OpKind::Search => {
            let spec = single(SearchSpec::parse_spec(&op.spec).map_err(|e| e.to_string())?)?;
            let report = run_search(&spec, caches).map_err(|e| e.to_string())?;
            black_box(serde_json::to_string(&report.to_json_value()));
            let o = &report.outcome;
            let node_slots = (o.nodes * o.runs_per_candidate * o.candidates()) as u64 * spec.slots;
            Ok(Output {
                report: Report::Search(Box::new(report)),
                node_slots,
            })
        }
    }
}

/// The one spec of an op's document.
pub fn single<T>(mut specs: Vec<T>) -> Result<T, String> {
    match specs.len() {
        1 => Ok(specs.remove(0)),
        n => Err(format!("op document holds {n} specs, expected 1")),
    }
}

/// Runs one op, timing it from spec text to serialized report (or to the
/// failure), with panics caught and recorded.
pub fn run_op(op: &Op, caches: &SweepCaches) -> (Duration, Result<Output, Failure>) {
    take_panic();
    let start = Instant::now();
    let result = catch_unwind(AssertUnwindSafe(|| execute(op, caches)));
    let elapsed = start.elapsed();
    let result = match result {
        Ok(Ok(output)) => Ok(output),
        Ok(Err(e)) => Err(Failure::Error(e)),
        Err(payload) => Err(Failure::Panic(take_panic().unwrap_or_else(|| {
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into())
        }))),
    };
    (elapsed, result)
}

/// FNV-1a over a canonical JSON rendering (object keys are sorted).
fn fnv1a(value: &Value) -> u64 {
    serde_json::to_string(value)
        .bytes()
        .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// The checked content of a sweep report: its counters (aggregate and per
/// run) and its group folds, with timings, cache counters and telemetry
/// stripped. `folded` replaces the report's per-run section with group folds
/// (the reference path folds a full-mode report as the streaming op would).
fn sweep_digest(report: &SweepReport, folded: Option<Value>) -> u64 {
    let full = report.to_json_value();
    let mut map = BTreeMap::new();
    for key in ["name", "mac", "runs", "slots", "aggregate"] {
        if let Some(v) = full.get(key) {
            map.insert(key.to_string(), v.clone());
        }
    }
    let section = |key: &str| full.get(key).cloned().unwrap_or(Value::Array(Vec::new()));
    let (groups, per_run) = match folded {
        Some(groups) => (groups, Value::Array(Vec::new())),
        None => (section("groups"), section("per_run")),
    };
    map.insert("groups".to_string(), groups);
    map.insert("per_run".to_string(), per_run);
    fnv1a(&Value::Object(map))
}

/// The checked content of a search report: the ranking with every
/// candidate's provenance, score and fold, with timings, cache counters and
/// the warm/cold flag stripped.
fn search_digest(report: &SearchReport) -> u64 {
    let full = report.to_json_value();
    let mut map = BTreeMap::new();
    for key in [
        "name",
        "objective",
        "window",
        "slots",
        "nodes",
        "lower_bound",
        "lattice_candidates",
        "coloring_candidates",
        "runs_per_candidate",
        "ranked",
    ] {
        if let Some(v) = full.get(key) {
            map.insert(key.to_string(), v.clone());
        }
    }
    fnv1a(&Value::Object(map))
}

/// The digest of an op's output.
pub fn digest(report: &Report) -> u64 {
    match report {
        Report::Sweep(r) => sweep_digest(r, None),
        Report::Search(r) => search_digest(r),
    }
}

/// The expected digest of an op, from the reference path: the same grid in
/// full mode on fresh caches (streaming specs folded afterwards with
/// `fold_full_report`), meant to run in a 1-worker process. Full mode never
/// takes the streaming band split, so this works where streaming panics.
pub fn reference_digest(op: &Op) -> Result<u64, String> {
    let caches = SweepCaches::new();
    match op.kind {
        OpKind::Sweep => {
            let spec = single(SweepSpec::parse_spec(&op.spec).map_err(|e| e.to_string())?)?;
            let mut full = spec.clone();
            full.mode = SweepMode::Full;
            let report = run_sweep(&full, &caches).map_err(|e| e.to_string())?;
            let groups = match &spec.mode {
                SweepMode::Full => None,
                SweepMode::Streaming(group_spec) => {
                    let folds = fold_full_report(&spec, group_spec, &report.per_run)
                        .map_err(|e| e.to_string())?;
                    Some(Value::Array(
                        folds.iter().map(|g| g.to_json_value()).collect(),
                    ))
                }
            };
            Ok(sweep_digest(&report, groups))
        }
        OpKind::Search => {
            let spec = single(SearchSpec::parse_spec(&op.spec).map_err(|e| e.to_string())?)?;
            let report = run_search(&spec, &caches).map_err(|e| e.to_string())?;
            Ok(search_digest(&report))
        }
    }
}

/// Nodes × slots × runs of a sweep grid, summed over its windows.
pub fn sweep_node_slots(spec: &SweepSpec) -> u64 {
    let runs_per_window = (spec.num_runs() / spec.windows.len()) as u64;
    spec.windows
        .iter()
        .map(|&w| (w as u64).pow(spec.shape.dim() as u32))
        .sum::<u64>()
        * spec.slots
        * runs_per_window
}
