//! The batched sweep engine: whole parameter grids of simulation runs served
//! from one set of compiled artifacts.
//!
//! The paper's schedules are meant to be evaluated across *families* of
//! deployments — seeds, offered loads, window sizes, retry budgets — but a
//! naive sweep rebuilds every compiled structure (schedule table, frame plan,
//! stochastic draws) from scratch for every run. [`run_sweep`] instead:
//!
//! 1. compiles each window's schedule and fused [`FramePlan`] once, through the
//!    sharded [`ScheduleCache`] / [`PlanCache`];
//! 2. compiles each `(seed, load)` pair's Bernoulli generation draws once into
//!    a [`TrafficTrace`] through the content-addressed [`TraceCache`] — shared
//!    by every run that varies only MAC-side knobs (retry budgets) *and* by
//!    every later sweep over the same caches, in the spirit of
//!    derandomization: the sequential random draws of the reference simulator
//!    become one deterministic per-position structure evaluated once;
//! 3. compiles each `(seed, p)` pair's slotted-ALOHA MAC decisions once into
//!    a decision bitmap through the same [`TraceCache`] (stream-tagged keys)
//!    when ALOHA runs replay compiled traffic, so MAC draws join generation
//!    draws in being hashed once per sweep instead of once per run;
//! 4. dispatches the seed axis to the bit-sliced lane kernel
//!    ([`crate::run_frames_lanes`]) where eligible — ALOHA access over
//!    periodic, staggered *or* Bernoulli traffic — packing up to 64 seeds of
//!    one `(window, traffic, retries)` grid point into one pass over the slot
//!    structure, bit-identical to scalar per-seed runs (lane-dispatched
//!    Bernoulli grids skip trace prefetch entirely: the lane kernel draws
//!    generation bits inline, bit-identical to trace replay);
//! 5. folds the expanded grid's work items (scalar runs or lane batches) in
//!    balanced bands across all cores with [`crate::parallel::steal_fold`] —
//!    heterogeneous run costs (analytic vs loop vs lane batches)
//!    load-balance via atomic band claims, full and streaming mode share the
//!    one path (a band keeps its runs' counters, or folds them per group) —
//!    and merges the bands in order into a [`SweepReport`], including
//!    per-tier cache hit/miss/entry counters ([`SweepCacheStats`]).
//!
//! Because all three tiers are content-addressed, a *warm* repeat of a sweep
//! (same [`SweepCaches`]) skips schedule compilation, plan fusion and trace
//! generation entirely — its setup phase degenerates to adjacency
//! construction and cache lookups, which is what the `--bench-tracecache`
//! harness baseline measures.
//!
//! A sweep spec is JSON (one object):
//!
//! ```json
//! {
//!   "name": "moore-bernoulli",
//!   "shape": { "kind": "ball", "dim": 2, "radius": 1, "metric": "chebyshev" },
//!   "windows": [64],
//!   "slots": 512,
//!   "mac": { "kind": "tiling" },
//!   "traffic": { "kind": "bernoulli", "loads": [0.02, 0.05] },
//!   "seeds": [1, 2, 3, 4],
//!   "retries": [0, 1, 2, 4]
//! }
//! ```
//!
//! `mac` is `{"kind": "tiling"}` or `{"kind": "aloha", "p": 0.25}`; `traffic`
//! is `{"kind": "bernoulli", "loads": [...]}`, `{"kind": "periodic",
//! "periods": [...]}` or `{"kind": "staggered", "periods": [...]}`. The grid is
//! the product `windows × traffic values × retries × seeds`.
//!
//! Two optional fields select the reporting mode: `"mode"` (`"full"`, the
//! default, or `"streaming"`) and `"group_by"` (an array over `"window"`,
//! `"traffic"`/`"load"`, `"retries"`, `"seed"`; implies streaming when given
//! alone). A streaming sweep folds every run online into per-axis group
//! accumulators ([`crate::aggregate::OnlineFold`]) — exact integer monoids
//! merged at the fan-out barrier — so its report is O(groups) instead of
//! O(runs) and the `per_run` section is never allocated, which is what makes
//! million-run grids feasible (see [`crate::aggregate`]).
//!
//! Node ids reproduce the sensor-network simulator's exactly (positions in
//! lexicographic window order, neighbours `p + N \ {p}`), so every run's
//! counters are bit-identical to a reference-simulator run of the same
//! configuration — property-tested across the crates in `tests/sweep_parity.rs`.

use crate::aggregate::{GroupBy, GroupFolds, GroupReport, GroupSpec, OnlineFold};
use crate::cache::{AdjacencyCache, PlanCache, ScheduleCache, SearchCache, TraceCache};
use crate::error::{EngineError, Result};
use crate::frames::InterferenceCsr;
use crate::parallel::steal_fold;
use crate::scenario::{get_u64, invalid, ShapeSpec};
use crate::simkernel::{
    run_frames, run_frames_lanes, KernelConfig, KernelCounts, KernelMac, KernelTraffic,
    TrafficTrace, TRACE_WORD_LIMIT,
};
use crate::store::StoreStats;
use crate::telemetry::{span, span_within, telemetry, Stage, TelemetrySnapshot};
use crate::FramePlan;
use latsched_lattice::BoxRegion;
use latsched_tiling::Prototile;
use serde_json::Value;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// The MAC family a sweep runs.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SweepMac {
    /// The shape's Theorem 1 tiling schedule (deterministic slotted access).
    Tiling,
    /// Slotted ALOHA with the given per-slot transmission probability.
    Aloha {
        /// Per-slot transmission probability.
        p: f64,
    },
}

impl fmt::Display for SweepMac {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SweepMac::Tiling => write!(f, "tiling"),
            SweepMac::Aloha { p } => write!(f, "aloha(p={p:.3})"),
        }
    }
}

/// The seed axis of a sweep grid: an explicit list, or an inclusive range
/// iterated lazily — a `{"range": [1, 5000000]}` axis costs two words instead
/// of a ~40 MB seed vector materialized before the first run.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum SeedAxis {
    /// Explicit seeds, in grid order.
    List(Vec<u64>),
    /// Every seed of the inclusive range `start..=end`, generated on demand.
    Range {
        /// First seed of the range.
        start: u64,
        /// Last seed of the range (inclusive; at least `start`).
        end: u64,
    },
}

impl SeedAxis {
    /// The number of grid values along the seed axis.
    ///
    /// Range axes are validated at parse time to fit `usize`; a hand-built
    /// range longer than `usize::MAX` saturates.
    pub fn len(&self) -> usize {
        match self {
            SeedAxis::List(seeds) => seeds.len(),
            SeedAxis::Range { start, end } => usize::try_from(end.wrapping_sub(*start))
                .unwrap_or(usize::MAX)
                .saturating_add(1),
        }
    }

    /// Whether the seed axis is empty (a range never is).
    pub fn is_empty(&self) -> bool {
        match self {
            SeedAxis::List(seeds) => seeds.is_empty(),
            SeedAxis::Range { .. } => false,
        }
    }

    /// The `i`-th seed in grid order.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        match self {
            SeedAxis::List(seeds) => seeds[i],
            SeedAxis::Range { start, end } => {
                let seed = start + i as u64;
                assert!(seed <= *end, "seed index {i} out of range");
                seed
            }
        }
    }

    /// Iterates the seeds in grid order without materializing them.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Parses the `seeds` field of a spec: either an array of seeds or a
    /// `{"range": [first, last]}` object (inclusive bounds, iterated lazily).
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] for a malformed axis or an empty
    /// or inverted range.
    pub fn from_json(value: &Value) -> Result<Self> {
        match value {
            Value::Array(items) => {
                if items.is_empty() {
                    return Err(invalid("'seeds' must not be empty"));
                }
                let seeds = items
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .ok_or_else(|| invalid("'seeds' entries must be nonnegative integers"))
                    })
                    .collect::<Result<Vec<u64>>>()?;
                Ok(SeedAxis::List(seeds))
            }
            Value::Object(_) => {
                let range = value
                    .get("range")
                    .and_then(Value::as_array)
                    .ok_or_else(|| invalid("'seeds' object needs a 'range' array"))?;
                if range.len() != 2 {
                    return Err(invalid("'seeds.range' must be [first, last]"));
                }
                let (start, end) = match (range[0].as_u64(), range[1].as_u64()) {
                    (Some(lo), Some(hi)) => (lo, hi),
                    _ => return Err(invalid("'seeds.range' bounds must be nonnegative integers")),
                };
                if start > end {
                    return Err(invalid("'seeds.range' must satisfy first <= last"));
                }
                if usize::try_from(end - start)
                    .ok()
                    .and_then(|d| d.checked_add(1))
                    .is_none()
                {
                    return Err(invalid("'seeds.range' is too long for this platform"));
                }
                Ok(SeedAxis::Range { start, end })
            }
            _ => Err(invalid(
                "'seeds' must be an array or a {\"range\": [first, last]} object",
            )),
        }
    }
}

impl From<Vec<u64>> for SeedAxis {
    fn from(seeds: Vec<u64>) -> Self {
        SeedAxis::List(seeds)
    }
}

impl FromIterator<u64> for SeedAxis {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        SeedAxis::List(iter.into_iter().collect())
    }
}

/// The traffic axis of a sweep grid.
#[derive(Clone, PartialEq, Debug)]
pub enum SweepTraffic {
    /// Bernoulli arrivals at each listed per-slot probability.
    Bernoulli(Vec<f64>),
    /// Phase-aligned periodic traffic at each listed period.
    Periodic(Vec<u64>),
    /// Staggered (per-node-offset) periodic traffic at each listed period.
    Staggered(Vec<u64>),
}

impl SweepTraffic {
    /// The number of grid values along the traffic axis.
    pub fn len(&self) -> usize {
        match self {
            SweepTraffic::Bernoulli(loads) => loads.len(),
            SweepTraffic::Periodic(periods) | SweepTraffic::Staggered(periods) => periods.len(),
        }
    }

    /// Whether the traffic axis is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The human-readable label of the `i`-th traffic value (matches the
    /// sensor-network simulator's `TrafficModel` display format, so sweep
    /// reports and reference runs describe workloads identically).
    pub fn label(&self, i: usize) -> String {
        match self {
            SweepTraffic::Bernoulli(loads) => format!("bernoulli(p={:.3})", loads[i]),
            SweepTraffic::Periodic(periods) => format!("periodic(every {} slots)", periods[i]),
            SweepTraffic::Staggered(periods) => format!("staggered(every {} slots)", periods[i]),
        }
    }

    /// Parses the `traffic` field of a spec: `{"kind": "bernoulli", "loads":
    /// [...]}`, `{"kind": "periodic", "periods": [...]}` or `{"kind":
    /// "staggered", "periods": [...]}`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] naming the first malformed field.
    pub fn from_json(traffic: &Value) -> Result<Self> {
        match traffic.get("kind").and_then(Value::as_str) {
            Some("bernoulli") => {
                let loads = traffic
                    .get("loads")
                    .and_then(Value::as_array)
                    .ok_or_else(|| invalid("bernoulli traffic needs a 'loads' array"))?
                    .iter()
                    .map(|v| {
                        v.as_f64()
                            .ok_or_else(|| invalid("'loads' entries must be numbers"))
                    })
                    .collect::<Result<Vec<f64>>>()?;
                Ok(SweepTraffic::Bernoulli(loads))
            }
            Some(kind @ ("periodic" | "staggered")) => {
                let periods = get_u64_array(traffic, "periods")?;
                if periods.contains(&0) {
                    return Err(invalid("'periods' entries must be positive"));
                }
                if kind == "periodic" {
                    Ok(SweepTraffic::Periodic(periods))
                } else {
                    Ok(SweepTraffic::Staggered(periods))
                }
            }
            _ => Err(invalid(
                "'traffic.kind' must be 'bernoulli', 'periodic' or 'staggered'",
            )),
        }
    }
}

/// How a sweep reports its grid.
#[derive(Clone, PartialEq, Debug, Default)]
pub enum SweepMode {
    /// Materialize one [`SweepRunReport`] per grid point (O(runs) report
    /// memory).
    #[default]
    Full,
    /// Fold runs online onto the given grid axes — each worker folds its
    /// chunk locally and the monoid accumulators merge at the barrier — so
    /// the report is O(groups) and `per_run` is never allocated. The empty
    /// [`GroupSpec`] folds the whole grid into one global group.
    Streaming(GroupSpec),
}

impl SweepMode {
    /// The mode's spec-file name.
    pub fn name(&self) -> &'static str {
        match self {
            SweepMode::Full => "full",
            SweepMode::Streaming(_) => "streaming",
        }
    }

    /// The grouping spec of a streaming mode (`None` for full mode).
    pub fn group_spec(&self) -> Option<&GroupSpec> {
        match self {
            SweepMode::Full => None,
            SweepMode::Streaming(spec) => Some(spec),
        }
    }
}

/// One sweep: a shape, a window axis and the stochastic parameter grid.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepSpec {
    /// Sweep name (used in reports).
    pub name: String,
    /// The neighbourhood shape.
    pub shape: ShapeSpec,
    /// Side lengths of the square deployment windows.
    pub windows: Vec<i64>,
    /// Number of slots each run simulates.
    pub slots: u64,
    /// The MAC family.
    pub mac: SweepMac,
    /// The traffic axis.
    pub traffic: SweepTraffic,
    /// RNG seeds (an explicit list or a lazily iterated range).
    pub seeds: SeedAxis,
    /// Retry budgets.
    pub retries: Vec<u32>,
    /// How the grid is reported: full per-run detail, or streaming per-axis
    /// folds.
    pub mode: SweepMode,
}

impl SweepSpec {
    /// Parses one sweep spec object.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] naming the first malformed field.
    pub fn from_json(value: &Value) -> Result<Self> {
        let name = value
            .get("name")
            .and_then(Value::as_str)
            .unwrap_or("unnamed-sweep")
            .to_string();
        let shape = ShapeSpec::from_json(
            value
                .get("shape")
                .ok_or_else(|| invalid("sweep needs a 'shape' object"))?,
        )?;
        let windows = get_u64_array(value, "windows")?
            .into_iter()
            .map(|w| w as i64)
            .collect::<Vec<i64>>();
        if windows.iter().any(|&w| w <= 0) {
            return Err(invalid("'windows' entries must be positive"));
        }
        let slots = get_u64(value, "slots")?;
        let mac = match value.get("mac") {
            None => SweepMac::Tiling,
            Some(mac) => match mac.get("kind").and_then(Value::as_str) {
                Some("tiling") => SweepMac::Tiling,
                Some("aloha") => {
                    let p = mac
                        .get("p")
                        .and_then(Value::as_f64)
                        .ok_or_else(|| invalid("aloha mac needs a numeric field 'p'"))?;
                    SweepMac::Aloha { p }
                }
                _ => return Err(invalid("'mac.kind' must be 'tiling' or 'aloha'")),
            },
        };
        let traffic = SweepTraffic::from_json(
            value
                .get("traffic")
                .ok_or_else(|| invalid("sweep needs a 'traffic' object"))?,
        )?;
        let seeds = SeedAxis::from_json(
            value
                .get("seeds")
                .ok_or_else(|| invalid("missing field 'seeds'"))?,
        )?;
        let retries = get_u64_array(value, "retries")?
            .into_iter()
            .map(|r| r as u32)
            .collect::<Vec<u32>>();
        // "mode" selects full or streaming reporting; "group_by" names the
        // fold axes and, when present without an explicit mode, implies
        // streaming.
        let group_by = value
            .get("group_by")
            .map(GroupSpec::from_json)
            .transpose()?;
        let mode = match value.get("mode") {
            None => match group_by {
                Some(spec) => SweepMode::Streaming(spec),
                None => SweepMode::Full,
            },
            Some(mode) => match mode.as_str() {
                Some("full") => {
                    if group_by.is_some() {
                        return Err(invalid(
                            "'group_by' requires streaming mode (drop 'mode' or set it to 'streaming')",
                        ));
                    }
                    SweepMode::Full
                }
                Some("streaming") => SweepMode::Streaming(group_by.unwrap_or_default()),
                _ => return Err(invalid("'mode' must be 'full' or 'streaming'")),
            },
        };
        let spec = SweepSpec {
            name,
            shape,
            windows,
            slots,
            mac,
            traffic,
            seeds,
            retries,
            mode,
        };
        if spec.num_runs() == 0 {
            return Err(invalid("sweep grid is empty"));
        }
        Ok(spec)
    }

    /// Parses a spec document: one sweep object or an array of them.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::InvalidSpec`] for malformed JSON or fields.
    pub fn parse_spec(text: &str) -> Result<Vec<SweepSpec>> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| invalid(&format!("malformed JSON: {e}")))?;
        match &value {
            Value::Array(items) => items.iter().map(SweepSpec::from_json).collect(),
            _ => Ok(vec![SweepSpec::from_json(&value)?]),
        }
    }

    /// Total grid size: `windows × traffic values × retries × seeds`.
    pub fn num_runs(&self) -> usize {
        self.windows.len() * self.traffic.len() * self.retries.len() * self.seeds.len()
    }
}

/// The interference adjacency of all lattice sensors in a window under a
/// homogeneous neighbourhood shape: node ids follow the lexicographic window
/// order and node `v`'s neighbours are `v + N \ {v}` clipped to the window —
/// exactly the network the sensor-network simulator builds, so sweep runs are
/// comparable (and bit-identical) to reference-simulator runs.
///
/// # Errors
///
/// Propagates CSR size-limit errors.
pub fn grid_adjacency(region: &BoxRegion, shape: &Prototile) -> Result<InterferenceCsr> {
    let _span = span(Stage::AdjacencyBuild);
    let dim = region.dim();
    let lo = region.min().coords().to_vec();
    let hi = region.max().coords().to_vec();
    let extents: Vec<i64> = (0..dim).map(|i| hi[i] - lo[i] + 1).collect();
    // Lexicographic iteration makes the *first* coordinate most significant.
    let mut strides = vec![1i64; dim];
    for i in (0..dim.saturating_sub(1)).rev() {
        strides[i] = strides[i + 1] * extents[i + 1];
    }
    let n = region.len();
    if n >= u32::MAX as u64 {
        return Err(EngineError::WindowTooLarge { points: n });
    }
    let offsets: Vec<&[i64]> = shape
        .iter()
        .filter(|d| !d.is_zero())
        .map(|d| d.coords())
        .collect();
    let mut lists: Vec<Vec<usize>> = vec![Vec::with_capacity(offsets.len()); n as usize];
    let mut q = vec![0i64; dim];
    for (id, p) in region.iter().enumerate() {
        let pc = p.coords();
        'offsets: for d in &offsets {
            let mut qid = 0i64;
            for i in 0..dim {
                q[i] = pc[i] + d[i];
                if q[i] < lo[i] || q[i] > hi[i] {
                    continue 'offsets;
                }
                qid += (q[i] - lo[i]) * strides[i];
            }
            lists[id].push(qid as usize);
        }
        // The simulator's interference graph keeps neighbour lists sorted.
        lists[id].sort_unstable();
    }
    InterferenceCsr::from_lists(&lists)
}

/// The tiered artifact pipeline a sweep (or several sweeps) compiles through:
/// one cache per artifact tier, chained by content fingerprints.
#[derive(Default)]
pub struct SweepCaches {
    /// Tier 1 — shape → compiled Theorem 1 schedule.
    pub schedules: ScheduleCache,
    /// Tier 2 — (region, shape) → window interference adjacency.
    pub adjacencies: AdjacencyCache,
    /// Tier 3 — (assignment, adjacency) → fused frame plan.
    pub plans: PlanCache,
    /// Tier 4 — (plan fingerprint, seed, load, slots) → compiled traffic
    /// trace.
    pub traces: TraceCache,
    /// Tier 5 — (scenario, objective) fingerprint → ranked search outcome
    /// (see [`crate::search::run_search`]).
    pub searches: SearchCache,
}

impl SweepCaches {
    /// Empty caches.
    pub fn new() -> Self {
        SweepCaches::default()
    }

    /// A point-in-time snapshot of all five tiers' counters.
    pub fn stats(&self) -> SweepCacheStats {
        SweepCacheStats {
            schedules: self.schedules.stats(),
            adjacencies: self.adjacencies.stats(),
            plans: self.plans.stats(),
            traces: self.traces.stats(),
            searches: self.searches.stats(),
        }
    }
}

/// Per-tier cache counters of the artifact pipeline, as reported by
/// [`SweepReport`]: hit/miss counts over one sweep and entry counts at its
/// end.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SweepCacheStats {
    /// Schedule-tier counters.
    pub schedules: StoreStats,
    /// Adjacency-tier counters.
    pub adjacencies: StoreStats,
    /// Plan-tier counters.
    pub plans: StoreStats,
    /// Trace-tier counters.
    pub traces: StoreStats,
    /// Search-tier counters.
    pub searches: StoreStats,
}

impl SweepCacheStats {
    /// The counter movement since an earlier snapshot (entry counts stay
    /// absolute).
    #[must_use]
    pub fn since(&self, earlier: &SweepCacheStats) -> SweepCacheStats {
        SweepCacheStats {
            schedules: self.schedules.since(&earlier.schedules),
            adjacencies: self.adjacencies.since(&earlier.adjacencies),
            plans: self.plans.since(&earlier.plans),
            traces: self.traces.since(&earlier.traces),
            searches: self.searches.since(&earlier.searches),
        }
    }

    /// The stats as a JSON object (one `{hits, misses, entries}` object per
    /// tier).
    pub fn to_json_value(&self) -> Value {
        let tier = |s: &StoreStats| {
            let mut map = BTreeMap::new();
            map.insert("hits".to_string(), Value::from(s.hits));
            map.insert("misses".to_string(), Value::from(s.misses));
            map.insert("entries".to_string(), Value::from(s.entries));
            Value::Object(map)
        };
        let mut map = BTreeMap::new();
        map.insert("schedules".to_string(), tier(&self.schedules));
        map.insert("adjacencies".to_string(), tier(&self.adjacencies));
        map.insert("plans".to_string(), tier(&self.plans));
        map.insert("traces".to_string(), tier(&self.traces));
        map.insert("searches".to_string(), tier(&self.searches));
        Value::Object(map)
    }
}

impl fmt::Display for SweepCacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedules {} | adjacencies {} | plans {} | traces {} | searches {}",
            self.schedules, self.adjacencies, self.plans, self.traces, self.searches
        )
    }
}

/// One run of a sweep grid: its coordinates and its kernel counters.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepRunReport {
    /// Window side length.
    pub window: i64,
    /// Nodes in the window.
    pub nodes: usize,
    /// RNG seed.
    pub seed: u64,
    /// Human-readable traffic description (e.g. `bernoulli(p=0.020)`).
    pub traffic: String,
    /// Retry budget.
    pub retries: u32,
    /// The run's counters.
    pub counts: KernelCounts,
}

/// The measured outcome of one sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepReport {
    /// Sweep name.
    pub name: String,
    /// MAC family description.
    pub mac: String,
    /// Number of runs in the grid.
    pub runs: usize,
    /// Slots simulated per run.
    pub slots: u64,
    /// Seconds spent compiling shared artifacts (schedules, plans, traces).
    pub setup_seconds: f64,
    /// Seconds spent executing the grid.
    pub run_seconds: f64,
    /// Runs executed per second (excluding setup).
    pub runs_per_second: f64,
    /// Per-tier cache counters: hits/misses over this sweep, entries at its
    /// end. Hit/miss counts are tallied per lookup by this sweep, so they are
    /// exact even when concurrent sweeps (or searches) share the caches —
    /// a global-counter delta would attribute the other sweeps' lookups here.
    pub caches: SweepCacheStats,
    /// Element-wise sum of every run's counters.
    pub aggregate: KernelCounts,
    /// The reporting mode the sweep ran under.
    pub mode: SweepMode,
    /// Streaming group folds, in group-id order (empty in full mode).
    pub groups: Vec<GroupReport>,
    /// Per-run reports, in grid order (windows × traffic × retries × seeds);
    /// empty in streaming mode, which never materializes them.
    pub per_run: Vec<SweepRunReport>,
    /// Telemetry movement over this sweep (counters, stage timings and the
    /// stage tree), captured as a registry delta when telemetry was enabled
    /// for the run; `None` otherwise.
    pub telemetry: Option<TelemetrySnapshot>,
}

impl SweepReport {
    /// The report as a JSON object.
    pub fn to_json_value(&self) -> Value {
        let counts_json = |c: &KernelCounts| {
            let mut map = BTreeMap::new();
            map.insert(
                "packets_generated".to_string(),
                Value::from(c.packets_generated),
            );
            map.insert(
                "packets_delivered".to_string(),
                Value::from(c.packets_delivered),
            );
            map.insert(
                "packets_dropped".to_string(),
                Value::from(c.packets_dropped),
            );
            map.insert(
                "packets_pending".to_string(),
                Value::from(c.packets_pending),
            );
            map.insert("transmissions".to_string(), Value::from(c.transmissions));
            map.insert("receptions".to_string(), Value::from(c.receptions));
            map.insert("collisions".to_string(), Value::from(c.collisions));
            map.insert("total_latency".to_string(), Value::from(c.total_latency));
            map.insert("tx_slots".to_string(), Value::from(c.tx_slots));
            map.insert("rx_slots".to_string(), Value::from(c.rx_slots));
            map.insert("idle_slots".to_string(), Value::from(c.idle_slots));
            Value::Object(map)
        };
        let mut map = BTreeMap::new();
        map.insert("name".to_string(), Value::from(self.name.clone()));
        map.insert("mac".to_string(), Value::from(self.mac.clone()));
        map.insert("runs".to_string(), Value::from(self.runs));
        map.insert("slots".to_string(), Value::from(self.slots));
        map.insert("setup_seconds".to_string(), Value::from(self.setup_seconds));
        map.insert("run_seconds".to_string(), Value::from(self.run_seconds));
        map.insert(
            "runs_per_second".to_string(),
            Value::from(self.runs_per_second),
        );
        map.insert("caches".to_string(), self.caches.to_json_value());
        map.insert("aggregate".to_string(), counts_json(&self.aggregate));
        map.insert("mode".to_string(), Value::from(self.mode.name()));
        if let SweepMode::Streaming(group_spec) = &self.mode {
            map.insert("group_by".to_string(), group_spec.to_json_value());
            map.insert(
                "groups".to_string(),
                Value::Array(self.groups.iter().map(GroupReport::to_json_value).collect()),
            );
        }
        map.insert(
            "per_run".to_string(),
            Value::Array(
                self.per_run
                    .iter()
                    .map(|r| {
                        let mut run = BTreeMap::new();
                        run.insert("window".to_string(), Value::from(r.window));
                        run.insert("nodes".to_string(), Value::from(r.nodes));
                        run.insert("seed".to_string(), Value::from(r.seed));
                        run.insert("traffic".to_string(), Value::from(r.traffic.clone()));
                        run.insert("retries".to_string(), Value::from(u64::from(r.retries)));
                        run.insert("counts".to_string(), counts_json(&r.counts));
                        Value::Object(run)
                    })
                    .collect(),
            ),
        );
        if let Some(telemetry) = &self.telemetry {
            map.insert("telemetry".to_string(), telemetry.to_json_value());
        }
        Value::Object(map)
    }
}

impl fmt::Display for SweepReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<20} {:>4} runs x {:>6} slots ({}) in {:>8.2} ms (+{:.2} ms setup, {:>8.1} runs/s), \
             {} delivered / {} generated, {} collisions, plans {}h/{}m, traces {}h/{}m",
            self.name,
            self.runs,
            self.slots,
            self.mac,
            self.run_seconds * 1e3,
            self.setup_seconds * 1e3,
            self.runs_per_second,
            self.aggregate.packets_delivered,
            self.aggregate.packets_generated,
            self.aggregate.collisions,
            self.caches.plans.hits,
            self.caches.plans.misses,
            self.caches.traces.hits,
            self.caches.traces.misses,
        )
    }
}

/// The shared artifacts and axis metadata of one sweep grid: any run index
/// (in expansion order, windows × traffic × retries × seeds) resolves to a
/// ready-to-execute kernel configuration in O(1), so streaming sweeps never
/// materialize an O(runs) work list.
struct GridContext<'a> {
    spec: &'a SweepSpec,
    /// Per-window shared artifacts: (window side, node count, fused plan).
    plans: Vec<(i64, usize, Arc<FramePlan>)>,
    /// One label per traffic-axis value (shared, never cloned per run).
    labels: Vec<String>,
    /// Per-(window index, seed, load bits) compiled traffic traces.
    traces: HashMap<(usize, u64, u64), Arc<TrafficTrace>>,
    /// Per-(window index, seed) compiled ALOHA MAC decision bitmaps (empty
    /// unless the sweep replays Bernoulli traffic under ALOHA access).
    mac_traces: HashMap<(usize, u64), Arc<TrafficTrace>>,
    mac: KernelMac,
    /// The grid's lane batches ([`lane_tasks`]), when its seed axis is
    /// lane-dispatched; otherwise every run is its own work item.
    lanes: Option<Vec<(usize, usize)>>,
}

/// One resolved grid point.
struct RunPoint<'a> {
    window: i64,
    nodes: usize,
    seed: u64,
    traffic_index: usize,
    retries: u32,
    plan: &'a Arc<FramePlan>,
    config: KernelConfig,
}

impl GridContext<'_> {
    /// The (window, traffic, retries, seed) coordinate indices of a run index.
    #[inline]
    fn coords(&self, run: usize) -> (usize, usize, usize, usize) {
        let s = self.spec.seeds.len();
        let r = self.spec.retries.len();
        let t = self.spec.traffic.len();
        (run / (s * r * t), run / (s * r) % t, run / s % r, run % s)
    }

    /// Resolves one run index to its grid point and kernel configuration.
    fn point(&self, run: usize) -> RunPoint<'_> {
        let (w, ti, ri, si) = self.coords(run);
        let (window, nodes, plan) = &self.plans[w];
        let seed = self.spec.seeds.get(si);
        let retries = self.spec.retries[ri];
        let traffic = match &self.spec.traffic {
            SweepTraffic::Bernoulli(loads) => {
                // Lane-dispatched grids prefetch no traces: the lane kernel
                // draws generation bits inline from the counter RNG, which is
                // bit-identical to replaying a compiled trace of the same
                // (seed, p) — so the fallback changes dispatch, not results.
                let key = (w, seed, loads[ti].to_bits());
                match self.traces.get(&key) {
                    Some(trace) => KernelTraffic::Trace(Arc::clone(trace)),
                    None => KernelTraffic::Bernoulli { p: loads[ti] },
                }
            }
            SweepTraffic::Periodic(periods) => KernelTraffic::Periodic {
                period: periods[ti],
            },
            SweepTraffic::Staggered(periods) => KernelTraffic::Staggered {
                period: periods[ti],
            },
        };
        // A prefetched MAC decision bitmap replaces inline ALOHA draws for
        // this (window, seed); windows past the trace size cap have no entry
        // and keep the inline MAC.
        let mac = match self.mac_traces.get(&(w, seed)) {
            Some(trace) => KernelMac::AlohaTrace(Arc::clone(trace)),
            None => self.mac.clone(),
        };
        RunPoint {
            window: *window,
            nodes: *nodes,
            seed,
            traffic_index: ti,
            retries,
            plan,
            config: KernelConfig {
                slots: self.spec.slots,
                traffic,
                mac,
                max_retries: retries,
                seed,
            },
        }
    }

    /// Executes one work item — a single run, or a lane batch of up to 64
    /// consecutive runs (the seed sub-range of one `(window, traffic,
    /// retries)` grid point) through the bit-sliced kernel — and visits each
    /// of its runs as `(run index, counts)`, in grid order.
    fn visit(&self, item: usize, mut visit: impl FnMut(usize, KernelCounts)) -> Result<()> {
        let Some(tasks) = &self.lanes else {
            let point = self.point(item);
            visit(item, run_frames(point.plan, &point.config)?);
            return Ok(());
        };
        let (first, lanes) = tasks[item];
        let si = self.coords(first).3;
        let point = self.point(first);
        let seeds: Vec<u64> = (0..lanes).map(|l| self.spec.seeds.get(si + l)).collect();
        for (l, counts) in run_frames_lanes(point.plan, &point.config, &seeds)?
            .into_iter()
            .enumerate()
        {
            visit(first + l, counts);
        }
        Ok(())
    }

    /// Materializes one run's full-mode report from its counts.
    fn run_report(&self, run: usize, counts: KernelCounts) -> SweepRunReport {
        let point = self.point(run);
        SweepRunReport {
            window: point.window,
            nodes: point.nodes,
            seed: point.seed,
            traffic: self.labels[point.traffic_index].clone(),
            retries: point.retries,
            counts,
        }
    }
}

/// The lane batches of a grid, if its seed axis is lane-dispatchable:
/// `(first run index, lane count)` pairs covering every run, in grid order.
///
/// Lane dispatch applies to ALOHA access over periodic, staggered or
/// Bernoulli traffic with a multi-seed axis: those runs need the slot loop
/// (the MAC is stochastic), differ only in seed within one `(window, traffic,
/// retries)` grid point, and the seed axis is innermost in run order — so
/// every batch of up to 64 seeds is a contiguous run range. Bernoulli grids
/// became eligible when the lane kernel grew bit-planed backlog counters:
/// batched `bernoulli_lanes` draws replace per-seed traffic traces (and the
/// per-(window, seed) MAC decision bitmaps with them), bit-identically.
/// Tiling grids keep the scalar path (clean scheduled runs replay
/// analytically, faster than any loop).
fn lane_tasks(spec: &SweepSpec) -> Option<Vec<(usize, usize)>> {
    let eligible = matches!(spec.mac, SweepMac::Aloha { .. }) && spec.seeds.len() > 1;
    if !eligible {
        return None;
    }
    let s = spec.seeds.len();
    let points = spec.num_runs() / s;
    let mut tasks = Vec::with_capacity(points * s.div_ceil(64));
    for point in 0..points {
        let mut si = 0;
        while si < s {
            let lanes = (s - si).min(64);
            tasks.push((point * s + si, lanes));
            si += lanes;
        }
    }
    Some(tasks)
}

/// One band's share of the grid, folded in run order: the band's aggregate
/// plus, in streaming mode, dense per-group accumulators with a touched-list
/// ([`GroupFolds`] — O(1) array indexing per fold, fold storage proportional
/// to the groups the band actually saw), or in full mode every run's counters.
struct BandFold<'a> {
    grouping: Option<&'a GroupBy>,
    aggregate: KernelCounts,
    folds: GroupFolds,
    runs: Vec<KernelCounts>,
}

impl<'a> BandFold<'a> {
    fn new(grouping: Option<&'a GroupBy>) -> Self {
        BandFold {
            grouping,
            aggregate: KernelCounts::default(),
            folds: GroupFolds::new(grouping.map_or(0, GroupBy::num_groups)),
            runs: Vec::new(),
        }
    }

    fn observe(&mut self, run: usize, counts: KernelCounts) {
        self.aggregate.accumulate(&counts);
        match self.grouping {
            Some(grouping) => self.folds.observe(grouping.group_of_run(run), &counts),
            None => self.runs.push(counts),
        }
    }
}

/// Runs one sweep: compile every shared artifact once (through the caches),
/// execute the whole grid across all cores, and aggregate the counters —
/// per run in full mode, or as online per-axis group folds in streaming mode
/// (O(groups) report memory; `per_run` is never allocated).
///
/// # Errors
///
/// Propagates compilation, trace and kernel errors.
pub fn run_sweep(spec: &SweepSpec, caches: &SweepCaches) -> Result<SweepReport> {
    // Per-lookup tally: every cache access below records its own hit/miss
    // outcome here, so the report's counters belong to this sweep alone
    // (entry levels are filled in from the shared caches at the end).
    let mut tally = SweepCacheStats::default();
    let note = |stats: &mut StoreStats, hit: bool| {
        if hit {
            stats.hits += 1;
        } else {
            stats.misses += 1;
        }
    };
    let telemetry_before = telemetry().enabled().then(|| telemetry().snapshot());
    let setup_start = Instant::now();
    let setup_span = span(Stage::SweepSetup);
    let shape = spec.shape.prototile()?;

    // Per-window shared artifacts: adjacency (through the content-addressed
    // adjacency tier, so warm sweeps skip the window walk), slot assignment,
    // fused plan.
    let mut plans: Vec<(i64, usize, Arc<FramePlan>)> = Vec::with_capacity(spec.windows.len());
    for &window in &spec.windows {
        let region = BoxRegion::square_window(spec.shape.dim(), window)?;
        let (adjacency, hit) = caches.adjacencies.get_or_build_tracked(&region, &shape)?;
        note(&mut tally.adjacencies, hit);
        let nodes = adjacency.num_nodes();
        let (assignment, period) = match spec.mac {
            SweepMac::Tiling => {
                let (compiled, hit) = caches.schedules.get_or_compile_tracked(&shape)?;
                note(&mut tally.schedules, hit);
                let slots = compiled.slots_of_region(&region)?;
                (
                    slots.into_iter().map(usize::from).collect::<Vec<usize>>(),
                    compiled.num_slots(),
                )
            }
            // ALOHA has no frame structure: every node is a candidate in a
            // 1-slot frame and the MAC thins candidates stochastically.
            SweepMac::Aloha { .. } => (vec![0usize; nodes], 1),
        };
        let (plan, hit) = caches
            .plans
            .get_or_build_tracked(&assignment, period, &adjacency)?;
        note(&mut tally.plans, hit);
        plans.push((window, nodes, plan));
    }
    let mac = match spec.mac {
        SweepMac::Tiling => KernelMac::Scheduled,
        SweepMac::Aloha { p } => KernelMac::Aloha { p },
    };

    // The lane plan decides prefetch: lane-dispatched grids draw generation
    // and MAC bits inline inside the bit-sliced kernel, so compiling per-seed
    // traces for them would be pure setup waste.
    let lanes = lane_tasks(spec);

    // Per-(window, seed, load) compiled traffic traces, fetched through the
    // content-addressed trace tier: shared across the retry axis of the grid
    // within this sweep, and across sweeps reusing the same caches (warm
    // sweeps skip the `n × slots` draw compilation entirely).
    let mut traces: HashMap<(usize, u64, u64), Arc<TrafficTrace>> = HashMap::new();
    if let (SweepTraffic::Bernoulli(loads), None) = (&spec.traffic, &lanes) {
        for (w, (_, _, plan)) in plans.iter().enumerate() {
            for &p in loads {
                for seed in spec.seeds.iter() {
                    let (trace, hit) = caches
                        .traces
                        .get_or_build_tracked(plan, seed, p, spec.slots)?;
                    note(&mut tally.traces, hit);
                    traces.insert((w, seed, p.to_bits()), trace);
                }
            }
        }
    }

    // Per-(window, seed) compiled ALOHA MAC decision bitmaps, through the
    // same stream-tagged trace tier: when ALOHA runs replay compiled
    // Bernoulli traffic (the scalar path), the MAC's per-(node, slot)
    // transmission draws are hashed once per (window, seed) and shared across
    // the load and retry axes — and across warm sweeps. Lane-dispatched
    // grids (any multi-seed ALOHA grid) skip this: the lane kernel batches
    // MAC draws directly.
    let mut mac_traces: HashMap<(usize, u64), Arc<TrafficTrace>> = HashMap::new();
    if let (SweepMac::Aloha { p }, SweepTraffic::Bernoulli(_), None) =
        (spec.mac, &spec.traffic, &lanes)
    {
        for (w, (_, nodes, plan)) in plans.iter().enumerate() {
            // Windows past the trace size cap keep inline per-slot MAC draws.
            if nodes.div_ceil(64) as u64 * spec.slots > TRACE_WORD_LIMIT {
                continue;
            }
            for seed in spec.seeds.iter() {
                let (trace, hit) = caches
                    .traces
                    .get_or_build_mac_tracked(plan, seed, p, spec.slots)?;
                note(&mut tally.traces, hit);
                mac_traces.insert((w, seed), trace);
            }
        }
    }

    let ctx = GridContext {
        spec,
        plans,
        labels: (0..spec.traffic.len())
            .map(|ti| spec.traffic.label(ti))
            .collect(),
        traces,
        mac_traces,
        mac,
        lanes,
    };
    let num_runs = spec.num_runs();
    // Resolve the grouping before the timed run phase so misconfigured specs
    // fail fast and bookkeeping counts as setup.
    let grouping = match &spec.mode {
        SweepMode::Full => None,
        SweepMode::Streaming(group_spec) => Some(GroupBy::for_spec(spec, group_spec)?),
    };
    drop(setup_span);
    let setup_seconds = setup_start.elapsed().as_secs_f64();

    // Execute the grid: one work item per run (or per 64-seed lane batch),
    // folded in balanced bands that worker threads claim from one atomic
    // counter — run costs are heterogeneous (analytic replays vs slot loops
    // vs lane batches), so workers that draw cheap bands pull more instead of
    // idling. Full-mode bands keep their runs' counters in run order;
    // streaming bands fold them into per-group accumulators, commutative
    // monoids over exact integers. Either way the merge in band order
    // reproduces the sequential result bit for bit, whoever ran which band.
    let run_start = Instant::now();
    let run_span = span(Stage::SweepRun);
    let items = ctx.lanes.as_ref().map_or(num_runs, Vec::len);
    let bands = steal_fold(items, |items| -> Result<BandFold<'_>> {
        // Worker threads start with an empty span path, so the band span
        // re-parents itself under the sweep's run span.
        let _span = span_within(&[Stage::SweepRun], Stage::SweepBand);
        let mut band = BandFold::new(grouping.as_ref());
        for item in items {
            ctx.visit(item, |run, counts| band.observe(run, counts))?;
        }
        Ok(band)
    });
    let merge_span = span(Stage::FoldMerge);
    let mut aggregate = KernelCounts::default();
    let mut folds = vec![OnlineFold::new(); grouping.as_ref().map_or(0, GroupBy::num_groups)];
    let mut per_run = Vec::with_capacity(if grouping.is_none() { num_runs } else { 0 });
    for band in bands {
        let band = band?;
        aggregate.accumulate(&band.aggregate);
        band.folds.merge_into(&mut folds);
        for counts in band.runs {
            per_run.push(ctx.run_report(per_run.len(), counts));
        }
    }
    let groups = grouping.map_or_else(Vec::new, |grouping| grouping.reports(spec, folds));
    drop(merge_span);
    drop(run_span);
    let run_seconds = run_start.elapsed().as_secs_f64();

    // Entry counts are levels, not flows: report where the shared caches
    // stand now, next to this sweep's own hit/miss tallies.
    let levels = caches.stats();
    tally.schedules.entries = levels.schedules.entries;
    tally.adjacencies.entries = levels.adjacencies.entries;
    tally.plans.entries = levels.plans.entries;
    tally.traces.entries = levels.traces.entries;
    tally.searches.entries = levels.searches.entries;

    Ok(SweepReport {
        name: spec.name.clone(),
        mac: spec.mac.to_string(),
        runs: num_runs,
        slots: spec.slots,
        setup_seconds,
        run_seconds,
        runs_per_second: num_runs as f64 / run_seconds.max(1e-12),
        caches: tally,
        aggregate,
        mode: spec.mode.clone(),
        groups,
        per_run,
        telemetry: telemetry_before.map(|before| telemetry().snapshot().since(&before)),
    })
}

/// The default sweep `engine-cli sweep` runs when given no spec file: a 64-run
/// stochastic grid (2 loads × 4 retry budgets × 8 seeds) of Bernoulli traffic
/// under the Moore tiling schedule on a 64×64 window.
pub fn builtin_sweep() -> SweepSpec {
    SweepSpec {
        name: "moore-bernoulli-64".into(),
        shape: ShapeSpec::Ball {
            dim: 2,
            radius: 1,
            metric: latsched_lattice::Metric::Chebyshev,
        },
        windows: vec![64],
        slots: 512,
        mac: SweepMac::Tiling,
        traffic: SweepTraffic::Bernoulli(vec![0.02, 0.05]),
        seeds: (1..=8).collect(),
        retries: vec![0, 1, 2, 4],
        mode: SweepMode::Full,
    }
}

fn get_u64_array(value: &Value, field: &str) -> Result<Vec<u64>> {
    let raw = value
        .get(field)
        .and_then(Value::as_array)
        .ok_or_else(|| invalid(&format!("missing or non-array field '{field}'")))?;
    if raw.is_empty() {
        return Err(invalid(&format!("'{field}' must not be empty")));
    }
    raw.iter()
        .map(|v| {
            v.as_u64()
                .ok_or_else(|| invalid(&format!("'{field}' entries must be nonnegative integers")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            windows: vec![8],
            slots: 64,
            seeds: vec![1, 2].into(),
            retries: vec![0, 2],
            traffic: SweepTraffic::Bernoulli(vec![0.1]),
            ..builtin_sweep()
        }
    }

    #[test]
    fn parses_sweep_specs() {
        let text = r#"{
            "name": "s",
            "shape": {"kind": "ball", "dim": 2, "radius": 1},
            "windows": [16, 32],
            "slots": 128,
            "mac": {"kind": "aloha", "p": 0.2},
            "traffic": {"kind": "bernoulli", "loads": [0.05, 0.1]},
            "seeds": [1, 2, 3],
            "retries": [0, 4]
        }"#;
        let specs = SweepSpec::parse_spec(text).unwrap();
        assert_eq!(specs.len(), 1);
        let spec = &specs[0];
        assert_eq!(spec.name, "s");
        assert_eq!(spec.mac, SweepMac::Aloha { p: 0.2 });
        assert_eq!(spec.num_runs(), 2 * 2 * 2 * 3);
        // Defaults: omitted mac means the tiling schedule.
        let text = r#"{
            "shape": {"kind": "hex7"}, "windows": [8], "slots": 16,
            "traffic": {"kind": "staggered", "periods": [4, 8]},
            "seeds": [0], "retries": [1]
        }"#;
        let spec = &SweepSpec::parse_spec(text).unwrap()[0];
        assert_eq!(spec.mac, SweepMac::Tiling);
        assert_eq!(spec.traffic, SweepTraffic::Staggered(vec![4, 8]));
    }

    #[test]
    fn rejects_malformed_sweep_specs() {
        for bad in [
            "not json",
            r#"{"windows": [8]}"#,
            r#"{"shape": {"kind": "hex7"}, "windows": [], "slots": 8,
                "traffic": {"kind": "bernoulli", "loads": [0.1]}, "seeds": [1], "retries": [0]}"#,
            r#"{"shape": {"kind": "hex7"}, "windows": [8], "slots": 8,
                "traffic": {"kind": "warp"}, "seeds": [1], "retries": [0]}"#,
            r#"{"shape": {"kind": "hex7"}, "windows": [8], "slots": 8,
                "traffic": {"kind": "periodic", "periods": [0]}, "seeds": [1], "retries": [0]}"#,
            r#"{"shape": {"kind": "hex7"}, "windows": [8], "slots": 8,
                "mac": {"kind": "aloha"},
                "traffic": {"kind": "bernoulli", "loads": [0.1]}, "seeds": [1], "retries": [0]}"#,
        ] {
            assert!(SweepSpec::parse_spec(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn seed_axis_parses_ranges_lazily() {
        let spec_text = |seeds: &str| {
            format!(
                r#"{{"shape": {{"kind": "hex7"}}, "windows": [8], "slots": 16,
                    "traffic": {{"kind": "bernoulli", "loads": [0.1]}},
                    "seeds": {seeds}, "retries": [0]}}"#
            )
        };
        let spec = &SweepSpec::parse_spec(&spec_text(r#"{"range": [1, 5000000]}"#)).unwrap()[0];
        assert_eq!(
            spec.seeds,
            SeedAxis::Range {
                start: 1,
                end: 5_000_000
            }
        );
        // A five-million-seed axis is O(1) memory: length and lookups are
        // computed, never materialized.
        assert_eq!(spec.seeds.len(), 5_000_000);
        assert_eq!(spec.num_runs(), 5_000_000);
        assert_eq!(spec.seeds.get(0), 1);
        assert_eq!(spec.seeds.get(4_999_999), 5_000_000);
        assert_eq!(spec.seeds.iter().take(3).collect::<Vec<u64>>(), [1, 2, 3]);
        // A singleton range is valid.
        let one =
            SeedAxis::from_json(&serde_json::from_str(r#"{"range": [7, 7]}"#).unwrap()).unwrap();
        assert_eq!(one.iter().collect::<Vec<u64>>(), [7]);
        // Malformed axes are rejected.
        for bad in [
            r#"[]"#,
            r#"[1, -2]"#,
            r#"{"range": [5, 1]}"#,
            r#"{"range": [1]}"#,
            r#"{"range": [1, 2, 3]}"#,
            r#"{"range": ["a", "b"]}"#,
            r#"{"span": [1, 2]}"#,
            r#""everything""#,
        ] {
            assert!(
                SweepSpec::parse_spec(&spec_text(bad)).is_err(),
                "accepted seeds: {bad}"
            );
        }
    }

    #[test]
    fn seed_range_sweeps_match_list_sweeps() {
        let caches = SweepCaches::new();
        let list = run_sweep(&tiny_spec(), &caches).unwrap();
        let ranged = run_sweep(
            &SweepSpec {
                seeds: SeedAxis::Range { start: 1, end: 2 },
                ..tiny_spec()
            },
            &caches,
        )
        .unwrap();
        // Equal seed contents ⇒ bit-identical runs, whatever the axis form.
        assert_eq!(list.per_run, ranged.per_run);
        assert_eq!(list.aggregate, ranged.aggregate);
    }

    #[test]
    fn grid_adjacency_matches_hand_counts() {
        // 3×3 Moore window: the centre node affects all 8 others, corners 3.
        let region = BoxRegion::square_window(2, 3).unwrap();
        let shape = latsched_tiling::shapes::moore();
        let csr = grid_adjacency(&region, &shape).unwrap();
        assert_eq!(csr.num_nodes(), 9);
        let degrees: Vec<usize> = (0..9).map(|v| csr.degree(v)).collect();
        // Lexicographic order: (0,0), (0,1), (0,2), (1,0), (1,1), …
        assert_eq!(degrees, vec![3, 5, 3, 5, 8, 5, 3, 5, 3]);
        // Neighbour lists are sorted and self-free.
        for v in 0..9 {
            let ns = csr.neighbours_of(v);
            assert!(ns.windows(2).all(|w| w[0] < w[1]));
            assert!(!ns.contains(&(v as u32)));
        }
    }

    #[test]
    fn sweep_runs_whole_grid_and_aggregates() {
        let spec = tiny_spec();
        let caches = SweepCaches::new();
        let report = run_sweep(&spec, &caches).unwrap();
        assert_eq!(report.runs, 4);
        assert_eq!(report.per_run.len(), 4);
        // One plan built, reused by every other run of the window; one trace
        // per (seed, load) pair, shared across the retry axis.
        assert_eq!(report.caches.plans.misses, 1);
        assert_eq!(
            report.caches.plans.hits, 0,
            "plan looked up once per window"
        );
        assert_eq!(report.caches.schedules.misses, 1);
        assert_eq!(report.caches.traces.misses, 2, "one trace per seed");
        assert_eq!(report.caches.traces.hits, 0);
        let mut sum = KernelCounts::default();
        for run in &report.per_run {
            assert_eq!(run.window, 8);
            assert_eq!(run.nodes, 64);
            assert_eq!(
                run.counts.packets_generated,
                run.counts.packets_delivered
                    + run.counts.packets_dropped
                    + run.counts.packets_pending
            );
            sum.accumulate(&run.counts);
        }
        assert_eq!(sum, report.aggregate);
        assert!(report.aggregate.packets_generated > 0);
        // Same seed + load + retries ⇒ same counters regardless of grid position.
        let again = run_sweep(&spec, &caches).unwrap();
        assert_eq!(report.per_run, again.per_run);
        // The warm sweep hits every tier: no schedule, plan or trace rebuilds.
        assert_eq!(again.caches.plans.misses, 0);
        assert!(again.caches.plans.hits > 0);
        assert_eq!(again.caches.schedules.misses, 0);
        assert_eq!(again.caches.traces.misses, 0, "warm sweeps reuse traces");
        assert_eq!(again.caches.traces.hits, 2);
        assert_eq!(again.caches.traces.entries, 2);
        let json = report.to_json_value();
        assert_eq!(json.get("runs").unwrap().as_u64(), Some(4));
        assert!(json.get("per_run").unwrap().as_array().unwrap().len() == 4);
        let caches_json = json.get("caches").unwrap();
        assert_eq!(
            caches_json
                .get("traces")
                .unwrap()
                .get("misses")
                .unwrap()
                .as_u64(),
            Some(2)
        );
        assert!(report.to_string().contains("4 runs"));
        assert!(report.caches.to_string().contains("traces"));
    }

    #[test]
    fn streaming_mode_folds_groups_without_per_run_reports() {
        use crate::aggregate::fold_full_report;

        let full_spec = SweepSpec {
            windows: vec![6, 8],
            slots: 96,
            seeds: vec![1, 2, 3].into(),
            retries: vec![0, 2],
            traffic: SweepTraffic::Bernoulli(vec![0.1, 0.3]),
            ..builtin_sweep()
        };
        let group_spec = GroupSpec::parse("load,retries").unwrap();
        let streaming_spec = SweepSpec {
            mode: SweepMode::Streaming(group_spec.clone()),
            ..full_spec.clone()
        };
        let caches = SweepCaches::new();
        let full = run_sweep(&full_spec, &caches).unwrap();
        let streaming = run_sweep(&streaming_spec, &caches).unwrap();

        assert_eq!(streaming.runs, full.runs);
        assert!(
            streaming.per_run.is_empty(),
            "streaming never builds per_run"
        );
        assert!(full.groups.is_empty(), "full mode reports no groups");
        assert_eq!(streaming.aggregate, full.aggregate);
        assert_eq!(streaming.groups.len(), 2 * 2);

        // The streaming folds are bit-identical to folding the full report's
        // per-run list by the same axes.
        let folded = fold_full_report(&full_spec, &group_spec, &full.per_run).unwrap();
        assert_eq!(streaming.groups, folded);
        let total_runs: u64 = streaming.groups.iter().map(|g| g.fold.runs).sum();
        assert_eq!(total_runs, full.runs as u64);

        // Group JSON carries keys, stats and histograms under stable names.
        let json = streaming.to_json_value();
        assert_eq!(json.get("mode").unwrap().as_str(), Some("streaming"));
        assert_eq!(json.get("group_by").unwrap(), &group_spec.to_json_value());
        let groups = json.get("groups").unwrap().as_array().unwrap();
        assert_eq!(groups.len(), 4);
        assert!(groups[0].get("key").unwrap().get("traffic").is_some());
        assert!(groups[0]
            .get("stats")
            .unwrap()
            .get("packets_delivered")
            .is_some());
        assert!(json.get("per_run").unwrap().as_array().unwrap().is_empty());
        // Full-mode JSON stays shaped as before (mode only).
        assert_eq!(
            full.to_json_value().get("mode").unwrap().as_str(),
            Some("full")
        );
        assert!(full.to_json_value().get("groups").is_none());
    }

    #[test]
    fn streaming_specs_parse_from_json() {
        let text = r#"{
            "shape": {"kind": "ball", "dim": 2, "radius": 1},
            "windows": [8], "slots": 32,
            "traffic": {"kind": "bernoulli", "loads": [0.1]},
            "seeds": [1, 2], "retries": [0],
            "mode": "streaming", "group_by": ["seed"]
        }"#;
        let spec = &SweepSpec::parse_spec(text).unwrap()[0];
        assert_eq!(
            spec.mode,
            SweepMode::Streaming(GroupSpec::parse("seed").unwrap())
        );
        // group_by alone implies streaming…
        let implied = text.replace(r#""mode": "streaming", "#, "");
        let spec = &SweepSpec::parse_spec(&implied).unwrap()[0];
        assert!(matches!(spec.mode, SweepMode::Streaming(_)));
        // …but full mode with group_by is contradictory.
        let contradictory = text.replace(r#""mode": "streaming""#, r#""mode": "full""#);
        assert!(SweepSpec::parse_spec(&contradictory).is_err());
        let bad_mode = text.replace(r#""mode": "streaming""#, r#""mode": "warp""#);
        assert!(SweepSpec::parse_spec(&bad_mode).is_err());
        // Streaming with no group_by folds everything into one group.
        let global = text.replace(r#", "group_by": ["seed"]"#, "");
        let spec = &SweepSpec::parse_spec(&global).unwrap()[0];
        assert_eq!(spec.mode, SweepMode::Streaming(GroupSpec::default()));
        let report = run_sweep(spec, &SweepCaches::new()).unwrap();
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].fold.runs, 2);
        assert_eq!(report.groups[0].fold.sums(), report.aggregate);
    }

    #[test]
    fn adjacency_tier_serves_warm_sweeps() {
        let spec = tiny_spec();
        let caches = SweepCaches::new();
        let cold = run_sweep(&spec, &caches).unwrap();
        assert_eq!(cold.caches.adjacencies.misses, 1);
        assert_eq!(cold.caches.adjacencies.hits, 0);
        let warm = run_sweep(&spec, &caches).unwrap();
        assert_eq!(warm.caches.adjacencies.misses, 0, "adjacency reused warm");
        assert_eq!(warm.caches.adjacencies.hits, 1);
        assert_eq!(warm.caches.adjacencies.entries, 1);
        // The tier shows up in the JSON and display surfaces.
        let json = warm.to_json_value();
        assert_eq!(
            json.get("caches")
                .unwrap()
                .get("adjacencies")
                .unwrap()
                .get("misses")
                .unwrap()
                .as_u64(),
            Some(0)
        );
        assert!(warm.caches.to_string().contains("adjacencies"));
    }

    #[test]
    fn retry_axis_shares_traces_but_changes_outcomes() {
        let spec = SweepSpec {
            retries: vec![0, 8],
            traffic: SweepTraffic::Bernoulli(vec![0.4]),
            mac: SweepMac::Aloha { p: 0.5 },
            seeds: vec![7].into(),
            ..tiny_spec()
        };
        let report = run_sweep(&spec, &SweepCaches::new()).unwrap();
        assert_eq!(report.runs, 2);
        let (a, b) = (&report.per_run[0], &report.per_run[1]);
        // Same trace ⇒ identical generation counts; different budgets ⇒
        // different drop behaviour.
        assert_eq!(a.counts.packets_generated, b.counts.packets_generated);
        assert!(a.counts.packets_dropped > b.counts.packets_dropped);
    }

    #[test]
    fn lane_dispatched_sweeps_match_scalar_per_seed_sweeps() {
        // ALOHA + staggered + 3 seeds lane-dispatches; the same grid with
        // single-seed axes stays scalar (lanes need a multi-seed axis), so
        // this pins lane batches bit-for-bit against the scalar kernel at the
        // sweep level, across the traffic and retry axes.
        let spec = SweepSpec {
            mac: SweepMac::Aloha { p: 0.4 },
            traffic: SweepTraffic::Staggered(vec![3, 8]),
            seeds: vec![5, 6, 7].into(),
            retries: vec![0, 2],
            ..tiny_spec()
        };
        let caches = SweepCaches::new();
        let report = run_sweep(&spec, &caches).unwrap();
        assert_eq!(report.runs, 12);
        assert_eq!(report.per_run.len(), 12);
        for (i, seed) in [5u64, 6, 7].into_iter().enumerate() {
            let scalar = run_sweep(
                &SweepSpec {
                    seeds: vec![seed].into(),
                    ..spec.clone()
                },
                &caches,
            )
            .unwrap();
            for (j, run) in scalar.per_run.iter().enumerate() {
                assert_eq!(report.per_run[j * 3 + i], *run, "seed {seed} point {j}");
            }
        }
        // Streaming over the same grid folds the identical lane counts.
        let streaming = run_sweep(
            &SweepSpec {
                mode: SweepMode::Streaming(GroupSpec::default()),
                ..spec
            },
            &caches,
        )
        .unwrap();
        assert_eq!(streaming.aggregate, report.aggregate);
    }

    #[test]
    fn mac_decision_bitmaps_are_cached_for_bernoulli_aloha_sweeps() {
        // A *single-seed* ALOHA × Bernoulli grid keeps the scalar trace path:
        // one traffic trace and one MAC decision bitmap for the seed, both
        // replayed warm, and results unchanged by where the draws came from.
        // (Multi-seed grids lane-dispatch and compile no traces at all — see
        // `bernoulli_lane_sweeps_match_scalar_trace_sweeps`.)
        let spec = SweepSpec {
            mac: SweepMac::Aloha { p: 0.3 },
            traffic: SweepTraffic::Bernoulli(vec![0.2]),
            seeds: vec![9].into(),
            retries: vec![1, 4],
            ..tiny_spec()
        };
        let caches = SweepCaches::new();
        let cold = run_sweep(&spec, &caches).unwrap();
        assert_eq!(
            cold.caches.traces.misses, 2,
            "one traffic trace + one MAC bitmap for the seed"
        );
        let warm = run_sweep(&spec, &caches).unwrap();
        assert_eq!(
            warm.caches.traces.misses, 0,
            "warm sweeps reuse MAC bitmaps"
        );
        assert_eq!(warm.caches.traces.hits, 2);
        assert_eq!(warm.caches.traces.entries, 2);
        assert_eq!(cold.per_run, warm.per_run);
        assert!(cold.aggregate.collisions > 0, "ALOHA at p=0.3 collides");
    }

    #[test]
    fn bernoulli_lane_sweeps_match_scalar_trace_sweeps() {
        // A multi-seed ALOHA × Bernoulli grid lane-dispatches: no traffic
        // traces or MAC bitmaps are compiled (inline lane draws replace
        // both), and every run's counters are bit-identical to the
        // trace-replaying scalar path of the same single-seed grid.
        let spec = SweepSpec {
            mac: SweepMac::Aloha { p: 0.3 },
            traffic: SweepTraffic::Bernoulli(vec![0.1, 0.2]),
            seeds: vec![1, 9, 23].into(),
            retries: vec![1, 4],
            ..tiny_spec()
        };
        assert!(
            lane_tasks(&spec).is_some(),
            "multi-seed grids lane-dispatch"
        );
        let caches = SweepCaches::new();
        let laned = run_sweep(&spec, &caches).unwrap();
        assert_eq!(laned.runs, 12);
        assert_eq!(
            laned.caches.traces.misses + laned.caches.traces.hits,
            0,
            "lane dispatch never touches the trace tier"
        );
        for (i, seed) in [1u64, 9, 23].into_iter().enumerate() {
            let scalar = run_sweep(
                &SweepSpec {
                    seeds: vec![seed].into(),
                    ..spec.clone()
                },
                &caches,
            )
            .unwrap();
            for (j, run) in scalar.per_run.iter().enumerate() {
                assert_eq!(laned.per_run[j * 3 + i], *run, "seed {seed} point {j}");
            }
        }
        assert!(laned.aggregate.collisions > 0, "ALOHA at p=0.3 collides");
    }

    #[test]
    fn periodic_sweeps_run_without_traces() {
        let spec = SweepSpec {
            traffic: SweepTraffic::Periodic(vec![16, 32]),
            seeds: vec![1].into(),
            retries: vec![2],
            ..tiny_spec()
        };
        let report = run_sweep(&spec, &SweepCaches::new()).unwrap();
        assert_eq!(report.runs, 2);
        assert_eq!(report.aggregate.collisions, 0, "tiling MACs never collide");
        assert!(report.aggregate.packets_delivered > 0);
    }
}
