//! The traced per-layer run.
//!
//! A sweep op is decomposed from outside the engine: the benchmark parses the
//! spec, resolves tiers 1–4 (schedule, adjacency, plan, trace) itself through
//! the engine's public cache API, timing each call, and only then calls
//! `run_sweep` on the resolved caches. The sweep's own per-lookup tally must
//! then show zero misses on those tiers and exactly as many hits as the
//! benchmark made lookups, so the outside decomposition cannot drift from
//! what the program does. A search op is timed as one layer (`run_search`).
//! The engine's telemetry registry is on for the pass; each report's
//! snapshot supplies dispatch mix, lane and steal counters and fold-merge
//! time.

use crate::op::{single, sweep_node_slots, take_panic};
use crate::sys::process_cpu_seconds;
use crate::workload::{Op, OpKind};
use latsched_engine::telemetry::{Counter, Stage, TelemetrySnapshot, DISPATCH_COUNTERS};
use latsched_engine::{
    run_search, run_sweep, StoreStats, SweepCacheStats, SweepCaches, SweepMac, SweepSpec,
    SweepTraffic, TrafficTrace,
};
use latsched_lattice::BoxRegion;
use std::hint::black_box;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Largest MAC decision trace `run_sweep` prefetches, in `u64` words (the
/// engine's trace size cap); wider windows keep inline MAC draws.
const TRACE_WORD_LIMIT: u64 = 1 << 28;

/// Layer totals over one traced pass.
#[derive(Default)]
pub struct Layers {
    /// Ops traced.
    pub ops: usize,
    /// Seconds parsing specs.
    pub parse_s: f64,
    /// Seconds in `ScheduleCache::get_or_compile` + `slots_of_region`.
    pub schedule_s: f64,
    /// Seconds in `AdjacencyCache::get_or_build`.
    pub adjacency_s: f64,
    /// Seconds in `PlanCache::get_or_build`.
    pub plan_s: f64,
    /// Seconds in `TraceCache::get_or_build{,_mac}`.
    pub trace_s: f64,
    /// Bytes of the traces built (bitmap words plus per-slot counts).
    pub trace_bytes: u64,
    /// Seconds in `run_sweep` on resolved caches.
    pub sweep_run_s: f64,
    /// Seconds in `run_search`.
    pub search_run_s: f64,
    /// Seconds serializing reports.
    pub json_s: f64,
    /// Seconds per op end to end, traced.
    pub total_s: f64,
    /// Process CPU seconds inside `run_sweep` / `run_search`.
    pub entry_cpu_s: f64,
    /// Sweeps' run-phase seconds (`SweepReport::run_seconds`).
    pub kernel_s: f64,
    /// Node-slots simulated by the traced sweeps.
    pub kernel_node_slots: u64,
    /// Node-slots of every traced op (sweeps and searches).
    pub node_slots: u64,
    /// Cache lookups the ops' program paths made, per tier.
    pub tally: SweepCacheStats,
    /// Runs per kernel dispatch path, in `DISPATCH_COUNTERS` order.
    pub dispatch: [u64; 6],
    /// Work-stealing chunk claims.
    pub steal_claims: u64,
    /// Lane batches executed.
    pub lane_batches: u64,
    /// Runs executed inside lane batches.
    pub lane_runs: u64,
    /// Seconds merging streaming folds (`fold_merge` stage).
    pub merge_s: f64,
    /// Streaming groups reported.
    pub groups: u64,
    /// Candidates enumerated by searches that ran cold.
    pub candidates: u64,
    /// Traced ops that panicked.
    pub panics: u64,
    /// Traced ops that returned `Err`.
    pub errors: u64,
    /// Per op, milliseconds in the engine entry point (`run_sweep` or
    /// `run_search`); `None` where the op failed.
    pub entry_ms: Vec<Option<f64>>,
    /// Disagreements between the outside decomposition and the sweep's own
    /// tally.
    pub drift: Vec<String>,
}

fn text<E: ToString>(e: E) -> String {
    e.to_string()
}

fn note(stats: &mut StoreStats, hit: bool) {
    if hit {
        stats.hits += 1;
    } else {
        stats.misses += 1;
    }
}

fn secs(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

/// Heap bytes of a compiled trace: its slot-major bitmap plus per-slot
/// arrival counts.
fn trace_bytes(trace: &TrafficTrace) -> u64 {
    let slots = trace.num_slots();
    trace.num_nodes().div_ceil(64) as u64 * slots * 8 + slots * 4
}

impl Layers {
    /// Traces one op. Sweeps get fresh caches; searches use `shared`.
    pub fn trace_op(&mut self, op: &Op, shared: &SweepCaches) {
        take_panic();
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| match op.kind {
            OpKind::Sweep => self.trace_sweep(&op.spec),
            OpKind::Search => self.trace_search(&op.spec, shared),
        }));
        self.total_s += secs(start);
        self.ops += 1;
        let entry_ms = match result {
            Ok(Ok(ms)) => Some(ms),
            Ok(Err(_)) => {
                self.errors += 1;
                None
            }
            Err(_) => {
                take_panic();
                self.panics += 1;
                None
            }
        };
        self.entry_ms.push(entry_ms);
    }

    fn trace_sweep(&mut self, spec_text: &str) -> Result<f64, String> {
        let t = Instant::now();
        let spec = single(SweepSpec::parse_spec(spec_text).map_err(text)?)?;
        self.parse_s += secs(t);
        let caches = SweepCaches::new();
        let lookups = self.resolve(&spec, &caches)?;

        let (report, wall) = self.entry(OpKind::Sweep, || run_sweep(&spec, &caches));
        let report = report.map_err(text)?;

        let c = &report.caches;
        let tiers = [
            ("schedules", c.schedules),
            ("adjacencies", c.adjacencies),
            ("plans", c.plans),
            ("traces", c.traces),
        ];
        for ((tier, stats), expected) in tiers.into_iter().zip(lookups) {
            if stats.misses != 0 || stats.hits != expected {
                self.drift.push(format!(
                    "{}: tier {tier} shows {} hits / {} misses after {expected} outside lookups",
                    spec.name, stats.hits, stats.misses
                ));
            }
        }

        let t = Instant::now();
        black_box(serde_json::to_string(&report.to_json_value()));
        self.json_s += secs(t);

        if let Some(snapshot) = &report.telemetry {
            self.absorb(snapshot);
        }
        self.groups += report.groups.len() as u64;
        self.kernel_s += report.run_seconds;
        let node_slots = sweep_node_slots(&spec);
        self.kernel_node_slots += node_slots;
        self.node_slots += node_slots;
        Ok(wall * 1e3)
    }

    /// Resolves tiers 1–4 for a sweep exactly as `run_sweep` would, timing
    /// each tier; returns the lookups made per tier (schedules, adjacencies,
    /// plans, traces).
    fn resolve(&mut self, spec: &SweepSpec, caches: &SweepCaches) -> Result<[u64; 4], String> {
        let mut lookups = [0u64; 4];
        let shape = spec.shape.prototile().map_err(text)?;
        let mut plans = Vec::with_capacity(spec.windows.len());
        for &window in &spec.windows {
            let region = BoxRegion::square_window(spec.shape.dim(), window).map_err(text)?;
            let t = Instant::now();
            let (adjacency, hit) = caches
                .adjacencies
                .get_or_build_tracked(&region, &shape)
                .map_err(text)?;
            self.adjacency_s += secs(t);
            note(&mut self.tally.adjacencies, hit);
            lookups[1] += 1;
            let (assignment, period) = match spec.mac {
                SweepMac::Tiling => {
                    let t = Instant::now();
                    let (compiled, hit) = caches
                        .schedules
                        .get_or_compile_tracked(&shape)
                        .map_err(text)?;
                    let slots = compiled.slots_of_region(&region).map_err(text)?;
                    self.schedule_s += secs(t);
                    note(&mut self.tally.schedules, hit);
                    lookups[0] += 1;
                    (
                        slots.into_iter().map(usize::from).collect::<Vec<usize>>(),
                        compiled.num_slots(),
                    )
                }
                SweepMac::Aloha { .. } => (vec![0usize; adjacency.num_nodes()], 1),
            };
            let t = Instant::now();
            let (plan, hit) = caches
                .plans
                .get_or_build_tracked(&assignment, period, &adjacency)
                .map_err(text)?;
            self.plan_s += secs(t);
            note(&mut self.tally.plans, hit);
            lookups[2] += 1;
            plans.push(plan);
        }

        // Multi-seed ALOHA grids run on the lane kernel, which draws inline:
        // `run_sweep` prefetches no traces for them.
        let lanes = matches!(spec.mac, SweepMac::Aloha { .. }) && spec.seeds.len() > 1;
        let SweepTraffic::Bernoulli(loads) = &spec.traffic else {
            return Ok(lookups);
        };
        if lanes {
            return Ok(lookups);
        }
        let t = Instant::now();
        for plan in &plans {
            for &p in loads {
                for seed in spec.seeds.iter() {
                    let (trace, hit) = caches
                        .traces
                        .get_or_build_tracked(plan, seed, p, spec.slots)
                        .map_err(text)?;
                    note(&mut self.tally.traces, hit);
                    lookups[3] += 1;
                    if !hit {
                        self.trace_bytes += trace_bytes(&trace);
                    }
                }
            }
            if let SweepMac::Aloha { p } = spec.mac {
                if plan.num_nodes().div_ceil(64) as u64 * spec.slots > TRACE_WORD_LIMIT {
                    continue;
                }
                for seed in spec.seeds.iter() {
                    let (trace, hit) = caches
                        .traces
                        .get_or_build_mac_tracked(plan, seed, p, spec.slots)
                        .map_err(text)?;
                    note(&mut self.tally.traces, hit);
                    lookups[3] += 1;
                    if !hit {
                        self.trace_bytes += trace_bytes(&trace);
                    }
                }
            }
        }
        self.trace_s += secs(t);
        Ok(lookups)
    }

    fn trace_search(&mut self, spec_text: &str, caches: &SweepCaches) -> Result<f64, String> {
        let t = Instant::now();
        let spec = single(latsched_engine::SearchSpec::parse_spec(spec_text).map_err(text)?)?;
        self.parse_s += secs(t);

        let (report, wall) = self.entry(OpKind::Search, || run_search(&spec, caches));
        let report = report.map_err(text)?;

        let t = Instant::now();
        black_box(serde_json::to_string(&report.to_json_value()));
        self.json_s += secs(t);

        let c = &report.caches;
        let tally = &mut self.tally;
        for (sum, add) in [
            (&mut tally.schedules, c.schedules),
            (&mut tally.adjacencies, c.adjacencies),
            (&mut tally.plans, c.plans),
            (&mut tally.traces, c.traces),
            (&mut tally.searches, c.searches),
        ] {
            sum.hits += add.hits;
            sum.misses += add.misses;
        }
        if let Some(snapshot) = &report.telemetry {
            self.absorb(snapshot);
        }
        let o = &report.outcome;
        if !report.from_cache {
            self.candidates += o.candidates() as u64;
        }
        self.node_slots += (o.nodes * o.runs_per_candidate * o.candidates()) as u64 * spec.slots;
        Ok(wall * 1e3)
    }

    /// Calls an engine entry point (`run_sweep` or `run_search`), booking
    /// its wall and CPU time even when it fails: a panic is re-raised after
    /// the time is booked.
    fn entry<T>(&mut self, kind: OpKind, call: impl FnOnce() -> T) -> (T, f64) {
        let cpu = process_cpu_seconds();
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(call));
        let wall = secs(t);
        self.entry_cpu_s += process_cpu_seconds() - cpu;
        match kind {
            OpKind::Sweep => self.sweep_run_s += wall,
            OpKind::Search => self.search_run_s += wall,
        }
        match result {
            Ok(value) => (value, wall),
            Err(payload) => resume_unwind(payload),
        }
    }

    fn absorb(&mut self, snapshot: &TelemetrySnapshot) {
        for (sum, counter) in self.dispatch.iter_mut().zip(DISPATCH_COUNTERS) {
            *sum += snapshot.counter(counter);
        }
        self.steal_claims += snapshot.counter(Counter::StealClaims);
        self.lane_batches += snapshot.counter(Counter::LaneBatches);
        self.lane_runs += snapshot.counter(Counter::LaneRuns);
        self.merge_s += snapshot.stage(Stage::FoldMerge).total_ns as f64 * 1e-9;
    }

    /// Seconds the decomposition attributes to a named layer.
    pub fn attributed_s(&self) -> f64 {
        self.parse_s
            + self.schedule_s
            + self.adjacency_s
            + self.plan_s
            + self.trace_s
            + self.sweep_run_s
            + self.search_run_s
            + self.json_s
    }
}
