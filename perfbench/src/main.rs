//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload as a closed loop (one client, one op at a time) for
//! `--seconds`, checks every op's output against the reference path, and
//! prints each metric by name with its unit; the last line of standard
//! output is one JSON object `{correct, attempted, failed, metrics}`. With
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones from a separate traced pass. `--workload all` runs every
//! workload at both settings, one process each.
//!
//! A workload's closed loop runs at the engine worker count that
//! [`Workload::workers`] names; it is printed with every run.
//!
//! The same binary serves two helper roles, each in its own process:
//! `--role reference` (spawned with `LATSCHED_THREADS=1`) prints the
//! reference digests and, with `--layers K`, a traced pass at the worker
//! count it was started with; `--role replay` prints the digests of the ops
//! themselves.

use latsched_engine::parallel::worker_threads;
use latsched_engine::telemetry::telemetry;
use latsched_engine::SweepCaches;
use perfbench::layers::Layers;
use perfbench::metrics::{unit, END_TO_END, PER_LAYER};
use perfbench::op::{digest, install_quiet_panic_hook, reference_digest, run_op, Failure};
use perfbench::sys::peak_rss_mib;
use perfbench::workload::{Op, Workload, CYCLE, WORKLOADS};
use perfbench::{MIN_CYCLES, TRACE_OPS};
use serde_json::Value;
use std::collections::{BTreeMap, HashMap};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median. Each one generates the
/// workload and warms up on the loop's first cycle, one op per template, so
/// that it does not hang on the values one seed draws for a single spec.
const SETUP_REPS: usize = 5;

/// How far past `--seconds` the closed loop may run to finish a cycle (and
/// reach [`MIN_CYCLES`]) before it stops regardless. Short, so that a run
/// on a slow host still ends near `--seconds`.
const OVERRUN: Duration = Duration::from_secs(5);

/// Failures listed in the human-readable summary.
const SHOWN_FAILURES: usize = 5;

const USAGE: &str = "usage: perfbench --workload <tiling-cold|aloha-lanes|search-session|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

#[derive(Clone, Copy, PartialEq)]
enum Role {
    Run,
    Reference,
    Replay,
}

struct Args {
    /// `None` for `all`.
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    role: Role,
    /// Helper roles: how many distinct ops to digest.
    distinct: usize,
    /// Reference role: closed-loop positions to trace at one worker.
    layers: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        role: Role::Run,
        distinct: 0,
        layers: 0,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs a nonnegative integer, got '{value}'"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got '{value}'")),
                }
            }
            "--role" => {
                args.role = match value.as_str() {
                    "reference" => Role::Reference,
                    "replay" => Role::Replay,
                    _ => return Err(format!("unknown role '{value}'")),
                }
            }
            "--distinct" => args.distinct = number()? as usize,
            "--layers" => args.layers = number()? as usize,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" {
        args.workload =
            Some(Workload::parse(&workload).ok_or(format!("unknown workload '{workload}'"))?);
    }
    if args.workload.is_none() && args.role != Role::Run {
        return Err("helper roles take one workload".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let started = Instant::now();
    install_quiet_panic_hook();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match (args.role, args.workload) {
        (Role::Run, Some(workload)) => {
            // Before the engine first reads its worker count.
            if let Some(workers) = workload.workers() {
                std::env::set_var("LATSCHED_THREADS", workers.to_string());
            }
            run(workload, &args, started)
        }
        (Role::Run, None) => run_all(&args),
        (Role::Reference, Some(workload)) => reference(workload, &args),
        (Role::Replay, Some(workload)) => replay(workload, &args),
        (_, None) => unreachable!("parse_args rejects helper roles without a workload"),
    }
}

/// One closed-loop op: which distinct spec it issued, its time, and its
/// checked outcome (digest and node-slots on success).
struct Sample {
    distinct: usize,
    ms: f64,
    outcome: Result<(u64, u64), Failure>,
}

fn run(workload: Workload, args: &Args, started: Instant) -> ExitCode {
    // Set-up, repeated: generate the workload and run the loop's first cycle
    // untimed, as a warm-up on throwaway caches. The first repetition counts
    // from process start.
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut ops = Vec::new();
    for rep in 0..SETUP_REPS {
        let start = if rep == 0 { started } else { Instant::now() };
        ops = workload.generate(args.seed);
        let throwaway = SweepCaches::new();
        for position in 0..CYCLE {
            let fresh = (!workload.shares_caches()).then(SweepCaches::new);
            let op = &ops[workload.distinct_at(position)];
            drop(run_op(op, fresh.as_ref().unwrap_or(&throwaway)));
        }
        setup.push(start.elapsed().as_secs_f64());
    }

    // The closed loop: whole cycles only, at least MIN_CYCLES of them.
    let session = SweepCaches::new();
    let deadline = Duration::from_secs(args.seconds);
    let mut samples: Vec<Sample> = Vec::new();
    let loop_start = Instant::now();
    loop {
        let distinct = workload.distinct_at(samples.len());
        let fresh = (!workload.shares_caches()).then(SweepCaches::new);
        let (elapsed, result) = run_op(&ops[distinct], fresh.as_ref().unwrap_or(&session));
        samples.push(Sample {
            distinct,
            ms: elapsed.as_secs_f64() * 1e3,
            outcome: result.map(|out| (digest(&out.report), out.node_slots)),
        });
        let (n, t) = (samples.len(), loop_start.elapsed());
        if (n >= MIN_CYCLES * CYCLE && n % CYCLE == 0 && t >= deadline) || t >= deadline + OVERRUN {
            break;
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mib();
    drop(session);

    let traced_ops = TRACE_OPS.min(samples.len());
    let layers = args.trace.then(|| traced_pass(workload, &ops, traced_ops));

    // Check every op against the reference path in a 1-worker child process.
    // When tracing, a child also repeats the traced pass at the other worker
    // count (1 or `nproc`): the reference child when the loop ran at
    // `nproc`, a second child at `nproc` when it ran at 1 worker.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial = worker_threads() == 1;
    let used = workload.distinct_used(samples.len());
    let child_layers = if args.trace { traced_ops } else { 0 };
    let child = reference_child(
        workload,
        args.seed,
        used,
        if serial { 0 } else { child_layers },
        1,
    );
    let parallel_child = (args.trace && serial)
        .then(|| reference_child(workload, args.seed, 0, child_layers, nproc));
    let mut correct = true;
    let mut notes: Vec<String> = Vec::new();
    match &child {
        Ok(child) => {
            for sample in &mut samples {
                if let Ok((got, _)) = sample.outcome {
                    match child.digests.get(&sample.distinct) {
                        Some(Ok(expected)) if *expected == got => {}
                        other => {
                            let expected = match other {
                                Some(Ok(d)) => format!("{d:016x}"),
                                Some(Err(e)) => format!("reference error ({e})"),
                                None => "no reference".into(),
                            };
                            correct = false;
                            sample.outcome = Err(Failure::Mismatch(format!(
                                "got {got:016x}, expected {expected}"
                            )));
                        }
                    }
                }
            }
        }
        Err(e) => {
            correct = false;
            notes.push(format!(
                "reference path unavailable, outputs unchecked: {e}"
            ));
        }
    }
    if let Some(Err(e)) = &parallel_child {
        correct = false;
        notes.push(format!("parallel traced pass unavailable: {e}"));
    }
    if let Some(layers) = &layers {
        if !layers.drift.is_empty() {
            correct = false;
            notes.extend(layers.drift.iter().map(|d| format!("layer drift: {d}")));
        }
    }

    let attempted = samples.len();
    let failures: Vec<(usize, &Failure)> = samples
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.outcome.as_ref().err().map(|f| (i, f)))
        .collect();
    let count = |pred: fn(&Failure) -> bool| failures.iter().filter(|(_, f)| pred(f)).count();
    let panics = count(|f| matches!(f, Failure::Panic(_)));
    let errors = count(|f| matches!(f, Failure::Error(_)));
    let mismatches = count(|f| matches!(f, Failure::Mismatch(_)));
    let failed_frac = failures.len() as f64 / attempted as f64;

    let period = workload.period();
    let op_ms = per_op_medians(&samples, period);
    let mut sorted_ms = op_ms.clone();
    sorted_ms.sort_by(f64::total_cmp);
    let node_slots: u64 = per_op_node_slots(&samples, period).iter().sum();
    let mut e2e = BTreeMap::new();
    e2e.insert("report_ms_p50".to_string(), quantile(&sorted_ms, 0.5));
    e2e.insert("report_ms_p90".to_string(), quantile(&sorted_ms, 0.9));
    e2e.insert(
        "node_slots_per_s".to_string(),
        node_slots as f64 / (op_ms.iter().sum::<f64>() / 1e3),
    );
    e2e.insert("setup_s".to_string(), median(&mut setup));
    e2e.insert("peak_rss_mib".to_string(), peak_rss);

    println!(
        "# {} seed {}: closed loop, 1 client, {} engine worker(s), nproc {nproc}; \
         {attempted} ops ({} cycles of {CYCLE}) in {:.1} s",
        workload.name(),
        args.seed,
        worker_threads(),
        attempted / CYCLE,
        loop_s,
    );
    for (name, _) in END_TO_END {
        print_metric(name, e2e[name]);
    }
    println!(
        "# time metrics over the {period} ops of the loop's period, each at its median of {}-{} repeats",
        attempted / period,
        attempted.div_ceil(period),
    );
    print_metric("ops_failed_frac", failed_frac);
    let template_ms: Vec<String> = (0..CYCLE)
        .map(|t| {
            let mut ms: Vec<f64> = samples
                .iter()
                .enumerate()
                .filter(|(i, _)| i % CYCLE == t)
                .map(|(_, s)| s.ms)
                .collect();
            format!("{:.1}", median(&mut ms))
        })
        .collect();
    println!("# median ms per cycle slot: {}", template_ms.join(" "));
    println!(
        "# failed {} of {attempted}: {panics} panics, {errors} errors, {mismatches} digest mismatches",
        failures.len()
    );
    for (i, failure) in failures.iter().take(SHOWN_FAILURES) {
        println!(
            "#   op {i} (spec {}): {}",
            samples[*i].distinct,
            failure.describe()
        );
    }

    let metrics = match &layers {
        None => e2e,
        Some(layers) => {
            let own = EntryTimes {
                workers: worker_threads(),
                ms: layers.entry_ms.clone(),
                cpu_s: layers.entry_cpu_s,
                wall_s: layers.sweep_run_s + layers.search_run_s,
            };
            let other = match parallel_child.as_ref().unwrap_or(&child) {
                Ok(c) => c.entry.clone(),
                Err(_) => EntryTimes::default(),
            };
            let (one_worker, all_workers) = if serial { (own, other) } else { (other, own) };
            let baseline_s = samples[..traced_ops].iter().map(|s| s.ms).sum::<f64>() / 1e3;
            let per_layer =
                layer_metrics(layers, &one_worker, &all_workers, baseline_s, failed_frac);
            println!("# traced pass: first {traced_ops} ops, telemetry on");
            for (name, _) in PER_LAYER {
                print_metric(name, per_layer[name]);
            }
            per_layer
        }
    };
    for note in &notes {
        println!("# {note}");
    }
    println!(
        "{}",
        result_line(correct, attempted, failures.len(), &metrics)
    );
    ExitCode::SUCCESS
}

/// Median ms of each op of the loop's period: position `k` of the period
/// gathers every attempted op at a position `p` with `p % period == k`.
///
/// The loop issues each op of its period many times; the median of its
/// repeats is its time. A slow spell of the shared host that covers less
/// than half of a run then moves no op's time, and the percentiles over the
/// period's ops stay put.
fn per_op_medians(samples: &[Sample], period: usize) -> Vec<f64> {
    (0..period.min(samples.len()))
        .map(|k| {
            let mut repeats: Vec<f64> = samples
                .iter()
                .skip(k)
                .step_by(period)
                .map(|s| s.ms)
                .collect();
            median(&mut repeats)
        })
        .collect()
}

/// Node-slots of each op of the loop's period: those of the spec it issues,
/// or 0 if any of its repeats failed.
fn per_op_node_slots(samples: &[Sample], period: usize) -> Vec<u64> {
    (0..period.min(samples.len()))
        .map(|k| {
            let mut repeats = samples.iter().skip(k).step_by(period);
            repeats
                .try_fold(0, |_, s| s.outcome.as_ref().ok().map(|&(_, n)| n))
                .unwrap_or(0)
        })
        .collect()
}

/// The traced pass over closed-loop positions `0..k`, replayed from fresh
/// caches with the telemetry registry on.
fn traced_pass(workload: Workload, ops: &[Op], k: usize) -> Layers {
    let shared = SweepCaches::new();
    let mut layers = Layers::default();
    telemetry().set_enabled(true);
    for position in 0..k {
        layers.trace_op(&ops[workload.distinct_at(position)], &shared);
    }
    telemetry().set_enabled(false);
    layers
}

/// A traced pass's time in the engine entry points (`run_sweep` /
/// `run_search`) at one worker count.
#[derive(Clone, Default)]
struct EntryTimes {
    workers: usize,
    /// Per traced position; `None` where the op failed.
    ms: Vec<Option<f64>>,
    /// Process CPU seconds inside the entry points.
    cpu_s: f64,
    /// Wall seconds inside the entry points.
    wall_s: f64,
}

fn layer_metrics(
    layers: &Layers,
    one_worker: &EntryTimes,
    all_workers: &EntryTimes,
    baseline_s: f64,
    failed_frac: f64,
) -> BTreeMap<String, f64> {
    let ops = layers.ops.max(1) as f64;
    let per_op_ms = |s: f64| s * 1e3 / ops;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let (mut serial_ms, mut parallel_ms) = (0.0, 0.0);
    for (n, one) in all_workers.ms.iter().zip(&one_worker.ms) {
        if let (Some(n), Some(one)) = (n, one) {
            parallel_ms += n;
            serial_ms += one;
        }
    }
    let tiers = [
        ("schedules", layers.tally.schedules),
        ("adjacencies", layers.tally.adjacencies),
        ("plans", layers.tally.plans),
        ("traces", layers.tally.traces),
        ("searches", layers.tally.searches),
    ];
    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64| m.insert(name.to_string(), value);
    put("compiled.schedule_ms", per_op_ms(layers.schedule_s));
    put("frames.adjacency_ms", per_op_ms(layers.adjacency_s));
    put("frames.plan_ms", per_op_ms(layers.plan_s));
    put("cache.trace_ms", per_op_ms(layers.trace_s));
    put("cache.trace_bytes", layers.trace_bytes as f64);
    for (tier, stats) in tiers {
        put(&format!("cache.{tier}.hits"), stats.hits as f64);
        put(&format!("cache.{tier}.misses"), stats.misses as f64);
    }
    put("sweep.run_ms", per_op_ms(layers.sweep_run_s));
    put("sweep.parse_ms", per_op_ms(layers.parse_s));
    put("report.json_ms", per_op_ms(layers.json_s));
    put(
        "simkernel.ns_per_node_slot",
        ratio(layers.kernel_s * 1e9, layers.kernel_node_slots as f64),
    );
    put("simkernel.node_slots", layers.node_slots as f64);
    for (i, path) in [
        "analytic",
        "partial_analytic",
        "lane_scalar",
        "lane_bernoulli",
        "conflict_free",
        "general_loop",
    ]
    .into_iter()
    .enumerate()
    {
        put(
            &format!("simkernel.dispatch.{path}"),
            layers.dispatch[i] as f64,
        );
    }
    put(
        "simkernel.lane_fill",
        ratio(layers.lane_runs as f64, layers.lane_batches as f64 * 64.0),
    );
    put("aggregate.merge_ms", per_op_ms(layers.merge_s));
    put("aggregate.groups", layers.groups as f64);
    put(
        "parallel.cpu_util",
        ratio(
            all_workers.cpu_s,
            all_workers.wall_s * all_workers.workers as f64,
        ),
    );
    put("parallel.steal_claims", layers.steal_claims as f64);
    put("parallel.speedup", ratio(serial_ms, parallel_ms));
    put("search.run_ms", per_op_ms(layers.search_run_s));
    put("search.candidates", layers.candidates as f64);
    put("sweep.panics", layers.panics as f64);
    put("sweep.errors", layers.errors as f64);
    put("ops_failed_frac", failed_frac);
    put(
        "trace.unattributed_frac",
        ratio(layers.total_s - layers.attributed_s(), layers.total_s),
    );
    put("trace.overhead", ratio(layers.total_s, baseline_s));
    m
}

fn print_metric(name: &str, value: f64) {
    println!(
        "{name} {value} {}",
        unit(name).expect("printed metrics are catalogued")
    );
}

fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &BTreeMap<String, f64>,
) -> String {
    let metrics = metrics
        .iter()
        .map(|(name, value)| {
            let mut m = BTreeMap::new();
            m.insert("value".to_string(), Value::from(finite(*value)));
            m.insert(
                "unit".to_string(),
                Value::from(unit(name).expect("reported metrics are catalogued")),
            );
            (name.clone(), Value::Object(m))
        })
        .collect();
    let mut line = BTreeMap::new();
    line.insert("correct".to_string(), Value::from(correct));
    line.insert("attempted".to_string(), Value::from(attempted));
    line.insert("failed".to_string(), Value::from(failed));
    line.insert("metrics".to_string(), Value::Object(metrics));
    serde_json::to_string(&Value::Object(line))
}

/// JSON has no NaN or infinity; a metric that is undefined on this run (no
/// samples) reads 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Linear-interpolated quantile of sorted samples.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    quantile(values, 0.5)
}

/// What the reference process reports.
struct ChildOutput {
    /// Expected digest (or the reference path's error) per distinct spec.
    digests: HashMap<usize, Result<u64, String>>,
    /// The child's traced pass, if it was asked for one.
    entry: EntryTimes,
}

/// Runs `--role reference` at `workers` engine workers.
fn reference_child(
    workload: Workload,
    seed: u64,
    distinct: usize,
    layers: usize,
    workers: usize,
) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--role", "reference", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--distinct", &distinct.to_string()])
        .args(["--layers", &layers.to_string()])
        .env("LATSCHED_THREADS", workers.to_string())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the reference process: {e}"))?;
    if !out.status.success() {
        return Err(format!("reference process exited with {}", out.status));
    }
    let mut child = ChildOutput {
        digests: HashMap::new(),
        entry: EntryTimes {
            workers,
            ms: vec![None; layers],
            ..EntryTimes::default()
        },
    };
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let mut parts = line.splitn(3, ' ');
        let (tag, index, rest) = (parts.next(), parts.next(), parts.next().unwrap_or(""));
        if tag == Some("C") {
            let (cpu, wall) = (index.and_then(|c| c.parse().ok()), rest.parse().ok());
            child.entry.cpu_s = cpu.unwrap_or(0.0);
            child.entry.wall_s = wall.unwrap_or(0.0);
            continue;
        }
        let Some(index) = index.and_then(|i| i.parse::<usize>().ok()) else {
            continue;
        };
        match tag {
            Some("D") => {
                let digest = u64::from_str_radix(rest, 16).map_err(|e| e.to_string());
                child.digests.insert(index, digest);
            }
            Some("E") => {
                child.digests.insert(index, Err(rest.to_string()));
            }
            Some("L") if index < layers => child.entry.ms[index] = rest.parse::<f64>().ok(),
            _ => {}
        }
    }
    if child.digests.len() != distinct {
        return Err(format!(
            "reference process answered {} of {distinct} specs",
            child.digests.len()
        ));
    }
    Ok(child)
}

/// `--role reference`: reference digests of the first `--distinct` specs,
/// then the traced pass over the first `--layers` closed-loop positions
/// (`L` lines per position, then a `C <cpu s> <wall s>` line for the time
/// spent in the engine entry points).
fn reference(workload: Workload, args: &Args) -> ExitCode {
    let ops = workload.generate(args.seed);
    for (i, op) in ops.iter().take(args.distinct).enumerate() {
        match reference_digest(op) {
            Ok(d) => println!("D {i} {d:016x}"),
            Err(e) => println!("E {i} {}", e.replace('\n', " ")),
        }
    }
    if args.layers > 0 {
        let layers = traced_pass(workload, &ops, args.layers);
        for (i, ms) in layers.entry_ms.iter().enumerate() {
            match ms {
                Some(ms) => println!("L {i} {ms}"),
                None => println!("L {i} -"),
            }
        }
        println!(
            "C {} {}",
            layers.entry_cpu_s,
            layers.sweep_run_s + layers.search_run_s
        );
    }
    ExitCode::SUCCESS
}

/// `--role replay`: the digests of the first `--distinct` specs as the
/// closed loop runs them (each on fresh caches).
fn replay(workload: Workload, args: &Args) -> ExitCode {
    let ops = workload.generate(args.seed);
    for (i, op) in ops.iter().take(args.distinct).enumerate() {
        match run_op(op, &SweepCaches::new()).1 {
            Ok(out) => println!("D {i} {:016x}", digest(&out.report)),
            Err(f) => println!("E {i} {}", f.describe()),
        }
    }
    ExitCode::SUCCESS
}

/// `--workload all`: every workload at `--trace 0` and `--trace 1`, one
/// process each; their output is passed through, then one combined result
/// line whose metric names are prefixed with the workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = BTreeMap::new();
    for workload in WORKLOADS {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", workload.name(), "--trace", trace])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output();
            let stdout = match &out {
                Ok(out) if out.status.success() => {
                    String::from_utf8_lossy(&out.stdout).into_owned()
                }
                _ => {
                    eprintln!("perfbench: {} --trace {trace} failed", workload.name());
                    return ExitCode::FAILURE;
                }
            };
            print!("{stdout}");
            let Some(Ok(result)) = stdout.lines().last().map(serde_json::from_str) else {
                eprintln!("perfbench: {} printed no result line", workload.name());
                return ExitCode::FAILURE;
            };
            correct &= result.get("correct").and_then(Value::as_bool) == Some(true);
            if trace == "0" {
                attempted += result.get("attempted").and_then(Value::as_u64).unwrap_or(0);
                failed += result.get("failed").and_then(Value::as_u64).unwrap_or(0);
            }
            if let Some(Value::Object(m)) = result.get("metrics") {
                for (name, v) in m {
                    metrics.insert(format!("{}.{name}", workload.name()), v.clone());
                }
            }
        }
    }
    let mut line = BTreeMap::new();
    line.insert("correct".to_string(), Value::from(correct));
    line.insert("attempted".to_string(), Value::from(attempted));
    line.insert("failed".to_string(), Value::from(failed));
    line.insert("metrics".to_string(), Value::Object(metrics));
    println!("{}", serde_json::to_string(&Value::Object(line)));
    ExitCode::SUCCESS
}
