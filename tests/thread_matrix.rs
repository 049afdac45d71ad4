//! Worker-count invariance of sweep and search outputs.
//!
//! The engine reads `LATSCHED_THREADS` once per process, so one process can
//! only ever exercise one worker count. The parent test here re-runs this
//! test binary as child processes pinned to 1, 2, 3 and 5 workers; each child
//! runs the same grids, checks streaming-vs-full and lane-vs-scalar parity
//! itself, and prints one digest of every report with the wall-clock fields
//! stripped. The parent asserts that all children succeed and agree.
//!
//! The grids cover band splits that do not divide evenly: a 40-run slotted
//! ALOHA streaming sweep with 5 retry budgets (20 lane batches of 2 seeds),
//! a 140-run grid with 70 seeds (a full 64-seed lane batch plus a partial
//! one per grid point), and the builtin schedule search.

use latsched_engine::{
    builtin_search, fold_full_report, parallel::worker_threads, run_search, run_sweep, GroupAxis,
    GroupSpec, SweepCaches, SweepMac, SweepMode, SweepSpec, SweepTraffic,
};
use serde_json::Value;
use std::process::Command;

/// The marker that starts a child's digest line on stdout.
const DIGEST: &str = "thread-matrix digest";

/// Wall-clock fields, the only report entries allowed to vary between runs.
const TIMINGS: [&str; 4] = ["setup_seconds", "run_seconds", "runs_per_second", "seconds"];

/// Appends a report's JSON object, minus its timings, to the digest text.
fn push_report(text: &mut String, json: &Value) {
    for (key, value) in json.as_object().expect("reports are JSON objects") {
        if !TIMINGS.contains(&key.as_str()) {
            text.push_str(&format!("{key}={value};"));
        }
    }
    text.push('\n');
}

/// 64-bit FNV-1a, enough to compare digests across processes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

/// Runs `spec` in full and streaming mode plus one scalar single-seed sweep
/// per seed, asserts streaming-vs-full and lane-vs-scalar parity, and appends
/// the full and streaming reports to the digest text.
fn check_grid(text: &mut String, spec: &SweepSpec, group_spec: GroupSpec) {
    let caches = SweepCaches::new();
    let full = run_sweep(spec, &caches).unwrap();
    let stream_spec = SweepSpec {
        mode: SweepMode::Streaming(group_spec.clone()),
        ..spec.clone()
    };
    let stream = run_sweep(&stream_spec, &caches).unwrap();
    assert_eq!(full.per_run.len(), spec.num_runs());
    assert_eq!(stream.aggregate, full.aggregate);
    let folded = fold_full_report(spec, &group_spec, &full.per_run).unwrap();
    assert_eq!(stream.groups, folded, "streaming folds match full mode");

    // Single-seed axes are not lane-eligible, so these runs take the scalar
    // kernel; run `(point, seed)` sits at `point * seeds + seed` in the grid.
    let seeds = spec.seeds.len();
    for (si, seed) in spec.seeds.iter().enumerate() {
        let scalar_spec = SweepSpec {
            seeds: vec![seed].into(),
            ..spec.clone()
        };
        let scalar = run_sweep(&scalar_spec, &caches).unwrap();
        for (point, run) in scalar.per_run.iter().enumerate() {
            assert_eq!(&full.per_run[point * seeds + si], run, "seed {seed}");
        }
    }
    push_report(text, &full.to_json_value());
    push_report(text, &stream.to_json_value());
}

/// One child's work: every grid at this process's worker count.
#[test]
#[ignore = "spawned by sweep_and_search_outputs_match_across_worker_counts"]
fn thread_matrix_child() {
    let mut text = String::new();
    let aloha = SweepSpec {
        windows: vec![6],
        slots: 96,
        mac: SweepMac::Aloha { p: 0.3 },
        traffic: SweepTraffic::Periodic(vec![3, 5, 7, 9]),
        seeds: vec![1, 2].into(),
        retries: vec![0, 1, 2, 3, 4],
        ..latsched_engine::builtin_sweep()
    };
    check_grid(
        &mut text,
        &aloha,
        GroupSpec::new([GroupAxis::Retries, GroupAxis::Traffic]),
    );
    let wide = SweepSpec {
        windows: vec![5],
        slots: 64,
        mac: SweepMac::Aloha { p: 0.25 },
        traffic: SweepTraffic::Bernoulli(vec![0.2]),
        seeds: (1..=70).collect(),
        retries: vec![0, 2],
        ..latsched_engine::builtin_sweep()
    };
    check_grid(&mut text, &wide, GroupSpec::new([GroupAxis::Seed]));
    let search = run_search(&builtin_search(), &SweepCaches::new()).unwrap();
    push_report(&mut text, &search.to_json_value());
    println!(
        "{DIGEST} workers={} {:016x}",
        worker_threads(),
        fnv1a(&text)
    );
}

#[test]
fn sweep_and_search_outputs_match_across_worker_counts() {
    let exe = std::env::current_exe().unwrap();
    let mut digests = Vec::new();
    for workers in [1, 2, 3, 5] {
        let output = Command::new(&exe)
            .args(["thread_matrix_child", "--exact", "--ignored", "--nocapture"])
            .env("LATSCHED_THREADS", workers.to_string())
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "child at {workers} workers failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&output.stderr)
        );
        let line = stdout
            .lines()
            .find_map(|line| line.strip_prefix(DIGEST))
            .unwrap_or_else(|| panic!("child at {workers} workers printed no digest:\n{stdout}"));
        let (reported, digest) = line.trim().split_once(' ').unwrap();
        assert_eq!(reported, format!("workers={workers}"));
        digests.push((workers, digest.to_string()));
    }
    for (workers, digest) in &digests[1..] {
        assert_eq!(
            digest, &digests[0].1,
            "{workers} workers disagree with 1 worker"
        );
    }
}
