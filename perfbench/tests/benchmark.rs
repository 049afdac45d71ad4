//! The benchmark's own checks: deterministic inputs, thread-invariant
//! outputs, and a metric catalogue that matches `BENCHMARK.json`.
//!
//! The binary-driven tests run real workloads; run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::metrics::{END_TO_END, PER_LAYER};
use perfbench::workload::{Workload, CYCLE, WORKLOADS};
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::process::Command;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit)` pairs of one metric list of `BENCHMARK.json`.
fn listed(doc: &Value, key: &str) -> BTreeSet<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .expect("metric list present")
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Value::as_str).expect("string field");
            (field("name").to_string(), field("unit").to_string())
        })
        .collect()
}

fn catalogued(list: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    list.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn perfbench(args: &[&str], threads: Option<usize>) -> String {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args);
    if let Some(threads) = threads {
        cmd.env("LATSCHED_THREADS", threads.to_string());
    }
    let out = cmd.output().expect("perfbench starts");
    assert!(out.status.success(), "perfbench {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn same_seed_gives_same_ops() {
    for workload in WORKLOADS {
        assert_eq!(workload.generate(7), workload.generate(7));
        assert_ne!(workload.generate(7), workload.generate(8));
    }
}

#[test]
fn session_issues_a_prefix_of_its_pool_with_repeats() {
    let w = Workload::SearchSession;
    let pool = w.generate(1).len();
    let positions: Vec<usize> = (0..40 * CYCLE).map(|p| w.distinct_at(p)).collect();
    assert!(positions.iter().all(|&d| d < pool));
    assert_eq!(w.distinct_used(positions.len()), pool);
    let first_cycle: BTreeSet<usize> = positions[..CYCLE].iter().copied().collect();
    assert!(first_cycle.len() < CYCLE, "a cycle repeats earlier specs");
}

#[test]
fn the_op_sequence_repeats_with_its_period() {
    for workload in WORKLOADS {
        let period = workload.period();
        assert_eq!(period % CYCLE, 0, "{}", workload.name());
        for p in period..4 * period {
            assert_eq!(
                workload.distinct_at(p),
                workload.distinct_at(p + period),
                "{} position {p}",
                workload.name()
            );
        }
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), catalogued(&END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), catalogued(&PER_LAYER));
    let workloads: BTreeSet<&str> = doc
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workload list present")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("workload name")
        })
        .collect();
    assert_eq!(workloads, WORKLOADS.iter().map(|w| w.name()).collect());
}

#[test]
fn printed_metrics_match_benchmark_json() {
    let doc = benchmark_json();
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let args = [
            "--workload",
            "search-session",
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
        ];
        let stdout = perfbench(&args, None);
        let result: Value =
            serde_json::from_str(stdout.lines().last().expect("a result line")).expect("JSON");
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 100);
        let printed: BTreeSet<(String, String)> = result
            .get("metrics")
            .and_then(Value::as_object)
            .expect("metrics object")
            .iter()
            .map(|(name, m)| {
                let unit = m.get("unit").and_then(Value::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect();
        assert_eq!(printed, listed(&doc, key));
        for (name, unit) in &printed {
            assert!(
                stdout
                    .lines()
                    .any(|l| l.starts_with(&format!("{name} ")) && l.ends_with(&format!(" {unit}"))),
                "no human-readable line for {name}"
            );
        }
    }
}

/// Digest lines (`D <index> <hex>`) of the first cycle of a workload's specs.
fn replay_digests(workload: Workload, threads: usize) -> BTreeMap<usize, String> {
    let distinct = CYCLE.to_string();
    let args = [
        "--role",
        "replay",
        "--workload",
        workload.name(),
        "--seed",
        "5",
        "--distinct",
        &distinct,
    ];
    perfbench(&args, Some(threads))
        .lines()
        .filter_map(|line| {
            let mut parts = line.split(' ');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("D"), Some(i), Some(d)) => Some((i.parse().ok()?, d.to_string())),
                _ => None,
            }
        })
        .collect()
}

#[test]
fn outputs_match_at_one_and_all_workers() {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    for workload in WORKLOADS {
        let one = replay_digests(workload, 1);
        let many = replay_digests(workload, nproc.max(2));
        let mut compared = 0;
        for (i, digest) in &one {
            if let Some(other) = many.get(i) {
                assert_eq!(digest, other, "{} spec {i}", workload.name());
                compared += 1;
            }
        }
        assert!(
            compared >= CYCLE / 2,
            "{}: only {compared} specs succeeded at both",
            workload.name()
        );
    }
}
