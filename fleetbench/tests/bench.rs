//! The benchmark's own tests: the manifest and catalog stay within the
//! benchmark contract, the result line parses, and a smoke-sized run of
//! every workload passes its correctness gate at the default seed and at
//! another one.

use fleetbench::catalog::{self, Better, END_TO_END, PER_LAYER};
use fleetbench::timed::{self, RunOptions};
use fleetbench::traced::{self, TraceOptions};
use fleetbench::workload::{Workload, DEFAULT_SEED};
use fleetbench::Outcome;
use std::path::PathBuf;

/// Ten cells of 50 users: every code path, a fraction of a second each.
const SMOKE_USERS: u64 = 500;

fn smoke(workload: Workload, seed: u64) -> RunOptions {
    RunOptions {
        workload,
        users: SMOKE_USERS,
        seed,
        seconds: 0.01,
        shard_bin: PathBuf::from(env!("CARGO_BIN_EXE_fleetbench")),
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_names_are_valid_unique_and_within_limits() {
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
    for m in END_TO_END.iter().chain(PER_LAYER) {
        assert!(valid_name(m.name), "bad metric name {}", m.name);
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {} of {}",
            m.unit,
            m.name
        );
    }
    for w in Workload::ALL {
        assert!(valid_name(w.name()));
        assert!(!w.why().is_empty() && w.why().len() <= 200 && !w.why().contains('\n'));
        names.push(w.name());
    }
    let n = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), n, "a name is used twice");
}

#[test]
fn end_to_end_metrics_carry_bounds_and_setup_has_the_largest() {
    let setup = END_TO_END
        .iter()
        .find(|m| m.name == "setup_s")
        .expect("setup_s");
    assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    for m in END_TO_END {
        let b = m.bound.expect("bound");
        assert!(
            b > 0.0 && b <= 0.25 && b <= setup.bound.unwrap(),
            "{}",
            m.name
        );
    }
    assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
}

#[test]
fn benchmark_json_is_generated_from_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert_eq!(
        on_disk,
        catalog::manifest(),
        "regenerate with `fleetbench --write-manifest BENCHMARK.json`"
    );
    let v: serde_json::Value = serde_json::from_str(&on_disk).expect("manifest parses");
    let keys: Vec<&String> = v.as_object().expect("object").keys().collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    assert!(on_disk.len() <= 64 * 1024);
}

#[test]
fn result_line_parses_with_every_metric_and_unit() {
    let mut out = Outcome::default();
    out.check(None);
    out.check(Some("a reason".into()));
    out.metric("run_s", 1.25);
    out.metric("events_per_s", 1e6 / 3.0);
    let v: serde_json::Value = serde_json::from_str(&out.to_json()).expect("result parses");
    assert_eq!(v.get("correct").and_then(|x| x.as_bool()), Some(false));
    assert_eq!(v.get("attempted").and_then(|x| x.as_u64()), Some(2));
    assert_eq!(v.get("failed").and_then(|x| x.as_u64()), Some(1));
    let run = v
        .get("metrics")
        .and_then(|m| m.get("run_s"))
        .expect("run_s");
    assert_eq!(run.get("value").and_then(|x| x.as_f64()), Some(1.25));
    assert_eq!(run.get("unit").and_then(|x| x.as_str()), Some("s"));
}

fn assert_metrics(out: &Outcome, defs: &[catalog::MetricDef]) {
    let names: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
    let want: Vec<&str> = defs.iter().map(|m| m.name).collect();
    assert_eq!(names, want);
    assert!(out.metrics.iter().all(|m| m.value.is_finite()));
}

#[test]
fn smoke_runs_of_every_workload_pass_the_gate() {
    for w in Workload::ALL {
        let out = timed::run(&smoke(w, DEFAULT_SEED));
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
        assert!(out.attempted >= 4, "three timed reps and the reference");
        assert_metrics(&out, END_TO_END);
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "{:?}",
            out.metrics
        );
    }
}

#[test]
fn another_seed_changes_the_digest_and_passes_the_cross_mode_checks() {
    let cfg = |seed| Workload::Poll100k.config(SMOKE_USERS, seed);
    let shard_bin = PathBuf::from(env!("CARGO_BIN_EXE_fleetbench"));
    let a = timed::execute(false, &cfg(DEFAULT_SEED), &shard_bin).expect("runs");
    let b = timed::execute(false, &cfg(7), &shard_bin).expect("runs");
    assert_ne!(a.report.digest(), b.report.digest());
    for w in Workload::ALL {
        let out = timed::run(&smoke(w, 7));
        assert!(out.correct(), "{}: {:?}", w.name(), out.failures);
    }
}

#[test]
fn traced_smoke_runs_validate_the_replica_and_report_every_layer() {
    for w in Workload::ALL {
        let out = traced::run(&TraceOptions {
            run: smoke(w, 7),
            // The counting allocator needs the companion build, which a
            // plain test build does not have: that check alone must fail.
            alloc_bin: None,
            spans_out: None,
        });
        assert_eq!(out.failures.len(), 1, "{}: {:?}", w.name(), out.failures);
        assert!(out.failures[0].contains("alloc companion"));
        assert_metrics(&out, PER_LAYER);
    }
}
