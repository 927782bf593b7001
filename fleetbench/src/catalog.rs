//! Every metric the benchmark reports, with its unit and direction, and
//! the `BENCHMARK.json` manifest generated from them.
//!
//! The comment on each per-layer group names the end-to-end metric it
//! should move and on which workload, written down before measuring.

use crate::workload::Workload;

/// Seconds one run measures (the timed repetitions fill this budget).
pub const RUN_SECONDS: u32 = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// End-to-end only: the share of the parent's median by which the
    /// metric may worsen before a change counts as a regression.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// Reported by `--trace 0`, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    // Fastest of repeated `fleet::population` calls (catalog generation,
    // snapshot, sampler and the p90 threshold every mode pays first),
    // each divided by its round's probed slowdown like run_s.
    e2e("setup_s", "s", Lower, 0.25),
    // Wall time of one complete run, as a user gets it, at the host's
    // reference speed: every timed repetition is divided by the slowdown
    // probed just before and after it (to the fitted power 1.5), and the
    // fastest is reported; the raw walls are printed beside it. Scaled
    // runs still spread 5-20% over minutes on a shared 2-vCPU guest,
    // hence the bound.
    e2e("run_s", "s", Lower, 0.25),
    // Simulation events of one run divided by run_s.
    e2e("events_per_s", "1/s", Higher, 0.25),
    // Peak resident set of the program, less the host probe's table:
    // after the first timed run in-process; for dist-100k, the
    // coordinator plus its workers sampled in the untimed warm-up run.
    e2e("peak_rss_mb", "MB", Lower, 0.1),
];

/// Reported by `--trace 1`, from the separate traced run.
pub const PER_LAYER: &[MetricDef] = &[
    // setup_s, every workload (about twice as large on live-dag-100k).
    layer("ecosystem.generate_ms", "ms", Lower),
    layer("ecosystem.sampler_ms", "ms", Lower),
    // run_s, poll-100k.
    layer("ecosystem.profile_us_per_user", "us", Lower),
    // run_s, live-dag-100k only.
    layer("ecosystem.crawl_s", "s", Lower),
    layer("ecosystem.pages_per_s", "1/s", Higher),
    // run_s (tiny).
    layer("fleet.plan_ms", "ms", Lower),
    // run_s on the in-process workloads: the slowest shard sets the time.
    layer("fleet.runner.shard_skew", "ratio", Lower),
    layer("fleet.runner.idle_share", "ratio", Lower),
    // run_s, poll-100k and live-dag-100k.
    layer("fleet.cell.count", "count", Lower),
    layer("fleet.cell.ms_p50", "ms", Lower),
    layer("fleet.cell.ms_tail", "ms", Lower),
    layer("fleet.cell.tail_pct", "%", Higher),
    layer("fleet.cell.ns_per_event", "ns", Lower),
    // run_s, poll-100k.
    layer("fleet.cell.install_share", "ratio", Lower),
    layer("fleet.cell.install_us_per_applet", "us", Lower),
    // run_s, live-dag-100k only.
    layer("fleet.attribution.overhead_share", "ratio", Lower),
    // run_s, every workload (under 1%).
    layer("fleet.metrics.merge_us", "us", Lower),
    layer("fleet.report.digest_ms", "ms", Lower),
    // run_s and events_per_s, poll-100k and dist-100k: the timed-node
    // replica of poll-100k cells.
    layer("engine.self_share", "ratio", Lower),
    layer("engine.ns_per_callback", "ns", Lower),
    layer("devices.self_share", "ratio", Lower),
    layer("devices.ns_per_request", "ns", Lower),
    layer("simnet.kernel_share", "ratio", Lower),
    layer("simnet.ns_per_event", "ns", Lower),
    layer("tap-protocol.bytes_per_round_trip", "B", Lower),
    // run_s, poll-100k: exact counts from the untraced run.
    layer("simnet.sim_events", "count", Lower),
    layer("simnet.engine_event_share", "ratio", Lower),
    layer("engine.polls_per_activation", "count", Lower),
    layer("engine.http_round_trips_per_activation", "count", Lower),
    layer("engine.coalesce_share", "ratio", Higher),
    layer("engine.poll_yield", "ratio", Higher),
    layer("engine.dispatch_depth_p99", "count", Lower),
    // run_s, live-dag-100k; zero on poll-100k.
    layer("engine.dag_nodes_per_activation", "count", Lower),
    layer("engine.lifecycle_ops", "count", Lower),
    layer("engine.realtime_poll_share", "ratio", Lower),
    // run_s and peak_rss_mb, every workload: the alloc-count companion
    // build, reported as counts.
    layer("mem.allocs_per_event.setup", "count", Lower),
    layer("mem.allocs_per_event.cells", "count", Lower),
    layer("mem.allocs_per_event.merge", "count", Lower),
    layer("mem.bytes_per_event.cells", "B", Lower),
    // run_s, dist-100k only; no change predicted in-process.
    layer("fleet-wire.delta_bytes_per_cell", "B", Lower),
    layer("fleet-wire.delta_encode_us", "us", Lower),
    layer("fleet-wire.delta_apply_us", "us", Lower),
    // run_s, dist-100k: time to the first committed cell in the
    // workload's own mode (spawn, push and regeneration when distributed).
    layer("fleet-wire.first_commit_s", "s", Lower),
    // Diagnostics: they explain noise and move nothing. The traced
    // replay over an untraced 1-shard run; the timed-node replica over
    // `run_cell` on the same cells, interleaved; and the share of the
    // replica's wall outside every layer span (refused above 3%).
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.replica_overhead_share", "ratio", Lower),
    layer("trace.replica_residue_share", "ratio", Lower),
    layer("host.mem_probe_ms", "ms", Lower),
    // The untraced run's raw wall and the host slowdown probed over the
    // traced run: run_s is the fastest of such walls, each divided by
    // its own slowdown to the power 1.5.
    layer("host.slowdown", "ratio", Lower),
    layer("host.raw_run_s", "s", Lower),
    layer("host.steal_share", "ratio", Lower),
];

/// The unit of a cataloged metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

/// The `BENCHMARK.json` manifest, generated from the catalog.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"python3\", \"fleetbench/run.py\"],\n");
    out.push_str("  \"paths\": [\"fleetbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = Workload::ALL
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.name(),
                w.why()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"end_to_end\": [\n");
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound.expect("end-to-end metrics carry a bound")
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n  \"per_layer\": [\n");
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.as_str()
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ]\n}\n");
    out
}
