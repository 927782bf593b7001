//! # fleetbench — the fleet's end-to-end and per-layer benchmark
//!
//! One command (`python3 fleetbench/run.py --workload W --seed N
//! --seconds S --trace 0|1`) builds this package, runs one named
//! workload at one seed, checks every result for correctness, and prints
//! every metric by name and unit; its last stdout line is the JSON
//! result. The program is driven only through public functions of
//! `ecosystem`, `fleet` and `fleet-wire`.
//!
//! * `--trace 0` ([`timed`]) measures the end-to-end metrics with no
//!   tracing at all.
//! * `--trace 1` ([`traced`]) is a separate run of the same seed that
//!   times the calls into each layer from outside and reports the
//!   per-layer metrics.
//!
//! The host is a small shared guest whose clock and memory system drift
//! in and out of slow phases lasting minutes, so no end-to-end metric is
//! a quantile of millisecond timings: every timed figure is the fastest
//! of repeated identical, deterministic work, each repetition scaled to
//! the host's reference speed by fixed probes taken just before and
//! after it ([`host::HostSpeed`], [`host::SLOWDOWN_SENSITIVITY`]); the
//! raw times are printed beside it.

pub mod catalog;
pub mod gate;
pub mod host;
pub mod replica;
pub mod spans;
pub mod timed;
pub mod traced;
pub mod workload;

use std::fmt::Write as _;

/// One reported metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What one benchmark invocation found: how many checked executions it
/// attempted, which of them failed a correctness check and why, and the
/// metrics it measured.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failures: Vec<String>,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Record one checked execution; `failure` is `Some(reason)` when a
    /// check failed.
    pub fn check(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failures.push(reason);
        }
    }

    /// Record a metric, looking its unit up in the catalog.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        let unit =
            catalog::unit_of(name).unwrap_or_else(|| panic!("metric {name} is not in the catalog"));
        self.metrics.push(Metric { name, value, unit });
    }

    /// True when every check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// The one-line JSON result: `correct`, `attempted`, `failed` and
    /// `metrics` (name → value and unit).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted,
            self.failures.len()
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest string that parses back to the
            // same f64, always with a decimal point or exponent.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name,
                finite(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// JSON has no NaN or infinity; a ratio over an empty base reports 0.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// `num / den`, or 0 when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
