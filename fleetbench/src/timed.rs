//! `--trace 0`: the end-to-end metrics, measured with tracing off.
//!
//! A run repeats identical, deterministic work: every repetition
//! produces the same digest, so repetitions differ only by the host.
//! Each timed figure is the fastest repetition after scaling it by the
//! host's speed probed around that same repetition, with the sample
//! count and the raw times printed beside it.

use crate::gate::{self, Expected};
use crate::host::{self, ChildRssSampler, HostSpeed, MemProbe, SpeedSample, StealMeter};
use crate::workload::{Workload, SHARDS};
use crate::{ratio, Outcome};
use fleet::{population, run_fleet_with_progress, FleetConfig, FleetReport, LiveGrowth};
use fleet_wire::{run_fleet_distributed_with_progress, DistributedConfig};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// `fleet::population` calls per timed round (spreading setup samples
/// across the run).
const SETUP_CALLS_PER_ROUND: usize = 6;
/// Timed repetitions never fall below this, whatever the budget.
const MIN_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    /// [`crate::workload::USERS`] from the command line; the benchmark's
    /// own tests set smoke sizes.
    pub users: u64,
    pub seed: u64,
    /// Budget for the timed repetitions.
    pub seconds: f64,
    /// The worker binary for distributed runs (this benchmark's own
    /// executable, which runs `fleet_wire::worker::run_worker` when
    /// started with `--connect`).
    pub shard_bin: PathBuf,
}

impl RunOptions {
    pub fn config(&self) -> FleetConfig {
        self.workload.config(self.users, self.seed)
    }
}

/// One complete run of a workload, as a user gets it.
pub struct Execution {
    pub report: FleetReport,
    /// The live crawl's growth table (churn runs only).
    pub growth: Option<LiveGrowth>,
    /// Wall time of the whole run, crawl included.
    pub wall_s: f64,
    /// Wall time of the crawl alone.
    pub crawl_s: f64,
    /// Time from the start to the first committed cell.
    pub first_commit_s: f64,
}

/// Run `cfg` on in-process shards or, with `distributed`, on worker
/// processes; then the live crawl, which churn runs print after the
/// fleet report.
pub fn execute(
    distributed: bool,
    cfg: &FleetConfig,
    shard_bin: &Path,
) -> Result<Execution, String> {
    let started = Instant::now();
    let mut first_commit: Option<f64> = None;
    let mut on_progress = |_: &fleet::Progress| {
        first_commit.get_or_insert_with(|| started.elapsed().as_secs_f64());
    };
    let report = if distributed {
        let dcfg = DistributedConfig::new(SHARDS, shard_bin.to_path_buf());
        run_fleet_distributed_with_progress(cfg, &dcfg, &mut on_progress)
            .map_err(|e| format!("distributed run failed: {e}"))?
            .report
    } else {
        run_fleet_with_progress(cfg, &mut on_progress)
    };
    let crawl_started = Instant::now();
    let growth = LiveGrowth::crawl(cfg);
    let crawl_s = crawl_started.elapsed().as_secs_f64();
    Ok(Execution {
        report,
        growth,
        wall_s: started.elapsed().as_secs_f64(),
        crawl_s,
        first_commit_s: first_commit.unwrap_or(0.0),
    })
}

/// The references a run must match. The digest is the pinned golden
/// where one exists, and otherwise that of a run in a second execution
/// mode: a single-threaded (1-shard) run for the in-process workloads,
/// the in-process run for the distributed one. The reference run itself
/// is checked against the golden too. The growth fingerprint is pinned
/// at the default seed and otherwise the reference run's.
pub struct References {
    pub expected: Expected,
    pub growth: Option<String>,
    /// The reference run (its digest, wall time and counts).
    pub run: Execution,
}

pub fn references(opts: &RunOptions, out: &mut Outcome) -> Result<References, String> {
    let cfg = opts.config();
    let (ref_cfg, mode) = if opts.workload.distributed() {
        (cfg, "the in-process run")
    } else {
        (FleetConfig { shards: 1, ..cfg }, "the single-threaded run")
    };
    let run = execute(false, &ref_cfg, &opts.shard_bin)?;
    let expected = match opts.workload.golden(opts.users, opts.seed) {
        Some(pin) => Expected {
            digest: pin.to_string(),
            source: "pinned golden",
        },
        None => Expected {
            digest: run.report.digest(),
            source: mode,
        },
    };
    out.check(gate::check_report(&ref_cfg, &run.report, &expected).map(|w| format!("{mode}: {w}")));
    let growth = run.growth.as_ref().map(|g| {
        opts.workload
            .growth_golden(opts.seed)
            .map_or_else(|| gate::growth_fingerprint(g), str::to_string)
    });
    if let Some(want) = &growth {
        out.check(gate::check_growth(run.growth.as_ref(), want).map(|w| format!("{mode}: {w}")));
    }
    Ok(References {
        expected,
        growth,
        run,
    })
}

/// Check one execution against the references.
pub fn check_execution(cfg: &FleetConfig, e: &Execution, refs: &References) -> Option<String> {
    gate::check_report(cfg, &e.report, &refs.expected).or_else(|| {
        refs.growth
            .as_ref()
            .and_then(|want| gate::check_growth(e.growth.as_ref(), want))
    })
}

/// One timed round: setup samples, then one complete run, bracketed by
/// host-speed probes.
struct Round {
    exec: Execution,
    setup_s: Vec<f64>,
    before: SpeedSample,
    after: SpeedSample,
    /// This process's peak resident set after the run, less the host
    /// probe's table, plus (when sampled) the summed peak of its worker
    /// processes during it.
    rss_mb: f64,
}

impl Round {
    /// The host's slowdown over the round: the mean of its probes.
    fn slowdown(&self) -> f64 {
        (self.before.slowdown() + self.after.slowdown()) / 2.0
    }

    /// What the slowdown did to the simulation's timings.
    fn scale(&self) -> f64 {
        self.slowdown().powf(host::SLOWDOWN_SENSITIVITY)
    }

    /// The run's wall time at the probes' reference speed.
    fn scaled_run_s(&self) -> f64 {
        self.exec.wall_s / self.scale()
    }

    /// The fastest setup call at the probes' reference speed.
    fn scaled_setup_s(&self) -> f64 {
        self.setup_s.iter().copied().fold(f64::INFINITY, f64::min) / self.scale()
    }
}

/// Measure the end-to-end metrics of one workload.
///
/// Timed figures are scaled to the host's reference speed round by
/// round: each round's wall (and fastest setup call) is divided by the
/// [`host::HostSpeed`] slowdown probed just before and just after that
/// round, raised to [`host::SLOWDOWN_SENSITIVITY`], and the fastest
/// scaled round is reported. On a shared 2-vCPU guest the clock and the
/// memory system drift by 15-80% in phases lasting minutes, longer than
/// a run, so the fastest raw repetition alone does not repeat from run
/// to run; the raw times are printed beside the scaled ones.
pub fn run(opts: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let cfg = opts.config();
    let speed = HostSpeed::new();
    let steal = StealMeter::start();

    // `sample_workers`: read the worker processes' resident sets while
    // the run lasts. The sampler scans /proc on a thread of its own, so
    // only the untimed warm-up round does it.
    let round = |out: &mut Outcome, setup_calls: usize, sample_workers: bool| -> Option<Round> {
        let before = speed.sample();
        let mut setup_s = Vec::with_capacity(setup_calls);
        let mut thresholds = Vec::with_capacity(setup_calls);
        for _ in 0..setup_calls {
            let t = Instant::now();
            let (_, hot) = population(&cfg);
            setup_s.push(t.elapsed().as_secs_f64());
            thresholds.push(hot);
        }
        if thresholds.windows(2).any(|w| w[0] != w[1]) {
            out.check(Some(
                "population's hot threshold changed between calls".into(),
            ));
        }
        let children = sample_workers.then(ChildRssSampler::start);
        let exec = execute(opts.workload.distributed(), &cfg, &opts.shard_bin);
        let rss_mb = children.map_or(0.0, ChildRssSampler::finish) + host::self_peak_rss_mb()
            - MemProbe::RESIDENT_MB;
        let after = speed.sample();
        match exec {
            Ok(exec) => Some(Round {
                exec,
                setup_s,
                before,
                after,
                rss_mb,
            }),
            Err(e) => {
                out.check(Some(e));
                None
            }
        }
    };

    // The warm-up: in-process workloads run their reference first (it
    // warms the same code); the distributed workload runs one untimed
    // round, which also samples its workers' resident sets, and its
    // in-process reference last, so the resident set read in the
    // warm-up is the coordinator's own.
    let mut refs = None;
    let warm_up = if opts.workload.distributed() {
        round(&mut out, 0, true)
    } else {
        refs = Some(references(opts, &mut out));
        None
    };
    let mut timed: Vec<Round> = Vec::new();
    let budget = Instant::now();
    let mut attempts = 0;
    while attempts < MIN_REPS || budget.elapsed().as_secs_f64() < opts.seconds {
        timed.extend(round(&mut out, SETUP_CALLS_PER_ROUND, false));
        attempts += 1;
        if !out.correct() {
            break;
        }
    }
    let refs = refs.unwrap_or_else(|| references(opts, &mut out));

    match &refs {
        Ok(refs) => {
            let labelled = warm_up.iter().map(|r| ("warm-up".to_string(), r)).chain(
                timed
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (format!("rep {}", i + 1), r)),
            );
            for (label, r) in labelled {
                out.check(check_execution(&cfg, &r.exec, refs).map(|w| format!("{label}: {w}")));
                println!(
                    "{label:>8}: wall {:.4} s  scaled {:.4} s  crawl {:.4} s  first commit {:.4} s  \
                     rss {:.1} MB  slowdown {:.3}  alu {:.1}/{:.1} ms  host.mem_probe_ms {:.2}/{:.2}  digest {}",
                    r.exec.wall_s,
                    r.scaled_run_s(),
                    r.exec.crawl_s,
                    r.exec.first_commit_s,
                    r.rss_mb,
                    r.slowdown(),
                    r.before.alu_ms,
                    r.after.alu_ms,
                    r.before.mem_ms,
                    r.after.mem_ms,
                    r.exec.report.digest()
                );
            }
            println!(
                "reference: wall {:.4} s  digest {} ({})",
                refs.run.wall_s,
                refs.run.report.digest(),
                refs.expected.source
            );
        }
        Err(e) => out.check(Some(format!("reference run: {e}"))),
    }
    for f in &out.failures {
        eprintln!("correctness failure: {f}");
    }

    // Each round is scaled by its own probes; the fastest scaled round
    // and setup call are reported, the fastest raw ones printed.
    let fastest = timed
        .iter()
        .min_by(|a, b| a.scaled_run_s().total_cmp(&b.scaled_run_s()));
    let run_s = fastest.map_or(0.0, Round::scaled_run_s);
    let events = fastest.map_or(0, |r| r.exec.report.merged.sim_events.get());
    let setup_s = timed
        .iter()
        .map(Round::scaled_setup_s)
        .fold(f64::INFINITY, f64::min);
    let raw_run_s = timed
        .iter()
        .map(|r| r.exec.wall_s)
        .fold(f64::INFINITY, f64::min);
    let raw_setup_s = timed
        .iter()
        .flat_map(|r| r.setup_s.iter().copied())
        .fold(f64::INFINITY, f64::min);
    let slowdowns: Vec<f64> = timed.iter().map(Round::slowdown).collect();
    // The distributed workload's workers are sampled in the warm-up; an
    // in-process run's resident set is the first timed round's (later
    // rounds can only add allocator arenas for their fresh threads, not
    // simulation state).
    let peak_rss_mb = warm_up.as_ref().or(timed.first()).map_or(0.0, |r| r.rss_mb);
    println!(
        "{}: {} timed reps, {} setup samples; fastest scaled run {:.4} s, setup {:.5} s; \
         fastest raw run {:.4} s, setup {:.5} s; \
         host slowdown median {:.3} (min {:.3}, max {:.3}), host.steal_share {:.4}",
        opts.workload.name(),
        timed.len(),
        timed.iter().map(|r| r.setup_s.len()).sum::<usize>(),
        run_s,
        setup_s,
        raw_run_s,
        raw_setup_s,
        host::median(&slowdowns),
        slowdowns.iter().copied().fold(f64::INFINITY, f64::min),
        slowdowns.iter().copied().fold(0.0, f64::max),
        steal.share()
    );

    out.metric("setup_s", setup_s);
    out.metric("run_s", run_s);
    out.metric("events_per_s", ratio(events as f64, run_s));
    out.metric("peak_rss_mb", peak_rss_mb);
    out
}
