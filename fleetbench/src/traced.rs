//! `--trace 1`: the per-layer metrics, from a traced run that is
//! separate from the timed ones and uses the same seed.
//!
//! Spans are taken from outside the program, around the calls into each
//! layer: a single-threaded replay of every cell through
//! `fleet::cell::run_cell` (its merged digest must equal the untraced
//! run's), a phase-collapsed replay for install cost, the timed-node
//! replica for the engine / devices / simnet split, the fleet-wire delta
//! codec over every replayed cell, and the alloc-count companion build.

use crate::gate::{self, Expected};
use crate::host::{self, HostSpeed, StealMeter};
use crate::replica::{self, Probes};
use crate::spans::{Layer, Tracer};
use crate::timed::{self, RunOptions};
use crate::workload::{Workload, USERS};
use crate::{ratio, Outcome};
use ecosystem::{Ecosystem, GeneratorConfig, PopulationSampler};
use fleet::cell::run_cell;
use fleet::shard::CellSpec;
use fleet::{
    assign_contiguous, assign_round_robin, plan_cells, population, FleetConfig, FleetMetrics,
};
use fleet_wire::frame::{FrameBuf, HEADER_LEN};
use fleet_wire::messages::{
    apply_attribution_delta, apply_metrics_delta, encode_attribution_delta, encode_metrics_delta,
    DeltaHead,
};
use simnet::rng::derive_seed;
use std::hint::black_box;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// `fleet::population`'s seed streams for the catalog and the sampler;
/// the traced replay rebuilds the population from public parts, and its
/// digest proves the rebuild is the same population.
const ECO_STREAM: u64 = 0xec0_0001;
const POP_STREAM: u64 = 0xb0b_0001;
/// Repetitions of the cheap setup-side spans (the fastest is reported).
const SETUP_REPS: usize = 5;
/// Phase length standing in for zero in the install-only replay.
const COLLAPSED_SECS: f64 = 1e-6;
/// How much of the replica replay's wall may lie outside every layer
/// span (the replica cell's own glue, and the loop between cells) before
/// the split is refused.
pub const RESIDUE_TOLERANCE: f64 = 0.03;

/// Traced-run inputs beyond [`RunOptions`].
#[derive(Debug, Clone)]
pub struct TraceOptions {
    pub run: RunOptions,
    /// The alloc-count companion binary; without it the `mem.*` counts
    /// are a correctness failure.
    pub alloc_bin: Option<PathBuf>,
    /// Where to write the spans (JSON lines).
    pub spans_out: Option<PathBuf>,
}

/// The population, rebuilt under spans.
fn traced_population(cfg: &FleetConfig, tracer: &mut Tracer) -> (PopulationSampler, u64) {
    let eco = tracer.span("ecosystem.generate", Layer::Ecosystem, || {
        Ecosystem::generate(GeneratorConfig {
            seed: derive_seed(cfg.master_seed, ECO_STREAM),
            scale: cfg.eco_scale,
            multi_step_share: cfg.multi_step_share,
        })
    });
    tracer.span("ecosystem.sampler", Layer::Ecosystem, || {
        let snap = eco.canonical_snapshot();
        let sampler = PopulationSampler::new(&snap, derive_seed(cfg.master_seed, POP_STREAM));
        let hot = cfg
            .hot_threshold
            .unwrap_or_else(|| sampler.add_count_percentile(90.0));
        (sampler, hot)
    })
}

/// Fastest busy time of the spans named `name`, in ms.
fn fastest_ms(tracer: &Tracer, name: &str) -> f64 {
    tracer
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.busy_ns as f64 / 1e6)
        .fold(f64::INFINITY, f64::min)
}

/// Summed busy time of the spans named `name`, in ns.
fn total_ns(tracer: &Tracer, name: &str) -> u64 {
    tracer
        .spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.busy_ns)
        .sum()
}

/// Replay every cell once on this thread, into fresh metrics per cell;
/// returns the summed cell time in ns.
fn replay_cells(
    cells: &[CellSpec],
    sampler: &PopulationSampler,
    cfg: &FleetConfig,
) -> (u64, FleetMetrics) {
    let merged = FleetMetrics::default();
    let mut ns = 0u64;
    for cell in cells {
        let m = Arc::new(FleetMetrics::default());
        let t = Instant::now();
        run_cell(cell, sampler, cfg, &m);
        ns += t.elapsed().as_nanos() as u64;
        merged.merge_from(&m);
    }
    (ns, merged)
}

/// Cell-time quantile summary: p50, and the highest percentile with at
/// least ten cells beyond it.
fn cell_quantiles(mut ms: Vec<f64>) -> (f64, f64, f64) {
    ms.sort_by(f64::total_cmp);
    let n = ms.len();
    if n == 0 {
        return (0.0, 0.0, 0.0);
    }
    let p50 = ms[(n - 1) / 2];
    if n <= 10 {
        return (p50, ms[n - 1], 100.0);
    }
    // Exactly ten cells lie beyond index n - 11.
    let tail_pct = 100.0 * (n - 10) as f64 / n as f64;
    (p50, ms[n - 11], tail_pct)
}

/// Measure the per-layer metrics of one workload.
pub fn run(topts: &TraceOptions) -> Outcome {
    let opts = &topts.run;
    let mut out = Outcome::default();
    let mut tracer = Tracer::new();
    let speed = HostSpeed::new();
    let steal = StealMeter::start();
    let mut host_samples = vec![speed.sample()];
    let cfg = opts.config();

    // 1. The untraced run in the workload's own mode, and the reference
    //    run (single-threaded, or in-process for the distributed mode).
    let exec = match timed::execute(opts.workload.distributed(), &cfg, &opts.shard_bin) {
        Ok(e) => e,
        Err(e) => {
            out.check(Some(format!("untraced run: {e}")));
            return out;
        }
    };
    let refs = match timed::references(opts, &mut out) {
        Ok(r) => r,
        Err(e) => {
            out.check(Some(format!("reference run: {e}")));
            return out;
        }
    };
    out.check(timed::check_execution(&cfg, &exec, &refs).map(|w| format!("untraced run: {w}")));
    // The tracing-overhead base: an untraced single-threaded run of the
    // same cells (the in-process workloads' reference already is one).
    let one_shard = if opts.workload.distributed() {
        let cfg1 = FleetConfig {
            shards: 1,
            ..cfg.clone()
        };
        match timed::execute(false, &cfg1, &opts.shard_bin) {
            Ok(e) => {
                out.check(
                    gate::check_report(&cfg1, &e.report, &refs.expected)
                        .map(|w| format!("single-threaded run: {w}")),
                );
                e
            }
            Err(e) => {
                out.check(Some(format!("single-threaded run: {e}")));
                return out;
            }
        }
    } else {
        refs.run
    };
    host_samples.push(speed.sample());

    // 2. The traced single-threaded replay.
    let replay_root = tracer.enter("fleet.replay", Layer::Fleet);
    let (sampler, hot) = traced_population(&cfg, &mut tracer);
    let resolved = FleetConfig {
        hot_threshold: Some(hot),
        ..cfg.clone()
    };
    let cells = tracer.span("fleet.plan", Layer::Fleet, || {
        let cells = plan_cells(resolved.users, resolved.cell_users);
        if opts.workload.distributed() {
            black_box(assign_contiguous(&cells, resolved.shards));
        } else {
            black_box(assign_round_robin(&cells, resolved.shards));
        }
        cells
    });
    let merged = FleetMetrics::default();
    let mut cell_ms = Vec::with_capacity(cells.len());
    let mut frames: Vec<Vec<u8>> = Vec::with_capacity(cells.len());
    let mut encode_ns = 0u64;
    // Time spent on side measurements inside the replay's root span.
    let mut side_ns = 0u64;
    for cell in &cells {
        let m = Arc::new(FleetMetrics::default());
        let id = tracer.enter("fleet.cell", Layer::Fleet);
        run_cell(cell, &sampler, &resolved, &m);
        cell_ms.push(tracer.exit(id) as f64 / 1e6);
        tracer.span("fleet.metrics.merge", Layer::Fleet, || {
            merged.merge_from(&m)
        });
        // Side measurements, outside the replay's spans.
        let t = Instant::now();
        let head = DeltaHead {
            worker_id: 0,
            cell: cell.cell,
        };
        let mut fb = FrameBuf::new();
        if resolved.attribution {
            encode_attribution_delta(&mut fb, head, &m.attribution);
            frames.push(fb.finish().to_vec());
        }
        encode_metrics_delta(&mut fb, head, &m);
        frames.push(fb.finish().to_vec());
        encode_ns += t.elapsed().as_nanos() as u64;
        side_ns += t.elapsed().as_nanos() as u64;
    }
    let replay_digest = tracer.span("fleet.report.digest", Layer::Fleet, || {
        gate::digest_of(&merged)
    });
    tracer.exit(replay_root);
    out.check((replay_digest != refs.expected.digest).then(|| {
        format!(
            "traced replay digest {replay_digest} != {} ({})",
            refs.expected.digest, refs.expected.source
        )
    }));
    out.check(gate::conservation(&cfg, &merged).map(|w| format!("traced replay: {w}")));
    let (_, population_hot) = population(&cfg);
    out.check((population_hot != hot).then(|| {
        format!("rebuilt population threshold {hot} != fleet::population's {population_hot}")
    }));
    host_samples.push(speed.sample());

    // Setup-side spans again, for a steadier fastest figure.
    for _ in 1..SETUP_REPS {
        let _ = traced_population(&cfg, &mut tracer);
        tracer.span("fleet.plan", Layer::Fleet, || {
            let cells = plan_cells(resolved.users, resolved.cell_users);
            black_box(assign_round_robin(&cells, resolved.shards));
        });
    }
    let profile_ns = (0..3)
        .map(|_| {
            let t = Instant::now();
            for u in 0..resolved.users {
                black_box(sampler.user(u));
            }
            t.elapsed().as_nanos() as u64
        })
        .min()
        .unwrap_or(0);

    // 3. Fleet-wire: apply every encoded delta into a fresh accumulator;
    //    the result must be the replay's merged metrics exactly.
    let acc = FleetMetrics::default();
    let t = Instant::now();
    let mut frame_bytes = 0usize;
    for f in &frames {
        frame_bytes += f.len();
        let payload = &f[HEADER_LEN..];
        let applied = if f[1] == fleet_wire::FrameType::AttributionDelta as u8 {
            apply_attribution_delta(payload, &acc.attribution).map(|_| ())
        } else {
            apply_metrics_delta(payload, &acc).map(|_| ())
        };
        if let Err(e) = applied {
            out.check(Some(format!("fleet-wire delta did not apply: {e}")));
            break;
        }
    }
    let apply_ns = t.elapsed().as_nanos() as u64;
    let wire_digest = gate::digest_of(&acc);
    out.check(
        (wire_digest != replay_digest)
            .then(|| format!("fleet-wire applied digest {wire_digest} != replay {replay_digest}")),
    );

    // 4. Install cost: the same cells with the phases collapsed, so a
    //    cell is its installs and almost no simulation.
    let collapsed_cfg = resolved
        .clone()
        .with_phases(0.0, COLLAPSED_SECS, COLLAPSED_SECS);
    let (collapsed_ns, _) = replay_cells(&cells, &sampler, &collapsed_cfg);
    let cells_ns = total_ns(&tracer, "fleet.cell");

    // 5. Attribution overhead, on workloads that record it.
    let attribution_overhead = if resolved.attribution {
        let off = FleetConfig {
            attribution: false,
            ..resolved.clone()
        };
        let (off_ns, off_merged) = replay_cells(&cells, &sampler, &off);
        out.check(
            gate::conservation(&off, &off_merged).map(|w| format!("attribution-off replay: {w}")),
        );
        ratio(cells_ns as f64, off_ns as f64) - 1.0
    } else {
        0.0
    };
    host_samples.push(speed.sample());

    // 6. The timed-node replica over poll-100k cells: this workload's
    //    own when they are poll-100k's, else poll-100k's at this seed.
    //    Each cell runs through `run_cell` first, timed, then through the
    //    replica, so host drift hits both alike: the replica's tracing
    //    overhead is its time over `run_cell`'s on the same cells.
    let (rep_cells, rep_sampler, rep_cfg) = if replica::supports(&resolved) {
        (cells.clone(), sampler, resolved.clone())
    } else {
        let poll = Workload::Poll100k.config(opts.users, opts.seed);
        let (s, hot) = population(&poll);
        let poll = FleetConfig {
            hot_threshold: Some(hot),
            ..poll
        };
        (plan_cells(poll.users, poll.cell_users), s, poll)
    };
    let probes = Probes::default();
    let rep_merged = FleetMetrics::default();
    let first_replica_span = tracer.spans.len();
    let mut mismatches = 0usize;
    let mut rep_run_cell_ns = 0u64;
    // Everything but the replica itself (`run_cell`, fresh metrics, the
    // byte-for-byte check) is timed apart and left out of the replica
    // replay's wall.
    let mut outside_ns = 0u64;
    let rep_started = tracer.now_ns();
    for cell in &rep_cells {
        let t = Instant::now();
        let want = Arc::new(FleetMetrics::default());
        let run_cell_started = Instant::now();
        run_cell(cell, &rep_sampler, &rep_cfg, &want);
        rep_run_cell_ns += run_cell_started.elapsed().as_nanos() as u64;
        let m = Arc::new(FleetMetrics::default());
        outside_ns += t.elapsed().as_nanos() as u64;
        replica::run_cell_replica(cell, &rep_sampler, &rep_cfg, &m, &probes, &mut tracer);
        let t = Instant::now();
        let differs = m.to_json() != want.to_json();
        mismatches += usize::from(differs);
        out.check(differs.then(|| format!("replica differs from run_cell on cell {}", cell.cell)));
        rep_merged.merge_from(&m);
        drop((m, want));
        outside_ns += t.elapsed().as_nanos() as u64;
    }
    let rep_wall_ns = tracer.now_ns() - rep_started - outside_ns;
    let split = tracer.layer_self_ns(|s| s.name == "replica.cell");
    let layer_ns = |l: Layer| split.iter().find(|(x, _)| *x == l).map_or(0, |(_, ns)| *ns) as f64;
    let rep_cells_ns: f64 = tracer.spans[first_replica_span..]
        .iter()
        .filter(|s| s.name == "replica.cell")
        .map(|s| s.busy_ns as f64)
        .sum();
    // The residue: replica cell time outside every layer span beneath
    // it, plus the loop between cells. It is what the layer split misses.
    let own_ns = tracer.self_ns();
    let cell_self_ns: f64 = (first_replica_span..tracer.spans.len())
        .filter(|&i| tracer.spans[i].name == "replica.cell")
        .map(|i| own_ns[i] as f64)
        .sum();
    let residue_ns = cell_self_ns + (rep_wall_ns as f64 - rep_cells_ns);
    let residue = ratio(residue_ns, rep_wall_ns as f64);
    out.check((residue > RESIDUE_TOLERANCE).then(|| {
        format!(
            "layer spans leave {:.1}% of the replica replay's wall unattributed (tolerance {:.0}%)",
            100.0 * residue,
            100.0 * RESIDUE_TOLERANCE
        )
    }));
    let replica_overhead = ratio(rep_cells_ns, rep_run_cell_ns as f64) - 1.0;
    let callback = |name: &str| -> (f64, f64) {
        tracer.spans[first_replica_span..]
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0.0), |(ns, n), s| {
                (ns + s.busy_ns as f64, n + s.calls as f64)
            })
    };
    let (engine_cb_ns, engine_cbs) = callback("engine.callback");
    let (devices_cb_ns, devices_cbs) = callback("devices.callback");
    let (wire_bytes, round_trips) = probes.wire();
    host_samples.push(speed.sample());

    // 7. Allocation counts from the companion build.
    let mem = match &topts.alloc_bin {
        Some(bin) => alloc_counts(bin, opts, &refs.expected),
        None => Err("no alloc-count companion binary".into()),
    };
    let mem = match mem {
        Ok(m) => {
            out.check(None);
            m
        }
        Err(e) => {
            out.check(Some(format!("alloc companion: {e}")));
            AllocCounts::default()
        }
    };
    host_samples.push(speed.sample());

    if let Some(path) = &topts.spans_out {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }

    // Report.
    let m = &exec.report.merged;
    let run = &exec.report;
    let activations = m.activations.get() as f64;
    let polls = m.polls_sent.get() as f64;
    let walls: Vec<f64> = run.per_shard.iter().map(|s| s.wall_secs).collect();
    let max_wall = walls.iter().copied().fold(0.0, f64::max);
    let min_wall = walls.iter().copied().fold(f64::INFINITY, f64::min);
    let (p50, tail, tail_pct) = cell_quantiles(cell_ms);
    let n_cells = cells.len() as f64;
    let replay_ns = (total_ns(&tracer, "fleet.replay") - side_ns) as f64;
    let one_shard_ns = one_shard.report.wall_secs * 1e9;
    let events = m.sim_events.get() as f64;

    println!(
        "{} traced run: {} cells replayed, replica matched {}/{} cells, layer spans cover {:.2}% of the replica wall \
         (tolerance {:.0}%; residue {:.1} ms in cells, {:.1} ms between), replica {:.1} ms vs run_cell {:.1} ms on the same cells",
        opts.workload.name(),
        cells.len(),
        rep_cells.len() - mismatches,
        rep_cells.len(),
        100.0 * (1.0 - residue),
        100.0 * RESIDUE_TOLERANCE,
        cell_self_ns / 1e6,
        (residue_ns - cell_self_ns) / 1e6,
        rep_cells_ns / 1e6,
        rep_run_cell_ns as f64 / 1e6
    );
    for (l, ns) in &split {
        println!(
            "  replica {:<11} self {:>9.3} ms",
            l.name(),
            *ns as f64 / 1e6
        );
    }
    println!(
        "  fleet.cell.ms_tail is p{tail_pct} ({} cells beyond it); host.mem_probe_ms samples {:?}",
        if cells.len() > 10 { 10 } else { 0 },
        host_samples
            .iter()
            .map(|p| (p.mem_ms * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    for f in &out.failures {
        eprintln!("correctness failure: {f}");
    }

    out.metric(
        "ecosystem.generate_ms",
        fastest_ms(&tracer, "ecosystem.generate"),
    );
    out.metric(
        "ecosystem.sampler_ms",
        fastest_ms(&tracer, "ecosystem.sampler"),
    );
    out.metric(
        "ecosystem.profile_us_per_user",
        profile_ns as f64 / 1e3 / resolved.users as f64,
    );
    out.metric("ecosystem.crawl_s", exec.crawl_s);
    out.metric(
        "ecosystem.pages_per_s",
        ratio(
            exec.growth.as_ref().map_or(0, |g| g.pages_fetched) as f64,
            exec.crawl_s,
        ),
    );
    out.metric("fleet.plan_ms", fastest_ms(&tracer, "fleet.plan"));
    out.metric("fleet.runner.shard_skew", ratio(max_wall, min_wall));
    out.metric(
        "fleet.runner.idle_share",
        1.0 - ratio(walls.iter().sum(), walls.len() as f64 * run.wall_secs),
    );
    out.metric("fleet.cell.count", n_cells);
    out.metric("fleet.cell.ms_p50", p50);
    out.metric("fleet.cell.ms_tail", tail);
    out.metric("fleet.cell.tail_pct", tail_pct);
    out.metric(
        "fleet.cell.ns_per_event",
        ratio(cells_ns as f64, merged.sim_events.get() as f64),
    );
    out.metric(
        "fleet.cell.install_share",
        ratio(collapsed_ns as f64, cells_ns as f64),
    );
    out.metric(
        "fleet.cell.install_us_per_applet",
        ratio(collapsed_ns as f64 / 1e3, merged.applets.get() as f64),
    );
    out.metric("fleet.attribution.overhead_share", attribution_overhead);
    out.metric(
        "fleet.metrics.merge_us",
        total_ns(&tracer, "fleet.metrics.merge") as f64 / 1e3 / n_cells,
    );
    out.metric(
        "fleet.report.digest_ms",
        fastest_ms(&tracer, "fleet.report.digest"),
    );
    out.metric(
        "engine.self_share",
        ratio(layer_ns(Layer::Engine), rep_cells_ns),
    );
    out.metric("engine.ns_per_callback", ratio(engine_cb_ns, engine_cbs));
    out.metric(
        "devices.self_share",
        ratio(layer_ns(Layer::Devices), rep_cells_ns),
    );
    out.metric("devices.ns_per_request", ratio(devices_cb_ns, devices_cbs));
    out.metric(
        "simnet.kernel_share",
        ratio(layer_ns(Layer::Simnet), rep_cells_ns),
    );
    out.metric(
        "simnet.ns_per_event",
        ratio(layer_ns(Layer::Simnet), rep_merged.sim_events.get() as f64),
    );
    out.metric(
        "tap-protocol.bytes_per_round_trip",
        ratio(wire_bytes as f64, round_trips as f64),
    );
    out.metric("simnet.sim_events", events);
    out.metric(
        "simnet.engine_event_share",
        ratio(m.engine_events.get() as f64, events),
    );
    out.metric("engine.polls_per_activation", ratio(polls, activations));
    out.metric(
        "engine.http_round_trips_per_activation",
        ratio(polls - m.polls_coalesced.get() as f64, activations),
    );
    out.metric(
        "engine.coalesce_share",
        ratio(m.polls_coalesced.get() as f64, polls),
    );
    out.metric("engine.poll_yield", ratio(m.events_new.get() as f64, polls));
    out.metric(
        "engine.dispatch_depth_p99",
        m.dispatch_depth.quantile(0.99) as f64,
    );
    let dag_nodes = m.dag_nodes_filter.get()
        + m.dag_nodes_transform.get()
        + m.dag_nodes_query.get()
        + m.dag_nodes_action.get();
    out.metric(
        "engine.dag_nodes_per_activation",
        ratio(dag_nodes as f64, activations),
    );
    out.metric(
        "engine.lifecycle_ops",
        (m.churn_installs.get()
            + m.churn_uninstalls.get()
            + m.churn_onboards.get()
            + m.churn_retirements.get()) as f64,
    );
    out.metric(
        "engine.realtime_poll_share",
        ratio(m.realtime_polls.get() as f64, polls),
    );
    let mem_events = mem.sim_events as f64;
    out.metric(
        "mem.allocs_per_event.setup",
        ratio(mem.setup_allocs as f64, mem_events),
    );
    out.metric(
        "mem.allocs_per_event.cells",
        ratio(mem.cells_allocs as f64, mem_events),
    );
    out.metric(
        "mem.allocs_per_event.merge",
        ratio(mem.merge_allocs as f64, mem_events),
    );
    out.metric(
        "mem.bytes_per_event.cells",
        ratio(mem.cells_bytes as f64, mem_events),
    );
    out.metric(
        "fleet-wire.delta_bytes_per_cell",
        frame_bytes as f64 / n_cells,
    );
    out.metric(
        "fleet-wire.delta_encode_us",
        encode_ns as f64 / 1e3 / n_cells,
    );
    out.metric("fleet-wire.delta_apply_us", apply_ns as f64 / 1e3 / n_cells);
    out.metric("fleet-wire.first_commit_s", exec.first_commit_s);
    out.metric("trace.overhead_share", ratio(replay_ns, one_shard_ns) - 1.0);
    out.metric("trace.replica_overhead_share", replica_overhead);
    out.metric("trace.replica_residue_share", residue);
    let median_of = |f: fn(&host::SpeedSample) -> f64| {
        host::median(&host_samples.iter().map(f).collect::<Vec<_>>())
    };
    out.metric("host.mem_probe_ms", median_of(|p| p.mem_ms));
    out.metric("host.slowdown", median_of(|p| p.slowdown()));
    out.metric("host.raw_run_s", exec.wall_s);
    out.metric("host.steal_share", steal.share());
    out
}

/// Allocation counts by phase, from the companion build.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct AllocCounts {
    pub setup_allocs: u64,
    pub setup_bytes: u64,
    pub cells_allocs: u64,
    pub cells_bytes: u64,
    pub merge_allocs: u64,
    pub merge_bytes: u64,
    pub sim_events: u64,
    pub digest: String,
}

impl AllocCounts {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"setup_allocs\": {}, \"setup_bytes\": {}, \"cells_allocs\": {}, \"cells_bytes\": {}, \
             \"merge_allocs\": {}, \"merge_bytes\": {}, \"sim_events\": {}, \"digest\": \"{}\"}}",
            self.setup_allocs,
            self.setup_bytes,
            self.cells_allocs,
            self.cells_bytes,
            self.merge_allocs,
            self.merge_bytes,
            self.sim_events,
            self.digest
        )
    }

    pub fn from_json(line: &str) -> Option<AllocCounts> {
        let v: serde_json::Value = serde_json::from_str(line).ok()?;
        let n = |k: &str| v.get(k).and_then(|x| x.as_u64());
        Some(AllocCounts {
            setup_allocs: n("setup_allocs")?,
            setup_bytes: n("setup_bytes")?,
            cells_allocs: n("cells_allocs")?,
            cells_bytes: n("cells_bytes")?,
            merge_allocs: n("merge_allocs")?,
            merge_bytes: n("merge_bytes")?,
            sim_events: n("sim_events")?,
            digest: v.get("digest")?.as_str()?.to_string(),
        })
    }
}

/// Count allocations by phase over a single-threaded run of every cell:
/// setup (`fleet::population`), cells (`run_cell` each into fresh
/// metrics) and merge (`merge_from` of each). Meaningful only in a build
/// with the counting allocator; returns `None` otherwise.
pub fn count_allocs(cfg: &FleetConfig) -> Option<AllocCounts> {
    let counts = || mem::alloc_counts();
    let c0 = counts()?;
    let (sampler, hot) = population(cfg);
    let c1 = counts()?;
    let cfg = FleetConfig {
        hot_threshold: Some(hot),
        ..cfg.clone()
    };
    let merged = FleetMetrics::default();
    let (mut cells, mut merge) = ((0, 0), (0, 0));
    for cell in plan_cells(cfg.users, cfg.cell_users) {
        let m = Arc::new(FleetMetrics::default());
        let a = counts()?;
        run_cell(&cell, &sampler, &cfg, &m);
        let b = counts()?;
        merged.merge_from(&m);
        let c = counts()?;
        cells = (cells.0 + b.0 - a.0, cells.1 + b.1 - a.1);
        merge = (merge.0 + c.0 - b.0, merge.1 + c.1 - b.1);
    }
    Some(AllocCounts {
        setup_allocs: c1.0 - c0.0,
        setup_bytes: c1.1 - c0.1,
        cells_allocs: cells.0,
        cells_bytes: cells.1,
        merge_allocs: merge.0,
        merge_bytes: merge.1,
        sim_events: merged.sim_events.get(),
        digest: gate::digest_of(&merged),
    })
}

/// Run the companion binary and check its digest.
fn alloc_counts(
    bin: &PathBuf,
    opts: &RunOptions,
    expected: &Expected,
) -> Result<AllocCounts, String> {
    if opts.users != USERS {
        return Err(format!(
            "the companion runs {USERS} users, not {}",
            opts.users
        ));
    }
    let output = std::process::Command::new(bin)
        .args([
            "--workload",
            opts.workload.name(),
            "--seed",
            &opts.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("{}: {e}", bin.display()))?;
    if !output.status.success() {
        return Err(format!(
            "exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let counts = stdout
        .lines()
        .last()
        .and_then(AllocCounts::from_json)
        .ok_or_else(|| format!("unparseable output {stdout:?}"))?;
    if counts.digest != expected.digest {
        return Err(format!(
            "digest {} != {} ({})",
            counts.digest, expected.digest, expected.source
        ));
    }
    Ok(counts)
}
