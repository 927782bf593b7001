//! A timed-node replica of `fleet::cell::run_cell` for `poll-100k` cells.
//!
//! `run_cell` builds its simulation internally, so its time cannot be
//! split between engine, service and kernel from outside. The replica
//! rebuilds the same cell from public parts — [`Sim`], [`TapEngine`],
//! [`ServiceCore`] — with thin [`Node`] wrappers that time every
//! callback. It covers exactly the `poll-100k` cell shape (IFTTT-like
//! polling, single-step applets, no chaos, churn, realtime or
//! attribution) and is trusted only while its per-cell
//! `FleetMetrics::to_json()` equals `run_cell`'s byte for byte.

use crate::spans::{Layer, Tracer};
use devices::service_core::{Processed, ServiceCore};
use ecosystem::population::MAX_INSTALLS_PER_USER;
use ecosystem::PopulationSampler;
use engine::{ActionRef, Applet, AppletId, EngineConfig, TapEngine, TriggerRef};
use fleet::cell::CELL_STREAM_BASE;
use fleet::shard::CellSpec;
use fleet::{FleetConfig, FleetMetrics, FleetPolicy};
use mem::FxHashMap;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use simnet::prelude::*;
use simnet::rng::derive_seed;
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use tap_protocol::auth::ServiceKey;
use tap_protocol::service::ServiceEndpoint;
use tap_protocol::wire::{self, ActionResponseBody, TriggerEvent};
use tap_protocol::{ActionSlug, FieldMap, Interner, ServiceSlug, Symbol, TriggerSlug, UserId};

/// `run_cell`'s activation-schedule sub-stream of the cell seed.
const ACTIVATION_STREAM: u64 = 1;
const SERVICE_SLUG: &str = "fleet_svc";
const SERVICE_KEY: &str = "sk_fleet";

/// Whether the replica reproduces `run_cell` for `cfg`.
pub fn supports(cfg: &FleetConfig) -> bool {
    cfg.policy == FleetPolicy::IftttLike
        && !cfg.chaos.enabled()
        && !cfg.churn.enabled()
        && !cfg.attribution
        && cfg.realtime_share == 0.0
        && cfg.multi_step_share == 0.0
        && !cfg.wrap_degenerate_dag
        && !cfg.reference_storage
}

/// Summed time and call count of one kind of callback.
#[derive(Default)]
struct Clock {
    ns: Cell<u64>,
    calls: Cell<u64>,
}

impl Clock {
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.ns.set(self.ns.get() + t.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        r
    }

    fn take(&self) -> (u64, u64) {
        (self.ns.replace(0), self.calls.replace(0))
    }
}

/// [`TapEngine`] behind a timer.
struct TimedEngine {
    inner: TapEngine,
    clock: Rc<Clock>,
}

impl Node for TimedEngine {
    fn on_start(&mut self, ctx: &mut Context<'_>) {
        self.clock.time(|| self.inner.on_start(ctx))
    }
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        self.clock.time(|| self.inner.on_request(ctx, req))
    }
    fn on_response(&mut self, ctx: &mut Context<'_>, token: Token, resp: Response) {
        self.clock.time(|| self.inner.on_response(ctx, token, resp))
    }
    fn on_timer(&mut self, ctx: &mut Context<'_>, key: TimerKey) {
        self.clock.time(|| self.inner.on_timer(ctx, key))
    }
    fn on_signal(&mut self, ctx: &mut Context<'_>, from: NodeId, payload: Bytes) {
        self.clock.time(|| self.inner.on_signal(ctx, from, payload))
    }
}

/// The cell's partner service, as `fleet`'s own: a [`ServiceCore`] plus
/// the per-`(user, slot)` emit FIFO that measures trigger-to-action.
struct ReplicaService {
    core: ServiceCore,
    pending: FxHashMap<(Symbol, usize), VecDeque<SimTime>>,
    users: Interner,
    trigger_slugs: Vec<TriggerSlug>,
    action_ok_body: Bytes,
    metrics: Arc<FleetMetrics>,
    clock: Rc<Clock>,
    /// Request plus response body bytes, and round trips answered.
    wire_bytes: Rc<Cell<u64>>,
    round_trips: Rc<Cell<u64>>,
}

impl ReplicaService {
    fn new(metrics: Arc<FleetMetrics>, probes: &Probes) -> ReplicaService {
        let mut ep = ServiceEndpoint::new(
            ServiceSlug::new(SERVICE_SLUG),
            ServiceKey(SERVICE_KEY.into()),
        );
        let trigger_slugs: Vec<TriggerSlug> = (0..MAX_INSTALLS_PER_USER)
            .map(|k| TriggerSlug::new(format!("fired_{k}")))
            .collect();
        for (k, slug) in trigger_slugs.iter().enumerate() {
            ep = ep
                .with_trigger(slug.as_str())
                .with_action(format!("noop_{k}").as_str());
        }
        ep = ep.with_query("lookup").with_action("noop_aux");
        ReplicaService {
            core: ServiceCore::new(ep),
            pending: FxHashMap::default(),
            users: Interner::new(),
            trigger_slugs,
            action_ok_body: wire::to_bytes(&ActionResponseBody::single("ok")),
            metrics,
            clock: probes.devices.clone(),
            wire_bytes: probes.wire_bytes.clone(),
            round_trips: probes.round_trips.clone(),
        }
    }

    fn emit(&mut self, ctx: &mut Context<'_>, user: &UserId, slot: usize) {
        let id = self.core.next_event_id();
        let ev = TriggerEvent::new(id, ctx.now().as_secs_f64() as u64);
        let matched = self
            .core
            .record_event(ctx, &self.trigger_slugs[slot], user, ev, |_| true);
        self.metrics.activations.incr();
        if matched > 0 {
            let user = self.users.intern(user.as_str());
            self.pending
                .entry((user, slot))
                .or_default()
                .push_back(ctx.now());
        } else {
            self.metrics.lost.incr();
        }
    }

    fn unmatched(&self) -> u64 {
        self.pending.values().map(|q| q.len() as u64).sum()
    }

    fn handle(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        match self.core.process(ctx, req) {
            Processed::Done(resp) => HandlerResult::Reply(resp),
            Processed::Action { user, action, .. } => {
                let slot = action
                    .as_str()
                    .strip_prefix("noop_")
                    .and_then(|s| s.parse().ok());
                if let (Some(slot), Some(user)) = (slot, self.users.get(user.as_str())) {
                    if let Some(q) = self.pending.get_mut(&(user, slot)) {
                        if let Some(t_emit) = q.pop_front() {
                            self.metrics
                                .t2a_micros
                                .record(ctx.now().since(t_emit).as_micros());
                        }
                    }
                }
                HandlerResult::Reply(Response::ok().with_body(self.action_ok_body.clone()))
            }
            Processed::Query { fields, .. } => {
                HandlerResult::Reply(ServiceEndpoint::query_ok(fields))
            }
            Processed::NoReply => HandlerResult::Deferred,
        }
    }
}

impl Node for ReplicaService {
    fn on_request(&mut self, ctx: &mut Context<'_>, req: &Request) -> HandlerResult {
        let clock = self.clock.clone();
        let result = clock.time(|| self.handle(ctx, req));
        let reply = match &result {
            HandlerResult::Reply(resp) => resp.body.len() as u64,
            HandlerResult::Deferred => 0,
        };
        self.wire_bytes
            .set(self.wire_bytes.get() + req.body.len() as u64 + reply);
        self.round_trips.set(self.round_trips.get() + 1);
        result
    }
}

/// Callback clocks and wire counters shared with the timed nodes.
#[derive(Default)]
pub struct Probes {
    engine: Rc<Clock>,
    devices: Rc<Clock>,
    wire_bytes: Rc<Cell<u64>>,
    round_trips: Rc<Cell<u64>>,
}

impl Probes {
    /// `(body bytes, round trips)` counted so far.
    pub fn wire(&self) -> (u64, u64) {
        (self.wire_bytes.get(), self.round_trips.get())
    }
}

/// Replay one cell exactly as `run_cell` does, recording into `metrics`
/// and tracing under a `replica.cell` span: node and kernel construction
/// and teardown (engine, devices, simnet), profile draws (ecosystem),
/// user ids and the activation plan (fleet), installs (engine), token
/// mints and trigger emits (devices), and the kernel's `run_until`
/// (simnet) with the engine and service callbacks it dispatched as its
/// children. What the cell span holds beyond these is the residue the
/// traced run bounds. `cfg` must be resolved (hot
/// threshold set) and [`supports`]ed.
pub fn run_cell_replica(
    spec: &CellSpec,
    sampler: &PopulationSampler,
    cfg: &FleetConfig,
    metrics: &Arc<FleetMetrics>,
    probes: &Probes,
    tracer: &mut Tracer,
) {
    assert!(supports(cfg), "the replica covers poll-100k cells only");
    let cell_span = tracer.enter("replica.cell", Layer::Fleet);
    let cell_seed = derive_seed(cfg.master_seed, CELL_STREAM_BASE + spec.cell);
    let engine_node = tracer.span("engine.build", Layer::Engine, || {
        let mut e = TapEngine::new(EngineConfig {
            batch_polling: cfg.batch_polling,
            ..EngineConfig::default()
        });
        e.set_sink(metrics.clone());
        TimedEngine {
            inner: e,
            clock: probes.engine.clone(),
        }
    });
    let svc_node = tracer.span("devices.build", Layer::Devices, || {
        ReplicaService::new(metrics.clone(), probes)
    });
    let (mut sim, engine, svc) = tracer.span("simnet.build", Layer::Simnet, || {
        let mut sim = Sim::new(cell_seed);
        sim.trace_mut().set_enabled(false);
        let engine = sim.add_node("engine", engine_node);
        let svc = sim.add_node(SERVICE_SLUG, svc_node);
        sim.link(engine, svc, LinkSpec::datacenter());
        (sim, engine, svc)
    });

    let profiles: Vec<_> = tracer.span("ecosystem.user", Layer::Ecosystem, || {
        (spec.first_user..spec.first_user + spec.users)
            .map(|u| sampler.user(u))
            .collect()
    });
    let install_clock = Clock::default();
    let mint_clock = Clock::default();
    let mut installs_total = 0u64;
    install_clock.time(|| {
        sim.with_node::<TimedEngine, _>(engine, |e, _| {
            e.inner.register_service(
                ServiceSlug::new(SERVICE_SLUG),
                svc,
                ServiceKey(SERVICE_KEY.into()),
            );
        })
    });
    let user_ids: FxHashMap<u64, UserId> = tracer.span("fleet.user_ids", Layer::Fleet, || {
        profiles
            .iter()
            .map(|p| (p.user, UserId::new(format!("user_{}", p.user))))
            .collect()
    });
    for (local, profile) in profiles.iter().enumerate() {
        let user = user_ids[&profile.user].clone();
        let token = mint_clock.time(|| {
            sim.with_node::<ReplicaService, _>(svc, |s, ctx| {
                s.core.endpoint.oauth.mint_token(user.clone(), ctx.rng())
            })
        });
        install_clock.time(|| {
            sim.with_node::<TimedEngine, _>(engine, |e, ctx| {
                e.inner
                    .set_token(user.clone(), ServiceSlug::new(SERVICE_SLUG), token);
                for (k, install) in profile.installs.iter().enumerate() {
                    assert!(
                        sampler.steps_of(install.applet).is_empty(),
                        "poll-100k applets are single-step"
                    );
                    let mut applet = Applet::new(
                        AppletId((local * MAX_INSTALLS_PER_USER + k + 1) as u32),
                        format!("fleet {} slot {k}", profile.user),
                        user.clone(),
                        TriggerRef {
                            service: ServiceSlug::new(SERVICE_SLUG),
                            trigger: TriggerSlug::new(format!("fired_{k}")),
                            fields: FieldMap::new(),
                        },
                        ActionRef {
                            service: ServiceSlug::new(SERVICE_SLUG),
                            action: ActionSlug::new(format!("noop_{k}")),
                            fields: FieldMap::new(),
                        },
                    );
                    applet.add_count = install.add_count;
                    e.inner
                        .install_applet(ctx, applet)
                        .expect("fleet applet installs");
                    installs_total += 1;
                }
            })
        });
    }

    let plan = tracer.span("fleet.activation_plan", Layer::Fleet, || {
        let mut act_rng = StdRng::seed_from_u64(derive_seed(cell_seed, ACTIVATION_STREAM));
        let mut plan: Vec<(u64, u64, usize)> = Vec::new();
        for profile in &profiles {
            for k in 0..profile.installs.len() {
                let at_secs = cfg.settle_secs + act_rng.gen_range(0.0..cfg.window_secs);
                plan.push((
                    SimDuration::from_secs_f64(at_secs).as_micros(),
                    profile.user,
                    k,
                ));
            }
        }
        plan.sort_unstable();
        plan
    });

    let run_clock = Clock::default();
    let emit_clock = Clock::default();
    for (at_micros, user, slot) in plan {
        run_clock.time(|| sim.run_until(SimTime::from_micros(at_micros)));
        let user = &user_ids[&user];
        emit_clock
            .time(|| sim.with_node::<ReplicaService, _>(svc, |s, ctx| s.emit(ctx, user, slot)));
    }
    let horizon = cfg.settle_secs + cfg.window_secs + cfg.drain_secs;
    run_clock.time(|| {
        sim.run_until(SimTime::from_micros(
            SimDuration::from_secs_f64(horizon).as_micros(),
        ))
    });

    let service = sim.node_ref::<ReplicaService>(svc);
    metrics.lost.add(service.unmatched());
    metrics.faults_injected.add(service.core.faults_injected);
    metrics.sim_events.add(sim.events_processed());
    metrics.engine_events.add(sim.node_events(engine));
    metrics.users.add(spec.users);
    metrics.applets.add(installs_total);
    metrics.cells.incr();
    // Dropping the simulation drops its nodes' state too.
    tracer.span("simnet.teardown", Layer::Simnet, || drop(sim));
    tracer.exit(cell_span);

    let (ns, calls) = install_clock.take();
    tracer.aggregate(cell_span, "engine.install", Layer::Engine, ns, calls);
    let (ns, calls) = mint_clock.take();
    tracer.aggregate(cell_span, "devices.mint", Layer::Devices, ns, calls);
    let (ns, calls) = emit_clock.take();
    tracer.aggregate(cell_span, "devices.emit", Layer::Devices, ns, calls);
    let (ns, calls) = run_clock.take();
    tracer.aggregate(cell_span, "simnet.run_until", Layer::Simnet, ns, calls);
    let run_span = tracer.spans.len() - 1;
    let (ns, calls) = probes.engine.take();
    tracer.aggregate(run_span, "engine.callback", Layer::Engine, ns, calls);
    let (ns, calls) = probes.devices.take();
    tracer.aggregate(run_span, "devices.callback", Layer::Devices, ns, calls);
}
