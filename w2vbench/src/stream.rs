//! `stream_far`: the in-process streaming flowgraph in a closed loop.
//!
//! A benchmark-owned source simulates the fleet a period at a time as it
//! needs groups, keeps at most [`WINDOW`] groups between creation and
//! verdict, and broadcasts each to the per-gateway
//! `GatewayFrontBlock`s; `ShardRouterBlock` and the `ShardSinkBlock`s
//! commit without persistence. Net, store and HA are bypassed.

use crate::fleet::{self, Workload, SHARDS, WORKERS};
use crate::probe::{self, Usage, Windows};
use crate::run::{Ctx, RunOut, SetupClock, SETUPS};
use crate::stats;
use crate::trace::{Tracer, NONE};
use softlora::{ServerObserver, ServerVerdict};
use softlora_runtime::{
    Block, FlowgraphBuilder, RuntimeObserver, Scheduler, SchedulerKind, WorkIo, WorkResult,
};
use softlora_sim::UplinkDeliveries;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Groups in flight between the source and the verdict observer: one
/// front batch, enough to keep both fronts busy.
const WINDOW: u64 = 16;
/// Most groups a run may offer; comfortably more than a run verdicts.
const GROUPS: usize = 8_000;
/// Groups whose verdicts are compared against `process_batch` and scored
/// for detection quality (a fixed prefix, so the figures are a function
/// of the seed alone).
pub const CHECKED_PREFIX: usize = 1000;
const REFERENCE_PREFIX: usize = 300;

/// Per-group timestamps shared between the source, the observer and the
/// block wrappers (ns since the run's origin; 0 = not yet).
struct Stamps {
    origin: Instant,
    created: Vec<AtomicU64>,
    done: Vec<AtomicU64>,
    /// Front work time apportioned to each group, ns.
    own: Vec<AtomicU64>,
    verdicted: AtomicU64,
    duplicates: AtomicU64,
    /// Simulator time that made the source's groups, ns, set when the
    /// source finishes.
    sim_ns: AtomicU64,
}

impl Stamps {
    fn now(&self) -> u64 {
        (self.origin.elapsed().as_nanos() as u64).max(1)
    }
}

struct Source {
    stream: fleet::GroupStream,
    pending: VecDeque<UplinkDeliveries>,
    next: usize,
    stamps: Arc<Stamps>,
    deadline: Instant,
    tracer: Option<Arc<Tracer>>,
}

impl Block for Source {
    type In = ();
    type Out = Arc<UplinkDeliveries>;

    fn name(&self) -> &str {
        "bench-source"
    }

    fn work(&mut self, io: &mut WorkIo<'_, (), Arc<UplinkDeliveries>>) -> WorkResult {
        let mut pushed = 0;
        loop {
            if self.next == GROUPS || Instant::now() >= self.deadline {
                let sim_ns = (self.stream.sim_s * 1e9) as u64;
                self.stamps.sim_ns.store(sim_ns, Ordering::Relaxed);
                return WorkResult::Finished;
            }
            let in_flight = self.next as u64 - self.stamps.verdicted.load(Ordering::Acquire);
            if in_flight >= WINDOW {
                return if pushed > 0 {
                    WorkResult::Produced(pushed)
                } else {
                    WorkResult::NeedsInput
                };
            }
            if io.min_output_free() == 0 {
                return if pushed > 0 {
                    WorkResult::Produced(pushed)
                } else {
                    WorkResult::NeedsOutput
                };
            }
            while self.pending.is_empty() {
                self.pending.extend(self.stream.period());
            }
            let group = self.pending.pop_front().expect("a period made groups");
            let start = Instant::now();
            self.stamps.created[self.next].store(self.stamps.now(), Ordering::Release);
            io.broadcast(Arc::new(group));
            if let Some(t) = &self.tracer {
                t.record("source.push", start, Instant::now(), NONE, self.next as u64);
            }
            self.next += 1;
            pushed += 1;
        }
    }
}

/// Which side of the graph a wrapped block sits on.
#[derive(Clone, Copy)]
enum Side {
    Front,
    Sink,
}

/// Benchmark-owned wrapper timing every `work()` call of a front or sink
/// block (traced runs only).
struct Timed<B> {
    inner: B,
    side: Side,
    name: &'static str,
    tracer: Arc<Tracer>,
    stamps: Arc<Stamps>,
    busy_ns: Arc<[AtomicU64; 2]>,
}

type Shared = (Arc<Tracer>, Arc<Stamps>, Arc<[AtomicU64; 2]>);

impl<B> Timed<B> {
    fn new(inner: B, side: Side, name: &'static str, shared: &Shared) -> Self {
        let (tracer, stamps, busy_ns) = shared.clone();
        Timed { inner, side, name, tracer, stamps, busy_ns }
    }
}

impl<B: Block> Block for Timed<B> {
    type In = B::In;
    type Out = B::Out;

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn work(&mut self, io: &mut WorkIo<'_, B::In, B::Out>) -> WorkResult {
        let consumed_before: u64 = io.inputs.iter().map(|p| p.consumed()).sum();
        let start = Instant::now();
        let result = self.inner.work(io);
        let end = Instant::now();
        let consumed: u64 = io.inputs.iter().map(|p| p.consumed()).sum::<u64>() - consumed_before;
        if consumed == 0 {
            return result;
        }
        let dur = (end - start).as_nanos() as u64;
        self.busy_ns[self.side as usize].fetch_add(dur, Ordering::Relaxed);
        // A front consumes every group in creation order, so the groups
        // of this call are the `consumed` ones after `consumed_before`.
        let group = match self.side {
            Side::Front => {
                for g in consumed_before..consumed_before + consumed {
                    if let Some(own) = self.stamps.own.get(g as usize) {
                        own.fetch_add(dur / consumed, Ordering::Relaxed);
                    }
                }
                consumed_before
            }
            Side::Sink => NONE,
        };
        self.tracer.record(self.name, start, end, NONE, group);
        result
    }
}

struct Verdicts {
    stamps: Arc<Stamps>,
    log: Arc<Mutex<Vec<(u64, ServerVerdict)>>>,
    tracer: Option<Arc<Tracer>>,
}

impl ServerObserver for Verdicts {
    fn on_verdict(&mut self, uplink: u64, verdict: &ServerVerdict) {
        let start = Instant::now();
        let Some(done) = self.stamps.done.get(uplink as usize) else { return };
        if done.swap(self.stamps.now(), Ordering::AcqRel) != 0 {
            self.stamps.duplicates.fetch_add(1, Ordering::Relaxed);
        }
        if (uplink as usize) < CHECKED_PREFIX {
            self.log.lock().expect("verdict log poisoned").push((uplink, verdict.clone()));
        }
        self.stamps.verdicted.fetch_add(1, Ordering::AcqRel);
        if let Some(t) = &self.tracer {
            t.record("observer.on_verdict", start, Instant::now(), NONE, uplink);
        }
    }
}

/// Work calls, parks and steals, counted by a benchmark-owned runtime
/// observer (traced runs only).
#[derive(Default)]
struct RuntimeCounts {
    work_calls: AtomicU64,
    parks: AtomicU64,
    steals: AtomicU64,
}

impl RuntimeObserver for RuntimeCounts {
    fn on_work(&self, _block: &str, _consumed: u64, _produced: u64, _elapsed_s: f64) {
        self.work_calls.fetch_add(1, Ordering::Relaxed);
    }
    fn on_park(&self, _worker: usize) {
        self.parks.fetch_add(1, Ordering::Relaxed);
    }
    fn on_steal(&self, _worker: usize) {
        self.steals.fetch_add(1, Ordering::Relaxed);
    }
}

pub fn run(ctx: &Ctx) -> RunOut {
    let w = Workload::StreamFar;
    let gateways = w.gateways();
    let zeros = || (0..GROUPS).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
    let stamps = Arc::new(Stamps {
        origin: Instant::now(),
        created: zeros(),
        done: zeros(),
        own: zeros(),
        verdicted: AtomicU64::new(0),
        duplicates: AtomicU64::new(0),
        sim_ns: AtomicU64::new(0),
    });
    let log = Arc::new(Mutex::new(Vec::with_capacity(CHECKED_PREFIX)));
    // One set-up: the scenario, the server, and its streaming parts.
    let setup = || {
        let stream = fleet::GroupStream::new(w, ctx.seed);
        let mut server = fleet::server_builder(&stream.scenario, gateways).build();
        server.attach_observer(Box::new(Verdicts {
            stamps: Arc::clone(&stamps),
            log: Arc::clone(&log),
            tracer: ctx.tracer.clone(),
        }));
        (stream, server.into_sharded_streaming())
    };
    let mut clock = SetupClock::default();
    for _ in 1..SETUPS / 2 {
        drop(clock.time(setup));
    }
    let (stream, (fronts, router, sinks)) = clock.time(setup);
    assert_eq!(sinks.len(), SHARDS);
    let busy = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let counts = Arc::new(RuntimeCounts::default());

    let mut b = FlowgraphBuilder::new();
    b.scheduler(SchedulerKind::RoundRobin);
    if ctx.tracer.is_some() {
        b.observer(Arc::clone(&counts) as Arc<dyn RuntimeObserver>);
    }
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(ctx.seconds);
    let source = b.source(Source {
        stream,
        pending: VecDeque::new(),
        next: 0,
        stamps: Arc::clone(&stamps),
        deadline,
        tracer: ctx.tracer.clone(),
    });
    match &ctx.tracer {
        Some(t) => {
            let shared = (Arc::clone(t), Arc::clone(&stamps), Arc::clone(&busy));
            let names = ["runtime.work:front-0", "runtime.work:front-1"];
            let parts: Vec<_> = fronts
                .into_iter()
                .zip(names)
                .map(|(f, name)| b.stage(source, Timed::new(f, Side::Front, name, &shared)))
                .collect();
            let routed = b.merge(&parts, router);
            let names = ["runtime.work:sink-0", "runtime.work:sink-1"];
            for (s, name) in sinks.into_iter().zip(names) {
                b.sink(&[routed], Timed::new(s, Side::Sink, name, &shared));
            }
        }
        None => {
            let parts: Vec<_> = fronts.into_iter().map(|f| b.stage(source, f)).collect();
            let routed = b.merge(&parts, router);
            for s in sinks {
                b.sink(&[routed], s);
            }
        }
    }
    let graph = b.build().expect("valid flowgraph");

    let registry = softlora_telemetry::global();
    let before = registry.snapshot();
    let usage0 = Usage::now();
    let allocs0 = crate::ALLOC.allocations();
    probe::reset_peak_rss();
    let finished = std::sync::atomic::AtomicBool::new(false);
    let windows = std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut windows = Windows::start(0);
            while !finished.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(20));
                windows.tick(stamps.verdicted.load(Ordering::Acquire));
            }
            windows
        });
        Scheduler::with_kind(WORKERS, SchedulerKind::RoundRobin).run(graph);
        finished.store(true, Ordering::Release);
        sampler.join().expect("window sampler panicked")
    });
    let wall_s = origin.elapsed().as_secs_f64();
    let usage = Usage::now().since(&usage0);
    let allocs = crate::ALLOC.allocations() - allocs0;
    let peak_rss_mb = probe::peak_rss_mb();
    let after = registry.snapshot();
    for _ in SETUPS / 2..SETUPS {
        drop(clock.time(setup));
    }

    let offered = stamps.created.iter().take_while(|c| c.load(Ordering::Acquire) != 0).count();
    // Latency counts the groups created after the first tenth of the run:
    // the cold start (first FFT plans, scratch arenas, ring sizing) would
    // otherwise set the tail of a short run.
    let warm_ns = (origin - stamps.origin).as_nanos() as u64 + (ctx.seconds * 1e8) as u64;
    let mut w2v_ms = Vec::with_capacity(offered);
    let (mut verdicted, mut missing) = (0u64, 0u64);
    let mut queue_ms = Vec::new();
    for i in 0..offered {
        let done = stamps.done[i].load(Ordering::Acquire);
        if done == 0 {
            missing += 1;
            continue;
        }
        verdicted += 1;
        let created = stamps.created[i].load(Ordering::Acquire);
        if created < warm_ns {
            continue;
        }
        let w2v = (done - created) as f64 * 1e-6;
        w2v_ms.push(w2v);
        queue_ms.push(w2v - stamps.own[i].load(Ordering::Relaxed) as f64 * 1e-6);
    }

    // The offered groups again, from the seed, for the checks.
    let mut stream = fleet::GroupStream::new(w, ctx.seed);
    let groups = stream.take(offered);

    // The verdict stream must equal `process_batch` on a fixed prefix.
    let mut logged = std::mem::take(&mut *log.lock().expect("verdict log poisoned"));
    logged.sort_by_key(|(u, _)| *u);
    let checked = offered.min(CHECKED_PREFIX);
    let ref_n = checked.min(REFERENCE_PREFIX);
    let (mut mismatches, mut compared) = (0u64, 0usize);
    let mut reference = fleet::Reference::new(&stream.scenario, gateways, |g, want| {
        let k = g.uplink as usize;
        compared += 1;
        if logged.get(k).map(|(u, v)| (*u as usize, v)) != Some((k, want)) {
            mismatches += 1;
        }
    });
    groups[..ref_n].iter().for_each(|g| reference.push(g.clone()));
    reference.finish();
    let mut quality = fleet::Quality::default();
    for (g, (_, v)) in groups.iter().zip(&logged).take(checked) {
        quality.add(g, v);
    }
    let mut mix = fleet::InputMix::default();
    groups.iter().for_each(|g| mix.add(g));

    let mut layer = BTreeMap::new();
    if ctx.tracer.is_some() {
        let pool_ns = wall_s * 1e9 * WORKERS as f64;
        layer.insert("runtime.front_busy_share", busy[0].load(Ordering::Relaxed) as f64 / pool_ns);
        layer.insert("runtime.sink_busy_share", busy[1].load(Ordering::Relaxed) as f64 / pool_ns);
        let per_group =
            |c: &AtomicU64| stats::ratio(c.load(Ordering::Relaxed) as f64, verdicted as f64);
        layer.insert("runtime.work_calls_per_group", per_group(&counts.work_calls));
        layer.insert("runtime.parks_per_group", per_group(&counts.parks));
        layer.insert("runtime.steals", counts.steals.load(Ordering::Relaxed) as f64);
        layer.insert("runtime.queue_wait_ms_p50", stats::median(&queue_ms));
        // Unattributed: w2v less the group's own front work, on average.
        layer.insert(
            "budget.unattributed_share",
            stats::ratio(stats::mean(&queue_ms), stats::mean(&w2v_ms)),
        );
    }

    let (window_rate, window_cpu) = windows.rates();
    RunOut {
        setup_s: clock.median(),
        scenario_s: stamps.sim_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        dropped: stream.dropped,
        offered: offered as u64,
        verdicted,
        failed: missing + mismatches + stamps.duplicates.load(Ordering::Relaxed),
        reference_ok: mismatches == 0 && compared == ref_n,
        wall_s,
        groups_per_s: stats::median(&window_rate),
        cpu_ms_per_group: stats::median(&window_cpu),
        usage,
        peak_rss_mb,
        allocs,
        w2v_ms,
        quality,
        before,
        after,
        mix,
        groups,
        scenario: stream.scenario,
        datagrams: Vec::new(),
        layer,
    }
}
