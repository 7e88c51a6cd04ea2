//! `wire_paced` and `wire_flood`: the loopback `NetServer` driven by one
//! generator thread over one UDP socket.
//!
//! The listener acks every datagram to its source address, so a single
//! socket can speak for every gateway id. Each gateway id's datagrams
//! carry its copies of a block of consecutive uplinks and the gateway's
//! watermark (the first uplink of its next datagram), so the fleet
//! barrier opens as soon as a block's last datagram lands.

use crate::fleet::{self, Workload};
use crate::probe::{self, Delta, Usage, Windows};
use crate::run::{Ctx, RunOut, SetupClock, SETUPS};
use crate::stats::{self, Schedule};
use crate::trace::NONE;
use softlora::{CommitHook, NetworkServer, ServerObserver, ServerVerdict};
use softlora_ha::{Follower, Shipper, ShipperConfig};
use softlora_net::protocol::{
    decode_frame, encode_frame_into, Frame, PushData, WireDelivery, WireUplink,
};
use softlora_net::{NetServer, NetServerConfig};
use softlora_sim::UplinkDeliveries;
use softlora_store::Encoder;
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `wire_paced` offered rate, groups/s: about a third of what this fleet
/// sustained overloaded on a 2-vCPU container (406 groups/s).
pub const PACED_RATE: f64 = 135.0;
/// `wire_flood`: uplinks per datagram block and unacked datagrams each
/// gateway id may have outstanding.
const FLOOD_BLOCK: usize = 8;
const FLOOD_WINDOW: usize = 4;
/// Most groups a `wire_flood` run may offer: about twice what a 10 s run
/// gets through on a 2-vCPU container.
const FLOOD_GROUPS: usize = 36_000;
/// `wire_flood` reads its peak resident set once this many groups have
/// committed: the listener keeps every verdict, so memory grows with the
/// groups a run gets through, and a fixed amount of work keeps a faster
/// run from reading as a larger one.
const FLOOD_RSS_GROUPS: u64 = 8192;
/// Groups kept after the run for the direct layer calls.
const LAYER_PREFIX: usize = 2048;
/// Datagrams a traced run keeps for the codec timings.
const LOGGED_DATAGRAMS: usize = 4096;
/// While groups wait for their commit, the generator polls the commit
/// watermark with a keepalive this often.
const POLL: Duration = Duration::from_millis(1);
/// A datagram unacked this long is sent again. Loopback loses nothing
/// unless the listener's receive buffer overflows, and acks stall for a
/// quarter second or more whenever the poll thread waits on a full commit
/// ring; re-sending sooner floods that buffer and loses whole blocks
/// (README.md, "a lost datagram turns its groups into silent holes").
const RESEND_AFTER: Duration = Duration::from_secs(2);
const DRAIN_LIMIT: Duration = Duration::from_secs(30);
/// WAL group-commit window.
const FSYNC_WINDOW: Duration = Duration::from_millis(5);

/// One gateway id's datagram: its copies of one block of uplinks.
struct Dgram {
    gateway: u32,
    frame: Frame,
}

/// Builds the workload's wire datagrams block by block from the simulated
/// group stream, simulating only as far ahead as the next block needs, so
/// a run never holds its whole plan. A gateway's datagram carries its
/// copies of one block and promises, as watermark, the first uplink of
/// its next datagram.
struct Planner {
    stream: fleet::GroupStream,
    /// Groups in the plan.
    cap: u64,
    block: usize,
    /// Closed datagrams of the blocks from `base` on.
    blocks: VecDeque<Vec<Dgram>>,
    base: usize,
    /// Per gateway: the block being filled and its copies.
    open: Vec<Option<(usize, Vec<WireUplink>)>>,
    /// Per gateway: the first uplink it has a copy of.
    first: Vec<Option<u64>>,
    planned: u64,
}

impl Planner {
    fn new(stream: fleet::GroupStream, cap: usize, gateways: usize, block: usize) -> Self {
        Planner {
            stream,
            cap: cap as u64,
            block,
            blocks: VecDeque::new(),
            base: 0,
            open: (0..gateways).map(|_| None).collect(),
            first: vec![None; gateways],
            planned: 0,
        }
    }

    fn close(
        blocks: &mut VecDeque<Vec<Dgram>>,
        base: usize,
        gateway: usize,
        (b, uplinks): (usize, Vec<WireUplink>),
        watermark: u64,
    ) {
        let i = b - base;
        while blocks.len() <= i {
            blocks.push_back(Vec::new());
        }
        let gateway = gateway as u32;
        let frame = Frame::PushData(PushData { gateway, seq: 0, watermark, uplinks });
        blocks[i].push(Dgram { gateway, frame });
    }

    fn add(&mut self, g: &UplinkDeliveries) {
        let copies_total = u16::try_from(g.copies.len()).expect("fewer than 65536 copies");
        let b = g.uplink as usize / self.block;
        for (index, copy) in g.copies.iter().enumerate() {
            let gw = copy.gateway;
            let wire = WireUplink {
                uplink: g.uplink,
                dev_addr: g.dev_addr,
                tx_start_global_s: g.tx_start_global_s,
                airtime_s: g.airtime_s,
                copies_total,
                copy_index: index as u16,
                delivery: Some(WireDelivery::from_delivery(&copy.delivery)),
            };
            match &mut self.open[gw] {
                Some((ob, uplinks)) if *ob == b => uplinks.push(wire),
                slot => {
                    match slot.take() {
                        Some(done) => Self::close(&mut self.blocks, self.base, gw, done, g.uplink),
                        None => self.first[gw] = Some(g.uplink),
                    }
                    let mut uplinks = Vec::with_capacity(self.block);
                    uplinks.push(wire);
                    *slot = Some((b, uplinks));
                }
            }
        }
        self.planned += 1;
    }

    /// Plans one more simulated period; once the plan is whole, closes
    /// every open datagram.
    fn extend(&mut self) {
        for g in self.stream.period() {
            if self.planned < self.cap {
                self.add(&g);
            }
        }
        if self.planned == self.cap {
            for gw in 0..self.open.len() {
                if let Some(done) = self.open[gw].take() {
                    Self::close(&mut self.blocks, self.base, gw, done, self.cap);
                }
            }
        }
    }

    /// Each gateway's first watermark, announced before load starts.
    fn first_watermarks(&mut self) -> Vec<u64> {
        while self.first.iter().any(Option::is_none) && self.planned < self.cap {
            self.extend();
        }
        self.first.iter().map(|f| f.unwrap_or(self.cap)).collect()
    }

    /// The next block's datagrams in gateway order, or `None` once the
    /// plan is sent. A block is ready when all its groups are planned
    /// and every datagram holding them is closed.
    fn next_block(&mut self) -> Option<Vec<Dgram>> {
        if (self.base * self.block) as u64 >= self.cap {
            return None;
        }
        let end = (((self.base + 1) * self.block) as u64).min(self.cap);
        while self.planned < end || self.open.iter().flatten().any(|(b, _)| *b == self.base) {
            self.extend();
        }
        let mut datagrams = self.blocks.pop_front().unwrap_or_default();
        self.base += 1;
        datagrams.sort_by_key(|d| d.gateway);
        Some(datagrams)
    }
}

/// Counts sealed WAL bytes and forwards to the replication shipper.
struct WalTap {
    bytes: AtomicU64,
    ship: Arc<Shipper>,
}

impl CommitHook for WalTap {
    fn on_frame(&self, shard: usize, first: u64, count: u64, payload: &[u8]) {
        self.bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
        self.ship.on_frame(shard, first, count, payload);
    }
    fn on_snapshot_marker(&self, shard: usize, covered: u64, global: u64, frames: &[u64]) {
        self.ship.on_snapshot_marker(shard, covered, global, frames);
    }
}

/// Records when the primary committed each uplink (ns since `origin`) and
/// counts commits one by one, so rates need not wait for an ack to carry
/// a batch-sized watermark step.
struct CommitClock {
    origin: Instant,
    at: Arc<Vec<AtomicU64>>,
    count: Arc<AtomicU64>,
}

impl ServerObserver for CommitClock {
    fn on_verdict(&mut self, uplink: u64, _verdict: &ServerVerdict) {
        if let Some(slot) = self.at.get(uplink as usize) {
            slot.store((self.origin.elapsed().as_nanos() as u64).max(1), Ordering::Release);
        }
        self.count.fetch_add(1, Ordering::Release);
    }
}

/// The in-process HA follower and the thread pumping replication.
struct Replica {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<(u64, Instant)>>,
}

impl Replica {
    /// Pumps shipper and follower until stopped, then until the follower
    /// holds `target` records; returns `(global_seq, when)` each time the
    /// follower's sequence advanced.
    fn start(shipper: Arc<Shipper>, mut follower: Follower, target: Arc<AtomicU64>) -> Replica {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut applied = Vec::new();
            let mut last = 0;
            let mut stopped_at: Option<Instant> = None;
            loop {
                shipper.pump().expect("shipper pump");
                follower.poll().expect("follower poll");
                let seq = follower.server().global_seq();
                if seq > last {
                    applied.push((seq, Instant::now()));
                    last = seq;
                }
                if flag.load(Ordering::Acquire) {
                    let since = *stopped_at.get_or_insert_with(Instant::now);
                    if seq >= target.load(Ordering::Acquire)
                        || since.elapsed() > Duration::from_secs(5)
                    {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            applied
        });
        Replica { stop, handle }
    }

    fn finish(self) -> Vec<(u64, Instant)> {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("replication pump panicked")
    }
}

/// Everything one set-up builds before the first group is offered.
struct Prepared {
    /// Groups in the plan.
    n: usize,
    planner: Planner,
    first_watermarks: Vec<u64>,
    listener: std::thread::JoinHandle<Result<softlora_net::NetRunReport, softlora_net::NetError>>,
    data: SocketAddr,
    ctrl: SocketAddr,
    socket: UdpSocket,
    shipper: Arc<Shipper>,
    follower: Follower,
    wal: Arc<WalTap>,
    commit_at: Arc<Vec<AtomicU64>>,
    commit_count: Arc<AtomicU64>,
}

fn prepare(ctx: &Ctx, origin: Instant, label: &str) -> Prepared {
    let w = ctx.workload;
    let paced = w == Workload::WirePaced;
    let n = if paced { (PACED_RATE * ctx.seconds * 1.5) as usize + 200 } else { FLOOD_GROUPS };
    // The groups are planned onto the wire as the run goes, and
    // regenerated from the seed for the checks afterwards.
    let block = if paced { 1 } else { FLOOD_BLOCK };
    let mut planner = Planner::new(fleet::GroupStream::new(w, ctx.seed), n, w.gateways(), block);
    let first_watermarks = planner.first_watermarks();
    let scenario = &planner.stream.scenario;
    let commit_at: Arc<Vec<AtomicU64>> = Arc::new((0..n).map(|_| AtomicU64::new(0)).collect());
    let commit_count = Arc::new(AtomicU64::new(0));

    // An in-process HA follower fed by a `Shipper` commit hook.
    let standby = fleet::server_builder(scenario, w.gateways())
        .with_persistence(ctx.store_dir(&format!("{label}-follower")))
        .build();
    let mut follower = Follower::new(standby).expect("bind follower");
    let shipper = Arc::new(
        Shipper::new(follower.local_addr().expect("follower addr"), 0, ShipperConfig::default())
            .expect("bind shipper"),
    );
    let wal = Arc::new(WalTap { bytes: AtomicU64::new(0), ship: Arc::clone(&shipper) });
    let primary: NetworkServer = fleet::server_builder(scenario, w.gateways())
        .with_persistence(ctx.store_dir(&format!("{label}-primary")))
        .durability_window(FSYNC_WINDOW)
        .commit_hook(Arc::clone(&wal) as Arc<dyn CommitHook>)
        .observer(Box::new(CommitClock {
            origin,
            at: Arc::clone(&commit_at),
            count: Arc::clone(&commit_count),
        }))
        .build();
    follower.subscribe(shipper.local_addr().expect("shipper addr")).expect("subscribe");
    let config = NetServerConfig {
        idle_shutdown: Some(Duration::from_secs(60)),
        ..NetServerConfig::default()
    };
    let net = NetServer::bind(primary, config).expect("bind listener");
    let data = net.data_addr().expect("data addr");
    let ctrl = net.ctrl_addr().expect("ctrl addr");
    let listener = std::thread::spawn(move || net.run());
    let socket = UdpSocket::bind("127.0.0.1:0").expect("generator socket");
    Prepared {
        n,
        planner,
        first_watermarks,
        listener,
        data,
        ctrl,
        socket,
        shipper,
        follower,
        wal,
        commit_at,
        commit_count,
    }
}

/// Stops a listener that will not be measured (an extra set-up).
fn discard(p: Prepared) {
    shutdown(&p.socket, p.ctrl);
    p.listener.join().expect("listener thread panicked").expect("listener run");
}

fn shutdown(socket: &UdpSocket, ctrl: SocketAddr) {
    let mut enc = Encoder::new();
    encode_frame_into(&Frame::Shutdown { token: 7 }, &mut enc);
    socket.set_read_timeout(Some(Duration::from_millis(500))).expect("timeout");
    let mut buf = [0u8; 256];
    for _ in 0..20 {
        socket.send_to(enc.as_bytes(), ctrl).expect("send shutdown");
        while let Ok((len, from)) = socket.recv_from(&mut buf) {
            if from == ctrl
                && matches!(decode_frame(&buf[..len]), Ok(Frame::PullAck { seq: 7, .. }))
            {
                return;
            }
        }
    }
    panic!("listener never acknowledged SHUTDOWN");
}

/// A sent data datagram awaiting its `PUSH_ACK`.
struct Unacked {
    block: usize,
    first: Instant,
    last: Instant,
    frame: Frame,
}

/// The generator's view of the wire: seqs, unacked datagrams, ack and
/// commit observations.
struct Gen<'a> {
    socket: &'a UdpSocket,
    data: SocketAddr,
    enc: Encoder,
    /// Next seq per gateway id.
    seq: Vec<u64>,
    /// Current watermark promise per gateway id.
    watermark: Vec<u64>,
    /// Unacked datagrams per gateway id, by seq.
    unacked: Vec<BTreeMap<u64, Unacked>>,
    /// Highest commit watermark seen on any ack.
    committed: u64,
    /// Per sent block: unacked datagrams, and when the last was acked.
    block_pending: Vec<usize>,
    block_acked: Vec<Option<Instant>>,
    ack_ms: Vec<f64>,
    /// Per uplink: when an ack first showed it committed.
    done: Vec<Option<Instant>>,
    datagrams: u64,
    record: bool,
    sent_log: Vec<Vec<u8>>,
}

impl Gen<'_> {
    /// Sends a data datagram of block `block`, or a keepalive.
    fn send(&mut self, mut frame: Frame, block: Option<usize>) {
        let (gateway, seq) = match &mut frame {
            Frame::PushData(p) => {
                p.seq = self.seq[p.gateway as usize];
                self.watermark[p.gateway as usize] = p.watermark;
                (p.gateway, p.seq)
            }
            Frame::PullData { gateway, seq, .. } => {
                *seq = self.seq[*gateway as usize];
                (*gateway, *seq)
            }
            _ => unreachable!("generator sends data and keepalives only"),
        };
        self.seq[gateway as usize] += 1;
        self.enc.clear();
        encode_frame_into(&frame, &mut self.enc);
        self.socket.send_to(self.enc.as_bytes(), self.data).expect("send datagram");
        if self.record && self.sent_log.len() < LOGGED_DATAGRAMS {
            self.sent_log.push(self.enc.as_bytes().to_vec());
        }
        self.datagrams += 1;
        if let Some(block) = block {
            let now = Instant::now();
            self.unacked[gateway as usize]
                .insert(seq, Unacked { block, first: now, last: now, frame });
        }
    }

    fn keepalive(&mut self) {
        let watermark = self.watermark[0];
        self.send(Frame::PullData { gateway: 0, seq: 0, watermark }, None);
    }

    /// Receives acks until `until` (at least one recv attempt).
    fn pump(&mut self, until: Instant) {
        let mut buf = [0u8; 512];
        loop {
            let now = Instant::now();
            let wait = until.saturating_duration_since(now).max(Duration::from_micros(50));
            self.socket.set_read_timeout(Some(wait)).expect("read timeout");
            match self.socket.recv_from(&mut buf) {
                Ok((len, _)) => {
                    let now = Instant::now();
                    match decode_frame(&buf[..len]) {
                        Ok(Frame::PushAck { gateway, seq, committed }) => {
                            if let Some(u) =
                                self.unacked.get_mut(gateway as usize).and_then(|m| m.remove(&seq))
                            {
                                self.ack_ms.push((now - u.first).as_secs_f64() * 1e3);
                                self.block_pending[u.block] -= 1;
                                if self.block_pending[u.block] == 0 {
                                    self.block_acked[u.block] = Some(now);
                                }
                            }
                            self.observe(committed, now);
                        }
                        Ok(Frame::PullAck { committed, .. }) => self.observe(committed, now),
                        _ => {}
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) => {}
                Err(e) => panic!("generator recv: {e}"),
            }
            if Instant::now() >= until {
                return;
            }
        }
    }

    fn observe(&mut self, committed: u64, now: Instant) {
        let end = committed.min(self.done.len() as u64);
        while self.committed < end {
            self.done[self.committed as usize] = Some(now);
            self.committed += 1;
        }
    }

    /// Re-sends datagrams unacked for longer than [`RESEND_AFTER`].
    fn resend_stale(&mut self) {
        let now = Instant::now();
        for u in self.unacked.iter_mut().flat_map(|m| m.values_mut()) {
            if now - u.last >= RESEND_AFTER {
                u.last = now;
                self.enc.clear();
                encode_frame_into(&u.frame, &mut self.enc);
                self.socket.send_to(self.enc.as_bytes(), self.data).expect("resend");
            }
        }
    }
}

/// Scores the listener's verdicts against the reference, group by group.
#[derive(Default)]
struct Check {
    seen: Vec<u32>,
    by_uplink: Vec<Option<ServerVerdict>>,
    failed: u64,
    mismatches: u64,
    quality: fleet::Quality,
    mix: fleet::InputMix,
    /// The first groups, kept for the direct layer calls.
    prefix: Vec<UplinkDeliveries>,
}

impl Check {
    fn group(&mut self, g: &UplinkDeliveries, want: &ServerVerdict) {
        let i = g.uplink as usize;
        let got = self.by_uplink[i].as_ref();
        if self.seen[i] != 1 || got != Some(want) {
            self.failed += 1;
            self.mismatches += u64::from(self.seen[i] == 1);
        }
        self.quality.add(g, got.unwrap_or(want));
        self.mix.add(g);
        if self.prefix.len() < LAYER_PREFIX {
            self.prefix.push(g.clone());
        }
    }
}

pub fn run(ctx: &Ctx) -> RunOut {
    let w = ctx.workload;
    let paced = w == Workload::WirePaced;
    let base = Instant::now();
    let mut clock = SetupClock::default();
    for k in 1..SETUPS / 2 {
        discard(clock.time(|| prepare(ctx, base, &format!("b{k}"))));
    }
    let p = clock.time(|| prepare(ctx, base, "run"));
    let n = p.n;
    let gateways = w.gateways();
    let mut planner = p.planner;

    let target = Arc::new(AtomicU64::new(u64::MAX));
    let replica = Replica::start(p.shipper, p.follower, Arc::clone(&target));
    let mut gen = Gen {
        socket: &p.socket,
        data: p.data,
        enc: Encoder::new(),
        seq: vec![0; gateways],
        watermark: p.first_watermarks.clone(),
        unacked: (0..gateways).map(|_| BTreeMap::new()).collect(),
        committed: 0,
        block_pending: Vec::new(),
        block_acked: Vec::new(),
        ack_ms: Vec::new(),
        done: vec![None; n],
        datagrams: 0,
        record: ctx.tracer.is_some(),
        sent_log: Vec::new(),
    };
    // Every gateway id announces its first watermark before load starts
    // (nothing can commit until each has spoken).
    for g in 0..gateways {
        let watermark = p.first_watermarks[g];
        gen.send(Frame::PullData { gateway: g as u32, seq: 0, watermark }, None);
    }
    gen.pump(Instant::now() + Duration::from_millis(20));

    let registry = softlora_telemetry::global();
    let before = registry.snapshot();
    let usage0 = Usage::now();
    let allocs0 = crate::ALLOC.allocations();
    probe::reset_peak_rss();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(ctx.seconds);
    let warm_at = origin + Duration::from_secs_f64(ctx.seconds * 0.2);
    let mut warm = None;
    let mut due: Vec<Instant> = Vec::with_capacity(n);
    let mut late_ms = Vec::new();
    let mut schedule = Schedule::new(PACED_RATE, ctx.seed);
    let mut last_keepalive = origin;
    let commits = || p.commit_count.load(Ordering::Acquire);
    let mut windows = Windows::start(commits());
    let rss_at = if paced { u64::MAX } else { FLOOD_RSS_GROUPS };
    let mut peak_rss_mb = None;
    // The block is planned before its due time or free window slot is
    // awaited, so simulating it never delays a send.
    while let Some(datagrams) = planner.next_block() {
        windows.tick(commits());
        if peak_rss_mb.is_none() && commits() >= rss_at {
            peak_rss_mb = Some(probe::peak_rss_mb());
        }
        let b = gen.block_pending.len();
        if paced {
            let at = origin + Duration::from_secs_f64(schedule.next_due());
            if at >= deadline {
                break;
            }
            // Wait for the due time, polling the commit watermark while
            // earlier groups are still uncommitted.
            while Instant::now() < at {
                let outstanding = (gen.committed as usize) < b;
                if outstanding && last_keepalive.elapsed() >= POLL {
                    gen.keepalive();
                    last_keepalive = Instant::now();
                }
                let next_poll = if outstanding { last_keepalive + POLL } else { at };
                gen.pump(at.min(next_poll));
                gen.resend_stale();
                windows.tick(commits());
            }
            due.push(at);
            late_ms.push((Instant::now() - at).as_secs_f64() * 1e3);
        } else {
            if Instant::now() >= deadline {
                break;
            }
            // Closed loop: each gateway id in this block needs a free slot.
            while datagrams.iter().any(|d| gen.unacked[d.gateway as usize].len() >= FLOOD_WINDOW) {
                gen.pump(Instant::now() + Duration::from_millis(1));
                gen.resend_stale();
            }
        }
        gen.block_pending.push(datagrams.len());
        gen.block_acked.push(None);
        for d in datagrams {
            gen.send(d.frame, Some(b));
        }
        if !paced {
            due.resize(((b + 1) * FLOOD_BLOCK).min(n), Instant::now());
        }
        if warm.is_none() && Instant::now() >= warm_at {
            warm = Some(registry.snapshot());
        }
    }
    let send_end = Instant::now();
    let offered = due.len();
    // Drain: poll until every offered group's commit has been observed.
    let drain_deadline = Instant::now() + DRAIN_LIMIT;
    while (gen.committed as usize) < offered && Instant::now() < drain_deadline {
        gen.keepalive();
        gen.pump(Instant::now() + POLL);
        gen.resend_stale();
    }
    let wall_s = (send_end - origin).as_secs_f64();
    let usage = Usage::now().since(&usage0);
    let allocs = crate::ALLOC.allocations() - allocs0;
    let peak_rss_mb = peak_rss_mb.unwrap_or_else(probe::peak_rss_mb);
    let after = registry.snapshot();
    let warm = warm.unwrap_or_else(|| before.clone());
    let sim_s = planner.stream.sim_s;
    let dropped = std::mem::take(&mut planner.stream.dropped);
    drop(planner);

    target.store(offered as u64, Ordering::Release);
    let applied = replica.finish();
    shutdown(&p.socket, p.ctrl);
    let report = p.listener.join().expect("listener thread panicked").expect("listener run");
    drop(report.server);
    for k in SETUPS / 2..SETUPS {
        discard(clock.time(|| prepare(ctx, base, &format!("a{k}"))));
    }

    // Latency: due time of a group's last copy → first ack covering it.
    let mut w2v_ms = Vec::with_capacity(offered);
    let mut ack_to_commit_ms = Vec::new();
    let block = if paced { 1 } else { FLOOD_BLOCK };
    let since = |t: Instant| (t - origin).as_secs_f64();
    for (i, d) in due.iter().enumerate() {
        if let Some(done) = gen.done[i] {
            w2v_ms.push(stats::due_latency_ms(since(*d), since(done)));
            if let Some(acked) = gen.block_acked[i / block].filter(|a| a > d) {
                ack_to_commit_ms.push(done.saturating_duration_since(acked).as_secs_f64() * 1e3);
            }
        }
    }

    // Exactly one verdict per offered group, equal to `process_batch` on
    // the same groups (regenerated from the seed and checked in chunks).
    let mut check =
        Check { seen: vec![0; offered], by_uplink: vec![None; offered], ..Check::default() };
    for (u, v) in report.verdicts {
        match check.seen.get_mut(u as usize) {
            Some(c) => {
                *c += 1;
                check.by_uplink[u as usize] = Some(v);
            }
            None => check.failed += 1,
        }
    }
    let verdicted = check.seen.iter().filter(|&&c| c > 0).count() as u64;
    let mut stream = fleet::GroupStream::new(w, ctx.seed);
    let mut reference =
        fleet::Reference::new(&stream.scenario, gateways, |g, want| check.group(g, want));
    stream.for_each(offered, |g| reference.push(g));
    reference.finish();
    let Check { mut failed, mismatches, quality, mix, prefix, .. } = check;
    let delta = Delta { before: &before, after: &after };
    let incomplete = delta.counter("net_incomplete_groups_total");
    failed += incomplete;

    let mut layer = BTreeMap::new();
    let sorted_ack = stats::sorted(gen.ack_ms.clone());
    layer.insert("net.ack_p50_ms", stats::quantile(&sorted_ack, 0.5));
    layer.insert("net.ack_p99_ms", stats::quantile(&sorted_ack, 0.99));
    layer.insert("net.ack_to_commit_p50_ms", stats::median(&ack_to_commit_ms));
    layer.insert("net.commit_batch_mean", delta.histogram("net_commit_batch_size", None).mean());
    layer.insert("net.datagrams_per_group", stats::ratio(gen.datagrams as f64, offered as f64));
    layer.insert("net.incomplete_groups", incomplete as f64);
    layer.insert("net.stale_copies", delta.counter("net_stale_copies_total") as f64);
    layer.insert("net.commit_stalls", delta.counter("net_commit_stalls_total") as f64);
    layer.insert("store.wal_append_us", delta.histogram("store_wal_append_ns", None).mean() / 1e3);
    layer.insert("store.fsyncs_per_s", delta.counter("store_fsyncs_total") as f64 / wall_s);
    layer.insert(
        "store.wal_bytes_per_group",
        stats::ratio(p.wal.bytes.load(Ordering::Relaxed) as f64, offered as f64),
    );
    // Replication lag: the primary's commit of a group to the follower
    // holding it (global sequence `i + 1`); both sides advance in order.
    let mut lag_ms = Vec::with_capacity(offered);
    let mut next_apply = applied.iter().peekable();
    for i in 0..offered {
        while next_apply.peek().is_some_and(|(seq, _)| *seq <= i as u64) {
            next_apply.next();
        }
        let committed = p.commit_at[i].load(Ordering::Acquire);
        if let (Some((_, at)), true) = (next_apply.peek(), committed > 0) {
            let at_ns = at.saturating_duration_since(base).as_nanos() as f64;
            lag_ms.push((at_ns - committed as f64).max(0.0) * 1e-6);
        }
    }
    let lag_sorted = stats::sorted(lag_ms);
    layer.insert("ha.lag_p50_ms", stats::quantile(&lag_sorted, 0.5));
    layer.insert("ha.lag_p99_ms", stats::quantile(&lag_sorted, 0.99));
    layer.insert("ha.resends", delta.counter("ha_resends_total") as f64);
    layer.insert("gen.offered_per_s", offered as f64 / wall_s);
    // The share of mean w2v the benchmark cannot pin on a layer along a
    // group's blocking path: generator lateness, send→ack, the group's
    // front-half stage time and shard commit, and half the watermark
    // polling period.
    let front_ms: f64 = ["radio", "capture", "onset", "fb"]
        .iter()
        .map(|st| delta.histogram("gateway_stage_ns", Some(("stage", st))).sum as f64 * 1e-6)
        .sum::<f64>()
        / offered.max(1) as f64;
    let commit_ms =
        delta.histogram("server_commit_ns", None).sum as f64 * 1e-6 / offered.max(1) as f64;
    let attributed = stats::mean(&late_ms)
        + stats::mean(&gen.ack_ms)
        + front_ms
        + commit_ms
        + POLL.as_secs_f64() * 1e3 / 2.0;
    layer.insert("budget.unattributed_share", 1.0 - stats::ratio(attributed, stats::mean(&w2v_ms)));
    layer.insert(
        "gen.late_p99_ms",
        if paced { stats::quantile(&stats::sorted(late_ms), 0.99) } else { 0.0 },
    );
    let warm_delta = Delta { before: &warm, after: &after };
    layer.insert(
        "dsp.plans_per_call",
        stats::ratio(
            warm_delta.counter("dsp_fft_plans_total") as f64,
            warm_delta.counter("net_batches_total") as f64,
        ),
    );
    if let Some(t) = &ctx.tracer {
        for (i, d) in due.iter().enumerate() {
            if let Some(done) = gen.done[i] {
                let root = t.record("w2v", *d, done, NONE, i as u64);
                if let Some(acked) = gen.block_acked[i / block].filter(|a| a > d && *a < done) {
                    t.record("net.send_to_ack", *d, acked, root, i as u64);
                    t.record("net.ack_to_commit", acked, done, root, i as u64);
                }
            }
        }
    }
    let datagrams = std::mem::take(&mut gen.sent_log);
    // One span from the end of the first second to the end of sending:
    // commits land in batch-sized bursts, which one-second windows would
    // quantise.
    let (span_rate, span_cpu) = windows.span(1);

    RunOut {
        setup_s: clock.median(),
        scenario_s: sim_s,
        dropped,
        offered: offered as u64,
        verdicted,
        failed,
        reference_ok: mismatches == 0,
        wall_s,
        // Open loop: the delivered rate, a no-backlog check against the
        // offered one.
        groups_per_s: if paced { verdicted as f64 / wall_s } else { span_rate },
        cpu_ms_per_group: span_cpu,
        usage,
        peak_rss_mb,
        allocs,
        w2v_ms,
        quality,
        before,
        after,
        mix,
        groups: prefix,
        scenario: stream.scenario,
        datagrams,
        layer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Block by block, the planner sends every copy of every planned group
    /// exactly once, in its block, and each datagram's watermark is the
    /// first uplink of its gateway's next datagram (the cap after the
    /// last).
    #[test]
    fn planner_sends_every_copy_once_under_next_datagram_watermarks() {
        for (w, block) in [(Workload::WirePaced, 1), (Workload::WireFlood, FLOOD_BLOCK)] {
            let cap = 300;
            let stream = fleet::GroupStream::new(w, 7);
            let mut planner = Planner::new(stream, cap, w.gateways(), block);
            let first = planner.first_watermarks();
            // Per gateway, in send order: (watermark, uplinks carried).
            let mut sent: Vec<Vec<(u64, Vec<u64>)>> = vec![Vec::new(); w.gateways()];
            let mut blocks = 0;
            while let Some(datagrams) = planner.next_block() {
                for d in datagrams {
                    let Frame::PushData(p) = d.frame else { panic!("data datagram") };
                    assert!(p.uplinks.iter().all(|u| u.uplink as usize / block == blocks));
                    let uplinks = p.uplinks.iter().map(|u| u.uplink).collect();
                    sent[d.gateway as usize].push((p.watermark, uplinks));
                }
                blocks += 1;
            }
            assert_eq!(blocks, cap.div_ceil(block));

            let mut want: Vec<(usize, u64)> = fleet::GroupStream::new(w, 7)
                .take(cap)
                .iter()
                .flat_map(|g| g.copies.iter().map(move |c| (c.gateway, g.uplink)))
                .collect();
            let mut got: Vec<(usize, u64)> = sent
                .iter()
                .enumerate()
                .flat_map(|(gw, ds)| {
                    ds.iter().flat_map(move |(_, us)| us.iter().map(move |u| (gw, *u)))
                })
                .collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "{}: every copy once", w.name());
            for (gw, ds) in sent.iter().enumerate() {
                assert_eq!(first[gw], ds.first().map_or(cap as u64, |d| d.1[0]));
                for pair in ds.windows(2) {
                    assert_eq!(pair[0].0, pair[1].1[0], "watermark = next datagram's first");
                }
                assert!(ds.last().is_none_or(|d| d.0 == cap as u64));
            }
        }
    }
}
