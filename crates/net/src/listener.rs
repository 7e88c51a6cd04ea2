//! The socket front door: a UDP listener feeding the sharded server tail.
//!
//! [`NetServer`] owns a [`NetworkServer`] and two sockets:
//!
//! * the **data** socket receives gateway traffic (`PUSH_DATA` batches,
//!   `PULL_DATA` keepalives) and acks every accepted datagram;
//! * the **ctrl** socket answers `STATS_REQ` with live counters,
//!   `METRICS_REQ` with a full process-wide telemetry snapshot, and
//!   accepts `SHUTDOWN` — the FutureSDR `ctrl_port` idea in datagram
//!   form.
//!
//! # Pipelined ingest
//!
//! The poll thread only does cheap work: receive, decode, dedup, ack,
//! reassemble ([`crate::ingest::Reassembler`]). Watermark-released
//! groups are handed over a bounded SPSC ring to a dedicated **commit
//! worker** ([`crate::ingest::CommitPipe`]) that drives
//! [`NetworkServer::process_batch`] off-thread, so ack latency no
//! longer includes the sharded commit. Acks carry the worker's
//! published commit watermark (`committed`, protocol version 3), which
//! is how a gateway — or the load generator measuring end-to-end commit
//! latency — observes the pipeline catching up.
//!
//! Admission is two commit quanta deep, so latency is bounded by
//! design. The quantum is four groups per DSP arena of the server
//! ([`crate::ingest::commit_quantum`] of
//! [`NetworkServer::fan_out_width`], capped at 64): 8 groups on a
//! 2-arena server. The poll thread releases groups as soon as one
//! quantum is ready (or on the `poll_interval` tick), the handoff ring
//! admits two quanta, and the worker commits one at a time: at most three
//! quanta (24 groups at width 2) are between handoff and commit, and a
//! group waits there at most that many divided by the commit throughput
//! (≈ 8 ms at 3000 groups/s). A full ring parks the poll thread, counted
//! in `net_commit_stalls_total`, until the worker frees a quantum. Meanwhile
//! no datagram is read or acked, so the excess waits in the senders'
//! unacked windows rather than in server memory. Shutdown drains both
//! the reassembly window and the handoff queue before the report is
//! assembled.
//!
//! Wire counters live in the process-wide [`softlora_telemetry`]
//! registry as `net_*` series (labeled with a per-listener instance id),
//! so a `METRICS_REQ` scrape sees them next to the server tail's commit
//! latencies and the store's WAL counters — including the new pipeline
//! series `net_commit_queue_depth` and `net_commit_batch_size`. The
//! [`NetCounters`] struct remains the stable report/ctrl-protocol view,
//! rebuilt from the registry handles on demand.
//!
//! # Bit-for-bit ingestion
//!
//! The server's batch path is order-sensitive: per-gateway frame indices
//! (which seed all front-half randomness) are assigned in group-copy
//! arrival order. The listener therefore reassembles network arrivals
//! back into the canonical order before committing anything:
//!
//! 1. every copy carries its group's uplink id and its position inside
//!    the group (`copy_index`), so groups reassemble with their original
//!    internal copy order regardless of datagram arrival order;
//! 2. every gateway datagram carries a **watermark** — a promise that
//!    the gateway will never again send a copy with uplink id < w. The
//!    listener only releases groups strictly below the *fleet minimum*
//!    watermark, in ascending uplink order, so no late copy can arrive
//!    for a released group;
//! 3. released groups flow through the SPSC handoff into
//!    [`NetworkServer::process_batch`] one quantum at a time. The ring
//!    preserves the release order and batch boundaries don't affect
//!    results (the server's sub-batch ≡ big-batch invariant), so the
//!    wire path's verdicts, statistics and persisted state are
//!    bit-for-bit those of handing the whole stream to `process_batch`
//!    directly — commit merely happens on another thread.
//!
//! Duplicated datagrams are re-acked but not re-processed (per-gateway
//! sequence tracking); malformed datagrams are counted and dropped —
//! the listener never panics on wire input.

use crate::ingest::{CommitPipe, CommitTelemetry, CopyHeader, Reassembler, ServerSink, Stash};
use crate::protocol::{
    decode_frame, encode_frame_into, Frame, NetCounters, PushData, ServerRole, WireRuntime,
    WireStats, WireUplink,
};
use crate::NetError;
use softlora::{NetworkServer, ServerVerdict};
use softlora_sim::{FleetDelivery, UplinkDeliveries};
use softlora_telemetry::{Counter, Gauge, Histogram};
use std::collections::HashSet;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Tuning knobs for [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Address to bind the data socket on (port 0 = ephemeral).
    pub data_bind: SocketAddr,
    /// Address to bind the ctrl socket on (port 0 = ephemeral).
    pub ctrl_bind: SocketAddr,
    /// Handoff cadence: ready groups are released to the commit worker at
    /// least this often, and as soon as one commit quantum
    /// ([`CommitPipe::quantum`]) is ready. It is the recv timeout, so also
    /// the ctrl poll period.
    pub poll_interval: Duration,
    /// Bound on the reassembly buffer: when a new uplink id needs a
    /// window position past this many pending groups, the oldest are
    /// force-released even if incomplete. Ids more than twice this bound
    /// ahead of the window are rejected as forged/corrupt.
    pub max_pending_groups: usize,
    /// A pending group older than this is committed with the copies that
    /// arrived (counted in [`NetCounters::incomplete_groups`]).
    pub straggler_timeout: Duration,
    /// Keep every committed verdict in the run report. Costs memory
    /// proportional to the run; turn off for unbounded soak runs.
    pub record_verdicts: bool,
    /// Stop serving after this long without any data datagram. A safety
    /// net for CI smoke runs; `None` serves until `SHUTDOWN`.
    pub idle_shutdown: Option<Duration>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            data_bind: "127.0.0.1:0".parse().expect("loopback literal"),
            ctrl_bind: "127.0.0.1:0".parse().expect("loopback literal"),
            poll_interval: Duration::from_millis(5),
            max_pending_groups: 1 << 16,
            straggler_timeout: Duration::from_secs(2),
            record_verdicts: true,
            idle_shutdown: None,
        }
    }
}

/// What a finished listener run hands back.
pub struct NetRunReport {
    /// Final wire counters.
    pub counters: NetCounters,
    /// Every committed `(uplink id, verdict)`, in commit order (empty
    /// when [`NetServerConfig::record_verdicts`] is off).
    pub verdicts: Vec<(u64, ServerVerdict)>,
    /// The server tail, for post-run inspection (stats, FB database,
    /// persistence flush).
    pub server: NetworkServer,
}

/// Per-gateway wire state.
struct GatewayTrack {
    /// Highest watermark promised so far (`None` until first contact —
    /// nothing fleet-wide can commit before every gateway has spoken).
    watermark: Option<u64>,
    highest_seq: Option<u64>,
    /// Recently processed datagram seqs, for duplicate suppression.
    seen: HashSet<u64>,
}

/// How many datagram seqs per gateway the duplicate filter remembers.
const SEQ_WINDOW: u64 = 4096;

/// A seq further than this ahead of the gateway's highest seen (or of 0
/// at first contact — gateways count from 0) is forged or corrupt:
/// accepting it would pin `highest_seq` near `u64::MAX` and evict every
/// real seq from the duplicate filter.
const SEQ_FUTURE_BOUND: u64 = 1 << 20;

/// Outcome of filing one datagram seq with [`GatewayTrack::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SeqCheck {
    /// Already processed: re-ack, don't re-process.
    Duplicate,
    /// Implausibly far ahead of anything seen — reject the datagram.
    FarFuture,
    /// New; `out_of_order` if below the highest seq seen.
    Fresh { out_of_order: bool },
}

impl GatewayTrack {
    fn new() -> Self {
        GatewayTrack { watermark: None, highest_seq: None, seen: HashSet::new() }
    }

    /// Registers a datagram seq.
    fn register(&mut self, seq: u64) -> SeqCheck {
        if self.seen.contains(&seq) {
            return SeqCheck::Duplicate;
        }
        if seq > self.highest_seq.unwrap_or(0).saturating_add(SEQ_FUTURE_BOUND) {
            return SeqCheck::FarFuture;
        }
        let out_of_order = self.highest_seq.is_some_and(|h| seq < h);
        self.seen.insert(seq);
        let highest = self.highest_seq.map_or(seq, |h| h.max(seq));
        self.highest_seq = Some(highest);
        if self.seen.len() as u64 > 2 * SEQ_WINDOW {
            self.seen.retain(|&s| s >= highest.saturating_sub(SEQ_WINDOW));
        }
        SeqCheck::Fresh { out_of_order }
    }

    fn advance_watermark(&mut self, watermark: u64) {
        self.watermark = Some(self.watermark.map_or(watermark, |w| w.max(watermark)));
    }
}

/// Registry-backed listener counters: one `net_*` series per
/// [`NetCounters`] field plus the commit-pipeline series, each labeled
/// with this listener's instance id so several listeners in one process
/// keep exact per-instance counts while the process-wide registry stays
/// the single source of truth.
struct NetMetrics {
    datagrams: Counter,
    push_data: Counter,
    keepalives: Counter,
    acks_sent: Counter,
    rejected_magic: Counter,
    rejected_version: Counter,
    rejected_type: Counter,
    rejected_crc: Counter,
    rejected_truncated: Counter,
    rejected_other: Counter,
    duplicate_datagrams: Counter,
    out_of_order_datagrams: Counter,
    copies_received: Counter,
    stale_copies: Counter,
    duplicate_copies: Counter,
    incomplete_groups: Counter,
    groups_committed: Counter,
    batches: Counter,
    /// Handoff-ring occupancy, updated by both ends of the pipe.
    commit_queue_depth: Gauge,
    /// Groups per off-thread commit batch.
    commit_batch_size: Histogram,
    /// Bounded poll-thread stalls against a full handoff ring.
    commit_stalls: Counter,
}

impl NetMetrics {
    fn new() -> Self {
        static INSTANCE: AtomicU64 = AtomicU64::new(0);
        let id = INSTANCE.fetch_add(1, Ordering::Relaxed).to_string();
        let registry = softlora_telemetry::global();
        let counter = |name: &str| registry.counter_with(name, &[("listener", id.as_str())]);
        let rejected = |reason: &str| {
            registry.counter_with(
                "net_rejected_total",
                &[("listener", id.as_str()), ("reason", reason)],
            )
        };
        NetMetrics {
            datagrams: counter("net_datagrams_total"),
            push_data: counter("net_push_data_total"),
            keepalives: counter("net_keepalives_total"),
            acks_sent: counter("net_acks_sent_total"),
            rejected_magic: rejected("magic"),
            rejected_version: rejected("version"),
            rejected_type: rejected("type"),
            rejected_crc: rejected("crc"),
            rejected_truncated: rejected("truncated"),
            rejected_other: rejected("other"),
            duplicate_datagrams: counter("net_duplicate_datagrams_total"),
            out_of_order_datagrams: counter("net_out_of_order_datagrams_total"),
            copies_received: counter("net_copies_received_total"),
            stale_copies: counter("net_stale_copies_total"),
            duplicate_copies: counter("net_duplicate_copies_total"),
            incomplete_groups: counter("net_incomplete_groups_total"),
            groups_committed: counter("net_groups_committed_total"),
            batches: counter("net_batches_total"),
            commit_queue_depth: registry
                .gauge_with("net_commit_queue_depth", &[("listener", id.as_str())]),
            commit_batch_size: registry
                .histogram_with("net_commit_batch_size", &[("listener", id.as_str())]),
            commit_stalls: counter("net_commit_stalls_total"),
        }
    }

    /// The handle bundle the commit worker updates (all handles are
    /// cheap clones onto the same registry series).
    fn commit_telemetry(&self) -> CommitTelemetry {
        CommitTelemetry {
            batches: self.batches.clone(),
            groups_committed: self.groups_committed.clone(),
            queue_depth: self.commit_queue_depth.clone(),
            batch_size: self.commit_batch_size.clone(),
            stalls: self.commit_stalls.clone(),
        }
    }

    /// The stable protocol/report view, read back out of the handles.
    fn counters(&self) -> NetCounters {
        NetCounters {
            datagrams: self.datagrams.get(),
            push_data: self.push_data.get(),
            keepalives: self.keepalives.get(),
            acks_sent: self.acks_sent.get(),
            rejected_magic: self.rejected_magic.get(),
            rejected_version: self.rejected_version.get(),
            rejected_type: self.rejected_type.get(),
            rejected_crc: self.rejected_crc.get(),
            rejected_truncated: self.rejected_truncated.get(),
            rejected_other: self.rejected_other.get(),
            duplicate_datagrams: self.duplicate_datagrams.get(),
            out_of_order_datagrams: self.out_of_order_datagrams.get(),
            copies_received: self.copies_received.get(),
            stale_copies: self.stale_copies.get(),
            duplicate_copies: self.duplicate_copies.get(),
            incomplete_groups: self.incomplete_groups.get(),
            groups_committed: self.groups_committed.get(),
            batches: self.batches.get(),
        }
    }
}

/// The listening front door around a [`NetworkServer`].
pub struct NetServer {
    /// The server tail, shared with the commit worker. The poll thread
    /// locks it only for cold ctrl queries (stats/role); every commit
    /// happens on the worker.
    server: Arc<Mutex<NetworkServer>>,
    pipe: CommitPipe,
    config: NetServerConfig,
    data: UdpSocket,
    ctrl: UdpSocket,
    gateways: Vec<GatewayTrack>,
    reassembler: Reassembler,
    /// Highest uplink id handed to the commit worker so far.
    last_offered: Option<u64>,
    metrics: NetMetrics,
    scratch: softlora_store::Encoder,
    batch: Vec<UplinkDeliveries>,
}

impl NetServer {
    /// Binds the data + ctrl sockets around a built server and spawns
    /// the commit worker.
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures.
    pub fn bind(server: NetworkServer, config: NetServerConfig) -> Result<Self, NetError> {
        let data = UdpSocket::bind(config.data_bind)?;
        data.set_read_timeout(Some(config.poll_interval))?;
        let ctrl = UdpSocket::bind(config.ctrl_bind)?;
        ctrl.set_nonblocking(true)?;
        let gateways = (0..server.gateway_count()).map(|_| GatewayTrack::new()).collect();
        let metrics = NetMetrics::new();
        let server = Arc::new(Mutex::new(server));
        let pipe = CommitPipe::spawn(
            ServerSink(Arc::clone(&server)),
            config.record_verdicts,
            metrics.commit_telemetry(),
        );
        let reassembler = Reassembler::new(config.straggler_timeout, config.max_pending_groups);
        Ok(NetServer {
            server,
            pipe,
            config,
            data,
            ctrl,
            gateways,
            reassembler,
            last_offered: None,
            metrics,
            scratch: softlora_store::Encoder::new(),
            batch: Vec::new(),
        })
    }

    /// The bound data-socket address gateways should send to.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn data_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.data.local_addr()?)
    }

    /// The bound ctrl-socket address for stats/shutdown.
    ///
    /// # Errors
    ///
    /// Propagates `local_addr` failures.
    pub fn ctrl_addr(&self) -> Result<SocketAddr, NetError> {
        Ok(self.ctrl.local_addr()?)
    }

    /// Serves until `SHUTDOWN` (or the idle timeout), then drains the
    /// commit pipeline and returns the final counters, verdicts and the
    /// server tail.
    ///
    /// # Errors
    ///
    /// Socket failures and server-tail commit failures (the latter
    /// surface when the pipeline is drained). Malformed wire input is
    /// **not** an error — it is counted and dropped.
    pub fn run(mut self) -> Result<NetRunReport, NetError> {
        let mut buf = vec![0u8; 65_535];
        let mut last_flush = Instant::now();
        let mut last_datagram = Instant::now();
        loop {
            // Reclaim group shells the commit worker is done with, so
            // the warm path stays allocation-free.
            while let Some(group) = self.pipe.pop_recycled() {
                self.reassembler.recycle(group);
            }
            match self.data.recv_from(&mut buf) {
                Ok((len, from)) => {
                    last_datagram = Instant::now();
                    self.handle_data(&buf[..len], from)?;
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut => {}
                Err(e) => return Err(NetError::Io(e)),
            }

            if let Some(shutdown_ack) = self.poll_ctrl()? {
                self.flush(true);
                // Wait for the commit worker to drain what the final
                // flush handed it, so the ack's watermark covers every
                // group the fleet will ever see committed.
                self.sync_commits(None);
                let (token, from) = shutdown_ack;
                let committed = self.pipe.committed();
                self.send_ctrl(&Frame::PullAck { gateway: 0, seq: token, committed }, from)?;
                break;
            }
            if let Some(idle) = self.config.idle_shutdown {
                if last_datagram.elapsed() >= idle {
                    self.flush(true);
                    break;
                }
            }

            let ready = self.reassembler.ready_count(self.barrier());
            if ready >= self.pipe.quantum()
                || (last_flush.elapsed() >= self.config.poll_interval && ready > 0)
                || self.reassembler.spilled_len() > 0
            {
                self.flush(false);
                last_flush = Instant::now();
            }
        }
        // Drain the worker: a commit failure it hit surfaces here.
        let log = self.pipe.finish()?;
        let server = Arc::try_unwrap(self.server)
            .unwrap_or_else(|_| panic!("commit worker still holds the server"))
            .into_inner()
            .expect("network server poisoned");
        Ok(NetRunReport { counters: self.metrics.counters(), verdicts: log.verdicts, server })
    }

    /// The fleet-wide commit barrier: the minimum watermark across all
    /// gateways, or `None` until every gateway has reported one.
    fn barrier(&self) -> Option<u64> {
        self.gateways.iter().map(|g| g.watermark).min().flatten()
    }

    fn handle_data(&mut self, bytes: &[u8], from: SocketAddr) -> Result<(), NetError> {
        self.metrics.datagrams.inc();
        let frame = match decode_frame(bytes) {
            Ok(frame) => frame,
            Err(e) => {
                self.count_rejection(&e);
                return Ok(());
            }
        };
        match frame {
            Frame::PushData(push) => {
                let PushData { gateway, seq, watermark, uplinks } = push;
                let Some(track) = self.gateways.get_mut(gateway as usize) else {
                    self.metrics.rejected_other.inc();
                    return Ok(());
                };
                match track.register(seq) {
                    SeqCheck::FarFuture => {
                        // Forged/corrupt seq: drop the whole datagram
                        // before it can poison the dedup state or the
                        // watermark.
                        self.metrics.rejected_other.inc();
                        return Ok(());
                    }
                    SeqCheck::Duplicate => {
                        track.advance_watermark(watermark);
                        self.metrics.duplicate_datagrams.inc();
                    }
                    SeqCheck::Fresh { out_of_order } => {
                        track.advance_watermark(watermark);
                        if out_of_order {
                            self.metrics.out_of_order_datagrams.inc();
                        }
                        self.metrics.push_data.inc();
                        for uplink in uplinks {
                            self.stash(gateway as usize, uplink);
                        }
                    }
                }
                let committed = self.pipe.committed();
                self.send_data(&Frame::PushAck { gateway, seq, committed }, from)?;
            }
            Frame::PullData { gateway, seq, watermark } => {
                let Some(track) = self.gateways.get_mut(gateway as usize) else {
                    self.metrics.rejected_other.inc();
                    return Ok(());
                };
                match track.register(seq) {
                    SeqCheck::FarFuture => {
                        self.metrics.rejected_other.inc();
                        return Ok(());
                    }
                    SeqCheck::Duplicate => {
                        track.advance_watermark(watermark);
                        self.metrics.duplicate_datagrams.inc();
                    }
                    SeqCheck::Fresh { .. } => {
                        track.advance_watermark(watermark);
                        self.metrics.keepalives.inc();
                    }
                }
                let committed = self.pipe.committed();
                self.send_data(&Frame::PullAck { gateway, seq, committed }, from)?;
            }
            // Anything else is not gateway traffic; count it as noise.
            _ => self.metrics.rejected_other.inc(),
        }
        Ok(())
    }

    /// Files one wire uplink copy into the reassembly window.
    fn stash(&mut self, gateway: usize, uplink: WireUplink) {
        self.metrics.copies_received.inc();
        let header = CopyHeader {
            uplink: uplink.uplink,
            dev_addr: uplink.dev_addr,
            tx_start_global_s: uplink.tx_start_global_s,
            airtime_s: uplink.airtime_s,
            copies_total: uplink.copies_total,
            copy_index: uplink.copy_index,
        };
        let copy = match uplink.delivery {
            // Empty-group marker: the window entry itself is the
            // information.
            None => None,
            Some(wire) => match wire.to_delivery() {
                Ok(delivery) => Some(FleetDelivery { gateway, delivery }),
                Err(_) => {
                    // Undecodable payload: count it, but still register
                    // the group so its metadata is not lost.
                    self.metrics.rejected_other.inc();
                    None
                }
            },
        };
        match self.reassembler.stash(&header, copy) {
            Stash::Filed => {}
            Stash::Stale => self.metrics.stale_copies.inc(),
            Stash::DuplicateCopy => self.metrics.duplicate_copies.inc(),
            Stash::BadCopyIndex | Stash::FarFuture => self.metrics.rejected_other.inc(),
        }
    }

    /// Releases every group that is safe to commit, in ascending uplink
    /// order, to the commit worker. `drain` (shutdown) releases the
    /// whole reassembly window regardless of watermarks.
    fn flush(&mut self, drain: bool) {
        self.batch.clear();
        let tally = self.reassembler.drain_ready(self.barrier(), drain, &mut self.batch);
        self.metrics.incomplete_groups.add(tally.incomplete as u64);
        if self.batch.is_empty() {
            return;
        }
        self.last_offered = self.batch.last().map(|g| g.uplink);
        for group in self.batch.drain(..) {
            self.pipe.offer(group);
        }
        self.pipe.kick();
    }

    /// Waits for the commit worker to catch up with everything released
    /// so far, so ctrl stats read deterministically — exactly what the
    /// old synchronous flush guaranteed. `cap` bounds the wait for live
    /// ctrl queries; `None` (shutdown) waits for the full drain — the
    /// ring is bounded, so the wait is bounded by the remaining work —
    /// unless the worker already died on a commit failure (the watermark
    /// can then never advance; the error surfaces at `finish`).
    fn sync_commits(&self, cap: Option<Duration>) {
        let Some(last) = self.last_offered else { return };
        let deadline = cap.map(|c| Instant::now() + c);
        while self.pipe.committed() <= last && !self.pipe.worker_finished() {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// Drains the ctrl socket; returns the shutdown token + requester
    /// when a `SHUTDOWN` arrived.
    fn poll_ctrl(&mut self) -> Result<Option<(u64, SocketAddr)>, NetError> {
        let mut buf = [0u8; 2048];
        loop {
            match self.ctrl.recv_from(&mut buf) {
                Ok((len, from)) => match decode_frame(&buf[..len]) {
                    Ok(Frame::StatsReq { token }) => {
                        self.sync_commits(Some(Duration::from_secs(2)));
                        let stats = {
                            let server = self.server.lock().expect("network server poisoned");
                            WireStats {
                                counters: self.metrics.counters(),
                                server: server.stats(),
                                detection: server.detection_stats(),
                                runtime: WireRuntime::from_registry(
                                    &softlora_telemetry::global().snapshot(),
                                ),
                            }
                        };
                        self.send_ctrl(&Frame::StatsResp { token, stats }, from)?;
                    }
                    Ok(Frame::MetricsReq { token }) => {
                        self.sync_commits(Some(Duration::from_secs(2)));
                        let snapshot = softlora_telemetry::global().snapshot();
                        self.send_ctrl(&Frame::MetricsResp { token, snapshot }, from)?;
                    }
                    Ok(Frame::Shutdown { token }) => return Ok(Some((token, from))),
                    Ok(Frame::RoleReq { token }) => {
                        let epoch = {
                            let server = self.server.lock().expect("network server poisoned");
                            server.epoch().map_err(NetError::Server)?
                        };
                        let resp = Frame::RoleResp { token, role: ServerRole::Primary, epoch };
                        self.send_ctrl(&resp, from)?;
                    }
                    Ok(Frame::Promote { token, epoch }) => {
                        // A listener always fronts a committing (primary)
                        // tail; `PROMOTE` here just advances the fencing
                        // epoch so a deposed predecessor's shipped frames
                        // are refused from now on. An epoch regression is
                        // reported as the current role/epoch unchanged.
                        let epoch = {
                            let server = self.server.lock().expect("network server poisoned");
                            let _ = server.set_epoch(epoch);
                            server.epoch().map_err(NetError::Server)?
                        };
                        let resp = Frame::RoleResp { token, role: ServerRole::Primary, epoch };
                        self.send_ctrl(&resp, from)?;
                    }
                    Ok(_) => self.metrics.rejected_other.inc(),
                    Err(e) => self.count_rejection(&e),
                },
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(None),
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    fn count_rejection(&mut self, e: &NetError) {
        match e {
            NetError::BadMagic { .. } => self.metrics.rejected_magic.inc(),
            NetError::BadVersion { .. } => self.metrics.rejected_version.inc(),
            NetError::BadFrameType { .. } => self.metrics.rejected_type.inc(),
            NetError::BadCrc { .. } => self.metrics.rejected_crc.inc(),
            NetError::TooShort { .. } | NetError::TrailingBytes { .. } | NetError::Codec(_) => {
                self.metrics.rejected_truncated.inc();
            }
            _ => self.metrics.rejected_other.inc(),
        }
    }

    fn send_data(&mut self, frame: &Frame, to: SocketAddr) -> Result<(), NetError> {
        self.scratch.clear();
        encode_frame_into(frame, &mut self.scratch);
        self.data.send_to(self.scratch.as_bytes(), to)?;
        self.metrics.acks_sent.inc();
        Ok(())
    }

    fn send_ctrl(&mut self, frame: &Frame, to: SocketAddr) -> Result<(), NetError> {
        self.scratch.clear();
        encode_frame_into(frame, &mut self.scratch);
        self.ctrl.send_to(self.scratch.as_bytes(), to)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seq_tracking_survives_forged_far_future_seqs() {
        let mut track = GatewayTrack::new();
        assert_eq!(track.register(0), SeqCheck::Fresh { out_of_order: false });
        // A forged seq near u64::MAX must neither overflow the prune
        // arithmetic nor pin `highest_seq`, which would evict every real
        // seq from the duplicate filter.
        assert_eq!(track.register(u64::MAX), SeqCheck::FarFuture);
        assert_eq!(track.register(u64::MAX - SEQ_WINDOW), SeqCheck::FarFuture);
        assert_eq!(track.highest_seq, Some(0));
        // Real traffic keeps deduplicating.
        assert_eq!(track.register(1), SeqCheck::Fresh { out_of_order: false });
        assert_eq!(track.register(1), SeqCheck::Duplicate);
        assert_eq!(track.register(0), SeqCheck::Duplicate);
    }

    #[test]
    fn first_contact_far_future_seq_rejected() {
        let mut track = GatewayTrack::new();
        // Gateways count seqs from 0; a first-contact seq beyond the
        // plausible bound is forged.
        assert_eq!(track.register(u64::MAX), SeqCheck::FarFuture);
        assert_eq!(track.highest_seq, None);
        assert_eq!(track.register(0), SeqCheck::Fresh { out_of_order: false });
    }

    #[test]
    fn seq_prune_keeps_the_recent_window() {
        let mut track = GatewayTrack::new();
        for seq in 0..=(2 * SEQ_WINDOW + 1) {
            assert_eq!(track.register(seq), SeqCheck::Fresh { out_of_order: false });
        }
        // The prune ran; recent seqs are still remembered, ancient ones
        // are forgotten (and would re-register as fresh-but-out-of-order
        // rather than poisoning anything).
        let highest = 2 * SEQ_WINDOW + 1;
        assert_eq!(track.register(highest), SeqCheck::Duplicate);
        assert_eq!(track.register(highest - SEQ_WINDOW + 1), SeqCheck::Duplicate);
        assert_eq!(track.register(0), SeqCheck::Fresh { out_of_order: true });
    }
}
