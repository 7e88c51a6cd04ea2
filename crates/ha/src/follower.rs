//! The standby's replication half: a [`Follower`] owns a warm
//! [`NetworkServer`] and applies the primary's commit stream through
//! the same live-replay paths crash recovery uses.
//!
//! Three orderings are reconciled here:
//!
//! 1. **Stream order** — datagrams can arrive reordered or duplicated;
//!    frames are buffered until the stream sequence is contiguous
//!    (cumulative acks + the shipper's go-back-N fill any gap).
//! 2. **Global commit order** — the primary seals shard frames from
//!    parallel commit threads, so the per-shard streams interleave
//!    arbitrarily. Each record's global sequence is peeked without
//!    applying it ([`NetworkServer::peek_replicated_seq`]) and records
//!    are applied strictly in global order.
//! 3. **Snapshot points** — a [`Frame::SnapMark`] is queued per shard
//!    and the follower installs its own snapshot exactly when that
//!    shard's WAL head reaches the marker's covered sequence, stamping
//!    the marker's global sequence and frame indices — which makes the
//!    snapshot bytes (and therefore `repro_fsck` digests) bit-identical
//!    to the primary's.
//!
//! **Promotion** ([`Follower::promote`]) durably advances the epoch
//! past everything this follower has seen, announces the handoff to the
//! old primary's shipper, and hands back the [`NetworkServer`] — which
//! continues taking live traffic with verdicts bit-for-bit identical to
//! a server that never failed over. Frames from a deposed primary
//! (lower epoch) are refused and counted.
//!
//! [`NetworkServer`]: softlora::NetworkServer

use crate::protocol::{decode_frame, encode_frame, split_record_run, Frame};
use crate::HaError;
use softlora::NetworkServer;
use softlora_telemetry::{Counter, Gauge};
use std::collections::{BTreeMap, VecDeque};
use std::net::{SocketAddr, UdpSocket};

/// Largest replication datagram the follower will accept. Coalesced
/// frames carry one commit record per uplink group in the batch, so
/// this bounds the batch sizes the shipper may relay.
const MAX_DATAGRAM: usize = 1 << 16;

struct Marker {
    covered_seq: u64,
    global_seq: u64,
    frames_cumulative: Vec<u64>,
}

enum StreamItem {
    Chunk { shard: usize, payload: Vec<u8> },
    Mark { shard: usize, marker: Marker },
}

struct FollowerMetrics {
    lag: Gauge,
    applied: Counter,
    snapshots_installed: Counter,
    chunks_refused: Counter,
    heartbeats: Counter,
}

impl FollowerMetrics {
    fn new() -> Self {
        let registry = softlora_telemetry::global();
        let labels = &[("role", "follower")];
        FollowerMetrics {
            lag: registry.gauge_with("ha_replication_lag_records", labels),
            applied: registry.counter_with("ha_records_applied_total", labels),
            snapshots_installed: registry.counter_with("ha_snapshots_installed_total", labels),
            chunks_refused: registry.counter_with("ha_chunks_refused_total", labels),
            heartbeats: registry.counter_with("ha_heartbeats_total", labels),
        }
    }
}

/// A warm standby tailing one primary's WAL. See the module docs.
pub struct Follower {
    server: NetworkServer,
    socket: UdpSocket,
    /// Where acks go: the last address that shipped us a frame (or the
    /// address given to [`Follower::subscribe`]).
    primary: Option<SocketAddr>,
    epoch: u64,
    /// Next stream sequence to process (starts at 1).
    next_stream_seq: u64,
    /// Stream frames received ahead of the contiguous point.
    out_of_order: BTreeMap<u64, StreamItem>,
    /// Decoded records waiting for their global-order turn.
    ready: BTreeMap<u64, (usize, Vec<u8>)>,
    /// Snapshot markers per shard, installed when the shard's WAL head
    /// reaches the covered sequence.
    markers: Vec<VecDeque<Marker>>,
    /// Records applied per shard — the standby's WAL heads.
    shard_heads: Vec<u64>,
    metrics: FollowerMetrics,
}

impl Follower {
    /// Wraps a freshly built standby server (empty or recovered store)
    /// and binds an ephemeral loopback socket for the stream.
    ///
    /// The follower bootstraps from shard-sequence zero: pair it with a
    /// primary whose WAL starts at the same point (both built over
    /// fresh directories), or recover both from copies of one store.
    ///
    /// # Errors
    ///
    /// [`HaError::Io`] when the socket cannot be bound;
    /// [`HaError::Server`] when the store's epoch cannot be read.
    pub fn new(server: NetworkServer) -> Result<Self, HaError> {
        let socket = UdpSocket::bind("127.0.0.1:0")?;
        socket.set_nonblocking(true)?;
        let epoch = server.epoch()?;
        let shards = server.shard_count();
        Ok(Follower {
            server,
            socket,
            primary: None,
            epoch,
            next_stream_seq: 1,
            out_of_order: BTreeMap::new(),
            ready: BTreeMap::new(),
            markers: (0..shards).map(|_| VecDeque::new()).collect(),
            shard_heads: vec![0; shards],
            metrics: FollowerMetrics::new(),
        })
    }

    /// The follower's local socket address (what the shipper targets).
    ///
    /// # Errors
    ///
    /// [`HaError::Io`] when the socket has no local address.
    pub fn local_addr(&self) -> Result<SocketAddr, HaError> {
        Ok(self.socket.local_addr()?)
    }

    /// The standby server, for inspection (stats, global sequence).
    #[must_use]
    pub fn server(&self) -> &NetworkServer {
        &self.server
    }

    /// Stream frames and records received but not yet applied.
    #[must_use]
    pub fn lag(&self) -> u64 {
        (self.out_of_order.len() + self.ready.len()) as u64
    }

    /// The follower's current epoch.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Frames refused so far: stale-epoch frames (the zombie-primary
    /// counter) and frames naming a shard this standby does not have.
    #[must_use]
    pub fn chunks_refused(&self) -> u64 {
        self.metrics.chunks_refused.get()
    }

    /// Announces this follower to a primary's shipper: adopts `primary`
    /// as the ack target and requests a replay from the next stream
    /// sequence this follower still needs.
    ///
    /// # Errors
    ///
    /// [`HaError::Io`] when the datagram cannot be sent.
    pub fn subscribe(&mut self, primary: SocketAddr) -> Result<(), HaError> {
        self.primary = Some(primary);
        let frame = Frame::Subscribe {
            follower_id: 0,
            epoch: self.epoch,
            resume_from: self.next_stream_seq,
        };
        self.socket.send_to(&encode_frame(&frame), primary)?;
        Ok(())
    }

    /// Drains the socket, processes every contiguous stream frame,
    /// applies every record whose global-order turn has come, installs
    /// any snapshot marker whose point has been reached, and acks.
    /// Returns the number of records applied this poll.
    ///
    /// # Errors
    ///
    /// [`HaError::Server`] when the standby refuses a record (the
    /// stream is then poisoned — rebuild the follower);
    /// [`HaError::CorruptRecordRun`] on a malformed chunk payload;
    /// [`HaError::Io`] on socket failure.
    pub fn poll(&mut self) -> Result<u64, HaError> {
        let mut buf = vec![0u8; MAX_DATAGRAM];
        loop {
            match self.socket.recv_from(&mut buf) {
                Ok((len, src)) => {
                    let Ok(frame) = decode_frame(&buf[..len]) else { continue };
                    self.ingest(frame, src)?;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(HaError::Io(e)),
            }
        }
        let applied = self.drain()?;
        if let Some(primary) = self.primary {
            let ack = Frame::Ack { epoch: self.epoch, acked_through: self.next_stream_seq - 1 };
            let _ = self.socket.send_to(&encode_frame(&ack), primary);
        }
        self.metrics.lag.set(self.lag() as f64);
        Ok(applied)
    }

    /// Fails over: durably advances the epoch past everything seen,
    /// announces the handoff to the old primary, and returns the
    /// standby server, now writable.
    ///
    /// Anything not yet applied (stream gaps, out-of-global-order
    /// records) is discarded — those commits were never acknowledged as
    /// applied and die with the old primary, exactly like unreplicated
    /// tail writes in any primary/standby system.
    ///
    /// # Errors
    ///
    /// [`HaError::Server`] when the epoch cannot be advanced durably.
    pub fn promote(self) -> Result<NetworkServer, HaError> {
        let new_epoch = self.epoch + 1;
        self.server.set_epoch(new_epoch)?;
        if let Some(primary) = self.primary {
            let handoff = Frame::EpochHandoff { epoch: new_epoch };
            let _ = self.socket.send_to(&encode_frame(&handoff), primary);
        }
        Ok(self.server)
    }

    /// Routes one decoded frame: refuses a shard index out of range,
    /// epoch-fences, buffers by stream order.
    fn ingest(&mut self, frame: Frame, src: SocketAddr) -> Result<(), HaError> {
        if let Frame::SegmentChunk { shard, .. } | Frame::SnapMark { shard, .. } = &frame {
            // A CRC-valid frame can still carry a forged shard: it would
            // index past the per-shard state in `drain` (a panic) or
            // fail `apply_replicated_record` (a poisoned stream).
            if *shard as usize >= self.markers.len() {
                self.metrics.chunks_refused.inc();
                return Ok(());
            }
        }
        match frame {
            Frame::SegmentChunk { epoch, stream_seq, shard, payload, .. } => {
                if !self.admit(epoch)? {
                    return Ok(());
                }
                self.primary = Some(src);
                if stream_seq >= self.next_stream_seq {
                    self.out_of_order
                        .entry(stream_seq)
                        .or_insert(StreamItem::Chunk { shard: shard as usize, payload });
                }
            }
            Frame::SnapMark {
                epoch,
                stream_seq,
                shard,
                covered_seq,
                global_seq,
                frames_cumulative,
            } => {
                if !self.admit(epoch)? {
                    return Ok(());
                }
                self.primary = Some(src);
                if stream_seq >= self.next_stream_seq {
                    self.out_of_order.entry(stream_seq).or_insert(StreamItem::Mark {
                        shard: shard as usize,
                        marker: Marker { covered_seq, global_seq, frames_cumulative },
                    });
                }
            }
            Frame::Heartbeat { epoch, .. } => {
                if !self.admit(epoch)? {
                    return Ok(());
                }
                self.primary = Some(src);
                self.metrics.heartbeats.inc();
            }
            Frame::EpochHandoff { epoch } => {
                // Another standby won a race to promote: adopt its epoch
                // so the deposed primary is refused here too.
                if epoch > self.epoch {
                    self.server.set_epoch(epoch)?;
                    self.epoch = epoch;
                }
            }
            Frame::Subscribe { .. } | Frame::Ack { .. } => {}
        }
        Ok(())
    }

    /// Epoch admission: refuses stale epochs, adopts newer ones
    /// durably. Returns whether the frame may be processed.
    fn admit(&mut self, epoch: u64) -> Result<bool, HaError> {
        if epoch < self.epoch {
            self.metrics.chunks_refused.inc();
            return Ok(false);
        }
        if epoch > self.epoch {
            self.server.set_epoch(epoch)?;
            self.epoch = epoch;
        }
        Ok(true)
    }

    /// Processes contiguous stream frames, then applies records in
    /// global order, installing snapshot markers as their points are
    /// reached.
    fn drain(&mut self) -> Result<u64, HaError> {
        while let Some(item) = self.out_of_order.remove(&self.next_stream_seq) {
            match item {
                StreamItem::Chunk { shard, payload } => {
                    for record in split_record_run(&payload)? {
                        let global_seq = NetworkServer::peek_replicated_seq(record)?;
                        self.ready.insert(global_seq, (shard, record.to_vec()));
                    }
                }
                StreamItem::Mark { shard, marker } => {
                    self.markers[shard].push_back(marker);
                    self.try_install(shard)?;
                }
            }
            self.next_stream_seq += 1;
        }

        let mut applied = 0u64;
        while let Some(entry) = self.ready.first_entry() {
            let global_seq = *entry.key();
            let expected = self.server.global_seq() + 1;
            if global_seq < expected {
                // Duplicate delivery of an already-applied record.
                entry.remove();
                continue;
            }
            if global_seq > expected {
                break;
            }
            let (shard, record) = entry.remove();
            self.server.apply_replicated_record(shard, &record)?;
            self.shard_heads[shard] += 1;
            applied += 1;
            self.metrics.applied.inc();
            self.try_install(shard)?;
        }
        Ok(applied)
    }

    /// Installs every queued marker whose covered sequence the shard's
    /// WAL head has reached.
    fn try_install(&mut self, shard: usize) -> Result<(), HaError> {
        while let Some(front) = self.markers[shard].front() {
            if front.covered_seq > self.shard_heads[shard] {
                break;
            }
            let marker = self.markers[shard].pop_front().expect("front checked");
            if marker.covered_seq < self.shard_heads[shard] {
                // A duplicate of an already-installed marker.
                continue;
            }
            self.server.install_replica_snapshot(
                shard,
                marker.covered_seq,
                marker.global_seq,
                &marker.frames_cumulative,
            )?;
            self.metrics.snapshots_installed.inc();
        }
        Ok(())
    }
}
