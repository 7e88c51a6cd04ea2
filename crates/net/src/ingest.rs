//! The pipelined ingest machinery: pooled group reassembly and the
//! off-thread commit handoff.
//!
//! The listener used to commit batches synchronously on its poll thread,
//! so every gateway waiting for an ack also waited for
//! `NetworkServer::process_batch` — the p99 ingest tail. This module
//! splits the path in two along a bounded SPSC ring
//! ([`softlora_runtime::ring`]):
//!
//! * the **poll side** ([`Reassembler`]) files wire copies into a
//!   sliding window of pending groups, keyed by uplink id, and drains
//!   watermark-released groups in strict ascending order;
//! * the **commit side** ([`CommitPipe`]) owns a dedicated worker thread
//!   that pops released groups off the handoff ring and drives a
//!   [`CommitSink`] (the sharded server tail in production, a stub in
//!   tests), publishing the committed watermark back through a shared
//!   atomic so acks can carry it.
//!
//! Admission is two commit quanta deep, and the quantum is sized to the
//! sink's fan-out. A [`CommitSink`] reports how many workers one
//! [`CommitSink::commit`] call spreads its groups over (the server's DSP
//! arena count), and [`commit_quantum`] turns that width into the most
//! groups one call commits: four per worker, so every arena gets work
//! without a group queueing behind other groups' DSP, capped at
//! [`MAX_COMMIT_QUANTUM`]. The worker pops at most one quantum per call
//! and [`CommitPipe::offer`] treats two quanta in the
//! [`HANDOFF_CAPACITY`]-slot ring as full, so at most three quanta are
//! offered but not yet committed: 24 groups on a 2-arena server. By
//! Little's law a group then waits at most that many groups divided by
//! the commit throughput between handoff and commit: ≈ 8 ms at 3000
//! groups/s. A full ring stalls the poll thread, which
//! parks until the worker frees a quantum (counted, never unbounded
//! memory), so the excess waits in the senders' unacked windows instead
//! of in the server. A commit failure abandons the ring so the poll
//! thread's offers degrade to counted drops instead of wedging the socket
//! loop. Committed groups
//! flow back through a second **recycle ring**, so the warm path —
//! stash, drain, hand off, commit, recycle — allocates nothing per
//! group (pinned by `crates/bench/tests/zero_alloc_ingest.rs`).
//!
//! Commit order — and therefore every verdict, statistic and persisted
//! byte — is identical to handing the same stream to `process_batch`
//! in-process: the poll side releases groups in ascending uplink order,
//! the SPSC ring preserves it, and batch boundaries don't affect results
//! (the server's sub-batch ≡ big-batch invariance).

use crate::NetError;
use softlora::ServerVerdict;
use softlora_runtime::ring::{channel, Consumer, PopRing, Producer};
use softlora_sim::{FleetDelivery, UplinkDeliveries};
use softlora_telemetry::{Counter, Gauge, Histogram};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

/// Handoff/recycle ring capacity (groups in flight between the poll
/// thread and the commit worker): the ceiling on two commit quanta, one
/// being filled while the worker commits the other.
pub const HANDOFF_CAPACITY: usize = 128;

/// The largest commit quantum, whatever the sink's width: two of them
/// fill the handoff ring.
pub const MAX_COMMIT_QUANTUM: usize = HANDOFF_CAPACITY / 2;

/// Groups per commit call for a sink fanning each call out over `width`
/// workers: four per worker, capped at [`MAX_COMMIT_QUANTUM`]. Fewer
/// leaves workers idle at the join; more only lengthens the queue a
/// group waits in before its own DSP starts.
pub fn commit_quantum(width: usize) -> usize {
    (4 * width.max(1)).min(MAX_COMMIT_QUANTUM)
}

/// How long either side of the pipe parks before re-checking the ring:
/// the commit worker on an empty ring, the poll thread on a full one.
/// Bounds the wake race exactly like the scheduler's park timeout.
const WORKER_PARK: Duration = Duration::from_micros(200);

/// Wire metadata of one uplink copy, already decoded out of its
/// `PUSH_DATA` frame.
#[derive(Debug, Clone, Copy)]
pub struct CopyHeader {
    /// Global uplink id of the group this copy belongs to.
    pub uplink: u64,
    /// Transmitting device address.
    pub dev_addr: u32,
    /// Global transmission start time, seconds.
    pub tx_start_global_s: f64,
    /// Frame air time, seconds.
    pub airtime_s: f64,
    /// Copies the whole fleet observed for this uplink.
    pub copies_total: u16,
    /// This copy's position inside the group.
    pub copy_index: u16,
}

/// Where a stashed copy ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stash {
    /// Filed into its group (or created the group / registered an
    /// empty-group marker).
    Filed,
    /// The group was already drained — a late copy.
    Stale,
    /// The copy's slot was already filled (duplicate across datagrams).
    DuplicateCopy,
    /// `copy_index` outside the announced `copies_total` range.
    BadCopyIndex,
    /// The uplink id is further ahead of the window base than the
    /// pending bound allows — rejected so a hostile or corrupt id can't
    /// balloon the window.
    FarFuture,
}

/// What one [`Reassembler::drain_ready`] pass released.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DrainTally {
    /// Groups moved into the output batch.
    pub emitted: usize,
    /// Of those, groups forced out before all copies arrived.
    pub incomplete: usize,
}

/// Reassembly state of one uplink group.
struct PendingGroup {
    dev_addr: u32,
    tx_start_global_s: f64,
    airtime_s: f64,
    copies_total: u16,
    /// Slots indexed by `copy_index`; filled as copies arrive. The
    /// vector shell is pooled across groups.
    copies: Vec<Option<FleetDelivery>>,
    received: u16,
}

impl PendingGroup {
    fn is_complete(&self) -> bool {
        self.received == self.copies_total
    }
}

/// One window position: a group under reassembly, or a hole (an id
/// between observed ids that no copy has arrived for yet). Holes carry
/// the same straggler clock as groups, so a front hole can't gate the
/// window forever.
struct Slot {
    first_seen: Instant,
    group: Option<PendingGroup>,
}

/// The poll-side reassembly window; see the module docs.
///
/// Groups are keyed by uplink id over a contiguous sliding window
/// (`VecDeque` + base id) instead of a map, so the hot path is an index
/// computation and both group shells and emitted [`UplinkDeliveries`]
/// are pooled — nothing allocates per group once warm.
pub struct Reassembler {
    window: VecDeque<Slot>,
    /// Uplink id of `window[0]` (meaningful while the window is
    /// non-empty).
    front_id: u64,
    /// Ids strictly below this are drained; late copies for them are
    /// stale.
    base: u64,
    /// Slots currently holding a group (the window may also hold holes).
    occupied: usize,
    /// Groups force-released by overload eviction (the window was full
    /// and a newer id needed room). They are strictly older than
    /// everything still in the window and leave with the next
    /// [`Reassembler::drain_ready`], ahead of it, preserving ascending
    /// commit order.
    spill: Vec<UplinkDeliveries>,
    /// How many spilled groups were incomplete when evicted.
    spill_incomplete: usize,
    /// Pooled copy-slot vectors, reused across groups.
    shell_pool: Vec<Vec<Option<FleetDelivery>>>,
    /// Pooled emitted groups, refilled via [`Reassembler::recycle`].
    group_pool: Vec<UplinkDeliveries>,
    straggler_timeout: Duration,
    max_pending: usize,
}

impl Reassembler {
    /// A window forcing out groups older than `straggler_timeout` and
    /// holding at most `max_pending` window positions. An id that needs
    /// a position past a full window force-releases the oldest slots to
    /// make room (overload); ids more than twice `max_pending` ahead of
    /// the front — or more than `max_pending` ahead of the base when the
    /// window is empty — are rejected as hostile/corrupt.
    pub fn new(straggler_timeout: Duration, max_pending: usize) -> Self {
        Reassembler {
            window: VecDeque::new(),
            front_id: 0,
            base: 0,
            occupied: 0,
            spill: Vec::new(),
            spill_incomplete: 0,
            shell_pool: Vec::new(),
            group_pool: Vec::new(),
            straggler_timeout,
            max_pending: max_pending.max(1),
        }
    }

    /// Groups currently under reassembly.
    pub fn pending_len(&self) -> usize {
        self.occupied
    }

    /// Files one wire copy. `copy` is `None` for an empty-group marker
    /// (the group entry itself is the information).
    pub fn stash(&mut self, header: &CopyHeader, copy: Option<FleetDelivery>) -> Stash {
        let id = header.uplink;
        if id < self.base {
            return Stash::Stale;
        }
        let index = if self.window.is_empty() {
            // Same bound as the non-empty offset check: a forged or
            // corrupt id arbitrarily far ahead must not seed the window,
            // or every legitimate smaller id would be rejected until the
            // straggler timeout jumps the base past them all — a
            // permanent ingest DoS from one datagram.
            if id.saturating_sub(self.base) >= self.max_pending as u64 {
                return Stash::FarFuture;
            }
            self.front_id = id;
            self.push_back_slot();
            0
        } else if id < self.front_id {
            // Extend at the front: new holes down to `id` inherit the
            // straggler clock from now, like any other window position.
            let gap = (self.front_id - id) as usize;
            if self.window.len() + gap > self.max_pending {
                return Stash::FarFuture;
            }
            let now = Instant::now();
            for _ in 0..gap {
                self.window.push_front(Slot { first_seen: now, group: None });
            }
            self.front_id = id;
            0
        } else {
            let mut offset = id - self.front_id;
            // Hard hostile-id bound: overload can push ids up to one
            // window past the front (absorbed by evicting the oldest),
            // but anything further is a forged or corrupt id — reject it
            // before it can flush the whole window.
            if offset >= (self.max_pending as u64).saturating_mul(2) {
                return Stash::FarFuture;
            }
            if offset >= self.max_pending as u64 {
                // The window is full up to this id's position: force-
                // release the oldest slots (documented overload behavior
                // — evicted groups commit with the copies that arrived)
                // rather than dropping an already-acked copy.
                let excess = offset - self.max_pending as u64 + 1;
                for _ in 0..excess.min(self.window.len() as u64) {
                    self.evict_front();
                }
                if self.window.is_empty() {
                    self.front_id = id;
                    self.push_back_slot();
                    offset = 0;
                } else {
                    offset = id - self.front_id;
                }
            }
            let offset = offset as usize;
            while self.window.len() <= offset {
                self.push_back_slot();
            }
            offset
        };
        let slot = &mut self.window[index];
        let group = match &mut slot.group {
            Some(group) => group,
            empty @ None => {
                self.occupied += 1;
                let mut copies = self.shell_pool.pop().unwrap_or_default();
                copies.clear();
                copies.extend((0..usize::from(header.copies_total)).map(|_| None));
                empty.insert(PendingGroup {
                    dev_addr: header.dev_addr,
                    tx_start_global_s: header.tx_start_global_s,
                    airtime_s: header.airtime_s,
                    copies_total: header.copies_total,
                    copies,
                    received: 0,
                })
            }
        };
        let Some(copy) = copy else {
            return Stash::Filed;
        };
        match group.copies.get_mut(usize::from(header.copy_index)) {
            Some(cell @ None) => {
                *cell = Some(copy);
                group.received += 1;
                Stash::Filed
            }
            Some(Some(_)) => Stash::DuplicateCopy,
            None => Stash::BadCopyIndex,
        }
    }

    fn push_back_slot(&mut self) {
        self.window.push_back(Slot { first_seen: Instant::now(), group: None });
    }

    /// Force-releases the oldest window position into the spill buffer
    /// (overload eviction). A hole releases silently, like in
    /// [`Reassembler::drain_ready`].
    fn evict_front(&mut self) {
        let Some(slot) = self.window.pop_front() else { return };
        let id = self.front_id;
        self.front_id = self.front_id.saturating_add(1);
        self.base = self.front_id;
        if let Some(group) = slot.group {
            self.occupied -= 1;
            if !group.is_complete() {
                self.spill_incomplete += 1;
            }
            let emitted = self.emit(id, group);
            self.spill.push(emitted);
        }
    }

    /// Groups force-released by overload eviction, waiting for the next
    /// [`Reassembler::drain_ready`] to carry them out.
    pub fn spilled_len(&self) -> usize {
        self.spill.len()
    }

    /// Groups releasable right now under the fleet `barrier` (the
    /// minimum gateway watermark): complete groups strictly below it, in
    /// ascending order, up to the first incomplete one. Holes below the
    /// barrier can never fill (the watermark promise) and don't gate.
    pub fn ready_count(&self, barrier: Option<u64>) -> usize {
        let Some(barrier) = barrier else { return 0 };
        let mut n = 0;
        for (k, slot) in self.window.iter().enumerate() {
            if self.front_id.saturating_add(k as u64) >= barrier {
                break;
            }
            match &slot.group {
                None => continue,
                Some(group) if group.is_complete() => n += 1,
                Some(_) => break,
            }
        }
        n
    }

    /// Releases every group that is safe to commit, in strict ascending
    /// uplink order, into `out`. `drain` (shutdown) releases the whole
    /// window regardless of watermarks. Groups older than the straggler
    /// timeout — and groups evicted because the window was full — are
    /// forced out with the copies that arrived.
    pub fn drain_ready(
        &mut self,
        barrier: Option<u64>,
        drain: bool,
        out: &mut Vec<UplinkDeliveries>,
    ) -> DrainTally {
        let mut tally = DrainTally::default();
        // Overload evictions first: they are strictly older than the
        // window, so ascending commit order is preserved.
        tally.emitted += self.spill.len();
        tally.incomplete += self.spill_incomplete;
        self.spill_incomplete = 0;
        out.append(&mut self.spill);
        while let Some(front) = self.window.front() {
            let id = self.front_id;
            let ready = barrier.is_some_and(|b| id < b);
            let expired = drain || front.first_seen.elapsed() >= self.straggler_timeout;
            let hole = front.group.is_none();
            let complete = front.group.as_ref().is_some_and(PendingGroup::is_complete);
            if (ready && (complete || hole)) || expired {
                let slot = self.window.pop_front().expect("front checked");
                self.front_id = self.front_id.saturating_add(1);
                self.base = self.front_id;
                if let Some(group) = slot.group {
                    self.occupied -= 1;
                    if !group.is_complete() {
                        tally.incomplete += 1;
                    }
                    out.push(self.emit(id, group));
                    tally.emitted += 1;
                }
                // A hole releases silently: no copy ever arrived for the
                // id, so there is nothing to commit (matching the old
                // map-keyed reassembly, where the id simply never
                // existed).
            } else {
                // Strict ascending commit order: the oldest pending group
                // gates everything behind it.
                break;
            }
        }
        tally
    }

    /// Turns a finished group into a (pooled) `UplinkDeliveries`,
    /// returning its copy-slot shell to the pool.
    fn emit(&mut self, uplink: u64, mut group: PendingGroup) -> UplinkDeliveries {
        let mut out = self.group_pool.pop().unwrap_or_else(|| UplinkDeliveries {
            uplink: 0,
            dev_addr: 0,
            tx_start_global_s: 0.0,
            airtime_s: 0.0,
            copies: Vec::new(),
        });
        out.uplink = uplink;
        out.dev_addr = group.dev_addr;
        out.tx_start_global_s = group.tx_start_global_s;
        out.airtime_s = group.airtime_s;
        out.copies.clear();
        out.copies.extend(group.copies.drain(..).flatten());
        self.shell_pool.push(group.copies);
        out
    }

    /// Returns an emitted group to the pool once the commit side is done
    /// with it (delivered back through the recycle ring).
    pub fn recycle(&mut self, mut group: UplinkDeliveries) {
        group.copies.clear();
        self.group_pool.push(group);
    }
}

/// Commits batches of released groups — the seam between the handoff
/// machinery and the server tail.
pub trait CommitSink: Send {
    /// Commits `groups` (ascending uplink order), appending one verdict
    /// per group to `verdicts`.
    ///
    /// # Errors
    ///
    /// An infrastructure failure; the pipe's worker stops and surfaces
    /// it at [`CommitPipe::finish`].
    fn commit(
        &mut self,
        groups: &[UplinkDeliveries],
        verdicts: &mut Vec<ServerVerdict>,
    ) -> Result<(), NetError>;

    /// How many workers one [`CommitSink::commit`] call spreads its
    /// groups over; the pipe sizes its quantum from it
    /// ([`commit_quantum`]). A sink that commits on the calling thread
    /// alone keeps the default of one.
    fn width(&self) -> usize {
        1
    }
}

/// The production sink: a shared [`softlora::NetworkServer`] driven via
/// `process_batch`. The mutex is held only inside `commit`; the poll
/// thread takes it only for rare stats/role queries.
pub struct ServerSink(
    /// The shared server tail.
    pub Arc<std::sync::Mutex<softlora::NetworkServer>>,
);

impl CommitSink for ServerSink {
    fn commit(
        &mut self,
        groups: &[UplinkDeliveries],
        verdicts: &mut Vec<ServerVerdict>,
    ) -> Result<(), NetError> {
        let mut server = self.0.lock().expect("network server poisoned");
        verdicts.extend(server.process_batch(groups)?);
        Ok(())
    }

    fn width(&self) -> usize {
        self.0.lock().expect("network server poisoned").fan_out_width()
    }
}

/// Telemetry handles the pipe updates; resolve them once (registration
/// may allocate) and hand them in.
pub struct CommitTelemetry {
    /// `net_batches_total`-style counter: commit batches driven.
    pub batches: Counter,
    /// Groups committed.
    pub groups_committed: Counter,
    /// `net_commit_queue_depth`: handoff-ring occupancy.
    pub queue_depth: Gauge,
    /// `net_commit_batch_size`: groups per commit batch.
    pub batch_size: Histogram,
    /// `net_commit_stalls_total`: bounded poll-thread stalls on a full
    /// handoff ring.
    pub stalls: Counter,
}

/// What the commit worker accumulated over its lifetime.
#[derive(Debug, Default)]
pub struct CommitLog {
    /// Every committed `(uplink id, verdict)`, in commit order (empty
    /// unless verdict recording was requested).
    pub verdicts: Vec<(u64, ServerVerdict)>,
}

/// Poll-side handle to the commit worker; see the module docs.
pub struct CommitPipe {
    tx: Producer<UplinkDeliveries, HANDOFF_CAPACITY>,
    recycled: Consumer<UplinkDeliveries, HANDOFF_CAPACITY>,
    worker: thread::JoinHandle<Result<CommitLog, NetError>>,
    worker_thread: Thread,
    /// One past the highest committed uplink id; 0 = nothing committed.
    committed: Arc<AtomicU64>,
    /// The poll thread, while it is parked on a full ring; the worker
    /// takes and unparks it after each pop.
    stalled: Arc<Mutex<Option<Thread>>>,
    /// Most groups one commit call takes; two of them fill the ring.
    quantum: usize,
    queue_depth: Gauge,
    stalls: Counter,
}

impl CommitPipe {
    /// Spawns the commit worker around `sink`; it commits batches of at
    /// most [`commit_quantum`] of the sink's [`CommitSink::width`]
    /// groups. `record_verdicts` keeps `(uplink, verdict)` pairs in the
    /// final [`CommitLog`].
    pub fn spawn<S: CommitSink + 'static>(
        sink: S,
        record_verdicts: bool,
        telemetry: CommitTelemetry,
    ) -> Self {
        let quantum = commit_quantum(sink.width());
        let (tx, rx) = channel::<UplinkDeliveries, HANDOFF_CAPACITY>();
        let (recycle_tx, recycled) = channel::<UplinkDeliveries, HANDOFF_CAPACITY>();
        let committed = Arc::new(AtomicU64::new(0));
        let stalled = Arc::new(Mutex::new(None));
        let queue_depth = telemetry.queue_depth.clone();
        let stalls = telemetry.stalls.clone();
        let (worker_committed, worker_stalled) = (Arc::clone(&committed), Arc::clone(&stalled));
        let worker = thread::Builder::new()
            .name("softlora-commit".into())
            .spawn(move || {
                commit_worker(
                    rx,
                    recycle_tx,
                    sink,
                    worker_committed,
                    worker_stalled,
                    quantum,
                    record_verdicts,
                    telemetry,
                )
            })
            .expect("spawn commit worker");
        let worker_thread = worker.thread().clone();
        CommitPipe {
            tx,
            recycled,
            worker,
            worker_thread,
            committed,
            stalled,
            quantum,
            queue_depth,
            stalls,
        }
    }

    /// Most groups the worker commits per call: the listener releases
    /// groups as soon as this many are ready.
    pub fn quantum(&self) -> usize {
        self.quantum
    }

    /// One past the highest committed uplink id (0 = nothing yet) — what
    /// acks carry back to gateways.
    pub fn committed(&self) -> u64 {
        self.committed.load(Ordering::Acquire)
    }

    /// Hands one released group to the commit worker. With two quanta
    /// already queued the ring counts as full: the calling thread parks
    /// until the worker pops its next quantum (counted once in
    /// `net_commit_stalls_total`). If the worker died on a commit error
    /// the ring is abandoned and the group is dropped — the error itself
    /// surfaces at [`CommitPipe::finish`].
    pub fn offer(&mut self, group: UplinkDeliveries) {
        let full = 2 * self.quantum;
        if self.tx.len() >= full {
            self.stalls.inc();
            // Register before the retry: a pop that the retry misses
            // happens after the registration, so it unparks this thread.
            *self.stalled.lock().expect(STALLED_POISONED) = Some(thread::current());
            self.worker_thread.unpark();
            while self.tx.len() >= full {
                thread::park_timeout(WORKER_PARK);
            }
            self.stalled.lock().expect(STALLED_POISONED).take();
        }
        // Only this thread pushes, so the ring still holds fewer than two
        // quanta, and they fit its capacity; an abandoned ring reads empty
        // and swallows the push.
        if self.tx.push(group).is_err() {
            unreachable!("a ring below two quanta has a free slot");
        }
        self.queue_depth.set(self.tx.len() as f64);
    }

    /// Wakes the worker after a run of offers.
    pub fn kick(&self) {
        self.worker_thread.unpark();
    }

    /// Whether the commit worker has exited (only before
    /// [`CommitPipe::finish`] on a commit failure) — the watermark will
    /// never advance again, so waits on it must stop.
    pub fn worker_finished(&self) -> bool {
        self.worker.is_finished()
    }

    /// A group the worker finished with, ready for
    /// [`Reassembler::recycle`].
    pub fn pop_recycled(&mut self) -> Option<UplinkDeliveries> {
        self.recycled.try_pop()
    }

    /// Closes the handoff ring, drains the worker and returns its log.
    ///
    /// # Errors
    ///
    /// The commit failure that stopped the worker, if any.
    pub fn finish(mut self) -> Result<CommitLog, NetError> {
        self.tx.close();
        self.worker_thread.unpark();
        self.worker.join().expect("commit worker panicked")
    }
}

impl std::fmt::Debug for CommitPipe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommitPipe").field("committed", &self.committed()).finish()
    }
}

/// A lock on the stalled-thread slot is held only to store or take a
/// handle, so poisoning means a bug in this module.
const STALLED_POISONED: &str = "commit pipe stall slot poisoned";

/// The dedicated commit thread: pop a quantum, wake a stalled poll thread,
/// drive the sink, publish the watermark, recycle the shells.
#[allow(clippy::too_many_arguments)]
fn commit_worker<S: CommitSink>(
    mut rx: Consumer<UplinkDeliveries, HANDOFF_CAPACITY>,
    mut recycle_tx: Producer<UplinkDeliveries, HANDOFF_CAPACITY>,
    mut sink: S,
    committed: Arc<AtomicU64>,
    stalled: Arc<Mutex<Option<Thread>>>,
    quantum: usize,
    record_verdicts: bool,
    telemetry: CommitTelemetry,
) -> Result<CommitLog, NetError> {
    let mut batch: Vec<UplinkDeliveries> = Vec::with_capacity(quantum);
    let mut verdicts: Vec<ServerVerdict> = Vec::new();
    let mut log = CommitLog::default();
    loop {
        batch.clear();
        if rx.pop_batch(&mut batch, quantum) == 0 {
            if rx.is_finished() {
                break;
            }
            thread::park_timeout(WORKER_PARK);
            continue;
        }
        if let Some(poll) = stalled.lock().expect(STALLED_POISONED).take() {
            poll.unpark();
        }
        telemetry.queue_depth.set(rx.len() as f64);
        verdicts.clear();
        if let Err(e) = sink.commit(&batch, &mut verdicts) {
            // Release the poll thread forever: its offers become counted
            // drops instead of stalls against a dead worker. The error
            // itself surfaces when the pipe is finished.
            rx.abandon();
            return Err(e);
        }
        telemetry.batches.inc();
        telemetry.groups_committed.add(batch.len() as u64);
        telemetry.batch_size.record(batch.len() as u64);
        if let Some(last) = batch.last() {
            committed.store(last.uplink.saturating_add(1), Ordering::Release);
        }
        if record_verdicts {
            for (group, verdict) in batch.iter().zip(verdicts.drain(..)) {
                log.verdicts.push((group.uplink, verdict));
            }
        }
        // Best-effort recycling: a full recycle ring just means the poll
        // side is not reclaiming — drop the overflow normally.
        for group in batch.drain(..) {
            if recycle_tx.push(group).is_err() {
                break;
            }
        }
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softlora_phy::SpreadingFactor;
    use softlora_sim::Delivery;

    fn header(uplink: u64, copies_total: u16, copy_index: u16) -> CopyHeader {
        CopyHeader {
            uplink,
            dev_addr: 7,
            tx_start_global_s: uplink as f64,
            airtime_s: 0.05,
            copies_total,
            copy_index,
        }
    }

    fn copy(gateway: usize) -> FleetDelivery {
        FleetDelivery {
            gateway,
            delivery: Delivery {
                bytes: vec![1, 2, 3],
                dev_addr: 7,
                arrival_global_s: 0.0,
                snr_db: -5.0,
                carrier_bias_hz: 0.0,
                carrier_phase: 0.0,
                sf: SpreadingFactor::Sf7,
                jamming: None,
                is_replay: false,
            },
        }
    }

    fn telemetry() -> CommitTelemetry {
        let registry = softlora_telemetry::global();
        CommitTelemetry {
            batches: registry.counter("test_ingest_batches"),
            groups_committed: registry.counter("test_ingest_groups"),
            queue_depth: registry.gauge_with("test_ingest_depth", &[]),
            batch_size: registry.histogram_with("test_ingest_batch_size", &[]),
            stalls: registry.counter("test_ingest_stalls"),
        }
    }

    #[test]
    fn reassembles_out_of_order_copies_in_ascending_order() {
        let mut r = Reassembler::new(Duration::from_secs(60), 1024);
        // Copies arrive scrambled across two groups.
        assert_eq!(r.stash(&header(1, 2, 1), Some(copy(3))), Stash::Filed);
        assert_eq!(r.stash(&header(0, 1, 0), Some(copy(0))), Stash::Filed);
        assert_eq!(r.stash(&header(1, 2, 0), Some(copy(2))), Stash::Filed);
        assert_eq!(r.pending_len(), 2);
        assert_eq!(r.ready_count(Some(2)), 2);
        let mut out = Vec::new();
        let tally = r.drain_ready(Some(2), false, &mut out);
        assert_eq!(tally, DrainTally { emitted: 2, incomplete: 0 });
        assert_eq!(out[0].uplink, 0);
        assert_eq!(out[1].uplink, 1);
        assert_eq!(out[1].copies.len(), 2);
        assert_eq!(out[1].copies[0].gateway, 2, "internal copy order restored");
        assert_eq!(out[1].copies[1].gateway, 3);
        // A late copy for a drained group is stale.
        assert_eq!(r.stash(&header(0, 1, 0), Some(copy(0))), Stash::Stale);
    }

    #[test]
    fn incomplete_group_gates_until_barrier_or_timeout() {
        let mut r = Reassembler::new(Duration::from_secs(60), 1024);
        r.stash(&header(0, 2, 0), Some(copy(0)));
        r.stash(&header(1, 1, 0), Some(copy(1)));
        assert_eq!(r.ready_count(Some(2)), 0, "incomplete front group gates");
        let mut out = Vec::new();
        assert_eq!(r.drain_ready(Some(2), false, &mut out), DrainTally::default());
        // Shutdown drain forces both out, counting the incomplete one.
        let tally = r.drain_ready(None, true, &mut out);
        assert_eq!(tally, DrainTally { emitted: 2, incomplete: 1 });
        assert_eq!(out[0].copies.len(), 1);
    }

    #[test]
    fn holes_below_the_barrier_release_silently() {
        let mut r = Reassembler::new(Duration::from_secs(60), 1024);
        r.stash(&header(0, 1, 0), Some(copy(0)));
        r.stash(&header(2, 1, 0), Some(copy(1)));
        // Uplink 1 never arrives; the watermark promises it never will.
        assert_eq!(r.ready_count(Some(3)), 2);
        let mut out = Vec::new();
        let tally = r.drain_ready(Some(3), false, &mut out);
        assert_eq!(tally.emitted, 2);
        assert_eq!(out.iter().map(|g| g.uplink).collect::<Vec<_>>(), vec![0, 2]);
        assert_eq!(r.stash(&header(1, 1, 0), Some(copy(9))), Stash::Stale);
    }

    #[test]
    fn duplicate_and_bad_index_copies_rejected() {
        let mut r = Reassembler::new(Duration::from_secs(60), 1024);
        assert_eq!(r.stash(&header(0, 2, 0), Some(copy(0))), Stash::Filed);
        assert_eq!(r.stash(&header(0, 2, 0), Some(copy(0))), Stash::DuplicateCopy);
        assert_eq!(r.stash(&header(0, 2, 5), Some(copy(0))), Stash::BadCopyIndex);
        assert_eq!(r.stash(&header(1 << 40, 1, 0), Some(copy(0))), Stash::FarFuture);
    }

    #[test]
    fn forged_far_future_id_on_empty_window_is_rejected() {
        let mut r = Reassembler::new(Duration::from_secs(60), 8);
        // A single forged datagram with a huge uplink id must not seed
        // the window (it would FarFuture-reject every legitimate smaller
        // id, then jump the base past them forever).
        assert_eq!(r.stash(&header(1 << 60, 1, 0), Some(copy(0))), Stash::FarFuture);
        assert_eq!(r.stash(&header(u64::MAX, 1, 0), Some(copy(0))), Stash::FarFuture);
        // Legitimate ingest is untouched afterwards.
        assert_eq!(r.stash(&header(0, 1, 0), Some(copy(0))), Stash::Filed);
        let mut out = Vec::new();
        assert_eq!(r.drain_ready(Some(1), false, &mut out).emitted, 1);
        assert_eq!(out[0].uplink, 0);
        // Rejection also applies relative to the advanced base.
        assert_eq!(r.stash(&header(1 + 8, 1, 0), Some(copy(0))), Stash::FarFuture);
        assert_eq!(r.stash(&header(1, 1, 0), Some(copy(0))), Stash::Filed);
    }

    #[test]
    fn full_window_force_releases_oldest_groups() {
        let mut r = Reassembler::new(Duration::from_secs(60), 4);
        // Fill the window; group 0 stays incomplete.
        r.stash(&header(0, 2, 0), Some(copy(0)));
        for id in 1..4 {
            r.stash(&header(id, 1, 0), Some(copy(0)));
        }
        assert_eq!(r.pending_len(), 4);
        // Id 5 needs a position two past the window end: the two oldest
        // groups are force-released (documented overload behavior), not
        // the new already-acked copy dropped.
        assert_eq!(r.stash(&header(5, 1, 0), Some(copy(0))), Stash::Filed);
        assert_eq!(r.spilled_len(), 2);
        let mut out = Vec::new();
        let tally = r.drain_ready(None, false, &mut out);
        assert_eq!(tally, DrainTally { emitted: 2, incomplete: 1 });
        assert_eq!(out.iter().map(|g| g.uplink).collect::<Vec<_>>(), vec![0, 1]);
        // Evicted ids are drained: late copies for them are stale.
        assert_eq!(r.stash(&header(0, 2, 1), Some(copy(1))), Stash::Stale);
        // The rest of the window still commits in ascending order.
        let tally = r.drain_ready(Some(6), false, &mut out);
        assert_eq!(tally, DrainTally { emitted: 3, incomplete: 0 });
        assert_eq!(out.iter().map(|g| g.uplink).collect::<Vec<_>>(), vec![0, 1, 2, 3, 5]);
        // Ids past one full window beyond the front stay rejected, so a
        // forged id cannot flush the whole window at once.
        r.stash(&header(6, 1, 0), Some(copy(0)));
        assert_eq!(r.stash(&header(6 + 8, 1, 0), Some(copy(0))), Stash::FarFuture);
        assert_eq!(r.pending_len(), 1, "rejected id did not evict anything");
    }

    #[test]
    fn recycled_groups_are_reused() {
        let mut r = Reassembler::new(Duration::from_secs(60), 1024);
        r.stash(&header(0, 1, 0), Some(copy(0)));
        let mut out = Vec::new();
        r.drain_ready(Some(1), false, &mut out);
        let mut group = out.pop().unwrap();
        group.copies.clear();
        let shell_ptr = group.copies.as_ptr();
        r.recycle(group);
        r.stash(&header(1, 1, 0), Some(copy(0)));
        r.drain_ready(Some(2), false, &mut out);
        assert_eq!(out[0].uplink, 1);
        assert_eq!(out[0].copies.as_ptr(), shell_ptr, "pooled group shell reused");
    }

    /// A counting stub sink: the pipe's ordering/watermark contract
    /// without a server tail.
    struct CountingSink {
        committed: Vec<u64>,
        fail_at: Option<u64>,
    }

    impl CommitSink for CountingSink {
        fn commit(
            &mut self,
            groups: &[UplinkDeliveries],
            _verdicts: &mut Vec<ServerVerdict>,
        ) -> Result<(), NetError> {
            for g in groups {
                if self.fail_at == Some(g.uplink) {
                    return Err(NetError::TooShort { len: 0 });
                }
                self.committed.push(g.uplink);
            }
            Ok(())
        }
    }

    fn group(uplink: u64) -> UplinkDeliveries {
        UplinkDeliveries {
            uplink,
            dev_addr: 7,
            tx_start_global_s: uplink as f64,
            airtime_s: 0.05,
            copies: vec![copy(0)],
        }
    }

    #[test]
    fn pipe_commits_in_order_and_publishes_watermark() {
        let mut pipe = CommitPipe::spawn(
            CountingSink { committed: Vec::new(), fail_at: None },
            false,
            telemetry(),
        );
        assert_eq!(pipe.committed(), 0);
        for uplink in 0..200 {
            pipe.offer(group(uplink));
        }
        pipe.kick();
        // The watermark reaches one past the last committed id.
        let deadline = Instant::now() + Duration::from_secs(5);
        while pipe.committed() < 200 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(pipe.committed(), 200);
        let recycled = std::iter::from_fn(|| pipe.pop_recycled()).count();
        assert!(recycled > 0, "committed groups flow back for reuse");
        pipe.finish().expect("no commit failure");
    }

    #[test]
    fn pipe_surfaces_commit_failure_without_wedging_offers() {
        let mut pipe = CommitPipe::spawn(
            CountingSink { committed: Vec::new(), fail_at: Some(5) },
            false,
            telemetry(),
        );
        // Far more groups than the ring holds: once the worker dies the
        // ring is abandoned, so every offer still returns promptly.
        for uplink in 0..(HANDOFF_CAPACITY as u64 + 500) {
            pipe.offer(group(uplink));
        }
        let err = pipe.finish().expect_err("sink failure surfaces");
        assert!(matches!(err, NetError::TooShort { .. }));
    }

    /// A stub sink slower than the offers: it sleeps per group and
    /// records every batch's size. It reports two workers, so the pipe
    /// runs at the quantum of a 2-arena server.
    struct SlowSink {
        per_group: Duration,
        batch_sizes: Arc<Mutex<Vec<usize>>>,
    }

    impl CommitSink for SlowSink {
        fn commit(
            &mut self,
            groups: &[UplinkDeliveries],
            _verdicts: &mut Vec<ServerVerdict>,
        ) -> Result<(), NetError> {
            thread::sleep(self.per_group * groups.len() as u32);
            self.batch_sizes.lock().unwrap().push(groups.len());
            Ok(())
        }

        fn width(&self) -> usize {
            2
        }
    }

    #[test]
    fn quantum_is_four_groups_per_worker_up_to_the_ceiling() {
        for (width, quantum) in [(0, 4), (1, 4), (2, 8), (16, 64), (64, 64)] {
            assert_eq!(commit_quantum(width), quantum, "width {width}");
        }
    }

    #[test]
    fn admission_is_bounded_by_two_commit_batches() {
        let batch_sizes = Arc::new(Mutex::new(Vec::new()));
        let sink = SlowSink {
            per_group: Duration::from_micros(100),
            batch_sizes: Arc::clone(&batch_sizes),
        };
        let mut pipe = CommitPipe::spawn(sink, false, telemetry());
        let quantum = pipe.quantum();
        assert_eq!(quantum, commit_quantum(2));
        let total = 4 * HANDOFF_CAPACITY as u64;
        let mut peak_in_flight = 0;
        for uplink in 0..total {
            pipe.offer(group(uplink));
            peak_in_flight = peak_in_flight.max(uplink + 1 - pipe.committed());
        }
        pipe.finish().expect("no commit failure");
        // The ring admits two quanta and the worker holds one more,
        // popped but not yet committed; nothing else can be in flight.
        let bound = 3 * quantum as u64;
        assert!(peak_in_flight <= bound, "{peak_in_flight} groups in flight, bound {bound}");
        assert!(peak_in_flight > 2 * quantum as u64, "the sink never fell behind");
        let batch_sizes = batch_sizes.lock().unwrap();
        assert!(batch_sizes.iter().all(|&n| n <= quantum), "{batch_sizes:?}");
        assert_eq!(batch_sizes.iter().sum::<usize>() as u64, total);
    }
}
