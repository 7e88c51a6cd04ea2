//! The gateway + network-server stack as streaming flowgraph blocks.
//!
//! [`NetworkServer::into_streaming`] splits a built server into the
//! blocks of an always-on flowgraph with a **sequential** tail:
//!
//! ```text
//!                     ┌─▶ GatewayFrontBlock(gw 0) ─▶┐
//!  source (sim crate) ┼─▶ GatewayFrontBlock(gw 1) ─▶┼─▶ ServerSinkBlock
//!                     └─▶ GatewayFrontBlock(gw 2) ─▶┘
//! ```
//!
//! [`NetworkServer::into_sharded_streaming`] goes one step further and
//! parallelises the tail *inside* the flowgraph: a [`ShardRouterBlock`]
//! reassembles each group's per-gateway parts and routes it to the
//! [`ShardSinkBlock`] owning its device, so shard tails commit
//! concurrently on scheduler workers:
//!
//! ```text
//!        ┌─▶ front(gw 0) ─▶┐                ┌─▶ ShardSinkBlock(shard 0)
//!  src ──┼─▶ front(gw 1) ─▶┼─▶ ShardRouter ─┼─▶ ShardSinkBlock(shard 1)
//!        └─▶ front(gw 2) ─▶┘                └─▶ ShardSinkBlock(shard 2)
//! ```
//!
//! The source (see `softlora_sim::streaming`) broadcasts every
//! [`UplinkDeliveries`] group to all gateway blocks; each gateway block
//! runs the embarrassingly-parallel pipeline front half for **its**
//! copies (assigning per-gateway frame indices exactly as the batch path
//! does, so all randomness matches). Both tails commit through the same
//! [`crate::network_server`] shard state the batch path uses, so
//! **verdicts are bit-for-bit identical** to
//! [`NetworkServer::process_batch`] — pinned by the `streaming_runtime`
//! integration tests. With the sequential sink the full observer stream
//! (verdict order *and* running statistics) matches the batch path
//! exactly; with the sharded tail, per-uplink verdicts and final
//! statistics match, but `on_stats` snapshots interleave in commit order
//! across shards (concurrency is the point).

use crate::network_server::{
    CommitOutcome, GatewayFront, NetworkServer, ServerStats, ServerTail, ShardCore,
};
use crate::observer::ServerObserver;
use crate::pipeline::FrontFrame;
use crate::replay_detect::DetectionStats;
use crate::SoftLoraError;
use softlora_dsp::DspScratch;
use softlora_runtime::{Block, WorkIo, WorkResult};
use softlora_sim::UplinkDeliveries;
use std::sync::{Arc, Mutex};

/// Groups a front block analyses per `work` call before yielding.
const FRONT_BATCH: usize = 16;

/// Groups the sink commits per `work` call before yielding.
const SINK_BATCH: usize = 64;

/// Groups the router reassembles per `work` call before yielding.
const ROUTER_BATCH: usize = 64;

/// One copy's front-half result: `(index into group.copies, result)`.
pub type FrontEntry = (usize, Result<FrontFrame, SoftLoraError>);

/// Inline small-vector for a gateway's per-group front results.
///
/// A group carries at most a handful of copies per gateway (usually
/// exactly one), so a plain `Vec` here meant one heap allocation per
/// analysed group — the "`AnalyzedFrame` box" the ROADMAP flagged as the
/// last per-frame allocation on the batch collection path. The first
/// [`FrontVec::INLINE`] entries live inside the `FrontPart` itself
/// (moved through the ring by value, no heap); only a pathological group
/// with more copies for one gateway spills to the heap. No `unsafe`: the
/// inline slots are `Option`s.
#[derive(Default)]
pub struct FrontVec {
    inline: [Option<FrontEntry>; Self::INLINE],
    inline_len: usize,
    spill: Vec<FrontEntry>,
}

impl FrontVec {
    /// Entries stored inline before spilling to the heap.
    pub const INLINE: usize = 4;

    /// An empty list (allocation-free).
    pub fn new() -> Self {
        FrontVec::default()
    }

    /// Appends an entry, spilling past [`FrontVec::INLINE`].
    pub fn push(&mut self, entry: FrontEntry) {
        if self.inline_len < Self::INLINE {
            self.inline[self.inline_len] = Some(entry);
            self.inline_len += 1;
        } else {
            self.spill.push(entry);
        }
    }

    /// Entries stored so far.
    pub fn len(&self) -> usize {
        self.inline_len + self.spill.len()
    }

    /// Whether no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl IntoIterator for FrontVec {
    type Item = FrontEntry;
    type IntoIter = std::iter::Chain<
        std::iter::Flatten<std::array::IntoIter<Option<FrontEntry>, { FrontVec::INLINE }>>,
        std::vec::IntoIter<FrontEntry>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.inline.into_iter().flatten().chain(self.spill)
    }
}

/// One gateway's front-half analysis of one uplink group.
pub struct FrontPart {
    /// The group's scenario-wide uplink sequence number.
    pub uplink: u64,
    /// Index of the gateway that produced this part.
    pub gateway: usize,
    /// The group itself (shared with every other gateway's part).
    pub group: Arc<UplinkDeliveries>,
    /// Analysed copies, as `(index into group.copies, front result)` for
    /// the copies this gateway heard — empty when the group holds no copy
    /// for this gateway. Inline up to [`FrontVec::INLINE`] copies, so
    /// emitting a part performs no heap allocation.
    pub fronts: FrontVec,
}

/// One gateway's streaming front half: the radio gate → capture → onset →
/// FB chain of [`crate::Pipeline`], applied to this gateway's copies of
/// every group flowing past. The block owns a [`DspScratch`] arena, so a
/// long-running flowgraph analyses frames allocation-free on the DSP
/// path after warm-up.
pub struct GatewayFrontBlock {
    name: String,
    gateway: usize,
    front: GatewayFront,
    scratch: DspScratch,
}

impl GatewayFrontBlock {
    /// Deliveries analysed so far (the per-gateway frame index).
    pub fn frames_seen(&self) -> u64 {
        self.front.frames_seen
    }
}

impl Block for GatewayFrontBlock {
    type In = Arc<UplinkDeliveries>;
    type Out = FrontPart;

    fn name(&self) -> &str {
        &self.name
    }

    fn work(&mut self, io: &mut WorkIo<'_, Arc<UplinkDeliveries>, FrontPart>) -> WorkResult {
        let mut produced = 0;
        while produced < FRONT_BATCH {
            if io.output().free() == 0 {
                return if produced > 0 {
                    WorkResult::Produced(produced)
                } else {
                    WorkResult::NeedsOutput
                };
            }
            let group = match io.input().pop() {
                Some(group) => group,
                None if io.input().is_finished() => return WorkResult::Finished,
                None => {
                    return if produced > 0 {
                        WorkResult::Produced(produced)
                    } else {
                        WorkResult::NeedsInput
                    }
                }
            };
            // Per-gateway frame indices advance per copy in group order —
            // the same assignment `NetworkServer::process_batch` makes,
            // so every random draw matches the batch path.
            let mut fronts = FrontVec::new();
            for (k, copy) in group.copies.iter().enumerate() {
                if copy.gateway != self.gateway {
                    continue;
                }
                let frame_index = self.front.frames_seen;
                self.front.frames_seen += 1;
                fronts.push((
                    k,
                    self.front.pipeline.front_half_with(
                        &copy.delivery,
                        frame_index,
                        &mut self.scratch,
                    ),
                ));
            }
            let part = FrontPart { uplink: group.uplink, gateway: self.gateway, group, fronts };
            let pushed = io.output().push(part);
            debug_assert!(pushed.is_ok(), "free slot was checked");
            produced += 1;
        }
        WorkResult::Produced(produced)
    }
}

/// Reassembles one group's per-gateway [`FrontPart`]s (one input port per
/// gateway, heads always belong to the same group because each port
/// delivers parts in group order) into the group-ordered front list the
/// tail commits. Returns `Err` with the first infrastructure failure.
///
/// `parts` and `indexed` are the calling block's reusable staging
/// buffers: both are drained, so the same allocations carry every group.
fn reassemble(
    parts: &mut Vec<FrontPart>,
    indexed: &mut Vec<FrontEntry>,
) -> (u64, Arc<UplinkDeliveries>, Result<Vec<FrontFrame>, SoftLoraError>) {
    let uplink = parts[0].uplink;
    let group = Arc::clone(&parts[0].group);
    for part in parts.iter() {
        assert_eq!(
            part.uplink, uplink,
            "gateway streams out of step: every front block must emit exactly one part per group"
        );
    }
    // Reassemble the fronts in group-copy order, exactly the order the
    // batch path analyses them in.
    indexed.clear();
    indexed.extend(parts.drain(..).flat_map(|p| p.fronts));
    indexed.sort_by_key(|(k, _)| *k);
    // Parity with `process_batch`, which asserts every copy maps to a
    // known gateway: a copy no front block claimed would silently shift
    // the positional alignment below and attribute arrival/SNR/replay
    // ground truth to the wrong copies.
    assert_eq!(
        indexed.len(),
        group.copies.len(),
        "uplink {uplink}: copies for a gateway without a front block"
    );
    let mut fronts = Vec::with_capacity(indexed.len());
    for (_, front) in indexed.drain(..) {
        match front {
            Ok(front) => fronts.push(front),
            Err(e) => return (uplink, group, Err(e)),
        }
    }
    (uplink, group, Ok(fronts))
}

/// The server's sequential back half as the flowgraph sink: reassembles
/// each group's per-gateway [`FrontPart`]s (one input port per gateway)
/// and commits the deduplicated verdict through the same shard state the
/// batch path uses (FB detector, dedup cache, MAC — and the WAL when
/// persistence is on), notifying the server's [`ServerObserver`]s.
pub struct ServerSinkBlock {
    tail: ServerTail,
    /// Reusable per-group staging buffer for the gateway parts (the
    /// sink's "scratch": the tail is pure state, so its reusable working
    /// memory is the reassembly buffer rather than a DSP arena).
    parts: Vec<FrontPart>,
    /// Reusable copy-order staging buffer for [`reassemble`].
    indexed: Vec<FrontEntry>,
    /// Set when a gateway front reported an infrastructure error; the
    /// sink finishes early, mirroring `process_batch` aborting a batch.
    failed: bool,
}

impl ServerSinkBlock {
    /// Attaches a [`ServerObserver`] — the streaming path's way to watch
    /// verdicts and statistics.
    pub fn attach_observer(&mut self, observer: Box<dyn ServerObserver>) {
        self.tail.observers.push(observer);
    }

    /// Aggregate statistics committed so far.
    pub fn stats(&self) -> ServerStats {
        self.tail.stats()
    }
}

impl Block for ServerSinkBlock {
    type In = FrontPart;
    type Out = ();

    fn name(&self) -> &str {
        "server-sink"
    }

    fn work(&mut self, io: &mut WorkIo<'_, FrontPart, ()>) -> WorkResult {
        if self.failed {
            return WorkResult::Finished;
        }
        let mut committed = 0;
        while committed < SINK_BATCH {
            // A group's verdict needs every gateway's part; each input
            // port delivers parts in group order, so the heads of all
            // ports always belong to the same group.
            if io.inputs.iter_mut().any(|p| p.is_empty()) {
                return if io.inputs_finished() {
                    let _ = self.tail.flush_store();
                    WorkResult::Finished
                } else if committed > 0 {
                    WorkResult::Produced(committed)
                } else {
                    WorkResult::NeedsInput
                };
            }
            self.parts.clear();
            self.parts
                .extend(io.inputs.iter_mut().map(|p| p.pop().expect("port checked non-empty")));
            let (uplink, group, fronts) = reassemble(&mut self.parts, &mut self.indexed);
            let fronts = match fronts {
                Ok(fronts) => fronts,
                Err(e) => {
                    self.tail.notify_error(uplink, &e);
                    self.failed = true;
                    let _ = self.tail.flush_store();
                    return WorkResult::Finished;
                }
            };
            if let Err(e) = self.tail.commit_ordered(&group, fronts) {
                self.tail.notify_error(uplink, &e);
                self.failed = true;
                return WorkResult::Finished;
            }
            committed += 1;
        }
        WorkResult::Produced(committed)
    }
}

/// One reassembled uplink group, routed to the shard owning its device —
/// the item flowing between [`ShardRouterBlock`] and the
/// [`ShardSinkBlock`]s.
pub struct RoutedUplink {
    pub(crate) shard: usize,
    pub(crate) group: Arc<UplinkDeliveries>,
    pub(crate) fronts: Vec<FrontFrame>,
    pub(crate) global_seq: u64,
    pub(crate) frames_cumulative: Vec<u64>,
}

/// The shared observer fan-in of the sharded streaming tail: shard sinks
/// commit concurrently and serialise only the (cheap) observer
/// notification through this hub.
pub(crate) struct ObserverHub {
    observers: Vec<Box<dyn ServerObserver>>,
    observed_stats: ServerStats,
}

impl ObserverHub {
    fn notify(&mut self, uplink: u64, outcome: &CommitOutcome) {
        self.observed_stats += outcome.stats_delta;
        let stats = self.observed_stats;
        for obs in &mut self.observers {
            if let Some(eviction) = &outcome.eviction {
                obs.on_eviction(uplink, eviction);
            }
            obs.on_verdict(uplink, &outcome.verdict);
            obs.on_stats(stats);
        }
    }

    fn notify_error(&mut self, uplink: u64, error: &SoftLoraError) {
        for obs in &mut self.observers {
            obs.on_error(uplink, error);
        }
    }
}

/// Routes reassembled groups to per-shard sinks: one input port per
/// gateway front, one output port per shard (wire the sinks in shard
/// order). Assigns the server-wide commit sequence and the cumulative
/// frame indices each WAL record carries, exactly as the batch path does.
pub struct ShardRouterBlock {
    shards: usize,
    global_seq: u64,
    frames_cumulative: Vec<u64>,
    hub: Arc<Mutex<ObserverHub>>,
    /// Reusable per-group staging buffer for the gateway parts.
    parts: Vec<FrontPart>,
    /// Reusable copy-order staging buffer for [`reassemble`].
    indexed: Vec<FrontEntry>,
    /// Head-of-line item waiting for space in its shard's ring.
    pending: Option<RoutedUplink>,
    failed: bool,
}

impl Block for ShardRouterBlock {
    type In = FrontPart;
    type Out = RoutedUplink;

    fn name(&self) -> &str {
        "shard-router"
    }

    fn work(&mut self, io: &mut WorkIo<'_, FrontPart, RoutedUplink>) -> WorkResult {
        if self.failed {
            return WorkResult::Finished;
        }
        assert_eq!(io.outputs.len(), self.shards, "one output ring per shard");
        let mut produced = 0;
        while produced < ROUTER_BATCH {
            if let Some(item) = self.pending.take() {
                let port = &mut io.outputs[item.shard];
                if port.free() == 0 {
                    self.pending = Some(item);
                    return if produced > 0 {
                        WorkResult::Produced(produced)
                    } else {
                        WorkResult::NeedsOutput
                    };
                }
                let pushed = port.push(item);
                debug_assert!(pushed.is_ok(), "free slot was checked");
                produced += 1;
                continue;
            }
            if io.inputs.iter_mut().any(|p| p.is_empty()) {
                return if io.inputs_finished() {
                    WorkResult::Finished
                } else if produced > 0 {
                    WorkResult::Produced(produced)
                } else {
                    WorkResult::NeedsInput
                };
            }
            self.parts.clear();
            self.parts
                .extend(io.inputs.iter_mut().map(|p| p.pop().expect("port checked non-empty")));
            let (uplink, group, fronts) = reassemble(&mut self.parts, &mut self.indexed);
            let fronts = match fronts {
                Ok(fronts) => fronts,
                Err(e) => {
                    self.hub.lock().expect("observer hub poisoned").notify_error(uplink, &e);
                    self.failed = true;
                    return WorkResult::Finished;
                }
            };
            self.global_seq += 1;
            for copy in &group.copies {
                self.frames_cumulative[copy.gateway] += 1;
            }
            self.pending = Some(RoutedUplink {
                shard: softlora_store::shard_of(u64::from(group.dev_addr), self.shards),
                group,
                fronts,
                global_seq: self.global_seq,
                frames_cumulative: self.frames_cumulative.clone(),
            });
        }
        WorkResult::Produced(produced)
    }
}

/// One shard's tail as a flowgraph sink: commits every routed group on
/// the shard's own detector/dedup/MAC state (and WAL), then serialises
/// the observer notification through the shared hub. Shard sinks run
/// concurrently on scheduler workers — the tail finally parallelises
/// inside the flowgraph.
pub struct ShardSinkBlock {
    name: String,
    core: ShardCore,
    hub: Arc<Mutex<ObserverHub>>,
    failed: bool,
}

impl ShardSinkBlock {
    /// Statistics this shard committed so far.
    pub fn stats(&self) -> ServerStats {
        self.core.stats
    }

    /// Detection statistics this shard scored so far.
    pub fn detection_stats(&self) -> DetectionStats {
        self.core.detector.stats()
    }
}

impl Block for ShardSinkBlock {
    type In = RoutedUplink;
    type Out = ();

    fn name(&self) -> &str {
        &self.name
    }

    fn work(&mut self, io: &mut WorkIo<'_, RoutedUplink, ()>) -> WorkResult {
        if self.failed {
            return WorkResult::Finished;
        }
        let mut committed = 0;
        let mut last_uplink = 0;
        let mut input_finished = false;
        while committed < SINK_BATCH {
            let Some(routed) = io.input().pop() else {
                input_finished = io.input().is_finished();
                break;
            };
            debug_assert_eq!(routed.shard, self.core.index, "router sent a foreign device");
            match self.core.commit(
                &routed.group,
                routed.fronts,
                routed.global_seq,
                &routed.frames_cumulative,
            ) {
                Ok(outcome) => {
                    self.hub
                        .lock()
                        .expect("observer hub poisoned")
                        .notify(routed.group.uplink, &outcome);
                }
                Err(e) => {
                    self.hub
                        .lock()
                        .expect("observer hub poisoned")
                        .notify_error(routed.group.uplink, &e);
                    self.failed = true;
                    return WorkResult::Finished;
                }
            }
            last_uplink = routed.group.uplink;
            committed += 1;
        }
        // One coalesced WAL frame per work call, as the batch path seals
        // one per shard per batch.
        if let Err(e) = self.core.seal_frame() {
            self.hub.lock().expect("observer hub poisoned").notify_error(last_uplink, &e);
            self.failed = true;
            return WorkResult::Finished;
        }
        if input_finished {
            if let Some(store) = &self.core.store {
                let _ = store.shard(self.core.index).lock().expect("wal poisoned").flush();
            }
            WorkResult::Finished
        } else if committed > 0 {
            WorkResult::Produced(committed)
        } else {
            WorkResult::NeedsInput
        }
    }
}

fn front_blocks(fronts: Vec<GatewayFront>) -> Vec<GatewayFrontBlock> {
    fronts
        .into_iter()
        .enumerate()
        .map(|(gateway, front)| GatewayFrontBlock {
            name: format!("gateway-front-{gateway}"),
            gateway,
            front,
            scratch: DspScratch::new(),
        })
        .collect()
}

impl NetworkServer {
    /// Dismantles the server into streaming blocks with a **sequential**
    /// tail: one [`GatewayFrontBlock`] per gateway plus the
    /// [`ServerSinkBlock`] holding the complete tail. Wire them as
    /// `source → fronts → sink` (the sink's input ports in gateway
    /// order); the resulting flowgraph produces verdicts — and a full
    /// observer stream — bit-for-bit identical to
    /// [`NetworkServer::process_batch`] on the same groups.
    pub fn into_streaming(self) -> (Vec<GatewayFrontBlock>, ServerSinkBlock) {
        (
            front_blocks(self.fronts),
            ServerSinkBlock {
                tail: self.tail,
                parts: Vec::new(),
                indexed: Vec::new(),
                failed: false,
            },
        )
    }

    /// Dismantles the server into streaming blocks with a
    /// **shard-parallel** tail: per-gateway fronts, the
    /// [`ShardRouterBlock`], and one [`ShardSinkBlock`] per tail shard.
    /// Wire them as `source → fronts → router → shard sinks` with the
    /// sinks connected in shard order (the router's output port `k` is
    /// shard `k`). Per-uplink verdicts and final statistics are
    /// bit-for-bit identical to the batch path; `on_stats` snapshots
    /// interleave in cross-shard commit order.
    pub fn into_sharded_streaming(
        self,
    ) -> (Vec<GatewayFrontBlock>, ShardRouterBlock, Vec<ShardSinkBlock>) {
        let tail = self.tail;
        let hub = Arc::new(Mutex::new(ObserverHub {
            observers: tail.observers,
            observed_stats: tail.observed_stats,
        }));
        let shards = tail.shards.len();
        let router = ShardRouterBlock {
            shards,
            global_seq: tail.global_seq,
            frames_cumulative: tail.frames_cumulative,
            hub: Arc::clone(&hub),
            parts: Vec::new(),
            indexed: Vec::new(),
            pending: None,
            failed: false,
        };
        let sinks = tail
            .shards
            .into_iter()
            .map(|core| ShardSinkBlock {
                name: format!("shard-sink-{}", core.index),
                core,
                hub: Arc::clone(&hub),
                failed: false,
            })
            .collect();
        (front_blocks(self.fronts), router, sinks)
    }
}
