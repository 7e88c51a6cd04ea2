//! Flowgraph assembly: wiring blocks into a validated DAG over rings.
//!
//! A [`FlowgraphBuilder`] is the only way to connect blocks, and its API
//! makes the graph correct by construction: every edge is created by
//! naming an existing upstream [`NodeHandle`], so edges always point
//! forward and the graph cannot contain a cycle. Item types are checked
//! at compile time (an edge exists only between an `Out = T` producer
//! and an `In = T` consumer); [`FlowgraphBuilder::build`] then validates
//! **connectivity** — every non-sink block must feed at least one
//! downstream ring — and returns a runnable [`Flowgraph`].
//!
//! Ring capacities are const-generic: [`FlowgraphBuilder::stage`] uses
//! [`DEFAULT_RING_CAPACITY`], `*_with_capacity` variants pick per-edge
//! sizes.

use crate::block::{Block, InputPort, OutputPort, WorkIo, WorkResult};
use crate::observer::{BlockReport, RuntimeObserver, RuntimeReport};
use crate::ring::{channel, PushRing};
use crate::scheduler::{Scheduler, SchedulerKind};
use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Instant;

/// Ring capacity used by the non-`_with_capacity` connection methods.
pub const DEFAULT_RING_CAPACITY: usize = 256;

/// Errors detected while assembling a flowgraph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlowgraphError {
    /// The graph has no blocks at all.
    Empty,
    /// A non-sink block's output feeds no downstream ring.
    DanglingOutput {
        /// Name of the unconnected block.
        block: String,
    },
    /// The graph has no sink, so items would have nowhere to drain.
    NoSink,
}

impl std::fmt::Display for FlowgraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowgraphError::Empty => write!(f, "flowgraph has no blocks"),
            FlowgraphError::DanglingOutput { block } => {
                write!(f, "block '{block}' produces items but nothing consumes them")
            }
            FlowgraphError::NoSink => write!(f, "flowgraph has no sink block"),
        }
    }
}

impl std::error::Error for FlowgraphError {}

/// A typed reference to a block added to a builder; connecting an edge
/// means handing a downstream block the handle of its upstream.
pub struct NodeHandle<T> {
    id: usize,
    _marker: PhantomData<fn() -> T>,
}

impl<T> Clone for NodeHandle<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for NodeHandle<T> {}

/// How one step of a node went (scheduler-facing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StepState {
    /// Items moved (or the node finished) — keep the workers hot.
    Progress,
    /// Blocked on input or output; nothing to do right now.
    Idle,
}

/// A type-erased, runnable block with its ports — what the scheduler
/// drives.
pub(crate) trait Node: Send {
    fn name(&self) -> &str;
    fn step(&mut self, observers: &[Arc<dyn RuntimeObserver>]) -> StepState;
    fn is_finished(&self) -> bool;
    fn report(&self) -> BlockReport;
}

/// The typed node implementation behind the `Node` trait object.
struct BlockNode<B: Block> {
    block: B,
    inputs: Vec<InputPort<B::In>>,
    outputs: Vec<OutputPort<B::Out>>,
    finished: bool,
    work_calls: u64,
    busy_s: f64,
    occupancy_sum: u64,
    occupancy_samples: u64,
}

impl<B: Block> BlockNode<B> {
    fn counts(&self) -> (u64, u64) {
        (
            self.inputs.iter().map(InputPort::consumed).sum(),
            self.outputs.iter().map(OutputPort::produced).sum(),
        )
    }

    fn finish(&mut self, observers: &[Arc<dyn RuntimeObserver>]) {
        for out in &mut self.outputs {
            out.close();
        }
        // Release the upstream chain: a finished block will never pop
        // again, so its input rings must stop exerting backpressure
        // (otherwise an early-finishing sink would wedge its producers
        // on full rings forever).
        for input in &mut self.inputs {
            input.abandon();
        }
        self.finished = true;
        let report = self.report();
        for obs in observers {
            obs.on_block_finished(&report);
        }
    }
}

impl<B: Block> Node for BlockNode<B> {
    fn name(&self) -> &str {
        self.block.name()
    }

    fn step(&mut self, observers: &[Arc<dyn RuntimeObserver>]) -> StepState {
        // Every downstream block has finished: nothing this block can
        // produce will ever be consumed, so finish it too. This is what
        // lets an early sink finish (e.g. the streaming server sink
        // aborting on an infrastructure error) unwind the whole graph
        // instead of livelocking it.
        if !self.outputs.is_empty() && self.outputs.iter().all(OutputPort::is_abandoned) {
            self.finish(observers);
            return StepState::Progress;
        }
        let (in_before, out_before) = self.counts();
        let started = Instant::now();
        let result = {
            let mut io = WorkIo { inputs: &mut self.inputs, outputs: &mut self.outputs };
            self.block.work(&mut io)
        };
        let elapsed_s = started.elapsed().as_secs_f64();
        let (in_after, out_after) = self.counts();
        let consumed = in_after - in_before;
        let produced = out_after - out_before;
        let moved = consumed + produced > 0;
        if moved || result == WorkResult::Finished {
            self.work_calls += 1;
            self.busy_s += elapsed_s;
            let occupancy = self.outputs.iter_mut().map(|p| p.occupancy() as u64).sum::<u64>();
            self.occupancy_sum += occupancy;
            self.occupancy_samples += 1;
            for obs in observers {
                obs.on_work(self.block.name(), consumed, produced, elapsed_s);
            }
        }
        match result {
            WorkResult::Finished => {
                self.finish(observers);
                StepState::Progress
            }
            WorkResult::Produced(_) => StepState::Progress,
            WorkResult::NeedsInput => {
                if moved {
                    StepState::Progress
                } else if !self.inputs.is_empty()
                    && self.inputs.iter_mut().all(InputPort::is_finished)
                {
                    // Upstream closed and drained: the block can never run
                    // again, so finish it — this is the drain guarantee.
                    self.finish(observers);
                    StepState::Progress
                } else {
                    StepState::Idle
                }
            }
            WorkResult::NeedsOutput => {
                if moved {
                    StepState::Progress
                } else {
                    StepState::Idle
                }
            }
        }
    }

    fn is_finished(&self) -> bool {
        self.finished
    }

    fn report(&self) -> BlockReport {
        let (items_in, items_out) = self.counts();
        BlockReport {
            name: self.block.name().to_string(),
            work_calls: self.work_calls,
            items_in,
            items_out,
            busy_s: self.busy_s,
            mean_occupancy: if self.occupancy_samples == 0 {
                0.0
            } else {
                self.occupancy_sum as f64 / self.occupancy_samples as f64
            },
        }
    }
}

/// A node still being wired; outputs arrive as downstream blocks connect.
trait PendingNode {
    /// Attaches a producer, double-boxed as `Box<dyn PushRing<Out>>`
    /// inside the `Any`. The typed builder API guarantees the downcast.
    fn attach_output(&mut self, producer: Box<dyn Any>);
    fn output_count(&self) -> usize;
    fn into_node(self: Box<Self>) -> Box<dyn Node>;
}

struct Pending<B: Block> {
    block: B,
    inputs: Vec<InputPort<B::In>>,
    outputs: Vec<OutputPort<B::Out>>,
}

impl<B: Block> PendingNode for Pending<B> {
    fn attach_output(&mut self, producer: Box<dyn Any>) {
        let ring = producer
            .downcast::<Box<dyn PushRing<B::Out>>>()
            .expect("edge item type checked by the builder API");
        self.outputs.push(OutputPort::new(*ring));
    }

    fn output_count(&self) -> usize {
        self.outputs.len()
    }

    fn into_node(self: Box<Self>) -> Box<dyn Node> {
        Box::new(BlockNode {
            block: self.block,
            inputs: self.inputs,
            outputs: self.outputs,
            finished: false,
            work_calls: 0,
            busy_s: 0.0,
            occupancy_sum: 0,
            occupancy_samples: 0,
        })
    }
}

/// Assembles a [`Flowgraph`]; see the module docs.
#[derive(Default)]
pub struct FlowgraphBuilder {
    pending: Vec<Box<dyn PendingNode>>,
    names: Vec<String>,
    is_sink: Vec<bool>,
    observers: Vec<Arc<dyn RuntimeObserver>>,
}

impl FlowgraphBuilder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an observer receiving work/park/finish events from every
    /// block of the built flowgraph.
    pub fn observer(&mut self, observer: Arc<dyn RuntimeObserver>) -> &mut Self {
        self.observers.push(observer);
        self
    }

    /// Compatibility call kept for existing callers; ignores `kind`.
    pub fn scheduler(&mut self, _kind: SchedulerKind) -> &mut Self {
        self
    }

    fn add<B: Block>(&mut self, block: B, inputs: Vec<InputPort<B::In>>, sink: bool) -> usize {
        let id = self.pending.len();
        self.names.push(block.name().to_string());
        self.is_sink.push(sink);
        self.pending.push(Box::new(Pending { block, inputs, outputs: Vec::new() }));
        id
    }

    /// Creates a ring of capacity `CAP` from node `from` and returns the
    /// consuming port.
    fn edge<T: Send + 'static, const CAP: usize>(&mut self, from: NodeHandle<T>) -> InputPort<T> {
        let (tx, rx) = channel::<T, CAP>();
        let producer: Box<dyn PushRing<T>> = Box::new(tx);
        self.pending[from.id].attach_output(Box::new(producer));
        InputPort::new(Box::new(rx))
    }

    /// Adds a source block (no inputs).
    pub fn source<B>(&mut self, block: B) -> NodeHandle<B::Out>
    where
        B: Block<In = ()>,
    {
        let id = self.add(block, Vec::new(), false);
        NodeHandle { id, _marker: PhantomData }
    }

    /// Adds a transform block fed by `upstream` over a
    /// [`DEFAULT_RING_CAPACITY`]-slot ring.
    pub fn stage<B>(&mut self, upstream: NodeHandle<B::In>, block: B) -> NodeHandle<B::Out>
    where
        B: Block,
    {
        self.stage_with_capacity::<B, DEFAULT_RING_CAPACITY>(upstream, block)
    }

    /// Adds a transform block fed by `upstream` over a `CAP`-slot ring.
    pub fn stage_with_capacity<B, const CAP: usize>(
        &mut self,
        upstream: NodeHandle<B::In>,
        block: B,
    ) -> NodeHandle<B::Out>
    where
        B: Block,
    {
        let input = self.edge::<B::In, CAP>(upstream);
        let id = self.add(block, vec![input], false);
        NodeHandle { id, _marker: PhantomData }
    }

    /// Adds a transform block fed by **every** handle in `upstreams` (one
    /// input port per upstream, in order) over
    /// [`DEFAULT_RING_CAPACITY`]-slot rings — the fan-in counterpart of
    /// [`FlowgraphBuilder::stage`], for blocks that reassemble or merge
    /// several upstream streams and keep producing (e.g. a shard router
    /// joining per-gateway parts before fanning out to per-shard sinks).
    pub fn merge<B>(&mut self, upstreams: &[NodeHandle<B::In>], block: B) -> NodeHandle<B::Out>
    where
        B: Block,
    {
        self.merge_with_capacity::<B, DEFAULT_RING_CAPACITY>(upstreams, block)
    }

    /// Adds a fan-in transform block over `CAP`-slot rings.
    pub fn merge_with_capacity<B, const CAP: usize>(
        &mut self,
        upstreams: &[NodeHandle<B::In>],
        block: B,
    ) -> NodeHandle<B::Out>
    where
        B: Block,
    {
        let inputs = upstreams.iter().map(|&u| self.edge::<B::In, CAP>(u)).collect();
        let id = self.add(block, inputs, false);
        NodeHandle { id, _marker: PhantomData }
    }

    /// Adds a sink block fed by every handle in `upstreams` (one input
    /// port per upstream, in order) over
    /// [`DEFAULT_RING_CAPACITY`]-slot rings.
    pub fn sink<B>(&mut self, upstreams: &[NodeHandle<B::In>], block: B)
    where
        B: Block<Out = ()>,
    {
        self.sink_with_capacity::<B, DEFAULT_RING_CAPACITY>(upstreams, block)
    }

    /// Adds a sink block over `CAP`-slot rings.
    pub fn sink_with_capacity<B, const CAP: usize>(
        &mut self,
        upstreams: &[NodeHandle<B::In>],
        block: B,
    ) where
        B: Block<Out = ()>,
    {
        let inputs = upstreams.iter().map(|&u| self.edge::<B::In, CAP>(u)).collect();
        self.add(block, inputs, true);
    }

    /// Validates connectivity and returns the runnable graph.
    ///
    /// # Errors
    ///
    /// [`FlowgraphError::Empty`] for a graph without blocks,
    /// [`FlowgraphError::NoSink`] when nothing terminates the stream, and
    /// [`FlowgraphError::DanglingOutput`] when a non-sink block's items
    /// have no consumer.
    pub fn build(self) -> Result<Flowgraph, FlowgraphError> {
        if self.pending.is_empty() {
            return Err(FlowgraphError::Empty);
        }
        if !self.is_sink.iter().any(|&s| s) {
            return Err(FlowgraphError::NoSink);
        }
        for (k, node) in self.pending.iter().enumerate() {
            if !self.is_sink[k] && node.output_count() == 0 {
                return Err(FlowgraphError::DanglingOutput { block: self.names[k].clone() });
            }
        }
        Ok(Flowgraph {
            nodes: self.pending.into_iter().map(PendingNode::into_node).collect(),
            observers: self.observers,
        })
    }
}

/// A validated, runnable flowgraph. Run it with [`Flowgraph::run`] or a
/// configured [`Scheduler`].
pub struct Flowgraph {
    pub(crate) nodes: Vec<Box<dyn Node>>,
    pub(crate) observers: Vec<Arc<dyn RuntimeObserver>>,
}

impl Flowgraph {
    /// Number of blocks in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no blocks (never true for a built graph).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Block names in insertion order.
    pub fn block_names(&self) -> Vec<String> {
        self.nodes.iter().map(|n| n.name().to_string()).collect()
    }

    /// Runs the graph to completion on `workers` threads; convenience for
    /// [`Scheduler::run`].
    pub fn run(self, workers: usize) -> RuntimeReport {
        Scheduler::new(workers).run(self)
    }
}

impl std::fmt::Debug for Flowgraph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Flowgraph").field("blocks", &self.block_names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{FnBlock, FnSink, FnSource};
    use std::sync::Mutex;

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(FlowgraphBuilder::new().build().unwrap_err(), FlowgraphError::Empty);
    }

    #[test]
    fn graph_without_sink_rejected() {
        let mut b = FlowgraphBuilder::new();
        let mut k = 0u64;
        let src = b.source(FnSource::new("numbers", move || {
            k += 1;
            (k < 5).then_some(k)
        }));
        // A stage that nothing consumes.
        b.stage(src, FnBlock::new("orphan", |x: u64| x));
        match b.build() {
            Err(FlowgraphError::NoSink) => {}
            other => panic!("expected NoSink, got {other:?}"),
        }
    }

    #[test]
    fn stage_without_consumer_rejected() {
        let mut b = FlowgraphBuilder::new();
        let mut k = 0u64;
        let src = b.source(FnSource::new("numbers", move || {
            k += 1;
            (k < 5).then_some(k)
        }));
        let orphan = b.stage(src, FnBlock::new("orphan", |x: u64| x));
        // Sink fed directly by the source: the orphan stage dangles.
        b.sink(&[src], FnSink::new("sum", |_x: u64| {}));
        let _ = orphan;
        match b.build() {
            Err(FlowgraphError::DanglingOutput { block }) => assert_eq!(block, "orphan"),
            other => panic!("expected DanglingOutput, got {other:?}"),
        }
    }

    #[test]
    fn linear_graph_builds_and_names() {
        let mut b = FlowgraphBuilder::new();
        let mut k = 0u64;
        let src = b.source(FnSource::new("numbers", move || {
            k += 1;
            (k <= 3).then_some(k)
        }));
        let doubled = b.stage(src, FnBlock::new("double", |x: u64| 2 * x));
        b.sink(&[doubled], FnSink::new("sum", |_x: u64| {}));
        let fg = b.build().unwrap();
        assert_eq!(fg.len(), 3);
        assert_eq!(fg.block_names(), vec!["numbers", "double", "sum"]);
    }

    #[test]
    fn merge_block_joins_streams_and_feeds_downstream() {
        // Two sources fan into one merge block that sums the heads of
        // both ports, feeding a counting sink — the shard-router shape.
        struct PairSum;
        impl Block for PairSum {
            type In = u64;
            type Out = u64;
            fn name(&self) -> &str {
                "pair-sum"
            }
            fn work(&mut self, io: &mut WorkIo<'_, u64, u64>) -> WorkResult {
                let mut produced = 0;
                loop {
                    if io.inputs.iter_mut().any(|p| p.is_empty()) {
                        return if io.inputs_finished() {
                            WorkResult::Finished
                        } else if produced > 0 {
                            WorkResult::Produced(produced)
                        } else {
                            WorkResult::NeedsInput
                        };
                    }
                    if io.output().free() == 0 {
                        return if produced > 0 {
                            WorkResult::Produced(produced)
                        } else {
                            WorkResult::NeedsOutput
                        };
                    }
                    let sum: u64 = io.inputs.iter_mut().map(|p| p.pop().expect("checked")).sum();
                    io.output().push(sum).expect("free checked");
                    produced += 1;
                }
            }
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut b = FlowgraphBuilder::new();
        let mut i = 0u64;
        let left = b.source(FnSource::new("left", move || {
            i += 1;
            (i <= 50).then_some(i)
        }));
        let mut j = 0u64;
        let right = b.source(FnSource::new("right", move || {
            j += 1;
            (j <= 50).then_some(100 * j)
        }));
        let merged = b.merge(&[left, right], PairSum);
        let sink_seen = Arc::clone(&seen);
        b.sink(&[merged], FnSink::new("collect", move |x: u64| sink_seen.lock().unwrap().push(x)));
        b.build().unwrap().run(2);
        let got = seen.lock().unwrap().clone();
        let want: Vec<u64> = (1..=50).map(|k| k + 100 * k).collect();
        assert_eq!(got, want, "ports pop in lockstep, order preserved");
    }

    #[test]
    fn broadcast_feeds_every_downstream_ring() {
        // One source, two parallel stages, one fan-in sink: every item
        // must arrive once per branch.
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut b = FlowgraphBuilder::new();
        let mut k = 0u64;
        let src = b.source(FnSource::new("numbers", move || {
            k += 1;
            (k <= 100).then_some(k)
        }));
        let left = b.stage(src, FnBlock::new("left", |x: u64| x));
        let right = b.stage(src, FnBlock::new("right", |x: u64| 1000 + x));
        let sink_seen = Arc::clone(&seen);
        b.sink(
            &[left, right],
            FnSink::new("collect", move |x: u64| {
                sink_seen.lock().unwrap().push(x);
            }),
        );
        let report = b.build().unwrap().run(2);
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        let mut want: Vec<u64> = (1..=100).collect();
        want.extend((1..=100).map(|x| 1000 + x));
        assert_eq!(got, want);
        assert_eq!(report.block("numbers").unwrap().items_out, 200, "100 items × 2 rings");
    }
}
