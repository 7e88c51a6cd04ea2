//! The streaming block abstraction: typed ports and the [`Block`] trait.
//!
//! A block is one stage of a flowgraph. The scheduler repeatedly calls
//! [`Block::work`] with the block's [`InputPort`]s and [`OutputPort`]s;
//! the block moves as many items as it can and reports what stopped it
//! via [`WorkResult`] — the explicit backpressure contract:
//!
//! * [`WorkResult::Produced`] — progress was made; call again soon;
//! * [`WorkResult::NeedsInput`] — upstream is empty; the scheduler parks
//!   the block until items (or end-of-stream) arrive;
//! * [`WorkResult::NeedsOutput`] — a downstream ring is full; the block
//!   is backpressured until the consumer drains it;
//! * [`WorkResult::Finished`] — the block is done; its output rings are
//!   closed so downstream blocks can drain and finish in turn.
//!
//! A block whose every input is finished (closed and drained) and that
//! reports [`WorkResult::NeedsInput`] is finished by the scheduler — so
//! plain transform blocks never need their own shutdown logic, and no
//! in-flight item is lost when a source completes.

use crate::ring::{PopRing, PushRing};

/// What a [`Block::work`] call accomplished, and what to wait for next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkResult {
    /// Made progress: moved (roughly) this many items.
    Produced(usize),
    /// Blocked on upstream: no items available.
    NeedsInput,
    /// Backpressured: no room in a downstream ring.
    NeedsOutput,
    /// Stream complete: the block will never produce again.
    Finished,
}

/// A block's view of one upstream ring.
pub struct InputPort<T> {
    ring: Box<dyn PopRing<T>>,
    consumed: u64,
}

impl<T> InputPort<T> {
    /// Wraps the consuming half of a ring as a port.
    pub fn new(ring: Box<dyn PopRing<T>>) -> Self {
        InputPort { ring, consumed: 0 }
    }

    /// Pops one item.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.ring.try_pop();
        if item.is_some() {
            self.consumed += 1;
        }
        item
    }

    /// Pops up to `max` items into `out`; returns how many arrived.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let n = self.ring.pop_batch(out, max);
        self.consumed += n as u64;
        n
    }

    /// Items currently waiting in the ring.
    pub fn len(&mut self) -> usize {
        self.ring.len()
    }

    /// Whether no items are currently waiting.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Whether the upstream closed the ring and it has drained.
    pub fn is_finished(&mut self) -> bool {
        self.ring.is_finished()
    }

    /// Declares this port dead: queued and future items are dropped and
    /// the upstream producer is released from backpressure. Called by
    /// the scheduler when the owning block finishes, so an early-finished
    /// sink can never wedge its upstream chain.
    pub fn abandon(&mut self) {
        self.ring.abandon()
    }

    /// Total items this port has consumed.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }
}

/// A block's view of one downstream ring.
pub struct OutputPort<T> {
    ring: Box<dyn PushRing<T>>,
    produced: u64,
}

impl<T> OutputPort<T> {
    /// Wraps the producing half of a ring as a port.
    pub fn new(ring: Box<dyn PushRing<T>>) -> Self {
        OutputPort { ring, produced: 0 }
    }

    /// Pushes one item; hands it back when the ring is full.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        let pushed = self.ring.try_push(item);
        if pushed.is_ok() {
            self.produced += 1;
        }
        pushed
    }

    /// Moves as many items as fit from the front of `items`.
    pub fn push_batch(&mut self, items: &mut Vec<T>) -> usize {
        let n = self.ring.push_batch(items);
        self.produced += n as u64;
        n
    }

    /// Free slots in the ring.
    pub fn free(&mut self) -> usize {
        self.ring.free()
    }

    /// Items currently queued in the ring (the occupancy counter).
    pub fn occupancy(&mut self) -> usize {
        self.ring.len()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Closes the ring (done automatically when the block finishes).
    pub fn close(&mut self) {
        self.ring.close()
    }

    /// Whether the downstream block finished and abandoned this ring
    /// (pushes still succeed but are dropped).
    pub fn is_abandoned(&self) -> bool {
        self.ring.is_abandoned()
    }

    /// Total items this port has produced.
    pub fn produced(&self) -> u64 {
        self.produced
    }
}

/// Everything a block touches during one `work` call: its input and
/// output ports. Sources see an empty `inputs` slice, sinks an empty
/// `outputs` slice; a broadcasting block sees one output port per
/// downstream edge.
pub struct WorkIo<'a, I, O> {
    /// Upstream ports, in the order the flowgraph connected them.
    pub inputs: &'a mut [InputPort<I>],
    /// Downstream ports, in the order downstream blocks were connected.
    pub outputs: &'a mut [OutputPort<O>],
}

impl<I, O> WorkIo<'_, I, O> {
    /// The single input port of a one-input block.
    ///
    /// # Panics
    ///
    /// Panics when the block has no inputs.
    pub fn input(&mut self) -> &mut InputPort<I> {
        &mut self.inputs[0]
    }

    /// The single output port of a one-output block.
    ///
    /// # Panics
    ///
    /// Panics when the block has no outputs.
    pub fn output(&mut self) -> &mut OutputPort<O> {
        &mut self.outputs[0]
    }

    /// Whether **every** input is closed and drained (end of stream).
    pub fn inputs_finished(&mut self) -> bool {
        self.inputs.iter_mut().all(|p| p.is_finished())
    }

    /// Free slots available on the fullest output — how many items can be
    /// broadcast to every downstream ring right now.
    pub fn min_output_free(&mut self) -> usize {
        self.outputs.iter_mut().map(|p| p.free()).min().unwrap_or(0)
    }

    /// Pushes a clone of `item` to every output port. Call only after
    /// checking [`WorkIo::min_output_free`] — a full ring panics here.
    pub fn broadcast(&mut self, item: O)
    where
        O: Clone,
    {
        let (last, rest) = self.outputs.split_last_mut().expect("block has no outputs");
        for port in rest {
            if port.push(item.clone()).is_err() {
                panic!("broadcast into a full ring; check min_output_free first");
            }
        }
        if last.push(item).is_err() {
            panic!("broadcast into a full ring; check min_output_free first");
        }
    }
}

/// One stage of a streaming flowgraph.
///
/// `In`/`Out` are the item types flowing through the block's rings; a
/// source uses `In = ()` (it gets no input ports), a sink `Out = ()` (no
/// output ports). Blocks run on scheduler worker threads, hence `Send`.
pub trait Block: Send + 'static {
    /// Item type consumed from upstream rings.
    type In: Send + 'static;
    /// Item type produced into downstream rings.
    type Out: Send + 'static;

    /// The block's display name (used in reports and observer events).
    fn name(&self) -> &str;

    /// Moves items between the ports; see the module docs for the
    /// [`WorkResult`] contract.
    fn work(&mut self, io: &mut WorkIo<'_, Self::In, Self::Out>) -> WorkResult;
}
