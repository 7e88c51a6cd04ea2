//! **softlora-runtime** — a streaming flowgraph runtime in the FutureSDR
//! idiom: blocks connected by lock-free SPSC ring buffers, driven by a
//! multi-threaded scheduler.
//!
//! The paper's timestamping service is continuous — a gateway listens to
//! an unbroken uplink stream and the FB estimator accumulates per-device
//! state over hours — yet a batch API models only bursts. This crate
//! provides the always-on execution substrate:
//!
//! * [`ring`] — bounded single-producer/single-consumer queues with
//!   `AtomicUsize` head/tail counters, const-generic capacity and batched
//!   push/pop; the only transport between blocks;
//! * [`Block`] — one stage of the graph: `work(io) -> WorkResult` with
//!   explicit backpressure ([`WorkResult::NeedsInput`] /
//!   [`WorkResult::NeedsOutput`]) and end-of-stream
//!   ([`WorkResult::Finished`]);
//! * [`FlowgraphBuilder`] — wires blocks into a DAG (acyclic by
//!   construction, connectivity validated at [`FlowgraphBuilder::build`]);
//! * [`Scheduler`] — runs blocks on std worker threads, assigned
//!   round-robin; a worker parks when none of its blocks can move and
//!   is unparked by any peer that makes progress, with per-block
//!   throughput/latency/occupancy counters surfaced through
//!   [`RuntimeObserver`] and the final [`RuntimeReport`].
//!
//! The crate is domain-agnostic (items are any `Send` type); the SoftLoRa
//! gateway and network-server blocks live in the `softlora` and
//! `softlora-sim` crates.
//!
//! # Example
//!
//! ```
//! use softlora_runtime::blocks::{FnBlock, FnSink, FnSource};
//! use softlora_runtime::FlowgraphBuilder;
//! use std::sync::{Arc, Mutex};
//!
//! let sum = Arc::new(Mutex::new(0u64));
//! let mut b = FlowgraphBuilder::new();
//! let mut k = 0u64;
//! let src = b.source(FnSource::new("numbers", move || {
//!     k += 1;
//!     (k <= 100).then_some(k)
//! }));
//! let doubled = b.stage(src, FnBlock::new("double", |x: u64| 2 * x));
//! let sink_sum = Arc::clone(&sum);
//! b.sink(&[doubled], FnSink::new("sum", move |x: u64| {
//!     *sink_sum.lock().unwrap() += x;
//! }));
//! let report = b.build()?.run(2);
//! assert_eq!(*sum.lock().unwrap(), 100 * 101);
//! assert_eq!(report.block("sum").unwrap().items_in, 100);
//! # Ok::<(), softlora_runtime::FlowgraphError>(())
//! ```

pub mod block;
pub mod blocks;
pub mod flowgraph;
pub mod observer;
pub mod ring;
pub mod scheduler;

pub use block::{Block, InputPort, OutputPort, WorkIo, WorkResult};
pub use flowgraph::{
    Flowgraph, FlowgraphBuilder, FlowgraphError, NodeHandle, DEFAULT_RING_CAPACITY,
};
pub use observer::{BlockReport, BlockTally, RuntimeObserver, RuntimeReport, RuntimeStats};
pub use scheduler::{Scheduler, SchedulerKind};
