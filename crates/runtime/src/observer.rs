//! Runtime observability: per-block counters and the [`RuntimeObserver`]
//! hook.
//!
//! The scheduler pushes typed events — a work call's consumed/produced
//! counts and latency, worker parks, block completion — and consumers
//! implement only the hooks they care about. Runtime observers are
//! invoked **concurrently from worker threads**, so the hooks take
//! `&self` and implementations synchronise internally (see
//! [`RuntimeStats`] for a ready-made one).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Final counters for one block after a flowgraph run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BlockReport {
    /// Block display name.
    pub name: String,
    /// `work` calls that moved at least one item (or finished).
    pub work_calls: u64,
    /// Items consumed from all input ports.
    pub items_in: u64,
    /// Items produced into all output ports.
    pub items_out: u64,
    /// Seconds spent inside `work`.
    pub busy_s: f64,
    /// Mean output-ring occupancy sampled after each work call (0 for
    /// sinks).
    pub mean_occupancy: f64,
}

impl BlockReport {
    /// Mean seconds per counted `work` call — the block's per-batch
    /// latency.
    pub fn latency_s(&self) -> f64 {
        if self.work_calls == 0 {
            0.0
        } else {
            self.busy_s / self.work_calls as f64
        }
    }

    /// Output items per busy second — the block's standalone throughput.
    pub fn throughput_per_s(&self) -> f64 {
        if self.busy_s > 0.0 {
            self.items_out as f64 / self.busy_s
        } else {
            0.0
        }
    }
}

/// Aggregate result of one flowgraph run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeReport {
    /// Wall-clock seconds from scheduler start to the last block
    /// finishing.
    pub elapsed_s: f64,
    /// Worker threads the scheduler ran.
    pub workers: usize,
    /// Per-block counters, in flowgraph insertion order.
    pub blocks: Vec<BlockReport>,
}

impl RuntimeReport {
    /// The report for the named block, if present.
    pub fn block(&self, name: &str) -> Option<&BlockReport> {
        self.blocks.iter().find(|b| b.name == name)
    }

    /// Items the named sink-side port consumed per wall-clock second —
    /// the end-to-end streaming rate.
    pub fn end_to_end_rate(&self, sink_name: &str) -> f64 {
        match (self.block(sink_name), self.elapsed_s > 0.0) {
            (Some(b), true) => b.items_in as f64 / self.elapsed_s,
            _ => 0.0,
        }
    }
}

/// Hooks the scheduler calls while a flowgraph runs. All methods have
/// empty defaults; implement only what you consume. Called from worker
/// threads — implementations synchronise internally.
#[allow(unused_variables)]
pub trait RuntimeObserver: Send + Sync {
    /// A `work` call on `block` moved items: it consumed `consumed`,
    /// produced `produced` and took `elapsed_s` seconds.
    fn on_work(&self, block: &str, consumed: u64, produced: u64, elapsed_s: f64) {}

    /// Worker `worker` found no runnable block and parked.
    fn on_park(&self, worker: usize) {}

    /// Compatibility hook kept for existing observers; nothing calls it.
    fn on_steal(&self, worker: usize) {}

    /// A block finished; `report` holds its final counters.
    fn on_block_finished(&self, report: &BlockReport) {}
}

/// Per-block tally accumulated by [`RuntimeStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct BlockTally {
    /// Counted `work` calls.
    pub work_calls: u64,
    /// Items consumed.
    pub items_in: u64,
    /// Items produced.
    pub items_out: u64,
    /// Seconds inside `work`.
    pub busy_s: f64,
}

/// A ready-made observer tallying per-block work and worker parks.
///
/// Besides its own queryable tallies, the observer registers into the
/// process-wide telemetry registry: worker parks and total work calls
/// stream in live through handles resolved at construction (relaxed
/// atomics — nothing on the hot path allocates), and each block's final
/// counters land as `runtime_block_*` series when the block finishes,
/// so ctrl-socket `METRICS_REQ` scrapes see flowgraph throughput next
/// to the server's series.
#[derive(Debug)]
pub struct RuntimeStats {
    tallies: Mutex<HashMap<String, BlockTally>>,
    parks: AtomicU64,
    finished_blocks: AtomicU64,
    parks_total: softlora_telemetry::Counter,
    work_calls_total: softlora_telemetry::Counter,
}

impl Default for RuntimeStats {
    fn default() -> Self {
        let registry = softlora_telemetry::global();
        RuntimeStats {
            tallies: Mutex::new(HashMap::new()),
            parks: AtomicU64::new(0),
            finished_blocks: AtomicU64::new(0),
            parks_total: registry.counter("runtime_worker_parks_total"),
            work_calls_total: registry.counter("runtime_work_calls_total"),
        }
    }
}

impl RuntimeStats {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// The tally for one block so far.
    pub fn block(&self, name: &str) -> BlockTally {
        self.tallies.lock().expect("runtime stats poisoned").get(name).copied().unwrap_or_default()
    }

    /// Snapshot of every block tally, sorted by block name.
    pub fn snapshot(&self) -> Vec<(String, BlockTally)> {
        let mut v: Vec<(String, BlockTally)> = self
            .tallies
            .lock()
            .expect("runtime stats poisoned")
            .iter()
            .map(|(k, t)| (k.clone(), *t))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Times any worker parked for lack of work.
    pub fn parks(&self) -> u64 {
        self.parks.load(Ordering::Relaxed)
    }

    /// Blocks that have finished.
    pub fn finished_blocks(&self) -> u64 {
        self.finished_blocks.load(Ordering::Relaxed)
    }
}

impl RuntimeObserver for RuntimeStats {
    fn on_work(&self, block: &str, consumed: u64, produced: u64, elapsed_s: f64) {
        let mut tallies = self.tallies.lock().expect("runtime stats poisoned");
        // Look up by &str first: allocating the key String on every work
        // call would put a heap allocation on the streaming hot path.
        let t = match tallies.get_mut(block) {
            Some(t) => t,
            None => tallies.entry(block.to_string()).or_default(),
        };
        t.work_calls += 1;
        t.items_in += consumed;
        t.items_out += produced;
        t.busy_s += elapsed_s;
        drop(tallies);
        self.work_calls_total.inc();
    }

    fn on_park(&self, _worker: usize) {
        self.parks.fetch_add(1, Ordering::Relaxed);
        self.parks_total.inc();
    }

    fn on_block_finished(&self, report: &BlockReport) {
        self.finished_blocks.fetch_add(1, Ordering::Relaxed);
        // Cold path (once per block per run): fold the block's final
        // counters into the registry. Registration allocates the label
        // key on first sight of a block name, never per work call.
        let registry = softlora_telemetry::global();
        let labels: &[(&str, &str)] = &[("block", report.name.as_str())];
        registry.counter_with("runtime_block_work_calls_total", labels).add(report.work_calls);
        registry.counter_with("runtime_block_items_in_total", labels).add(report.items_in);
        registry.counter_with("runtime_block_items_out_total", labels).add(report.items_out);
        registry
            .counter_with("runtime_block_busy_ns_total", labels)
            .add((report.busy_s * 1e9) as u64);
        registry
            .gauge_with("runtime_block_throughput_per_s", labels)
            .set(report.throughput_per_s());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_tally_work_events() {
        let stats = RuntimeStats::new();
        stats.on_work("src", 0, 10, 1e-3);
        stats.on_work("src", 0, 5, 2e-3);
        stats.on_park(0);
        let t = stats.block("src");
        assert_eq!(t.work_calls, 2);
        assert_eq!(t.items_out, 15);
        assert!((t.busy_s - 3e-3).abs() < 1e-12);
        assert_eq!(stats.parks(), 1);
        assert_eq!(stats.block("missing"), BlockTally::default());
    }

    #[test]
    fn report_rates() {
        let r = BlockReport {
            name: "b".into(),
            work_calls: 4,
            items_in: 100,
            items_out: 100,
            busy_s: 0.5,
            mean_occupancy: 1.0,
        };
        assert!((r.latency_s() - 0.125).abs() < 1e-12);
        assert!((r.throughput_per_s() - 200.0).abs() < 1e-9);
        let report = RuntimeReport { elapsed_s: 2.0, workers: 1, blocks: vec![r] };
        assert!((report.end_to_end_rate("b") - 50.0).abs() < 1e-9);
        assert_eq!(report.end_to_end_rate("nope"), 0.0);
    }
}
