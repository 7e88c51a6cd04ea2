//! The multi-threaded flowgraph scheduler.
//!
//! Blocks are assigned round-robin to `workers` std threads. Each worker
//! loops over its blocks calling `work`; when a full pass moves nothing
//! (every block waiting on an empty or full ring) the worker **parks**,
//! and any worker that makes progress **unparks** the others — the
//! push/pop that created work is always followed by a wake-up, and a
//! short park timeout bounds the one benign race (a wake landing just
//! before the park).
//!
//! The run ends when every block has finished: sources report
//! [`WorkResult::Finished`](crate::WorkResult::Finished), closure
//! propagates down the rings, and downstream blocks drain before
//! finishing — no item is lost at shutdown.

use crate::flowgraph::{Flowgraph, Node, StepState};
use crate::observer::{RuntimeObserver, RuntimeReport};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// How long an idle worker sleeps before re-polling its blocks; bounds
/// the window of the park/unpark race without busy-spinning.
const PARK_TIMEOUT: Duration = Duration::from_micros(200);

/// Compatibility name kept for existing callers; there is one scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Static round-robin block assignment.
    #[default]
    RoundRobin,
}

/// Runs flowgraphs on a fixed pool of std worker threads.
#[derive(Debug, Clone)]
pub struct Scheduler {
    workers: usize,
}

impl Scheduler {
    /// A scheduler with `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        Scheduler { workers: workers.max(1) }
    }

    /// Compatibility constructor kept for existing callers; same as [`Scheduler::new`].
    pub fn with_kind(workers: usize, _kind: SchedulerKind) -> Self {
        Self::new(workers)
    }

    /// Worker threads this scheduler spawns.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `flowgraph` to completion and reports per-block counters;
    /// see the module docs.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from a block's `work` on the calling thread.
    pub fn run(&self, flowgraph: Flowgraph) -> RuntimeReport {
        let Flowgraph { nodes, observers } = flowgraph;
        let n_workers = self.workers.min(nodes.len()).max(1);
        let started = Instant::now();

        // Round-robin assignment; each worker owns its nodes outright.
        let mut buckets: Vec<Vec<(usize, Box<dyn Node>)>> =
            (0..n_workers).map(|_| Vec::new()).collect();
        for (idx, node) in nodes.into_iter().enumerate() {
            buckets[idx % n_workers].push((idx, node));
        }

        // Peer thread handles, registered at worker startup, so progress
        // on one worker can unpark the ring peers on the others.
        let peers: Arc<Mutex<Vec<thread::Thread>>> = Arc::new(Mutex::new(Vec::new()));

        let mut finished: Vec<(usize, Box<dyn Node>)> = thread::scope(|scope| {
            let handles: Vec<_> = buckets
                .into_iter()
                .enumerate()
                .map(|(worker, mut mine)| {
                    let peers = Arc::clone(&peers);
                    let observers: Vec<Arc<dyn RuntimeObserver>> = observers.clone();
                    scope.spawn(move || {
                        peers.lock().expect("scheduler peers poisoned").push(thread::current());
                        // Registration-list snapshot: the list only grows
                        // during startup, so once every worker has
                        // registered the steady-state wake path can use a
                        // lock-free local copy instead of re-locking the
                        // shared Mutex on every productive pass.
                        let mut peer_snapshot: Option<Vec<thread::Thread>> = None;
                        let wake = |snapshot: &mut Option<Vec<thread::Thread>>| {
                            if let Some(list) = snapshot {
                                for t in list.iter() {
                                    t.unpark();
                                }
                                return;
                            }
                            let list = peers.lock().expect("scheduler peers poisoned");
                            for t in list.iter() {
                                t.unpark();
                            }
                            if list.len() == n_workers {
                                *snapshot = Some(list.clone());
                            }
                        };
                        loop {
                            let mut progress = false;
                            let mut remaining = 0usize;
                            for (_, node) in mine.iter_mut() {
                                if node.is_finished() {
                                    continue;
                                }
                                remaining += 1;
                                if node.step(&observers) == StepState::Progress {
                                    progress = true;
                                }
                            }
                            if remaining == 0 {
                                // All of this worker's blocks are done;
                                // wake the others so they notice closed
                                // rings promptly.
                                wake(&mut peer_snapshot);
                                break;
                            }
                            if progress {
                                wake(&mut peer_snapshot);
                            } else {
                                for obs in &observers {
                                    obs.on_park(worker);
                                }
                                thread::park_timeout(PARK_TIMEOUT);
                            }
                        }
                        mine
                    })
                })
                .collect();
            handles.into_iter().flat_map(|h| h.join().expect("flowgraph worker panicked")).collect()
        });

        finished.sort_by_key(|(idx, _)| *idx);
        RuntimeReport {
            elapsed_s: started.elapsed().as_secs_f64(),
            workers: n_workers,
            blocks: finished.iter().map(|(_, node)| node.report()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blocks::{FnBlock, FnSink, FnSource};
    use crate::flowgraph::FlowgraphBuilder;
    use crate::observer::RuntimeStats;

    /// Runs source → double → sum over `count` items on `scheduler`,
    /// optionally pinning the builder's (compatibility) scheduler kind.
    fn run_sum(scheduler: &Scheduler, count: u64, pin: bool) -> (u64, RuntimeReport) {
        let sum = Arc::new(Mutex::new(0u64));
        let mut b = FlowgraphBuilder::new();
        if pin {
            b.scheduler(SchedulerKind::RoundRobin);
        }
        let mut k = 0u64;
        let src = b.source(FnSource::new("numbers", move || {
            k += 1;
            (k <= count).then_some(k)
        }));
        let doubled = b.stage(src, FnBlock::new("double", |x: u64| 2 * x));
        let sink_sum = Arc::clone(&sum);
        b.sink(
            &[doubled],
            FnSink::new("sum", move |x: u64| {
                *sink_sum.lock().unwrap() += x;
            }),
        );
        let report = scheduler.run(b.build().unwrap());
        let total = *sum.lock().unwrap();
        (total, report)
    }

    fn pipeline_sum(workers: usize, count: u64) -> (u64, RuntimeReport) {
        run_sum(&Scheduler::new(workers), count, false)
    }

    #[test]
    fn drains_every_item_single_worker() {
        let (total, report) = pipeline_sum(1, 10_000);
        assert_eq!(total, 10_000 * 10_001); // 2 * n(n+1)/2
        assert_eq!(report.workers, 1);
        assert_eq!(report.block("sum").unwrap().items_in, 10_000);
    }

    #[test]
    fn drains_every_item_multi_worker() {
        // The shutdown/drain property: when the source finishes, every
        // in-flight item still reaches the sink, on any worker count.
        for workers in [2, 3, 8] {
            let (total, report) = pipeline_sum(workers, 8_000);
            assert_eq!(total, 8_000 * 8_001, "workers={workers}");
            assert_eq!(report.block("numbers").unwrap().items_out, 8_000);
            assert_eq!(report.block("double").unwrap().items_in, 8_000);
            assert_eq!(report.block("double").unwrap().items_out, 8_000);
            assert_eq!(report.block("sum").unwrap().items_in, 8_000);
        }
    }

    #[test]
    fn observer_sees_work_and_finish() {
        let stats = Arc::new(RuntimeStats::new());
        let mut b = FlowgraphBuilder::new();
        let mut k = 0u64;
        let src = b.source(FnSource::new("numbers", move || {
            k += 1;
            (k <= 500).then_some(k)
        }));
        b.observer(Arc::clone(&stats) as Arc<dyn RuntimeObserver>);
        b.sink(&[src], FnSink::new("devnull", |_x: u64| {}));
        let report = Scheduler::new(2).run(b.build().unwrap());
        assert_eq!(stats.block("numbers").items_out, 500);
        assert_eq!(stats.block("devnull").items_in, 500);
        assert_eq!(stats.finished_blocks(), 2);
        assert_eq!(report.blocks.len(), 2);
        assert!(report.elapsed_s > 0.0);
        assert!(report.block("numbers").unwrap().work_calls >= 1);
    }

    #[test]
    fn early_sink_finish_unwinds_the_graph() {
        // A sink that quits after 10 items: the source and the map block
        // must not wedge on full rings — abandonment propagates upstream
        // and the whole run terminates (the regression here was a
        // livelock: upstream blocks polling NeedsOutput forever).
        use crate::block::{Block, WorkIo, WorkResult};
        struct QuitterSink {
            seen: usize,
        }
        impl Block for QuitterSink {
            type In = u64;
            type Out = ();
            fn name(&self) -> &str {
                "quitter"
            }
            fn work(&mut self, io: &mut WorkIo<'_, u64, ()>) -> WorkResult {
                match io.input().pop() {
                    Some(_) => {
                        self.seen += 1;
                        if self.seen >= 10 {
                            WorkResult::Finished
                        } else {
                            WorkResult::Produced(1)
                        }
                    }
                    None if io.input().is_finished() => WorkResult::Finished,
                    None => WorkResult::NeedsInput,
                }
            }
        }

        let mut b = FlowgraphBuilder::new();
        let mut k = 0u64;
        // Far more items than the quitter consumes and than the rings
        // (2 × 256 slots) can buffer.
        let src = b.source(FnSource::new("numbers", move || {
            k += 1;
            (k <= 100_000).then_some(k)
        }));
        let mapped = b.stage(src, FnBlock::new("map", |x: u64| x));
        b.sink(&[mapped], QuitterSink { seen: 0 });
        let report = Scheduler::new(2).run(b.build().unwrap());
        let quitter = report.block("quitter").unwrap();
        assert_eq!(quitter.items_in, 10);
        // Every block finished; nothing was left running or parked.
        assert_eq!(report.blocks.len(), 3);
    }

    #[test]
    fn more_workers_than_blocks_is_fine() {
        let (total, report) = pipeline_sum(32, 100);
        assert_eq!(total, 100 * 101);
        assert!(report.workers <= 3, "workers clamp to block count");
    }

    #[test]
    fn kind_selection_defaults_and_overrides() {
        // The compatibility names select nothing: `with_kind` and a
        // builder pin drain the same graph exactly as `Scheduler::new`.
        assert_eq!(SchedulerKind::default(), SchedulerKind::RoundRobin);
        let s = Scheduler::with_kind(3, SchedulerKind::RoundRobin);
        assert_eq!(s.workers(), Scheduler::new(3).workers());
        let (want, base) = run_sum(&Scheduler::new(3), 5_000, false);
        for (total, report) in [run_sum(&s, 5_000, false), run_sum(&Scheduler::new(3), 5_000, true)]
        {
            assert_eq!(total, want);
            assert_eq!(report.workers, base.workers);
            for (got, expected) in report.blocks.iter().zip(&base.blocks) {
                assert_eq!(
                    (&got.name, got.items_in, got.items_out),
                    (&expected.name, expected.items_in, expected.items_out)
                );
            }
        }
    }
}
