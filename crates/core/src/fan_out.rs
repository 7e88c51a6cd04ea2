//! Batch fan-out over arenas the caller owns.
//!
//! [`crate::NetworkServer::process_batch`] maps independent work — one
//! front half per frame copy, one commit run per busy tail shard —
//! across the calling thread and scoped helper threads. Each worker
//! borrows one arena for the whole call, and the arenas belong to the
//! server, so what they cache (a [`DspScratch`]'s FFT plans and pooled
//! buffers) outlives the call.

use softlora_dsp::scratch::DspScratch;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// The host's available parallelism: the default shard count and the
/// number of arenas a server owns. Read once per process: on
/// Linux the query reads cgroup files, which would otherwise dominate
/// building a small server.
pub(crate) fn host_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    })
}

/// One fresh arena per unit of [`host_width`], built once with the
/// server that owns them.
pub(crate) fn host_arenas() -> Vec<DspScratch> {
    (0..host_width()).map(|_| DspScratch::new()).collect()
}

/// Maps `items` through `f` on up to `arenas.len()` workers and returns
/// the results in input order.
///
/// The calling thread is worker 0 and uses `arenas[0]`; worker `w ≥ 1`
/// runs on a scoped thread and uses `arenas[w]`. Workers claim items one
/// at a time from a shared cursor, so a worker that drew cheap items
/// takes more of them instead of idling at the join. Which arena runs
/// which item therefore varies from call to call, so `f`'s result must
/// not depend on the arena's state. With one arena, or at most one item,
/// everything runs on the calling thread. A worker's panic is re-raised
/// on the caller.
///
/// # Panics
///
/// When `arenas` is empty.
pub(crate) fn fan_out<S, T, R, F>(arenas: &mut [S], items: Vec<T>, f: F) -> Vec<R>
where
    S: Send,
    T: Send,
    R: Send,
    F: Fn(&mut S, T) -> R + Sync,
{
    assert!(!arenas.is_empty(), "fan-out needs at least one arena");
    let width = arenas.len().min(items.len());
    if width <= 1 {
        let arena = &mut arenas[0];
        return items.into_iter().map(|item| f(arena, item)).collect();
    }
    // Slot `i` holds item `i` until a worker claims it, then its result.
    let slots: Vec<Mutex<(Option<T>, Option<R>)>> =
        items.into_iter().map(|item| Mutex::new((Some(item), None))).collect();
    // The cursor only hands out indices (each exactly once, by the
    // atomic add); the slot mutexes carry the data, and the join
    // publishes the results, so `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let work = |arena: &mut S| {
        while let Some(slot) = slots.get(cursor.fetch_add(1, Ordering::Relaxed)) {
            let item = slot.lock().expect(POISONED).0.take().expect("each index is claimed once");
            let result = f(arena, item);
            slot.lock().expect(POISONED).1 = Some(result);
        }
    };
    let work = &work;
    let (first, rest) = arenas[..width].split_first_mut().expect("width is at least two");
    std::thread::scope(|scope| {
        let helpers: Vec<_> =
            rest.iter_mut().map(|arena| scope.spawn(move || work(arena))).collect();
        work(first);
        for helper in helpers {
            helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect(POISONED).1.expect("every item ran"))
        .collect()
}

/// A slot lock is held only to move an item out or a result in, never
/// across `f`, so poisoning means a bug in this module.
const POISONED: &str = "fan-out slot poisoned";

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;
    use std::sync::Barrier;

    #[test]
    fn order_is_preserved_for_any_arena_count() {
        let input: Vec<u64> = (0..10_007).collect();
        for width in [1, 2, 4] {
            let mut arenas = vec![(); width];
            let out = fan_out(&mut arenas, input.clone(), |_, x| x * 3);
            assert_eq!(out, input.iter().map(|x| x * 3).collect::<Vec<_>>(), "width {width}");
        }
    }

    #[test]
    fn arena_state_is_reused_within_and_across_calls() {
        // Each arena counts the items its worker ran; each item counts
        // how often it ran.
        let mut arenas = vec![0u64; 3];
        let input: Vec<u64> = (0..5000).collect();
        let runs: Vec<AtomicU32> = input.iter().map(|_| AtomicU32::new(0)).collect();
        let seen = |count: &mut u64, x: u64| {
            *count += 1;
            runs[x as usize].fetch_add(1, Ordering::Relaxed);
            x
        };
        let out = fan_out(&mut arenas, input.clone(), seen);
        assert_eq!(out, input, "results come back in input order");
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 1), "every item runs once");
        assert_eq!(arenas.iter().sum::<u64>(), 5000);
        fan_out(&mut arenas, input, seen);
        assert!(runs.iter().all(|r| r.load(Ordering::Relaxed) == 2));
        assert_eq!(arenas.iter().sum::<u64>(), 10_000, "an arena was rebuilt between calls");
    }

    #[test]
    fn several_arenas_run_on_several_threads() {
        let threads = Mutex::new(HashSet::new());
        // Each of the first four items blocks until four workers hold
        // one, so no worker can drain the cursor alone.
        let barrier = Barrier::new(4);
        let mut arenas = vec![(); 4];
        fan_out(&mut arenas, (0..4096).collect(), |_, x: usize| {
            if x < 4 {
                threads.lock().unwrap().insert(std::thread::current().id());
                barrier.wait();
            }
        });
        // The width comes from the arenas, not the host: even on one core
        // the four workers are four threads, the caller among them.
        let threads = threads.into_inner().unwrap();
        assert_eq!(threads.len(), 4);
        assert!(threads.contains(&std::thread::current().id()));
    }
}
