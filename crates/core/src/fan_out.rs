//! Batch fan-out over arenas the caller owns.
//!
//! [`crate::SoftLoraGateway::process_batch`] and
//! [`crate::NetworkServer::process_batch`] map independent work — one
//! front half per frame copy, one commit run per tail shard — across
//! scoped threads. Each worker borrows one arena for its whole chunk, and
//! the arenas belong to the gateway or server, so what they cache (a
//! [`DspScratch`]'s FFT plans and pooled buffers) outlives the call.

use softlora_dsp::scratch::DspScratch;
use std::sync::OnceLock;

/// The host's available parallelism: the default shard count and the
/// number of arenas a gateway or server owns. Read once per process: on
/// Linux the query reads cgroup files, which would otherwise dominate
/// building a small server.
pub(crate) fn host_width() -> usize {
    static WIDTH: OnceLock<usize> = OnceLock::new();
    *WIDTH.get_or_init(|| {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    })
}

/// One fresh arena per unit of [`host_width`], built once with the
/// gateway or server that owns them.
pub(crate) fn host_arenas() -> Vec<DspScratch> {
    (0..host_width()).map(|_| DspScratch::new()).collect()
}

/// Maps `items` through `f` on up to `arenas.len()` scoped threads and
/// returns the results in input order.
///
/// The items are split into contiguous chunks, one per worker, and the
/// worker running chunk `w` gets `&mut arenas[w]` for all of it. With one
/// arena, or at most one item, everything runs on the calling thread
/// against `arenas[0]`. A worker's panic is re-raised on the caller.
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
    let n = items.len();
    if arenas.len() == 1 || n <= 1 {
        let arena = &mut arenas[0];
        return items.into_iter().map(|item| f(arena, item)).collect();
    }
    let chunk = n.div_ceil(arenas.len().min(n));
    let f = &f;
    let mut items = items.into_iter();
    std::thread::scope(|scope| {
        let workers: Vec<_> = arenas[..n.div_ceil(chunk)]
            .iter_mut()
            .map(|arena| {
                let part: Vec<T> = items.by_ref().take(chunk).collect();
                scope.spawn(move || part.into_iter().map(|item| f(arena, item)).collect::<Vec<R>>())
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

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
        // Each arena counts the items its worker handled.
        let mut arenas = vec![0u64; 3];
        let input: Vec<u64> = (0..5000).collect();
        let seen = |count: &mut u64, x: u64| {
            *count += 1;
            (x, *count)
        };
        let out = fan_out(&mut arenas, input.clone(), seen);
        assert_eq!(out.iter().map(|(x, _)| *x).collect::<Vec<_>>(), input);
        // Within a chunk, one arena's count climbs item after item.
        assert!(out.windows(2).all(|w| w[1].1 == w[0].1 + 1 || w[1].1 == 1));
        assert_eq!(arenas.iter().sum::<u64>(), 5000);
        let after_first = arenas.clone();
        fan_out(&mut arenas, input, seen);
        for (before, after) in after_first.iter().zip(&arenas) {
            assert_eq!(*after, 2 * before, "an arena was rebuilt between calls");
        }
    }

    #[test]
    fn several_arenas_run_on_several_threads() {
        let threads = Mutex::new(HashSet::new());
        let mut arenas = vec![(); 4];
        fan_out(&mut arenas, (0..4096).collect(), |_, _: usize| {
            threads.lock().unwrap().insert(std::thread::current().id());
        });
        // The width comes from the arenas, not the host: even on one core
        // the four chunks run on four threads.
        assert_eq!(threads.lock().unwrap().len(), 4);
    }
}
