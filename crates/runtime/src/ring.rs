//! Lock-free single-producer / single-consumer ring buffer.
//!
//! The transport under every flowgraph edge: a bounded queue with a
//! const-generic capacity, `AtomicUsize` head/tail counters and **no
//! locks** — the producer owns the tail, the consumer owns the head, and
//! each side caches the other's counter so the uncontended fast path is a
//! plain load/store pair. Counters are free-running (they never wrap
//! modulo the capacity; slots are addressed by `position % N`), which
//! makes full/empty tests exact without a spare slot.
//!
//! Closing is one-way and producer-driven: [`Producer::close`] (or
//! dropping the producer) marks the stream finished, and the consumer
//! observes [`Consumer::is_finished`] once the remaining items have
//! drained — the shutdown/drain handshake the scheduler relies on so no
//! items are lost when a source completes.
//!
//! Both halves are also exposed through the object-safe [`PushRing`] /
//! [`PopRing`] traits so the flowgraph can erase the capacity parameter
//! when wiring blocks of heterogeneous ring sizes.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shared state of one SPSC ring.
struct Shared<T, const N: usize> {
    /// Slot storage; slot `p % N` holds the item pushed at position `p`.
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next position to pop (written only by the consumer).
    head: AtomicUsize,
    /// Next position to push (written only by the producer).
    tail: AtomicUsize,
    /// Whether the producer has finished the stream.
    closed: AtomicBool,
    /// Whether the consumer has abandoned the stream (it will never pop
    /// again). Pushes then succeed as drops so an upstream block can
    /// never deadlock against a finished downstream.
    abandoned: AtomicBool,
}

// SAFETY: the producer/consumer halves hand `T`s across threads exactly
// once each (ownership transfer through the slot), so `T: Send` suffices.
unsafe impl<T: Send, const N: usize> Send for Shared<T, N> {}
unsafe impl<T: Send, const N: usize> Sync for Shared<T, N> {}

impl<T, const N: usize> Drop for Shared<T, N> {
    fn drop(&mut self) {
        // Last owner: no concurrency; drop whatever is still queued.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        for pos in head..tail {
            // SAFETY: positions in `head..tail` hold initialised items.
            unsafe { (*self.buf[pos % N].get()).assume_init_drop() };
        }
    }
}

/// Creates a connected producer/consumer pair over a fresh ring of
/// capacity `N`.
///
/// # Panics
///
/// Panics if `N` is zero.
///
/// # Example
///
/// ```
/// let (mut tx, mut rx) = softlora_runtime::ring::channel::<u32, 4>();
/// assert!(tx.push(7).is_ok());
/// assert_eq!(rx.pop(), Some(7));
/// assert_eq!(rx.pop(), None);
/// ```
pub fn channel<T: Send, const N: usize>() -> (Producer<T, N>, Consumer<T, N>) {
    assert!(N > 0, "ring capacity must be non-zero");
    let buf: Box<[UnsafeCell<MaybeUninit<T>>]> =
        (0..N).map(|_| UnsafeCell::new(MaybeUninit::uninit())).collect();
    let shared = Arc::new(Shared {
        buf,
        head: AtomicUsize::new(0),
        tail: AtomicUsize::new(0),
        closed: AtomicBool::new(false),
        abandoned: AtomicBool::new(false),
    });
    (
        Producer { shared: Arc::clone(&shared), tail: 0, cached_head: 0 },
        Consumer { shared, head: 0, cached_tail: 0 },
    )
}

/// The producing half of an SPSC ring. Not clonable — single producer.
pub struct Producer<T: Send, const N: usize> {
    shared: Arc<Shared<T, N>>,
    /// Local mirror of the shared tail (only this side writes it).
    tail: usize,
    /// Last observed head; refreshed only when the ring looks full.
    cached_head: usize,
}

impl<T: Send, const N: usize> Producer<T, N> {
    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        N
    }

    /// Free slots, refreshing the consumer-side view. An abandoned ring
    /// reports full capacity: pushes to it always succeed (as drops when
    /// the slots are genuinely full), so it must never read as
    /// backpressure.
    pub fn free(&mut self) -> usize {
        if self.is_abandoned() {
            return N;
        }
        self.cached_head = self.shared.head.load(Ordering::Acquire);
        N - (self.tail - self.cached_head)
    }

    /// Items currently queued, from the producer's view.
    pub fn len(&mut self) -> usize {
        if self.is_abandoned() {
            return 0;
        }
        self.cached_head = self.shared.head.load(Ordering::Acquire);
        self.tail - self.cached_head
    }

    /// Whether the ring currently holds no items.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Whether the consumer has abandoned the stream (further pushes are
    /// accepted but dropped).
    pub fn is_abandoned(&self) -> bool {
        self.shared.abandoned.load(Ordering::Acquire)
    }

    /// Pushes one item; returns it back when the ring is full. When the
    /// consumer has abandoned the stream the push succeeds as a drop —
    /// backpressure from a dead downstream would otherwise wedge the
    /// producer forever.
    pub fn push(&mut self, item: T) -> Result<(), T> {
        if self.tail - self.cached_head == N {
            self.cached_head = self.shared.head.load(Ordering::Acquire);
            if self.tail - self.cached_head == N {
                if self.is_abandoned() {
                    drop(item);
                    return Ok(());
                }
                return Err(item);
            }
        }
        // SAFETY: the slot at `tail` is free (tail - head < N) and only
        // the single producer writes slots at the tail.
        unsafe { (*self.shared.buf[self.tail % N].get()).write(item) };
        self.tail += 1;
        self.shared.tail.store(self.tail, Ordering::Release);
        Ok(())
    }

    /// Pushes as many items as fit from the front of `items`, removing
    /// them from the vector. Returns how many were moved. One atomic
    /// store publishes the whole batch. Like [`Producer::push`], an
    /// abandoned ring swallows the whole batch.
    pub fn push_batch(&mut self, items: &mut Vec<T>) -> usize {
        if self.is_abandoned() {
            let n = items.len();
            items.clear();
            return n;
        }
        // Real occupancy, NOT `free()`: that method short-circuits to `N`
        // on an abandoned ring, and the consumer may abandon concurrently
        // between the check above and here — writing `N` items on that
        // basis would overwrite occupied slots mid-drain (a data race).
        // Slots counted free against the actual head are safe to write
        // whatever the consumer does afterwards.
        self.cached_head = self.shared.head.load(Ordering::Acquire);
        let n = (N - (self.tail - self.cached_head)).min(items.len());
        for item in items.drain(..n) {
            // SAFETY: `n` slots were free and we are the only producer.
            unsafe { (*self.shared.buf[self.tail % N].get()).write(item) };
            self.tail += 1;
        }
        if n > 0 {
            self.shared.tail.store(self.tail, Ordering::Release);
        }
        n
    }

    /// Marks the stream finished. Items already queued remain poppable;
    /// further pushes would still succeed but by convention a closed
    /// producer pushes no more.
    pub fn close(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
    }
}

impl<T: Send, const N: usize> Drop for Producer<T, N> {
    fn drop(&mut self) {
        self.close();
    }
}

/// The consuming half of an SPSC ring. Not clonable — single consumer.
pub struct Consumer<T: Send, const N: usize> {
    shared: Arc<Shared<T, N>>,
    /// Local mirror of the shared head (only this side writes it).
    head: usize,
    /// Last observed tail; refreshed only when the ring looks empty.
    cached_tail: usize,
}

impl<T: Send, const N: usize> Consumer<T, N> {
    /// The ring capacity.
    pub fn capacity(&self) -> usize {
        N
    }

    /// Items available to pop, refreshing the producer-side view.
    pub fn len(&mut self) -> usize {
        self.cached_tail = self.shared.tail.load(Ordering::Acquire);
        self.cached_tail - self.head
    }

    /// Whether no items are currently available.
    pub fn is_empty(&mut self) -> bool {
        self.len() == 0
    }

    /// Pops one item, or `None` when the ring is empty.
    pub fn pop(&mut self) -> Option<T> {
        if self.cached_tail == self.head {
            self.cached_tail = self.shared.tail.load(Ordering::Acquire);
            if self.cached_tail == self.head {
                return None;
            }
        }
        // SAFETY: head < tail, so the slot holds an initialised item and
        // only the single consumer reads slots at the head.
        let item = unsafe { (*self.shared.buf[self.head % N].get()).assume_init_read() };
        self.head += 1;
        self.shared.head.store(self.head, Ordering::Release);
        Some(item)
    }

    /// Pops up to `max` items into `out`, returning how many were moved.
    /// One atomic store releases all the freed slots.
    pub fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        let n = self.len().min(max);
        out.reserve(n);
        for _ in 0..n {
            // SAFETY: `n` items were available and we are the only
            // consumer.
            let item = unsafe { (*self.shared.buf[self.head % N].get()).assume_init_read() };
            self.head += 1;
            out.push(item);
        }
        if n > 0 {
            self.shared.head.store(self.head, Ordering::Release);
        }
        n
    }

    /// Whether the producer has closed the stream (items may remain).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Declares that this consumer will never pop again. Queued and
    /// future pushes are silently dropped, releasing any producer
    /// blocked on a full ring (see [`Producer::push`]).
    pub fn abandon(&mut self) {
        self.shared.abandoned.store(true, Ordering::Release);
        // Drain what is already queued so the producer sees free slots
        // immediately (and queued items drop now, not at ring teardown).
        while self.pop().is_some() {}
    }

    /// Whether the stream is closed **and** fully drained — the
    /// end-of-stream condition. The close flag is read before the tail,
    /// so a `true` here can never race ahead of in-flight items.
    pub fn is_finished(&mut self) -> bool {
        if !self.is_closed() {
            return false;
        }
        self.is_empty()
    }
}

/// Object-safe producing side of a ring, erasing the capacity parameter.
pub trait PushRing<T>: Send {
    /// Pushes one item; returns it back when the ring is full.
    fn try_push(&mut self, item: T) -> Result<(), T>;
    /// Moves as many items as fit from the front of `items`.
    fn push_batch(&mut self, items: &mut Vec<T>) -> usize;
    /// Free slots.
    fn free(&mut self) -> usize;
    /// Items queued.
    fn len(&mut self) -> usize;
    /// Whether no items are queued.
    fn is_empty(&mut self) -> bool {
        self.len() == 0
    }
    /// Ring capacity.
    fn capacity(&self) -> usize;
    /// Marks the stream finished.
    fn close(&mut self);
    /// Whether the consumer has abandoned the stream.
    fn is_abandoned(&self) -> bool;
}

impl<T: Send, const N: usize> PushRing<T> for Producer<T, N> {
    fn try_push(&mut self, item: T) -> Result<(), T> {
        self.push(item)
    }
    fn push_batch(&mut self, items: &mut Vec<T>) -> usize {
        Producer::push_batch(self, items)
    }
    fn free(&mut self) -> usize {
        Producer::free(self)
    }
    fn len(&mut self) -> usize {
        Producer::len(self)
    }
    fn capacity(&self) -> usize {
        Producer::capacity(self)
    }
    fn close(&mut self) {
        Producer::close(self)
    }
    fn is_abandoned(&self) -> bool {
        Producer::is_abandoned(self)
    }
}

/// Object-safe consuming side of a ring, erasing the capacity parameter.
pub trait PopRing<T>: Send {
    /// Pops one item, or `None` when empty.
    fn try_pop(&mut self) -> Option<T>;
    /// Pops up to `max` items into `out`.
    fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize;
    /// Items available.
    fn len(&mut self) -> usize;
    /// Whether no items are available.
    fn is_empty(&mut self) -> bool {
        self.len() == 0
    }
    /// Whether the stream is closed and fully drained.
    fn is_finished(&mut self) -> bool;
    /// Declares that this consumer will never pop again.
    fn abandon(&mut self);
}

impl<T: Send, const N: usize> PopRing<T> for Consumer<T, N> {
    fn try_pop(&mut self) -> Option<T> {
        self.pop()
    }
    fn pop_batch(&mut self, out: &mut Vec<T>, max: usize) -> usize {
        Consumer::pop_batch(self, out, max)
    }
    fn len(&mut self) -> usize {
        Consumer::len(self)
    }
    fn is_finished(&mut self) -> bool {
        Consumer::is_finished(self)
    }
    fn abandon(&mut self) {
        Consumer::abandon(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_capacity() {
        let (mut tx, mut rx) = channel::<u32, 3>();
        assert_eq!(tx.capacity(), 3);
        assert!(tx.push(1).is_ok());
        assert!(tx.push(2).is_ok());
        assert!(tx.push(3).is_ok());
        assert_eq!(tx.push(4), Err(4), "full ring rejects");
        assert_eq!(rx.pop(), Some(1));
        assert!(tx.push(4).is_ok(), "freed slot reusable");
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), Some(3));
        assert_eq!(rx.pop(), Some(4));
        assert_eq!(rx.pop(), None);
    }

    #[test]
    fn wrap_around_many_times() {
        let (mut tx, mut rx) = channel::<u64, 2>();
        for k in 0..1000u64 {
            assert!(tx.push(k).is_ok());
            assert_eq!(rx.pop(), Some(k));
        }
        assert!(rx.is_empty());
    }

    #[test]
    fn batched_push_pop() {
        let (mut tx, mut rx) = channel::<u32, 8>();
        let mut items: Vec<u32> = (0..12).collect();
        assert_eq!(tx.push_batch(&mut items), 8);
        assert_eq!(items, vec![8, 9, 10, 11], "unmoved items stay");
        let mut out = Vec::new();
        assert_eq!(rx.pop_batch(&mut out, 5), 5);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(tx.push_batch(&mut items), 4);
        assert!(items.is_empty());
        assert_eq!(rx.pop_batch(&mut out, usize::MAX), 7);
        assert_eq!(out, (0..12).collect::<Vec<u32>>());
    }

    #[test]
    fn close_then_drain_is_finished() {
        let (mut tx, mut rx) = channel::<u8, 4>();
        tx.push(9).unwrap();
        assert!(!rx.is_finished());
        tx.close();
        assert!(rx.is_closed());
        assert!(!rx.is_finished(), "closed but not drained");
        assert_eq!(rx.pop(), Some(9));
        assert!(rx.is_finished());
    }

    #[test]
    fn dropping_producer_closes() {
        let (tx, mut rx) = channel::<u8, 4>();
        drop(tx);
        assert!(rx.is_finished());
    }

    #[test]
    fn queued_items_dropped_with_ring() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::Relaxed);
            }
        }
        let (mut tx, rx) = channel::<Counted, 4>();
        tx.push(Counted).unwrap();
        tx.push(Counted).unwrap();
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn cross_thread_stream_preserves_sequence() {
        let (mut tx, mut rx) = channel::<u64, 16>();
        const COUNT: u64 = 20_000;
        let handle = std::thread::spawn(move || {
            let mut next = 0u64;
            while next < COUNT {
                if tx.push(next).is_ok() {
                    next += 1;
                } else {
                    std::thread::yield_now();
                }
            }
        });
        let mut seen = 0u64;
        while seen < COUNT {
            if let Some(v) = rx.pop() {
                assert_eq!(v, seen, "items arrive exactly once, in order");
                seen += 1;
            } else {
                std::thread::yield_now();
            }
        }
        handle.join().unwrap();
        assert_eq!(rx.pop(), None);
    }
}
