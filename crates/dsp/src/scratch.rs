//! Reusable per-worker scratch memory for the per-frame signal path.
//!
//! Every received frame runs the same DSP chain (dechirp, FFT, onset
//! pick, FB estimation), and before this module existed each link of that
//! chain allocated fresh `Vec`s per call — the front half of the gateway
//! was allocation-bound, not compute-bound. A [`DspScratch`] bundles an
//! [`FftPlanner`] with pools of complex/real buffers so a worker can run
//! the whole chain allocation-free in steady state: the first few frames
//! warm the pools (and the twiddle tables), after which `take`/`put`
//! cycles only move capacity around.
//!
//! # Checkout semantics
//!
//! Buffers are checked out **by value**: [`DspScratch::take_complex`]
//! pops the most recently returned buffer (LIFO), clears it and resizes
//! it to the requested length (zero-filled), and [`DspScratch::put_complex`]
//! returns it for reuse. Holding buffers by value sidesteps borrow
//! conflicts when a computation needs several buffers at once; forgetting
//! to `put` a buffer back is not an error, it just costs a fresh
//! allocation on the next `take`.
//!
//! Because checkout is LIFO and a frame's call chain is shaped the same
//! way every time, each `take` resolves to a buffer whose capacity
//! already fits — which is what makes the steady state allocation-free
//! (pinned by the counting-allocator test in `softlora-bench`).
//!
//! # Ownership
//!
//! Every arena has exactly one owner, and it lives as long as that owner:
//!
//! * a flowgraph front block owns one and uses it for every copy it
//!   analyses;
//! * a `NetworkServer` owns one arena per unit of the host's available
//!   parallelism, built with it. `process_batch` (and so
//!   `process_delivery`) hands worker `w` of its fan-out `&mut arenas[w]`
//!   for the whole call; the calling thread is worker 0;
//! * tests, benches and the figure experiments make one and reuse it
//!   across their loops.
//!
//! So FFT plans and pooled buffers outlive a batch: a warm second
//! `process_batch` builds no plan (pinned by `batch_plan_reuse` in
//! `softlora-bench`). No arena lives in a thread-local: every routine of
//! the signal path takes the caller's `&mut DspScratch`.

use crate::complex::Complex;
use crate::fft::FftPlanner;

/// A per-worker arena: an FFT planner plus pooled complex/real buffers.
///
/// Each arena has one owner (see the module docs); a worker borrows it
/// mutably for as long as it runs.
#[derive(Debug, Default)]
pub struct DspScratch {
    planner: FftPlanner,
    complex: Vec<Vec<Complex>>,
    real: Vec<Vec<f64>>,
}

impl DspScratch {
    /// Creates an empty arena; pools and twiddle tables fill on first use.
    pub fn new() -> Self {
        DspScratch::default()
    }

    /// The arena's FFT planner (cached twiddle tables per size).
    pub fn planner(&mut self) -> &mut FftPlanner {
        &mut self.planner
    }

    /// Checks out a complex buffer of exactly `len` zeroed elements.
    pub fn take_complex(&mut self, len: usize) -> Vec<Complex> {
        let mut buf = self.complex.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, Complex::ZERO);
        buf
    }

    /// Checks out an empty complex buffer (capacity reused; fill it
    /// yourself with `extend`/`push`).
    pub fn take_complex_empty(&mut self) -> Vec<Complex> {
        let mut buf = self.complex.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a complex buffer to the pool.
    pub fn put_complex(&mut self, buf: Vec<Complex>) {
        if buf.capacity() > 0 {
            self.complex.push(buf);
        }
    }

    /// Checks out a zeroed batch lane: `frames` contiguous `n`-point
    /// frames in one buffer, shaped for [`crate::fft::FftPlan::forward_many`].
    /// Return it with [`DspScratch::put_complex`].
    pub fn take_batch(&mut self, frames: usize, n: usize) -> Vec<Complex> {
        self.take_complex(frames * n)
    }

    /// Checks out a real buffer of exactly `len` zeroed elements.
    pub fn take_real(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.real.pop().unwrap_or_default();
        buf.clear();
        buf.resize(len, 0.0);
        buf
    }

    /// Checks out an empty real buffer (capacity reused).
    pub fn take_real_empty(&mut self) -> Vec<f64> {
        let mut buf = self.real.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a real buffer to the pool.
    pub fn put_real(&mut self, buf: Vec<f64>) {
        if buf.capacity() > 0 {
            self.real.push(buf);
        }
    }

    /// Buffers currently parked in the pools, `(complex, real)` — useful
    /// for asserting that a code path returns what it takes.
    pub fn pooled(&self) -> (usize, usize) {
        (self.complex.len(), self.real.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_and_sized() {
        let mut s = DspScratch::new();
        let mut c = s.take_complex(8);
        assert_eq!(c.len(), 8);
        assert!(c.iter().all(|z| *z == Complex::ZERO));
        c[3] = Complex::ONE;
        s.put_complex(c);
        // Reused buffer comes back zeroed at the new length.
        let c = s.take_complex(4);
        assert_eq!(c.len(), 4);
        assert!(c.iter().all(|z| *z == Complex::ZERO));
    }

    #[test]
    fn pool_reuses_capacity() {
        let mut s = DspScratch::new();
        let c = s.take_complex(1024);
        let ptr = c.as_ptr();
        s.put_complex(c);
        let c = s.take_complex(512);
        assert_eq!(c.as_ptr(), ptr, "LIFO take must reuse the returned buffer");
        s.put_complex(c);
        assert_eq!(s.pooled(), (1, 0));
    }

    #[test]
    fn real_pool_round_trips() {
        let mut s = DspScratch::new();
        let mut r = s.take_real_empty();
        r.extend([1.0, 2.0]);
        s.put_real(r);
        let r = s.take_real(3);
        assert_eq!(r, vec![0.0; 3]);
    }

    #[test]
    fn empty_buffers_are_not_pooled() {
        let mut s = DspScratch::new();
        s.put_complex(Vec::new());
        s.put_real(Vec::new());
        assert_eq!(s.pooled(), (0, 0));
    }

    #[test]
    fn planner_is_per_arena() {
        let mut s = DspScratch::new();
        let plan = s.planner().plan_arc(256);
        assert_eq!(plan.len(), 256);
    }
}
