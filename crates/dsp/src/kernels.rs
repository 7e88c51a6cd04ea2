//! Vector-friendly inner-loop kernels for the dechirp signal path, plus
//! the process-wide fast-kernel switch.
//!
//! The per-frame budget of the receiver is spent in two loop shapes:
//! elementwise complex multiplies (the dechirp: a
//! `volk_32fc_x2_multiply` shape, see FutureSDR's `fft_demod.rs`) and
//! the FFT butterflies they feed. This module keeps **portable and
//! specialized paths side by side** (futuredsp kernel/taps style): every
//! kernel has a `_reference` form — the exact loop the consumer ran
//! before, bounds checks and all — and a `_chunked` form written over
//! `[f64; LANES]` blocks so the autovectorizer emits packed arithmetic.
//! The chunked forms perform the **same floating-point operations in the
//! same per-element order** as the reference forms, so they are
//! bit-for-bit identical (pinned by `kernel_equivalence` proptests), and
//! the top-level entry points may select either path freely.
//!
//! # Kernel selection
//!
//! [`fast_kernels`] is a process-wide switch, seeded from the
//! `SOFTLORA_DSP_KERNEL` environment variable (`reference`/`0`/`off`
//! disable, anything else — including unset — enables) and adjustable at
//! runtime via [`set_fast_kernels`] (e.g. from `SoftLoraConfig`). It
//! controls which loop shape runs *and* whether
//! [`crate::fft::FftPlanner::forward_real_into`] may use the N/2
//! real-input transform (the only path that is ulp-close rather than
//! bit-identical). Flip it before the first frame of a run: planners
//! capture the FFT schedule when a plan is built (both schedules are
//! bit-identical, so a stale schedule is a perf detail, not a
//! correctness one).

use crate::complex::Complex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// Lane width of the chunked kernels: each inner-loop block touches
/// `LANES` complex elements (`2 * LANES` f64s), sized for 256-bit
/// vectors while still splitting evenly across 128-bit SSE registers.
pub const LANES: usize = 4;

/// Which transform/kernel schedule new plans and kernel entry points use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FftKernel {
    /// The original per-stage radix-2 schedule and scalar loops — the
    /// reference everything else is pinned against.
    Reference,
    /// Fused-stage radix-4 FFT schedule + chunked multiply kernels.
    /// Bit-identical to `Reference` everywhere except the real-input
    /// transform, which is ulp-close.
    Fused,
}

impl FftKernel {
    /// The process-wide active kernel (see [`fast_kernels`]).
    pub fn active() -> Self {
        if fast_kernels() {
            FftKernel::Fused
        } else {
            FftKernel::Reference
        }
    }
}

static FAST_KERNELS: AtomicBool = AtomicBool::new(true);
static ENV_SEED: OnceLock<()> = OnceLock::new();

fn seed_from_env() {
    ENV_SEED.get_or_init(|| {
        if let Ok(v) = std::env::var("SOFTLORA_DSP_KERNEL") {
            let v = v.to_ascii_lowercase();
            let off = matches!(v.as_str(), "reference" | "ref" | "off" | "0" | "false");
            FAST_KERNELS.store(!off, Ordering::Relaxed);
        }
    });
}

/// Whether the fast (chunked/fused) kernels are active process-wide.
///
/// Defaults to `true`; `SOFTLORA_DSP_KERNEL=reference` (or `0`/`off`)
/// in the environment flips the default, and [`set_fast_kernels`]
/// overrides it at runtime.
pub fn fast_kernels() -> bool {
    seed_from_env();
    FAST_KERNELS.load(Ordering::Relaxed)
}

/// Sets the process-wide kernel switch (see [`fast_kernels`]).
///
/// Process-wide by design: scratch arenas and thread-local planners are
/// shared across pipelines, so per-pipeline kernel choices would be
/// fiction. Call it once at startup (e.g. `SoftLoraConfig::fast_dsp`
/// does, via `Pipeline::new`).
pub fn set_fast_kernels(on: bool) {
    seed_from_env();
    FAST_KERNELS.store(on, Ordering::Relaxed);
}

/// Elementwise complex multiply `out[i] = a[i] * b[i]` — the dechirp
/// kernel shape. Selects the chunked path when fast kernels are active;
/// both paths are bit-identical.
///
/// # Panics
///
/// Panics if the slices differ in length.
#[inline]
pub fn mul_into(a: &[Complex], b: &[Complex], out: &mut [Complex]) {
    assert!(a.len() == b.len() && a.len() == out.len(), "mul_into: length mismatch");
    if fast_kernels() {
        mul_chunked(a, b, out);
    } else {
        mul_reference(a, b, out);
    }
}

/// Portable reference form of [`mul_into`].
#[inline]
pub fn mul_reference(a: &[Complex], b: &[Complex], out: &mut [Complex]) {
    for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
        *o = *x * *y;
    }
}

/// Chunked form of [`mul_into`]: `[f64; LANES]` re/im blocks so the
/// products vectorize. Same multiply-add order per element as
/// [`mul_reference`] → bit-identical.
#[inline]
pub fn mul_chunked(a: &[Complex], b: &[Complex], out: &mut [Complex]) {
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    let mut oc = out.chunks_exact_mut(LANES);
    for ((xs, ys), os) in (&mut ac).zip(&mut bc).zip(&mut oc) {
        let mut re = [0.0f64; LANES];
        let mut im = [0.0f64; LANES];
        for l in 0..LANES {
            re[l] = xs[l].re * ys[l].re - xs[l].im * ys[l].im;
            im[l] = xs[l].re * ys[l].im + xs[l].im * ys[l].re;
        }
        for l in 0..LANES {
            os[l] = Complex::new(re[l], im[l]);
        }
    }
    for ((o, x), y) in oc.into_remainder().iter_mut().zip(ac.remainder()).zip(bc.remainder()) {
        *o = *x * *y;
    }
}

/// Multiply a signal by a cyclically repeated reference:
/// `out[k] = a[k] * cycle[k % cycle.len()]` — the matched filter's
/// dechirp over up to two chirp periods.
///
/// # Panics
///
/// Panics if `out.len() != a.len()` or `cycle` is empty.
#[inline]
pub fn mul_cycle_into(a: &[Complex], cycle: &[Complex], out: &mut [Complex]) {
    assert_eq!(a.len(), out.len(), "mul_cycle_into: length mismatch");
    assert!(!cycle.is_empty(), "mul_cycle_into: empty cycle");
    let n = cycle.len();
    let mut k = 0;
    while k < a.len() {
        let span = (a.len() - k).min(n);
        mul_into(&a[k..k + span], &cycle[..span], &mut out[k..k + span]);
        k += span;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(n: usize, seed: u64) -> Vec<Complex> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n).map(|_| Complex::new(next(), next())).collect()
    }

    #[test]
    fn chunked_mul_is_bit_identical() {
        for n in [0, 1, 3, 4, 7, 16, 33, 257] {
            let a = sig(n, 1);
            let b = sig(n, 2);
            let mut want = vec![Complex::ZERO; n];
            let mut got = vec![Complex::ZERO; n];
            mul_reference(&a, &b, &mut want);
            mul_chunked(&a, &b, &mut got);
            for (w, g) in want.iter().zip(&got) {
                assert_eq!(w.re.to_bits(), g.re.to_bits());
                assert_eq!(w.im.to_bits(), g.im.to_bits());
            }
        }
    }

    #[test]
    fn mul_cycle_matches_modular_indexing() {
        let a = sig(23, 7);
        let c = sig(9, 8);
        let mut out = vec![Complex::ZERO; 23];
        mul_cycle_into(&a, &c, &mut out);
        for (k, o) in out.iter().enumerate() {
            let want = a[k] * c[k % 9];
            assert_eq!(want.re.to_bits(), o.re.to_bits());
            assert_eq!(want.im.to_bits(), o.im.to_bits());
        }
    }

    #[test]
    fn kernel_switch_round_trips() {
        let before = fast_kernels();
        set_fast_kernels(false);
        assert_eq!(FftKernel::active(), FftKernel::Reference);
        set_fast_kernels(true);
        assert_eq!(FftKernel::active(), FftKernel::Fused);
        set_fast_kernels(before);
    }
}
