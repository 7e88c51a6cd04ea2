//! Equivalence harness for the fast DSP kernels.
//!
//! Contract (mirrors the module docs of `softlora_dsp::kernels`): every
//! fast path is **bit-for-bit identical** to its reference twin — the
//! fused radix-4 FFT schedule, the batched `forward_many`, and the
//! chunked multiply kernel — *except* the real-input N/2
//! transform, which is gated on the fast-kernel switch and pinned here
//! to a bounded relative error instead. Exhaustive over all pow2 sizes
//! to 2^14 plus proptest-randomized contents.

use proptest::prelude::*;
use softlora_dsp::fft::{FftPlan, FftPlanner};
use softlora_dsp::kernels::{mul_chunked, mul_reference};
use softlora_dsp::{Complex, FftKernel};

/// Deterministic pseudo-random complex buffer for a given size/seed
/// (SplitMix64, same generator as `planner_properties`).
fn signal(n: usize, seed: u64) -> Vec<Complex> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
    };
    (0..n).map(|_| Complex::new(next(), next())).collect()
}

fn assert_bits_eq(a: &[Complex], b: &[Complex], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.re.to_bits(), y.re.to_bits(), "{what}: re bin {k}");
        assert_eq!(x.im.to_bits(), y.im.to_bits(), "{what}: im bin {k}");
    }
}

/// Exact claim #1: the fused radix-4 schedule is bit-identical to the
/// reference radix-2 schedule at every pow2 size up to 2^14, forward
/// and inverse.
#[test]
fn fused_schedule_is_bit_identical_all_sizes() {
    for log2 in 0..=14u32 {
        let n = 1usize << log2;
        let data = signal(n, 0xABBA + u64::from(log2));
        let reference = FftPlan::with_kernel(n, FftKernel::Reference);
        let fused = FftPlan::with_kernel(n, FftKernel::Fused);

        let mut a = data.clone();
        reference.forward(&mut a);
        let mut b = data.clone();
        fused.forward(&mut b);
        assert_bits_eq(&a, &b, &format!("forward n={n}"));

        let mut a = data.clone();
        reference.inverse(&mut a);
        let mut b = data;
        fused.inverse(&mut b);
        assert_bits_eq(&a, &b, &format!("inverse n={n}"));
    }
}

/// Exact claim #2: `forward_many` over a batch equals transforming each
/// frame alone, bit for bit, under both schedules.
#[test]
fn forward_many_matches_per_frame_forward() {
    for kernel in [FftKernel::Reference, FftKernel::Fused] {
        for (frames, log2) in [(1usize, 9u32), (8, 9), (64, 5), (3, 12), (16, 0)] {
            let n = 1usize << log2;
            let plan = FftPlan::with_kernel(n, kernel);
            let data = signal(frames * n, 0xC0DE + u64::from(log2) + frames as u64);

            let mut batched = data.clone();
            plan.forward_many(&mut batched);

            let mut single = data;
            for frame in single.chunks_exact_mut(n) {
                plan.forward(frame);
            }
            assert_bits_eq(&single, &batched, &format!("{kernel:?} frames={frames} n={n}"));
        }
    }
}

/// Gated claim: the real-input N/2 transform is ulp-close to the
/// embedded reference — bounded relative error across all pow2 sizes to
/// 2^14, and exactly conjugate-symmetric output shape.
#[test]
fn real_input_fast_path_is_ulp_close_all_sizes() {
    let mut reference = FftPlanner::with_kernel(FftKernel::Reference);
    let mut fast = FftPlanner::with_kernel(FftKernel::Fused);
    for log2 in 0..=14u32 {
        let n = 1usize << log2;
        let xs: Vec<f64> = signal(n, 0x5EED + u64::from(log2)).into_iter().map(|z| z.re).collect();

        let mut want = Vec::new();
        reference.forward_real_into(&xs, &mut want);
        let mut got = Vec::new();
        fast.forward_real_into(&xs, &mut got);

        assert_eq!(want.len(), got.len(), "n={n}");
        // Scale-relative bound: both paths build twiddles by the
        // `w *= wlen` recurrence, whose rounding grows with stage
        // length, so the two algorithms drift ~1e-13 of the spectrum
        // scale at 2^14; 1e-12 keeps ~10x headroom while still catching
        // any algebra slip (a wrong unpack term is O(scale)).
        let scale = want.iter().map(|z| z.norm()).fold(1e-300, f64::max);
        for (k, (a, b)) in want.iter().zip(&got).enumerate() {
            let err = (*a - *b).norm();
            assert!(err <= 1e-12 * scale, "n={n} bin {k}: |Δ|={err:.3e} vs scale {scale:.3e}");
        }
        // The fast path must keep the DC/Nyquist bins exactly real.
        assert_eq!(got[0].im.to_bits(), 0f64.to_bits(), "n={n} DC");
        if n >= 2 {
            assert_eq!(got[n / 2].im.to_bits(), 0f64.to_bits(), "n={n} Nyquist");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Exact claim #3: chunked elementwise multiply is bit-identical to
    /// the scalar reference loop for arbitrary lengths.
    #[test]
    fn chunked_mul_matches_reference(len in 0usize..700, seed in any::<u64>()) {
        let a = signal(len, seed);
        let b = signal(len, seed.wrapping_add(1));
        let mut want = vec![Complex::ZERO; len];
        let mut got = vec![Complex::ZERO; len];
        mul_reference(&a, &b, &mut want);
        mul_chunked(&a, &b, &mut got);
        for (x, y) in want.iter().zip(&got) {
            prop_assert_eq!(x.re.to_bits(), y.re.to_bits());
            prop_assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    /// Exact claim #4: random batches through `forward_many` under the
    /// fused schedule equal the reference schedule frame by frame.
    #[test]
    fn fused_batch_matches_reference_schedule(
        frames in 1usize..9,
        log2 in 0u32..10,
        seed in any::<u64>(),
    ) {
        let n = 1usize << log2;
        let data = signal(frames * n, seed);
        let mut fused = data.clone();
        FftPlan::with_kernel(n, FftKernel::Fused).forward_many(&mut fused);
        let mut reference = data;
        FftPlan::with_kernel(n, FftKernel::Reference).forward_many(&mut reference);
        for (x, y) in reference.iter().zip(&fused) {
            prop_assert_eq!(x.re.to_bits(), y.re.to_bits());
            prop_assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }
}
