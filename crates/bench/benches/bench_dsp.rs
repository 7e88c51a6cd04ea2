//! Criterion benchmarks for the DSP substrate: FFT, Hilbert envelope and
//! the onset pickers — the per-frame cost of SoftLoRa's PHY timestamping.
//!
//! The `fft` group times the planner path (what the signal path now
//! runs) against the self-contained reference transform, and the
//! `onset_pickers` group times the scratch-backed pickers against their
//! allocating ancestors — the two layers of the allocation-free refactor.
//! The `fft_kernels`, `fft_real` and `fft_batched` groups time the
//! vector-fast kernels (fused-stage schedule, N/2 real-input transform,
//! batched multi-frame transforms) against their reference counterparts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use softlora_dsp::aic::{aic_onset_with, aic_pick, power_aic_onset_with};
use softlora_dsp::envelope::EnvelopeDetector;
use softlora_dsp::fft::{fft_forward, fft_in_place, FftPlan};
use softlora_dsp::hilbert::envelope_with;
use softlora_dsp::{Complex, DspScratch, FftKernel, FftPlanner};
use std::hint::black_box;

fn tone(n: usize) -> Vec<Complex> {
    (0..n).map(|i| Complex::cis(0.13 * i as f64)).collect()
}

fn onset_trace(n: usize) -> (Vec<f64>, Vec<f64>) {
    let i: Vec<f64> =
        (0..n).map(|k| if k >= n / 3 { (0.4 * k as f64).cos() } else { 0.01 }).collect();
    let q: Vec<f64> =
        (0..n).map(|k| if k >= n / 3 { (0.4 * k as f64).sin() } else { 0.01 }).collect();
    (i, q)
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft");
    for n in [1024usize, 4096, 16384] {
        let data = tone(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &data, |b, data| {
            b.iter(|| fft_forward(black_box(data)))
        });
    }
    group.finish();
}

/// The planner's two wins, isolated: cached twiddles versus per-call
/// `sin`/`cos`, and a reused buffer versus a fresh allocation per call.
fn bench_fft_planner(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_planner");
    for n in [512usize, 4096] {
        let data = tone(n);
        group.bench_with_input(BenchmarkId::new("reference_in_place", n), &data, |b, data| {
            let mut buf = data.clone();
            b.iter(|| {
                buf.copy_from_slice(black_box(data));
                fft_in_place(&mut buf);
            })
        });
        group.bench_with_input(BenchmarkId::new("planned_in_place", n), &data, |b, data| {
            let mut planner = FftPlanner::new();
            let plan = planner.plan_arc(n);
            let mut buf = data.clone();
            b.iter(|| {
                buf.copy_from_slice(black_box(data));
                plan.forward(&mut buf);
            })
        });
    }
    group.finish();
}

/// The fused-schedule FFT against the reference schedule, plan for plan.
fn bench_fft_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_kernels");
    for n in [4096usize, 16384] {
        let data = tone(n);
        for kernel in [FftKernel::Reference, FftKernel::Fused] {
            let label = format!("{kernel:?}").to_lowercase();
            group.bench_with_input(BenchmarkId::new(label, n), &data, |b, data| {
                let plan = FftPlan::with_kernel(n, kernel);
                let mut buf = data.clone();
                b.iter(|| {
                    buf.copy_from_slice(black_box(data));
                    plan.forward(&mut buf);
                })
            });
        }
    }
    group.finish();
}

/// The real-input transform: N/2 complex-FFT trick vs the zero-imag
/// embed both paths ran before.
fn bench_fft_real(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_real");
    for n in [4096usize, 16384] {
        let trace: Vec<f64> = (0..n).map(|k| (0.13 * k as f64).cos()).collect();
        for kernel in [FftKernel::Reference, FftKernel::Fused] {
            let label = format!("{kernel:?}").to_lowercase();
            group.bench_with_input(BenchmarkId::new(label, n), &trace, |b, trace| {
                let mut planner = FftPlanner::with_kernel(kernel);
                let mut out = Vec::new();
                // Build the plans outside the measured loop.
                planner.forward_real_into(trace, &mut out);
                b.iter(|| planner.forward_real_into(black_box(trace), &mut out))
            });
        }
    }
    group.finish();
}

/// Batched multi-frame transforms: `forward_many` over 1/8/64 frames vs
/// the same frames through per-frame `forward` calls. Reported per
/// batch; divide by the frame count for per-frame cost.
fn bench_fft_batched(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_batched");
    let n = 512usize;
    let plan = FftPlan::new(n);
    for frames in [1usize, 8, 64] {
        let data: Vec<Complex> = (0..frames * n).map(|i| Complex::cis(0.13 * i as f64)).collect();
        group.bench_with_input(BenchmarkId::new("forward_many", frames), &data, |b, data| {
            let mut buf = data.clone();
            b.iter(|| {
                buf.copy_from_slice(black_box(data));
                plan.forward_many(&mut buf);
            })
        });
        group.bench_with_input(BenchmarkId::new("per_frame", frames), &data, |b, data| {
            let mut buf = data.clone();
            b.iter(|| {
                buf.copy_from_slice(black_box(data));
                for frame in buf.chunks_exact_mut(n) {
                    plan.forward(frame);
                }
            })
        });
    }
    group.finish();
}

fn bench_pickers(c: &mut Criterion) {
    // One SF7 two-chirp capture at 2.4 Msps is ~5600 samples.
    let (i, q) = onset_trace(5600);
    let mut group = c.benchmark_group("onset_pickers");
    group.bench_function("aic_pick", |b| b.iter(|| aic_pick(black_box(&i), 16)));
    group.bench_function("aic_onset_scratch", |b| {
        let mut scratch = DspScratch::new();
        b.iter(|| aic_onset_with(black_box(&i), 16, &mut scratch))
    });
    group.bench_function("power_aic_onset_scratch", |b| {
        let mut scratch = DspScratch::new();
        b.iter(|| power_aic_onset_with(black_box(&i), black_box(&q), 16, &mut scratch))
    });
    group.bench_function("envelope_onset_scratch", |b| {
        let det = EnvelopeDetector::new();
        let mut scratch = DspScratch::new();
        b.iter(|| det.detect_onset_with(black_box(&i), &mut scratch))
    });
    group.bench_function("hilbert_envelope", |b| {
        let mut scratch = DspScratch::new();
        let mut env = Vec::new();
        b.iter(|| envelope_with(black_box(&i), &mut scratch, &mut env))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fft,
    bench_fft_planner,
    bench_fft_kernels,
    bench_fft_real,
    bench_fft_batched,
    bench_pickers
);
criterion_main!(benches);
