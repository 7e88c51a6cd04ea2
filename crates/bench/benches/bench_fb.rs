//! Criterion benchmarks for the three FB estimators — the ablation behind
//! the paper's remark that the least-squares search "has higher
//! computation overhead" than the closed-form regression (their scipy DE
//! took 0.69 s on a Raspberry Pi).

use criterion::{criterion_group, criterion_main, Criterion};
use softlora::fb_estimator::{FbEstimator, FbMethod};
use softlora_bench::common;
use softlora_dsp::DspScratch;
use softlora_phy::{PhyConfig, SpreadingFactor};
use std::hint::black_box;

fn bench_estimators(c: &mut Criterion) {
    let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
    let estimator = FbEstimator::new(&phy, 2.4e6);
    let cap = common::capture(&phy, 2, -22_000.0, 1.0, 400, 1);
    let noisy = common::with_noise(&cap, 0.0, false, 2);
    // The regime the SNR policy routes to the matched filter.
    let faint = common::with_noise(&cap, -20.0, false, 3);
    let mut scratch = DspScratch::new();

    let mut group = c.benchmark_group("fb_estimation_sf7");
    group.bench_function("linear_regression", |b| {
        b.iter(|| {
            estimator
                .estimate_from_capture_with(
                    black_box(&noisy),
                    noisy.true_onset,
                    FbMethod::LinearRegression,
                    1.0,
                    &mut scratch,
                )
                .expect("lr")
        })
    });
    group.bench_function("matched_filter", |b| {
        b.iter(|| {
            estimator
                .estimate_from_capture_with(
                    black_box(&noisy),
                    noisy.true_onset,
                    FbMethod::MatchedFilter,
                    1.0,
                    &mut scratch,
                )
                .expect("mf")
        })
    });
    group.bench_function("matched_filter_minus_20db", |b| {
        b.iter(|| {
            estimator
                .estimate_from_capture_with(
                    black_box(&faint),
                    faint.true_onset,
                    FbMethod::MatchedFilter,
                    100.0,
                    &mut scratch,
                )
                .expect("mf")
        })
    });
    group.sample_size(10);
    group.bench_function("differential_evolution", |b| {
        b.iter(|| {
            estimator
                .estimate_from_capture_with(
                    black_box(&noisy),
                    noisy.true_onset,
                    FbMethod::DifferentialEvolution,
                    1.0,
                    &mut scratch,
                )
                .expect("de")
        })
    });
    group.finish();
}

criterion_group!(benches, bench_estimators);
criterion_main!(benches);
