//! Pins the allocation-free steady state of the onset pickers.
//!
//! A warm receiver must pick a frame's onset without a single heap
//! allocation — that is the whole point of the FFT planner +
//! scratch-arena refactor, and this test makes regressing it loud. The
//! file intentionally holds **one** test: the counting allocator is
//! process-global, so a lone test keeps the measured region free of
//! concurrent harness allocations.

use softlora_bench::alloc_counter::CountingAllocator;
use softlora_dsp::aic::{aic_onset_with, power_aic_onset_with};
use softlora_dsp::{Complex, DspScratch};
use softlora_phy::{ChirpGenerator, SpreadingFactor};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn steady_state_onset_path_is_allocation_free() {
    // --- Setup (allocations allowed): what the SDR path captures, a
    // silent lead plus the first few preamble chirps (a whole frame would
    // give the changepoint statistic a second, stronger edge at frame
    // end), as the I/Q traces the onset pickers run on. ---
    let generator = ChirpGenerator::new(SpreadingFactor::Sf7, 125e3, 250e3).expect("generator");
    let lead = 120usize;
    let mut capture: Vec<Complex> = vec![Complex::ZERO; lead];
    for _ in 0..3 {
        capture.extend(generator.upchirp(0, -21_000.0, 0.4, 1.0));
    }
    let i_trace: Vec<f64> = capture.iter().map(|z| z.re).collect();
    let q_trace: Vec<f64> = capture.iter().map(|z| z.im).collect();

    let mut scratch = DspScratch::new();

    // One frame's worth of the steady-state path: the two production
    // onset pickers (variance AIC — the paper's choice — and the
    // power-AIC extension).
    let run_frame = |scratch: &mut DspScratch| {
        let onset = aic_onset_with(&i_trace, 16, scratch).expect("aic onset");
        let power_onset =
            power_aic_onset_with(&i_trace, &q_trace, 16, scratch).expect("power onset");
        // Both pickers must land within a chirp of the true onset —
        // sanity that the measured path is doing real work.
        assert!(onset.abs_diff(lead) < generator.samples_per_chirp());
        assert!(power_onset.abs_diff(lead) < generator.samples_per_chirp());
    };

    // --- Warm-up: fill the buffer pools to their steady sizes. ---
    for _ in 0..3 {
        run_frame(&mut scratch);
    }

    // The harness's main thread does its own bookkeeping (allocations)
    // just after it spawns this test's thread, and the setup above is
    // short enough to race it: yield the CPU before the measured region.
    std::thread::sleep(std::time::Duration::from_millis(50));

    // --- Steady state: zero allocations across many frames. ---
    let before = ALLOC.snapshot();
    for _ in 0..16 {
        run_frame(&mut scratch);
    }
    let after = ALLOC.snapshot();
    let allocated = before.allocations_since(&after);
    assert_eq!(
        allocated,
        0,
        "steady-state onset path allocated {allocated} times over 16 frames ({} bytes)",
        after.bytes_allocated - before.bytes_allocated,
    );
}
