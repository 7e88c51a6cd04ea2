//! Hilbert transform and amplitude envelope extraction.
//!
//! The paper's envelope onset detector (§6.1.2, Fig. 9a) first applies the
//! Hilbert transform to the I (or Q) trace to obtain the analytic signal,
//! whose magnitude is the amplitude envelope. The analytic signal is
//! computed in the frequency domain: zero the negative-frequency half of the
//! spectrum and double the positive half.

use crate::complex::Complex;
use crate::fft::next_pow2;
use crate::scratch::DspScratch;
use crate::DspError;

/// Computes the analytic signal of a real trace via the FFT method.
///
/// The input is zero-padded to a power of two internally; `out` is
/// truncated back to the input length. For input `x`, the result is
/// `x + i * H(x)` where `H` is the Hilbert transform. The transform runs
/// through the arena's planner and `out` is cleared and refilled (its
/// capacity is reused across frames), so this is allocation-free once
/// `out` and the arena are warm.
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] for inputs shorter than 2 samples.
pub fn analytic_signal_with(
    x: &[f64],
    scratch: &mut DspScratch,
    out: &mut Vec<Complex>,
) -> Result<(), DspError> {
    if x.len() < 2 {
        return Err(DspError::InputTooShort { required: 2, actual: x.len() });
    }
    let n = next_pow2(x.len());
    // The forward transform of a real trace is the real-input fast
    // path's home turf (half the butterflies when fast kernels are on;
    // the bit-stable embedding otherwise).
    scratch.planner().forward_real_into(x, out);
    let plan = scratch.planner().plan(n);

    // Single-sided spectrum: keep DC and Nyquist, double positive
    // frequencies, zero negative frequencies.
    for (k, z) in out.iter_mut().enumerate() {
        if k == 0 || k == n / 2 {
            // unchanged
        } else if k < n / 2 {
            *z = z.scale(2.0);
        } else {
            *z = Complex::ZERO;
        }
    }
    plan.inverse(out);
    out.truncate(x.len());
    Ok(())
}

/// Amplitude envelope of a real trace, `|analytic signal of x|`: `out`
/// is cleared and refilled; temporaries come from the arena.
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] for inputs shorter than 2 samples.
///
/// ```
/// use softlora_dsp::hilbert::envelope_with;
/// use softlora_dsp::DspScratch;
/// // Envelope of a pure tone is (approximately) its constant amplitude.
/// let x: Vec<f64> = (0..512).map(|i| 3.0 * (0.3 * i as f64).sin()).collect();
/// let mut env = Vec::new();
/// envelope_with(&x, &mut DspScratch::new(), &mut env)?;
/// let mid = &env[64..448];
/// let avg: f64 = mid.iter().sum::<f64>() / mid.len() as f64;
/// assert!((avg - 3.0).abs() < 0.05);
/// # Ok::<(), softlora_dsp::DspError>(())
/// ```
pub fn envelope_with(
    x: &[f64],
    scratch: &mut DspScratch,
    out: &mut Vec<f64>,
) -> Result<(), DspError> {
    let mut analytic = scratch.take_complex_empty();
    let result = analytic_signal_with(x, scratch, &mut analytic);
    if let Err(e) = result {
        scratch.put_complex(analytic);
        return Err(e);
    }
    out.clear();
    out.extend(analytic.iter().map(|z| z.norm()));
    scratch.put_complex(analytic);
    Ok(())
}

/// Instantaneous phase of a real trace, i.e. the argument of the analytic
/// signal, in `(-pi, pi]` per sample (not unwrapped).
///
/// # Errors
///
/// Returns [`DspError::InputTooShort`] for inputs shorter than 2 samples.
pub fn instantaneous_phase(x: &[f64], scratch: &mut DspScratch) -> Result<Vec<f64>, DspError> {
    let mut analytic = scratch.take_complex_empty();
    let phase = analytic_signal_with(x, scratch, &mut analytic)
        .map(|()| analytic.iter().map(|z| z.arg()).collect());
    scratch.put_complex(analytic);
    phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn analytic_signal(x: &[f64]) -> Result<Vec<Complex>, DspError> {
        let mut out = Vec::new();
        analytic_signal_with(x, &mut DspScratch::new(), &mut out).map(|()| out)
    }

    fn envelope(x: &[f64]) -> Result<Vec<f64>, DspError> {
        let mut out = Vec::new();
        envelope_with(x, &mut DspScratch::new(), &mut out).map(|()| out)
    }

    #[test]
    fn analytic_signal_real_part_is_input() {
        let x: Vec<f64> = (0..256).map(|i| (0.1 * i as f64).sin() + 0.2).collect();
        let a = analytic_signal(&x).unwrap();
        for (ai, xi) in a.iter().zip(x.iter()) {
            assert!((ai.re - xi).abs() < 1e-9);
        }
    }

    #[test]
    fn hilbert_of_cos_is_sin() {
        // H(cos) = sin for frequencies away from DC/Nyquist.
        let n = 1024;
        let k = 37.0;
        let x: Vec<f64> = (0..n).map(|i| (2.0 * PI * k * i as f64 / n as f64).cos()).collect();
        let a = analytic_signal(&x).unwrap();
        for (i, z) in a.iter().enumerate() {
            let want = (2.0 * PI * k * i as f64 / n as f64).sin();
            assert!((z.im - want).abs() < 1e-6, "sample {i}");
        }
    }

    #[test]
    fn envelope_tracks_amplitude_modulation() {
        // AM tone: (1 + 0.5 cos(wm t)) * cos(wc t)
        let n = 2048;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / n as f64;
                (1.0 + 0.5 * (2.0 * PI * 4.0 * t).cos()) * (2.0 * PI * 200.0 * t).cos()
            })
            .collect();
        let env = envelope(&x).unwrap();
        // Compare to the known modulation envelope away from edges.
        for (i, e) in env.iter().enumerate().take(n - 128).skip(128) {
            let t = i as f64 / n as f64;
            let want = 1.0 + 0.5 * (2.0 * PI * 4.0 * t).cos();
            assert!((e - want).abs() < 0.05, "sample {i}: {e} vs {want}");
        }
    }

    #[test]
    fn envelope_of_step_rises_at_step() {
        // Silence then a tone: envelope should be near zero before, near one after.
        let n = 1024;
        let onset = 512;
        let x: Vec<f64> =
            (0..n).map(|i| if i < onset { 0.0 } else { (0.4 * i as f64).sin() }).collect();
        let env = envelope(&x).unwrap();
        let before: f64 = env[64..onset - 64].iter().sum::<f64>() / (onset - 128) as f64;
        let after: f64 = env[onset + 64..n - 64].iter().sum::<f64>() / (n - onset - 128) as f64;
        assert!(before < 0.15, "before {before}");
        assert!(after > 0.8, "after {after}");
    }

    #[test]
    fn instantaneous_phase_advances_for_tone() {
        let n = 512;
        let k = 10.0;
        let x: Vec<f64> = (0..n).map(|i| (2.0 * PI * k * i as f64 / n as f64).cos()).collect();
        let ph = instantaneous_phase(&x, &mut DspScratch::new()).unwrap();
        // Phase increment per sample ~ 2*pi*k/n.
        let want = 2.0 * PI * k / n as f64;
        let mut ok = 0;
        for i in 100..400 {
            let mut d = ph[i + 1] - ph[i];
            if d < -PI {
                d += 2.0 * PI;
            }
            if (d - want).abs() < 0.01 {
                ok += 1;
            }
        }
        assert!(ok > 250, "only {ok} good increments");
    }

    #[test]
    fn rejects_tiny_input() {
        assert!(analytic_signal(&[1.0]).is_err());
        assert!(envelope(&[]).is_err());
    }

    #[test]
    fn non_pow2_length_handled() {
        let x: Vec<f64> = (0..1000).map(|i| (0.05 * i as f64).sin()).collect();
        let env = envelope(&x).unwrap();
        assert_eq!(env.len(), 1000);
        let mid: f64 = env[200..800].iter().sum::<f64>() / 600.0;
        assert!((mid - 1.0).abs() < 0.05);
    }
}
