//! FIR/IIR filtering and decimation.
//!
//! Models the low-pass filter stage of the SDR receiver front-end (paper
//! Fig. 5): after quadrature mixing, the double-frequency images must be
//! removed before ADC sampling. A windowed-sinc FIR design is provided for
//! that role, together with a simple decimator used when converting the
//! 2.4 Msps SDR stream to the demodulator's processing rate.

use crate::complex::Complex;
use crate::window::{window, WindowKind};
use crate::DspError;

/// Designs a windowed-sinc low-pass FIR filter.
///
/// `cutoff` is the normalised cutoff in cycles/sample (i.e. `f_c / f_s`),
/// must lie in `(0, 0.5)`; `taps` is the filter length (odd lengths give a
/// symmetric, linear-phase filter — even lengths are rounded up).
///
/// The returned coefficients are normalised to unit DC gain.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] for an out-of-range cutoff or zero
/// taps.
pub fn lowpass_fir(cutoff: f64, taps: usize, kind: WindowKind) -> Result<Vec<f64>, DspError> {
    if !(cutoff > 0.0 && cutoff < 0.5) {
        return Err(DspError::InvalidParameter { reason: "cutoff must be in (0, 0.5)" });
    }
    if taps == 0 {
        return Err(DspError::InvalidParameter { reason: "taps must be positive" });
    }
    let taps = if taps.is_multiple_of(2) { taps + 1 } else { taps };
    let mid = (taps / 2) as isize;
    let w = window(kind, taps);
    let mut h: Vec<f64> = (0..taps as isize)
        .map(|i| {
            let n = (i - mid) as f64;
            let sinc = if n == 0.0 {
                2.0 * cutoff
            } else {
                (2.0 * std::f64::consts::PI * cutoff * n).sin() / (std::f64::consts::PI * n)
            };
            sinc * w[i as usize]
        })
        .collect();
    let sum: f64 = h.iter().sum();
    for v in h.iter_mut() {
        *v /= sum;
    }
    Ok(h)
}

/// Applies an FIR filter to a complex signal, compensating the group delay
/// so the output is time-aligned with the input (same length; edges are
/// zero-padded).
pub fn fir_filter(signal: &[Complex], taps: &[f64]) -> Vec<Complex> {
    let mut out = Vec::new();
    fir_filter_into(signal, taps, &mut out);
    out
}

/// [`fir_filter`] into a caller-owned buffer: `out` is cleared and
/// refilled (capacity reused across calls, so a warm buffer makes the
/// filter allocation-free).
pub fn fir_filter_into(signal: &[Complex], taps: &[f64], out: &mut Vec<Complex>) {
    let n = signal.len();
    let t = taps.len();
    out.clear();
    if n == 0 || t == 0 {
        out.extend_from_slice(signal);
        return;
    }
    let delay = t / 2;
    out.resize(n, Complex::ZERO);
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        // y[i] = sum_k h[k] * x[i + delay - k]
        for (k, &hk) in taps.iter().enumerate() {
            let idx = i as isize + delay as isize - k as isize;
            if idx >= 0 && (idx as usize) < n {
                acc += signal[idx as usize].scale(hk);
            }
        }
        *o = acc;
    }
}

/// Applies an FIR filter to a real signal (group-delay compensated). The
/// complex embedding and filter output are scratch buffers; `out`
/// receives the real part.
pub fn fir_filter_real_with(
    signal: &[f64],
    taps: &[f64],
    scratch: &mut crate::scratch::DspScratch,
    out: &mut Vec<f64>,
) {
    let mut z = scratch.take_complex_empty();
    z.extend(signal.iter().map(|&x| Complex::new(x, 0.0)));
    let mut filtered = scratch.take_complex_empty();
    fir_filter_into(&z, taps, &mut filtered);
    out.clear();
    out.extend(filtered.iter().map(|c| c.re));
    scratch.put_complex(filtered);
    scratch.put_complex(z);
}

/// Single-pole IIR low-pass (`y[i] = a*x[i] + (1-a)*y[i-1]`), `a` in `(0,1]`.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `alpha` is outside `(0, 1]`.
pub fn iir_single_pole(signal: &[f64], alpha: f64) -> Result<Vec<f64>, DspError> {
    if !(alpha > 0.0 && alpha <= 1.0) {
        return Err(DspError::InvalidParameter { reason: "alpha must be in (0, 1]" });
    }
    let mut out = Vec::with_capacity(signal.len());
    let mut y = 0.0;
    for (i, &x) in signal.iter().enumerate() {
        y = if i == 0 { x } else { alpha * x + (1.0 - alpha) * y };
        out.push(y);
    }
    Ok(out)
}

/// Keeps every `factor`-th sample (no anti-alias filtering — pair with
/// [`lowpass_fir`] when decimating wideband signals).
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if `factor` is zero.
pub fn decimate(signal: &[Complex], factor: usize) -> Result<Vec<Complex>, DspError> {
    if factor == 0 {
        return Err(DspError::InvalidParameter { reason: "decimation factor must be positive" });
    }
    Ok(signal.iter().step_by(factor).cloned().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn complex_tone(n: usize, f_norm: f64) -> Vec<Complex> {
        (0..n).map(|i| Complex::cis(2.0 * PI * f_norm * i as f64)).collect()
    }

    #[test]
    fn lowpass_passes_low_rejects_high() {
        let taps = lowpass_fir(0.1, 101, WindowKind::Hamming).unwrap();
        let low = complex_tone(2000, 0.02);
        let high = complex_tone(2000, 0.35);
        let low_out = fir_filter(&low, &taps);
        let high_out = fir_filter(&high, &taps);
        let pwr = |v: &[Complex]| -> f64 {
            v[200..1800].iter().map(|z| z.norm_sqr()).sum::<f64>() / 1600.0
        };
        assert!(pwr(&low_out) > 0.9, "passband power {}", pwr(&low_out));
        assert!(pwr(&high_out) < 1e-4, "stopband power {}", pwr(&high_out));
    }

    #[test]
    fn lowpass_unit_dc_gain() {
        let taps = lowpass_fir(0.2, 63, WindowKind::Blackman).unwrap();
        assert!((taps.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn lowpass_is_symmetric_linear_phase() {
        let taps = lowpass_fir(0.15, 51, WindowKind::Hamming).unwrap();
        for i in 0..taps.len() {
            assert!((taps[i] - taps[taps.len() - 1 - i]).abs() < 1e-15);
        }
    }

    #[test]
    fn even_tap_count_rounded_up() {
        let taps = lowpass_fir(0.1, 50, WindowKind::Hamming).unwrap();
        assert_eq!(taps.len(), 51);
    }

    #[test]
    fn design_validation() {
        assert!(lowpass_fir(0.0, 31, WindowKind::Rect).is_err());
        assert!(lowpass_fir(0.5, 31, WindowKind::Rect).is_err());
        assert!(lowpass_fir(0.6, 31, WindowKind::Rect).is_err());
        assert!(lowpass_fir(0.1, 0, WindowKind::Rect).is_err());
    }

    #[test]
    fn group_delay_compensated() {
        // A delayed impulse stays centred after filtering.
        let mut sig = vec![Complex::ZERO; 101];
        sig[50] = Complex::ONE;
        let taps = lowpass_fir(0.25, 21, WindowKind::Hamming).unwrap();
        let out = fir_filter(&sig, &taps);
        let (peak, _) = crate::fft::argmax_bin(&out);
        assert_eq!(peak, 50);
    }

    #[test]
    fn real_wrapper_consistent() {
        let x: Vec<f64> = (0..500).map(|i| (0.05 * i as f64).sin()).collect();
        let taps = lowpass_fir(0.2, 31, WindowKind::Hamming).unwrap();
        let mut a = Vec::new();
        fir_filter_real_with(&x, &taps, &mut crate::scratch::DspScratch::new(), &mut a);
        let z: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
        let b = fir_filter(&z, &taps);
        for (u, v) in a.iter().zip(b.iter()) {
            assert!((u - v.re).abs() < 1e-12);
        }
    }

    #[test]
    fn iir_smooths_step() {
        let mut x = vec![0.0; 50];
        x.extend(vec![1.0; 100]);
        let y = iir_single_pole(&x, 0.1).unwrap();
        assert!(y[49] < 0.01);
        assert!(y[60] > 0.3 && y[60] < 0.9);
        assert!(y[149] > 0.95);
        assert!(iir_single_pole(&x, 0.0).is_err());
        assert!(iir_single_pole(&x, 1.5).is_err());
    }

    #[test]
    fn decimate_picks_every_kth() {
        let sig: Vec<Complex> = (0..10).map(|i| Complex::new(i as f64, 0.0)).collect();
        let d = decimate(&sig, 3).unwrap();
        let vals: Vec<f64> = d.iter().map(|z| z.re).collect();
        assert_eq!(vals, vec![0.0, 3.0, 6.0, 9.0]);
        assert!(decimate(&sig, 0).is_err());
    }
}
