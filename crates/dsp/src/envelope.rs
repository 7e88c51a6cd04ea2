//! Envelope-ratio preamble onset detector (paper §6.1.2, Fig. 9a).
//!
//! The detector extracts the amplitude envelope of the I or Q trace with the
//! Hilbert transform, then picks as the onset the sample with the largest
//! ratio between its envelope amplitude and the previous sample's envelope
//! amplitude. Being formulated as an optimisation (argmax), it needs no
//! detection threshold — a property the paper emphasises.

use crate::hilbert::envelope_with;
use crate::scratch::DspScratch;
use crate::DspError;

/// Configuration for the envelope detector.
#[derive(Debug, Clone)]
pub struct EnvelopeDetector {
    /// Samples at each edge excluded from the argmax, to avoid FFT edge
    /// artefacts of the Hilbert transform dominating the ratio curve.
    pub guard: usize,
    /// Smoothing half-width applied to the envelope before the ratio is
    /// computed (0 = no smoothing). A small moving average suppresses
    /// single-sample noise spikes that would otherwise win the argmax at low
    /// SNR.
    pub smooth: usize,
    /// Floor added to the denominator of each ratio, as a fraction of the
    /// trace's mean envelope, preventing division blow-ups during silence.
    pub ratio_floor: f64,
    /// Number of preceding samples averaged to form the ratio denominator.
    /// The paper describes the ratio to "the previous sample" (`lag = 1`);
    /// a short trailing mean makes the argmax robust to Rayleigh-distributed
    /// noise-envelope spikes at lower SNR without moving the peak.
    pub lag: usize,
}

impl Default for EnvelopeDetector {
    fn default() -> Self {
        EnvelopeDetector { guard: 8, smooth: 3, ratio_floor: 1e-3, lag: 6 }
    }
}

impl EnvelopeDetector {
    /// Creates a detector with the default guard/smoothing settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Detects the signal onset in a real trace (one of the I/Q
    /// components). Every intermediate (envelope, ratio curve, prefix
    /// sums) lives in the arena and only the onset index is returned, so
    /// a pick is allocation-free once the arena is warm.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InputTooShort`] if the trace has fewer than
    /// `2 * guard + 4` samples.
    pub fn detect_onset_with(
        &self,
        trace: &[f64],
        scratch: &mut DspScratch,
    ) -> Result<usize, DspError> {
        let mut env = scratch.take_real_empty();
        let mut ratio = scratch.take_real_empty();
        let result = self.run(trace, scratch, &mut env, &mut ratio);
        scratch.put_real(ratio);
        scratch.put_real(env);
        result
    }

    /// The detection core: fills `env` with the amplitude envelope and
    /// `ratio` with the curve `env[i] / trailing mean` (index 0 holds
    /// 1.0), and returns the onset.
    fn run(
        &self,
        trace: &[f64],
        scratch: &mut DspScratch,
        env: &mut Vec<f64>,
        ratio: &mut Vec<f64>,
    ) -> Result<usize, DspError> {
        let min_len = 2 * self.guard + 4;
        if trace.len() < min_len {
            return Err(DspError::InputTooShort { required: min_len, actual: trace.len() });
        }
        envelope_with(trace, scratch, env)?;
        if self.smooth > 0 {
            let mut prefix = scratch.take_real_empty();
            let mut smoothed = scratch.take_real_empty();
            moving_average_into(env, self.smooth, &mut prefix, &mut smoothed);
            std::mem::swap(env, &mut smoothed);
            scratch.put_real(smoothed);
            scratch.put_real(prefix);
        }
        let mean_env = env.iter().sum::<f64>() / env.len() as f64;
        let floor = (mean_env * self.ratio_floor).max(f64::MIN_POSITIVE);

        let lag = self.lag.max(1);
        ratio.clear();
        ratio.resize(env.len(), 1.0);
        // Prefix sums of the envelope for O(1) trailing means.
        let mut prefix = scratch.take_real_empty();
        prefix.push(0.0);
        for &v in env.iter() {
            prefix.push(prefix.last().unwrap() + v);
        }
        for i in 1..env.len() {
            let a = i.saturating_sub(lag);
            let trailing = (prefix[i] - prefix[a]) / (i - a) as f64;
            ratio[i] = env[i] / (trailing + floor);
        }
        scratch.put_real(prefix);

        let lo = self.guard.max(lag);
        let hi = env.len() - self.guard;
        let mut best = lo;
        for i in lo..hi {
            if ratio[i] > ratio[best] {
                best = i;
            }
        }
        Ok(best)
    }
}

/// Centered moving average with half-width `h` (window `2h+1`, clamped at
/// the edges). The detector itself runs the buffer-reusing
/// [`moving_average_into`]; this wrapper exists for the unit tests.
#[cfg(test)]
fn moving_average(x: &[f64], h: usize) -> Vec<f64> {
    let mut prefix = Vec::new();
    let mut out = Vec::new();
    moving_average_into(x, h, &mut prefix, &mut out);
    out
}

/// [`moving_average`] into caller-owned buffers (`prefix` is workspace,
/// `out` receives the result).
fn moving_average_into(x: &[f64], h: usize, prefix: &mut Vec<f64>, out: &mut Vec<f64>) {
    let n = x.len();
    // Prefix sums for O(n) averaging.
    prefix.clear();
    prefix.push(0.0);
    for &v in x {
        prefix.push(prefix.last().unwrap() + v);
    }
    out.clear();
    for i in 0..n {
        let a = i.saturating_sub(h);
        let b = (i + h + 1).min(n);
        out.push((prefix[b] - prefix[a]) / (b - a) as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// The onset with the envelope and ratio curves behind it.
    struct Pick {
        onset: usize,
        envelope: Vec<f64>,
        ratio: Vec<f64>,
    }

    fn detect(det: &EnvelopeDetector, trace: &[f64]) -> Result<Pick, DspError> {
        let (mut envelope, mut ratio) = (Vec::new(), Vec::new());
        let onset = det.run(trace, &mut DspScratch::new(), &mut envelope, &mut ratio)?;
        Ok(Pick { onset, envelope, ratio })
    }

    /// Silence + Gaussian noise, then a tone starting at `onset`.
    fn trace_with_onset(n: usize, onset: usize, amp: f64, noise: f64, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let s = if i >= onset { amp * (0.37 * i as f64).sin() } else { 0.0 };
                // Box-Muller Gaussian noise.
                let u1: f64 = rng.random::<f64>().max(1e-12);
                let u2: f64 = rng.random();
                let g = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                s + noise * g
            })
            .collect()
    }

    #[test]
    fn finds_clean_onset() {
        let onset = 700;
        let x = trace_with_onset(2048, onset, 1.0, 0.001, 1);
        let det = EnvelopeDetector::new();
        let r = detect(&det, &x).unwrap();
        assert!((r.onset as i64 - onset as i64).abs() <= 8, "got {}", r.onset);
    }

    #[test]
    fn finds_onset_with_moderate_noise() {
        let onset = 500;
        let x = trace_with_onset(2048, onset, 1.0, 0.05, 2);
        let det = EnvelopeDetector::new();
        let r = detect(&det, &x).unwrap();
        assert!((r.onset as i64 - onset as i64).abs() <= 16, "got {}", r.onset);
    }

    #[test]
    fn ratio_curve_peaks_at_onset() {
        let onset = 800;
        let x = trace_with_onset(2048, onset, 2.0, 0.01, 3);
        let det = EnvelopeDetector::new();
        let r = detect(&det, &x).unwrap();
        let peak_ratio = r.ratio[r.onset];
        // The ratio at onset should dominate the pre-onset region.
        let pre_max = r.ratio[16..onset - 16].iter().cloned().fold(f64::MIN, f64::max);
        assert!(peak_ratio > pre_max, "peak {peak_ratio} vs pre {pre_max}");
    }

    #[test]
    fn respects_guard_bands() {
        let x = trace_with_onset(256, 10, 1.0, 0.0, 4);
        let det = EnvelopeDetector { guard: 32, smooth: 0, ratio_floor: 1e-3, lag: 1 };
        let r = detect(&det, &x).unwrap();
        assert!(r.onset >= 32 && r.onset < 256 - 32);
    }

    #[test]
    fn too_short_input_is_error() {
        let det = EnvelopeDetector::new();
        assert!(matches!(detect(&det, &[0.0; 5]), Err(DspError::InputTooShort { .. })));
    }

    #[test]
    fn outputs_have_input_length() {
        let x = trace_with_onset(512, 300, 1.0, 0.01, 5);
        let r = detect(&EnvelopeDetector::new(), &x).unwrap();
        assert_eq!(r.envelope.len(), 512);
        assert_eq!(r.ratio.len(), 512);
    }

    #[test]
    fn moving_average_preserves_constant() {
        let x = vec![2.5; 100];
        let y = moving_average(&x, 3);
        for v in y {
            assert!((v - 2.5).abs() < 1e-12);
        }
    }

    #[test]
    fn moving_average_smooths_spike() {
        let mut x = vec![0.0; 21];
        x[10] = 7.0;
        let y = moving_average(&x, 3);
        assert!((y[10] - 1.0).abs() < 1e-12); // 7 / 7
    }
}
