//! Microsecond PHY-layer signal timestamping (paper §6).
//!
//! SoftLoRa timestamps the *radio signal*, not the decoded frame: the
//! preamble onset is picked on the SDR's I/Q capture with single-sample
//! accuracy (0.42 µs at 2.4 Msps). The pick feeds two consumers — the
//! secure data-timestamping pipeline, and the FB estimator, which needs
//! the chirp boundaries located to microseconds before it can subtract the
//! quadratic phase (paper: "microseconds-accurate PHY signal timestamping
//! is a prerequisite of the FB estimation").

use crate::SoftLoraError;
use softlora_dsp::aic::{aic_onset_with, power_aic_onset_with};
use softlora_dsp::DspScratch;
use softlora_phy::sdr::IqCapture;

/// Onset-picking algorithm. Paper §6.1.2 also evaluates a Hilbert
/// envelope detector, which loses to AIC; it stays available as
/// [`softlora_dsp::envelope::EnvelopeDetector`] for the figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OnsetMethod {
    /// Variance-AIC picker on one trace (I), the paper's choice.
    Aic,
    /// Exponential-rate changepoint picker on the instantaneous power
    /// trace `I² + Q²` — an implementation extension that stays robust at
    /// low SNR, where the variance contrast seen by the per-component AIC
    /// collapses.
    PowerAic,
}

/// A PHY-layer signal timestamp.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhyTimestamp {
    /// Sample index of the detected onset within the capture.
    pub onset_sample: usize,
    /// Onset time in seconds from the start of the capture.
    pub onset_s: f64,
    /// Half the sampling interval: the irreducible quantisation bound on
    /// the timestamp (0.21 µs at 2.4 Msps).
    pub quantisation_bound_s: f64,
}

/// Onset detector bound to a method.
#[derive(Debug, Clone, Copy)]
pub struct PhyTimestamper {
    method: OnsetMethod,
    /// Guard samples excluded at the capture edges.
    guard: usize,
}

impl PhyTimestamper {
    /// Creates a timestamper using `method` with a 16-sample guard.
    pub fn new(method: OnsetMethod) -> Self {
        PhyTimestamper { method, guard: 16 }
    }

    /// The configured method.
    pub fn method(&self) -> OnsetMethod {
        self.method
    }

    /// Picks the signal onset in an I/Q capture against a caller-owned
    /// scratch arena: every picker's intermediates (AIC curves, prefix
    /// sums) come from the arena, so after warm-up a pick allocates
    /// nothing.
    ///
    /// # Errors
    ///
    /// Returns [`SoftLoraError::Capture`] when the capture is too short for
    /// the picker.
    pub fn timestamp_with(
        &self,
        capture: &IqCapture,
        scratch: &mut DspScratch,
    ) -> Result<PhyTimestamp, SoftLoraError> {
        let onset_sample = match self.method {
            OnsetMethod::Aic => aic_onset_with(&capture.i, self.guard, scratch)
                .map_err(|_| SoftLoraError::Capture { reason: "capture too short for AIC" })?,
            OnsetMethod::PowerAic => {
                power_aic_onset_with(&capture.i, &capture.q, self.guard, scratch)
                    .map_err(|_| SoftLoraError::Capture { reason: "capture too short for AIC" })?
            }
        };
        Ok(PhyTimestamp {
            onset_sample,
            onset_s: onset_sample as f64 * capture.dt(),
            quantisation_bound_s: capture.dt() / 2.0,
        })
    }

    /// Signed timestamping error against the capture's ground truth,
    /// seconds (positive = picked late). This is the metric of paper
    /// Table 2 / Fig. 10 / Fig. 15.
    ///
    /// # Errors
    ///
    /// Same as [`PhyTimestamper::timestamp_with`].
    pub fn timestamp_error_s(
        &self,
        capture: &IqCapture,
        scratch: &mut DspScratch,
    ) -> Result<f64, SoftLoraError> {
        let ts = self.timestamp_with(capture, scratch)?;
        Ok((ts.onset_sample as i64 - capture.true_onset as i64) as f64 * capture.dt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softlora_dsp::envelope::EnvelopeDetector;
    use softlora_phy::noise::{add_noise_at_snr, GaussianNoise};
    use softlora_phy::oscillator::Oscillator;
    use softlora_phy::sdr::SdrReceiver;
    use softlora_phy::{PhyConfig, SpreadingFactor};

    /// Signed envelope-detector error against the capture's ground
    /// truth, seconds (the [`PhyTimestamper::timestamp_error_s`] metric).
    fn envelope_error_s(cap: &IqCapture, scratch: &mut DspScratch) -> f64 {
        let onset = EnvelopeDetector::new().detect_onset_with(&cap.i, scratch).unwrap();
        (onset as i64 - cap.true_onset as i64) as f64 * cap.dt()
    }

    fn capture(snr_db: Option<f64>, seed: u64) -> IqCapture {
        let cfg = PhyConfig::uplink(SpreadingFactor::Sf7);
        let osc = Oscillator::with_bias_ppm(2.0, 869.75e6, seed).with_jitter_hz(0.0);
        let mut rx = SdrReceiver::new(osc).without_quantisation();
        let cap = rx.capture_chirps(&cfg, 2, -22_000.0, 0.7, 1.0, 600).unwrap();
        match snr_db {
            None => cap,
            Some(snr) => {
                let mut z = cap.to_complex();
                let mut src = GaussianNoise::new(1.0, seed + 1);
                // The silent lead dilutes the measured signal power by
                // ~10 %; negligible for these tolerance-level tests.
                add_noise_at_snr(&mut z, &mut src, snr);
                IqCapture::from_complex(&z, cap.sample_rate, cap.true_onset)
            }
        }
    }

    #[test]
    fn aic_error_under_two_microseconds_clean() {
        // Paper Table 2: AIC errors < 2 µs at high SNR.
        let mut scratch = DspScratch::new();
        for seed in 0..10 {
            let cap = capture(None, seed);
            let ts = PhyTimestamper::new(OnsetMethod::Aic);
            let err = ts.timestamp_error_s(&cap, &mut scratch).unwrap().abs();
            assert!(err < 2e-6, "seed {seed}: err {err}");
        }
    }

    #[test]
    fn envelope_error_under_ten_microseconds_clean() {
        // Paper Table 2: envelope errors ~2–10 µs.
        let mut scratch = DspScratch::new();
        for seed in 0..10 {
            let cap = capture(None, seed);
            let err = envelope_error_s(&cap, &mut scratch).abs();
            assert!(err < 10e-6, "seed {seed}: err {err}");
        }
    }

    #[test]
    fn aic_beats_envelope_on_average() {
        let mut aic_sum = 0.0;
        let mut env_sum = 0.0;
        let mut scratch = DspScratch::new();
        let aic = PhyTimestamper::new(OnsetMethod::Aic);
        for seed in 0..10 {
            let cap = capture(Some(10.0), 100 + seed);
            aic_sum += aic.timestamp_error_s(&cap, &mut scratch).unwrap().abs();
            env_sum += envelope_error_s(&cap, &mut scratch).abs();
        }
        assert!(aic_sum <= env_sum, "aic {aic_sum} env {env_sum}");
    }

    #[test]
    fn error_grows_with_noise_but_stays_bounded() {
        // Paper Fig. 10: ≤ ~20 µs down to −1 dB, ≤ ~25 µs at −20 dB.
        let ts = PhyTimestamper::new(OnsetMethod::Aic);
        let mut high_snr_err = 0.0;
        let mut low_snr_err = 0.0;
        let mut scratch = DspScratch::new();
        for seed in 0..6 {
            let high = capture(Some(13.0), 200 + seed);
            let low = capture(Some(-1.0), 300 + seed);
            high_snr_err += ts.timestamp_error_s(&high, &mut scratch).unwrap().abs();
            low_snr_err += ts.timestamp_error_s(&low, &mut scratch).unwrap().abs();
        }
        high_snr_err /= 6.0;
        low_snr_err /= 6.0;
        assert!(high_snr_err <= low_snr_err + 2e-6, "{high_snr_err} vs {low_snr_err}");
        assert!(low_snr_err < 25e-6, "low snr err {low_snr_err}");
    }

    #[test]
    fn quantisation_bound_matches_sample_rate() {
        let cap = capture(None, 1);
        let ts = PhyTimestamper::new(OnsetMethod::Aic)
            .timestamp_with(&cap, &mut DspScratch::new())
            .unwrap();
        assert!((ts.quantisation_bound_s - 0.5 / 2.4e6).abs() < 1e-12);
        assert!((ts.onset_s - ts.onset_sample as f64 / 2.4e6).abs() < 1e-15);
    }

    #[test]
    fn short_capture_is_error() {
        let cap = IqCapture { i: vec![0.0; 8], q: vec![0.0; 8], sample_rate: 2.4e6, true_onset: 0 };
        let mut scratch = DspScratch::new();
        for m in [OnsetMethod::Aic, OnsetMethod::PowerAic] {
            assert!(PhyTimestamper::new(m).timestamp_with(&cap, &mut scratch).is_err());
        }
        assert!(EnvelopeDetector::new().detect_onset_with(&cap.i, &mut scratch).is_err());
    }
}
