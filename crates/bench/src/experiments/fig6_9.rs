//! Paper Figs. 6–9: the illustrative signal-processing figures.
//!
//! * Fig. 6 — I trace and spectrogram of an ideal SF7 up chirp (Kaiser
//!   window, 2^S-point STFT): we regenerate the spectrogram and report its
//!   geometry (≈ 20 frames, ≈ 50 µs time resolution) plus the linear
//!   frequency ridge.
//! * Fig. 7 — the I trace's shape depends on the unknown phase θ,
//!   defeating matched filtering.
//! * Fig. 8 — a real capture's dip centre shifts due to the FB.
//! * Fig. 9 — envelope-ratio and AIC detector outputs on a capture.

use crate::common;
use softlora_dsp::aic::aic_pick;
use softlora_dsp::envelope::EnvelopeDetector;
use softlora_dsp::spectrogram::{stft_with, Spectrogram, StftConfig};
use softlora_dsp::DspScratch;
use softlora_phy::{ChirpGenerator, PhyConfig, SpreadingFactor};

/// Summary of the regenerated figures.
#[derive(Debug, Clone)]
pub struct Fig6to9 {
    /// Spectrogram frame count (paper: 20 over one SF7 chirp).
    pub spectrogram_frames: usize,
    /// Spectrogram time resolution, µs (paper: ≈ 50 µs).
    pub time_resolution_us: f64,
    /// Frequency ridge of the chirp, Hz, one value per frame.
    pub ridge_hz: Vec<f64>,
    /// Correlation between the θ=0 and θ=π I traces (Fig. 7; strongly
    /// negative — the shapes differ, so no single matched-filter template
    /// exists).
    pub phase_trace_correlation: f64,
    /// Envelope detector onset error, samples (Fig. 9a).
    pub envelope_onset_error: i64,
    /// AIC detector onset error, samples (Fig. 9b).
    pub aic_onset_error: i64,
}

/// Regenerates the data behind Figs. 6–9.
pub fn run() -> Fig6to9 {
    let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
    let fs = 2.4e6;

    // Fig. 6: ideal chirp spectrogram.
    let generator =
        ChirpGenerator::new(phy.sf, phy.channel.bandwidth.hz(), fs).expect("chirp generator");
    let chirp = generator.upchirp(0, 0.0, 0.0, 1.0);
    let mut scratch = DspScratch::new();
    let sg: Spectrogram =
        stft_with(&chirp, &StftConfig::paper_fig6(7, fs), &mut scratch).expect("spectrogram");
    let ridge_hz = sg.ridge();

    // Fig. 7: θ = 0 versus θ = π.
    let (i0, _) = generator.upchirp_iq(0, 0.0, 0.0, 1.0);
    let (ipi, _) = generator.upchirp_iq(0, 0.0, std::f64::consts::PI, 1.0);
    let dot: f64 = i0.iter().zip(ipi.iter()).map(|(a, b)| a * b).sum();
    let norm: f64 = i0.iter().map(|a| a * a).sum();
    let phase_trace_correlation = dot / norm;

    // Figs. 8–9: a realistic capture with FB, and the two detectors.
    let cap = common::capture(&phy, 2, -22_800.0, 1.2, 700, 3);
    let env = EnvelopeDetector::new().detect_onset_with(&cap.i, &mut scratch).expect("envelope");
    let aic = aic_pick(&cap.i, 16).expect("aic");

    Fig6to9 {
        spectrogram_frames: sg.frames(),
        time_resolution_us: sg.time_resolution() * 1e6,
        ridge_hz,
        phase_trace_correlation,
        envelope_onset_error: env as i64 - cap.true_onset as i64,
        aic_onset_error: aic.onset as i64 - cap.true_onset as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spectrogram_geometry_matches_paper() {
        let f = run();
        assert!((19..=22).contains(&f.spectrogram_frames), "{}", f.spectrogram_frames);
        assert!((f.time_resolution_us - 46.7).abs() < 6.0, "{}", f.time_resolution_us);
    }

    #[test]
    fn ridge_sweeps_the_band_upward() {
        let f = run();
        let first = f.ridge_hz.first().copied().expect("ridge");
        let last = f.ridge_hz.last().copied().expect("ridge");
        assert!(first < -40_000.0, "first {first}");
        assert!(last > 40_000.0, "last {last}");
    }

    #[test]
    fn phase_flip_inverts_the_trace() {
        // cos(Θ+π) = −cos Θ: correlation ≈ −1, demonstrating Fig. 7's
        // "impossible to define a template shape" argument.
        let f = run();
        assert!(f.phase_trace_correlation < -0.99, "{}", f.phase_trace_correlation);
    }

    #[test]
    fn detectors_land_near_the_onset() {
        let f = run();
        assert!(f.aic_onset_error.abs() <= 4, "aic {}", f.aic_onset_error);
        assert!(f.envelope_onset_error.abs() <= 24, "env {}", f.envelope_onset_error);
    }
}
