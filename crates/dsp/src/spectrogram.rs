//! Short-time FFT spectrogram.
//!
//! Reproduces the analysis behind paper Fig. 6: a `2^S`-point Kaiser-windowed
//! short-time FFT over a chirp, with a configurable overlap between
//! neighbouring windows (the paper uses a 16-point overlap). The paper uses
//! the spectrogram only to *illustrate* the chirp's time–frequency ridge and
//! to argue that its ~50 µs time resolution is too coarse for PHY-layer
//! timestamping — which is exactly what [`Spectrogram::time_resolution`]
//! exposes.

use crate::complex::Complex;
use crate::scratch::DspScratch;
use crate::window::{window, WindowKind};
use crate::DspError;

/// Configuration for a short-time FFT.
#[derive(Debug, Clone, PartialEq)]
pub struct StftConfig {
    /// Samples per analysis window (FFT length is the next power of two).
    pub window_len: usize,
    /// Overlap between neighbouring windows, in samples (`< window_len`).
    pub overlap: usize,
    /// Window shape.
    pub kind: WindowKind,
    /// Sample rate in Hz; used only to annotate the time/frequency axes.
    pub sample_rate: f64,
}

impl StftConfig {
    /// The paper's Fig. 6 settings for spreading factor `sf`: a `2^sf`-point
    /// Kaiser window with 16-point overlap at the SDR rate of 2.4 Msps.
    pub fn paper_fig6(sf: u32, sample_rate: f64) -> Self {
        StftConfig {
            window_len: 1usize << sf,
            overlap: 16,
            kind: WindowKind::default(),
            sample_rate,
        }
    }

    /// Hop size between window starts.
    pub fn hop(&self) -> usize {
        self.window_len.saturating_sub(self.overlap).max(1)
    }
}

/// A computed spectrogram: a time-by-frequency power matrix.
#[derive(Debug, Clone)]
pub struct Spectrogram {
    /// `power[t][f]`: linear power of frame `t`, FFT bin `f`.
    pub power: Vec<Vec<f64>>,
    /// FFT length used per frame.
    pub fft_len: usize,
    /// Hop between frame starts, in samples.
    pub hop: usize,
    /// Sample rate in Hz.
    pub sample_rate: f64,
}

impl Spectrogram {
    /// Number of time frames.
    pub fn frames(&self) -> usize {
        self.power.len()
    }

    /// Time-axis resolution in seconds (one hop).
    ///
    /// For the paper's Fig. 6 parameters (SF7, 2.4 Msps down-sampled to
    /// 20 frames over 1.024 ms) this is ~50 µs, motivating the time-domain
    /// onset detectors of §6.1.2.
    pub fn time_resolution(&self) -> f64 {
        self.hop as f64 / self.sample_rate
    }

    /// Frequency-axis resolution in Hz (one FFT bin).
    pub fn freq_resolution(&self) -> f64 {
        self.sample_rate / self.fft_len as f64
    }

    /// Centre time (seconds) of frame `t`.
    pub fn frame_time(&self, t: usize) -> f64 {
        (t * self.hop) as f64 / self.sample_rate
    }

    /// Baseband frequency (Hz) of bin `f`, mapping the upper half of the FFT
    /// to negative frequencies (complex baseband convention).
    pub fn bin_frequency(&self, f: usize) -> f64 {
        let n = self.fft_len;
        let k = if f < n / 2 { f as f64 } else { f as f64 - n as f64 };
        k * self.sample_rate / n as f64
    }

    /// For each frame, the baseband frequency (Hz) of the strongest bin.
    ///
    /// On a clean up-chirp this traces the linearly increasing instantaneous
    /// frequency ridge of paper Fig. 6.
    pub fn ridge(&self) -> Vec<f64> {
        self.power
            .iter()
            .map(|row| {
                let (best, _) = row.iter().enumerate().fold((0usize, f64::MIN), |acc, (i, &p)| {
                    if p > acc.1 {
                        (i, p)
                    } else {
                        acc
                    }
                });
                self.bin_frequency(best)
            })
            .collect()
    }
}

/// Computes the spectrogram of a complex baseband signal. The windowed
/// segment and its transform reuse one scratch buffer across frames, and
/// all frames share one cached FFT plan; only the returned power matrix
/// allocates.
///
/// # Errors
///
/// * [`DspError::InvalidWindow`] if `window_len` is zero or the overlap is
///   not smaller than the window.
/// * [`DspError::InputTooShort`] if the signal is shorter than one window.
pub fn stft_with(
    signal: &[Complex],
    cfg: &StftConfig,
    scratch: &mut DspScratch,
) -> Result<Spectrogram, DspError> {
    if cfg.window_len == 0 {
        return Err(DspError::InvalidWindow { reason: "window_len must be positive" });
    }
    if cfg.overlap >= cfg.window_len {
        return Err(DspError::InvalidWindow { reason: "overlap must be smaller than window_len" });
    }
    if signal.len() < cfg.window_len {
        return Err(DspError::InputTooShort { required: cfg.window_len, actual: signal.len() });
    }
    let w = window(cfg.kind, cfg.window_len);
    let hop = cfg.hop();
    let fft_len = crate::fft::next_pow2(cfg.window_len);
    let mut seg = scratch.take_complex_empty();
    let mut power = Vec::new();
    let mut start = 0;
    while start + cfg.window_len <= signal.len() {
        seg.clear();
        seg.extend(
            signal[start..start + cfg.window_len].iter().zip(w.iter()).map(|(z, &wi)| z.scale(wi)),
        );
        seg.resize(fft_len, Complex::ZERO);
        scratch.planner().plan(fft_len).forward(&mut seg);
        power.push(seg.iter().map(|z| z.norm_sqr()).collect());
        start += hop;
    }
    scratch.put_complex(seg);
    Ok(Spectrogram { power, fft_len, hop, sample_rate: cfg.sample_rate })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn tone(n: usize, freq: f64, fs: f64) -> Vec<Complex> {
        (0..n).map(|i| Complex::cis(2.0 * PI * freq * i as f64 / fs)).collect()
    }

    #[test]
    fn tone_ridge_is_flat_at_tone_frequency() {
        let fs = 8000.0;
        let sig = tone(2048, 1000.0, fs);
        let cfg =
            StftConfig { window_len: 256, overlap: 128, kind: WindowKind::Hann, sample_rate: fs };
        let sg = stft_with(&sig, &cfg, &mut DspScratch::new()).unwrap();
        for f in sg.ridge() {
            assert!((f - 1000.0).abs() < sg.freq_resolution(), "ridge {f}");
        }
    }

    #[test]
    fn negative_frequency_tone_maps_below_zero() {
        let fs = 8000.0;
        let sig = tone(1024, -1500.0, fs);
        let cfg =
            StftConfig { window_len: 256, overlap: 0, kind: WindowKind::Hann, sample_rate: fs };
        let sg = stft_with(&sig, &cfg, &mut DspScratch::new()).unwrap();
        for f in sg.ridge() {
            assert!((f + 1500.0).abs() < 2.0 * sg.freq_resolution());
        }
    }

    #[test]
    fn linear_chirp_ridge_increases() {
        // Discrete chirp sweeping 0 -> fs/4 over the trace.
        let fs = 10_000.0;
        let n = 4096;
        let k = (fs / 4.0) / (n as f64 / fs); // Hz per second
        let sig: Vec<Complex> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                Complex::cis(2.0 * PI * (0.5 * k * t * t))
            })
            .collect();
        let cfg =
            StftConfig { window_len: 256, overlap: 128, kind: WindowKind::Hann, sample_rate: fs };
        let sg = stft_with(&sig, &cfg, &mut DspScratch::new()).unwrap();
        let ridge = sg.ridge();
        // Compare early vs late thirds; monotone increase overall.
        let early: f64 = ridge[..ridge.len() / 3].iter().sum::<f64>() / (ridge.len() / 3) as f64;
        let late: f64 = ridge[2 * ridge.len() / 3..].iter().sum::<f64>()
            / (ridge.len() - 2 * ridge.len() / 3) as f64;
        assert!(late > early + 500.0, "early {early} late {late}");
    }

    #[test]
    fn paper_fig6_geometry() {
        // SF7 chirp time 1.024 ms at 2.4 Msps = 2458 samples; 2^7-point
        // window with 16-point overlap gives about 2458/112 ≈ 21 frames —
        // the paper reports 20 power spectra over the chirp.
        let fs = 2.4e6;
        let n = (1.024e-3 * fs) as usize;
        let sig = tone(n, 1000.0, fs);
        let cfg = StftConfig::paper_fig6(7, fs);
        let sg = stft_with(&sig, &cfg, &mut DspScratch::new()).unwrap();
        assert!((19..=22).contains(&sg.frames()), "frames {}", sg.frames());
        // Time resolution ≈ 50 µs as the paper states.
        assert!((sg.time_resolution() - 46.7e-6).abs() < 5e-6);
    }

    #[test]
    fn rejects_bad_configs() {
        let sig = tone(64, 100.0, 1000.0);
        let bad_overlap =
            StftConfig { window_len: 32, overlap: 32, kind: WindowKind::Rect, sample_rate: 1000.0 };
        assert!(matches!(
            stft_with(&sig, &bad_overlap, &mut DspScratch::new()),
            Err(DspError::InvalidWindow { .. })
        ));
        let too_long =
            StftConfig { window_len: 128, overlap: 0, kind: WindowKind::Rect, sample_rate: 1000.0 };
        assert!(matches!(
            stft_with(&sig, &too_long, &mut DspScratch::new()),
            Err(DspError::InputTooShort { .. })
        ));
        let zero =
            StftConfig { window_len: 0, overlap: 0, kind: WindowKind::Rect, sample_rate: 1000.0 };
        assert!(stft_with(&sig, &zero, &mut DspScratch::new()).is_err());
    }

    #[test]
    fn frame_time_axis() {
        let sig = tone(1000, 100.0, 1000.0);
        let cfg = StftConfig {
            window_len: 100,
            overlap: 50,
            kind: WindowKind::Rect,
            sample_rate: 1000.0,
        };
        let sg = stft_with(&sig, &cfg, &mut DspScratch::new()).unwrap();
        assert_eq!(sg.frame_time(0), 0.0);
        assert!((sg.frame_time(2) - 0.1).abs() < 1e-12);
    }
}
