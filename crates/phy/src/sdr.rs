//! SDR receiver front-end model (paper Fig. 5, §5.2).
//!
//! The RTL-SDR mixes the RF input with two locally generated orthogonal
//! carriers at `fc + δRx` with phase `θRx`, low-pass filters the products,
//! and samples I and Q at 2.4 Msps with 8-bit ADCs. In complex baseband the
//! whole analog chain reduces to multiplying the transmitted baseband (which
//! already carries the transmitter's bias `δTx` and phase `θTx`) by
//! `exp(−j(2π·δRx·t + θRx))`, so the captured trace has net bias
//! `δ = δTx − δRx` and net phase `θ = θTx − θRx` — exactly the paper's
//! Eq. (5).
//!
//! Capture synthesis never evaluates the chirp's angle per sample. It
//! starts from the cached symbol-0 up-chirp
//! ([`crate::chirp::cached_chirp_refs`], shared with every receiver at
//! the same SF, bandwidth and sample rate) and multiplies it by the
//! bias phasor `amp·e^{j(2πδt + θ)}`. The phasor advances by one complex
//! multiply per sample and is re-anchored with an exact `from_polar` at
//! each chirp start and every 512 samples, so it stays within ~1e-12 of
//! the single-angle evaluation — far below the 8-bit ADC step of 1/64.
//! The ADC then quantises the whole buffer in one pass.

use crate::chirp::cached_chirp_refs;
use crate::oscillator::Oscillator;
use crate::params::PhyConfig;
use crate::PhyError;
use softlora_dsp::Complex;

/// The RTL-SDR's nominal sample rate (paper §5.1: "it can operate at
/// 2.4 Msps reliably for extended time periods").
pub const RTL_SDR_SAMPLE_RATE: f64 = 2.4e6;

/// Samples between exact re-anchors of the bias phasor in capture
/// synthesis; the recurrence drifts by ~1e-16 per step in between.
const PHASOR_ANCHOR: usize = 512;

/// 2⁵²: adding then subtracting it rounds an `f64` below 2⁵¹ in
/// magnitude to an integer, ties to even.
const ROUND_SHIFT: f64 = 4_503_599_627_370_496.0;

/// `x.round()` (half away from zero) without the libm call, bit for bit
/// for |x| < 2⁵¹: round |x| ties-to-even through [`ROUND_SHIFT`], move an
/// exact half that went down to the even neighbour back up, and restore
/// the sign (so −0.3 still rounds to −0).
#[inline]
fn round_half_away(x: f64) -> f64 {
    let a = x.abs();
    let t = (a + ROUND_SHIFT) - ROUND_SHIFT;
    (t + f64::from(u8::from(t - a == -0.5))).copysign(x)
}

/// The ADC's quantiser, resolved once per capture: the step, its exact
/// reciprocal and the clip bounds.
#[derive(Clone, Copy)]
struct Adc {
    lo: f64,
    hi: f64,
    per_step: f64,
    step: f64,
}

impl Adc {
    #[inline]
    fn quantise(&self, z: Complex) -> Complex {
        Complex::new(self.level(z.re), self.level(z.im))
    }

    #[inline]
    fn level(&self, x: f64) -> f64 {
        round_half_away(x.clamp(self.lo, self.hi) * self.per_step) * self.step
    }
}

/// An I/Q capture produced by the SDR receiver.
#[derive(Debug, Clone)]
pub struct IqCapture {
    /// In-phase samples.
    pub i: Vec<f64>,
    /// Quadrature samples.
    pub q: Vec<f64>,
    /// Sample rate in Hz.
    pub sample_rate: f64,
    /// Ground-truth sample index of the signal onset (for evaluating
    /// timestamping error; a real capture does not know this).
    pub true_onset: usize,
}

impl IqCapture {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.i.len()
    }

    /// Whether the capture is empty.
    pub fn is_empty(&self) -> bool {
        self.i.is_empty()
    }

    /// Sampling interval in seconds (0.42 µs at 2.4 Msps).
    pub fn dt(&self) -> f64 {
        1.0 / self.sample_rate
    }

    /// View as complex samples `I + jQ`.
    pub fn to_complex(&self) -> Vec<Complex> {
        self.i.iter().zip(self.q.iter()).map(|(&i, &q)| Complex::new(i, q)).collect()
    }

    /// [`IqCapture::to_complex`] into a caller-owned buffer (`out` is
    /// cleared and refilled; capacity reused across captures).
    pub fn to_complex_into(&self, out: &mut Vec<Complex>) {
        out.clear();
        out.extend(self.i.iter().zip(self.q.iter()).map(|(&i, &q)| Complex::new(i, q)));
    }

    /// Builds a capture from complex samples.
    pub fn from_complex(z: &[Complex], sample_rate: f64, true_onset: usize) -> Self {
        IqCapture {
            i: z.iter().map(|c| c.re).collect(),
            q: z.iter().map(|c| c.im).collect(),
            sample_rate,
            true_onset,
        }
    }
}

/// Model of the RTL-SDR receive chain.
#[derive(Debug, Clone)]
pub struct SdrReceiver {
    oscillator: Oscillator,
    sample_rate: f64,
    /// ADC resolution in bits; `None` disables quantisation.
    adc_bits: Option<u32>,
    /// Full-scale amplitude the ADC clips at.
    adc_full_scale: f64,
    /// Fixed receiver mixing phase drawn per capture; see
    /// [`SdrReceiver::capture_chirps`].
    next_phase: Option<f64>,
}

impl SdrReceiver {
    /// Creates a receiver with the given local oscillator, sampling at
    /// 2.4 Msps with 8-bit quantisation (RTL2832U defaults).
    pub fn new(oscillator: Oscillator) -> Self {
        SdrReceiver {
            oscillator,
            sample_rate: RTL_SDR_SAMPLE_RATE,
            adc_bits: Some(8),
            adc_full_scale: 2.0,
            next_phase: None,
        }
    }

    /// Disables ADC quantisation (ideal front-end, useful for isolating
    /// algorithmic error in tests).
    pub fn without_quantisation(mut self) -> Self {
        self.adc_bits = None;
        self
    }

    /// Sets ADC resolution.
    ///
    /// # Panics
    ///
    /// When `bits` exceeds 32.
    pub fn with_adc_bits(mut self, bits: u32) -> Self {
        assert!(bits <= 32, "a {bits}-bit ADC is not modelled");
        self.adc_bits = Some(bits);
        self
    }

    /// Pins the next capture's receiver phase `θRx` (tests).
    pub fn with_fixed_phase(mut self, theta_rx: f64) -> Self {
        self.next_phase = Some(theta_rx);
        self
    }

    /// The receiver's local-oscillator frequency bias `δRx` in Hz.
    pub fn receiver_bias_hz(&self) -> f64 {
        self.oscillator.frequency_bias_hz()
    }

    /// Sample rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Down-converts an RF-equivalent baseband stream through this
    /// receiver: applies the local-oscillator bias/phase rotation and ADC
    /// quantisation. `t0` is the stream's absolute start time in seconds
    /// (the mixer phase advances continuously).
    pub fn downconvert(&mut self, samples: &[Complex], t0: f64) -> Vec<Complex> {
        let delta_rx = self.oscillator.frequency_bias_hz();
        let theta_rx = self.next_phase.take().unwrap_or_else(|| self.oscillator.random_phase());
        let dt = 1.0 / self.sample_rate;
        let adc = self.adc();
        samples
            .iter()
            .enumerate()
            .map(|(n, &z)| {
                let t = t0 + n as f64 * dt;
                let mixed =
                    z * Complex::cis(-(2.0 * std::f64::consts::PI * delta_rx * t + theta_rx));
                adc.map_or(mixed, |adc| adc.quantise(mixed))
            })
            .collect()
    }

    /// Captures the first `n_chirps` up-chirps of an uplink frame, the way
    /// SoftLoRa does (paper §5.1: only the first two chirps are analysed).
    ///
    /// The transmitted chirps carry bias `delta_tx` and phase `theta_tx`;
    /// the capture begins `lead` samples of silence before the signal onset
    /// and the waveform arrives with amplitude `amp`. Noise is added by the
    /// caller (see [`crate::noise`]), keeping this function deterministic.
    ///
    /// # Errors
    ///
    /// Propagates [`PhyError::InvalidConfig`] from chirp generation.
    pub fn capture_chirps(
        &mut self,
        cfg: &PhyConfig,
        n_chirps: usize,
        delta_tx: f64,
        theta_tx: f64,
        amp: f64,
        lead: usize,
    ) -> Result<IqCapture, PhyError> {
        let theta_rx = self.next_phase.take().unwrap_or_else(|| self.oscillator.random_phase());
        self.capture_chirps_with_phase(cfg, n_chirps, delta_tx, theta_tx, amp, lead, theta_rx)
    }

    /// Like [`SdrReceiver::capture_chirps`], but with the receiver mixing
    /// phase `θRx` supplied by the caller instead of drawn from the
    /// oscillator.
    ///
    /// This variant takes `&self` and draws no randomness, so independent
    /// captures can be synthesised concurrently with per-capture phases
    /// derived from an external seed (the staged gateway pipeline's batch
    /// mode relies on this).
    ///
    /// # Errors
    ///
    /// Propagates [`PhyError::InvalidConfig`] from chirp generation.
    #[allow(clippy::too_many_arguments)]
    pub fn capture_chirps_with_phase(
        &self,
        cfg: &PhyConfig,
        n_chirps: usize,
        delta_tx: f64,
        theta_tx: f64,
        amp: f64,
        lead: usize,
        theta_rx: f64,
    ) -> Result<IqCapture, PhyError> {
        let mut z = Vec::new();
        self.capture_chirps_with_phase_into(
            cfg, n_chirps, delta_tx, theta_tx, amp, lead, theta_rx, &mut z,
        )?;
        Ok(IqCapture::from_complex(&z, self.sample_rate, lead))
    }

    /// [`SdrReceiver::capture_chirps_with_phase`] writing the quantised
    /// complex waveform into a caller-owned buffer — the batch pipeline's
    /// per-worker scratch path, which synthesises one capture per
    /// delivery without allocating once the buffer is warm. The capture
    /// onset sits at sample `lead`.
    ///
    /// # Errors
    ///
    /// Propagates [`PhyError::InvalidConfig`] from chirp generation.
    #[allow(clippy::too_many_arguments)]
    pub fn capture_chirps_with_phase_into(
        &self,
        cfg: &PhyConfig,
        n_chirps: usize,
        delta_tx: f64,
        theta_tx: f64,
        amp: f64,
        lead: usize,
        theta_rx: f64,
        z: &mut Vec<Complex>,
    ) -> Result<(), PhyError> {
        let chirp_time = cfg.chirp_time();
        let refs = cached_chirp_refs(cfg.sf, cfg.channel.bandwidth.hz(), self.sample_rate)?;
        let delta_rx = self.oscillator.frequency_bias_hz();
        // Net bias and phase, per the paper's Eq. (5).
        let delta = delta_tx - delta_rx;
        let theta = theta_tx - theta_rx;

        let two_pi = 2.0 * std::f64::consts::PI;
        let dt = 1.0 / self.sample_rate;
        let step = Complex::cis(two_pi * delta * dt);
        z.clear();
        z.reserve(lead + n_chirps * refs.upchirp.len());
        z.resize(lead, Complex::ZERO);
        for k in 0..n_chirps {
            // Keep the bias phase continuous across chirps: the k-th chirp
            // starts at t = k·T, contributing 2π·δ·kT of accumulated phase.
            let phase_offset = two_pi * delta * (k as f64 * chirp_time) + theta;
            for (block, chunk) in refs.upchirp.chunks(PHASOR_ANCHOR).enumerate() {
                let t = (block * PHASOR_ANCHOR) as f64 * dt;
                let mut bias = Complex::from_polar(amp, two_pi * delta * t + phase_offset);
                z.extend(chunk.iter().map(|&c| {
                    let s = c * bias;
                    bias *= step;
                    s
                }));
            }
        }
        if let Some(adc) = self.adc() {
            for s in &mut z[lead..] {
                *s = adc.quantise(*s);
            }
        }
        Ok(())
    }

    /// The ADC quantiser, or `None` when quantisation is off.
    fn adc(&self) -> Option<Adc> {
        self.adc_bits.map(|bits| {
            let levels = (1u64 << bits) as f64;
            let step = 2.0 * self.adc_full_scale / levels;
            Adc {
                lo: -self.adc_full_scale,
                hi: self.adc_full_scale - step,
                // The step is a power of two (full scale 2, 2^bits
                // levels), so scaling by its reciprocal is the exact
                // division.
                per_step: levels / (2.0 * self.adc_full_scale),
                step,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chirp::{ChirpDirection, ChirpGenerator};
    use crate::params::{PhyConfig, SpreadingFactor};
    use softlora_dsp::unwrap::unwrap_iq;

    fn receiver(bias_ppm: f64) -> SdrReceiver {
        SdrReceiver::new(Oscillator::with_bias_ppm(bias_ppm, 869.75e6, 1).with_jitter_hz(0.0))
    }

    /// The per-sample synthesis the table path replaced: one `from_polar`
    /// of the full angle per sample, then quantisation by division.
    #[allow(clippy::too_many_arguments)]
    fn oracle_capture(
        rx: &SdrReceiver,
        cfg: &PhyConfig,
        n_chirps: usize,
        delta_tx: f64,
        theta_tx: f64,
        amp: f64,
        lead: usize,
        theta_rx: f64,
    ) -> Vec<Complex> {
        let generator = ChirpGenerator::new(cfg.sf, cfg.channel.bandwidth.hz(), rx.sample_rate)
            .expect("valid generator");
        let delta = delta_tx - rx.oscillator.frequency_bias_hz();
        let theta = theta_tx - theta_rx;
        let mut z = vec![Complex::ZERO; lead];
        for k in 0..n_chirps {
            let t_start = k as f64 * generator.chirp_time();
            let phase_offset = 2.0 * std::f64::consts::PI * delta * t_start + theta;
            z.extend(generator.chirp(ChirpDirection::Up, 0, delta, phase_offset, amp));
        }
        let quantise = |x: f64| match rx.adc_bits {
            None => x,
            Some(bits) => {
                let step = 2.0 * rx.adc_full_scale / (1u64 << bits) as f64;
                (x.clamp(-rx.adc_full_scale, rx.adc_full_scale - step) / step).round() * step
            }
        };
        z.into_iter().map(|s| Complex::new(quantise(s.re), quantise(s.im))).collect()
    }

    #[test]
    fn table_synthesis_matches_the_per_sample_oracle() {
        let mut z = Vec::new();
        for sf in [SpreadingFactor::Sf7, SpreadingFactor::Sf9] {
            let cfg = PhyConfig::uplink(sf);
            for delta in [0.0, 22e3, -22e3, 61e3, -61e3] {
                for (theta_tx, theta_rx) in [(0.0, 0.0), (0.7, 2.9), (-2.5, 5.1)] {
                    for amp in [1.0, 0.3] {
                        for n_chirps in [1, 3] {
                            for rx in [
                                receiver(0.0),
                                receiver(0.0).with_adc_bits(12),
                                receiver(0.0).without_quantisation(),
                            ] {
                                let case = format!(
                                    "{sf:?} δ={delta} θ={theta_tx}/{theta_rx} amp={amp} \
                                     n={n_chirps} adc={:?}",
                                    rx.adc_bits
                                );
                                let want = oracle_capture(
                                    &rx, &cfg, n_chirps, delta, theta_tx, amp, 37, theta_rx,
                                );
                                rx.capture_chirps_with_phase_into(
                                    &cfg, n_chirps, delta, theta_tx, amp, 37, theta_rx, &mut z,
                                )
                                .unwrap();
                                if rx.adc_bits.is_some() {
                                    assert_eq!(z, want, "{case}");
                                } else {
                                    assert_eq!(z.len(), want.len(), "{case}");
                                    let err = z
                                        .iter()
                                        .zip(&want)
                                        .map(|(a, b)| (*a - *b).norm())
                                        .fold(0.0, f64::max);
                                    assert!(err < 1e-9, "{case}: error {err}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn capture_dimensions_and_onset() {
        let cfg = PhyConfig::uplink(SpreadingFactor::Sf7);
        let mut rx = receiver(0.0);
        let cap = rx.capture_chirps(&cfg, 2, 0.0, 0.0, 1.0, 500).unwrap();
        // 2 chirps of 1.024 ms at 2.4 Msps = 2·2457 samples + 500 lead.
        assert_eq!(cap.len(), 500 + 2 * 2457);
        assert_eq!(cap.true_onset, 500);
        assert!((cap.dt() - 1.0 / 2.4e6).abs() < 1e-18);
        assert!(!cap.is_empty());
    }

    #[test]
    fn net_bias_is_tx_minus_rx() {
        // δTx = −22 kHz, δRx = +3 kHz (≈ +3.45 ppm) -> net δ = −25 kHz.
        let cfg = PhyConfig::uplink(SpreadingFactor::Sf7);
        let delta_rx_ppm = 3000.0 / 869.75; // 3 kHz in ppm
        let mut rx = receiver(delta_rx_ppm).without_quantisation().with_fixed_phase(0.0);
        let cap = rx.capture_chirps(&cfg, 1, -22_000.0, 0.0, 1.0, 0).unwrap();
        // Recover the slope of the de-quadratic'd phase (the FB estimator's
        // core) and check it equals δTx − δRx.
        let un = unwrap_iq(&cap.i, &cap.q);
        let dt = cap.dt();
        let w = 125e3;
        let sf = 7u32;
        let a = std::f64::consts::PI * w * w / (1u64 << sf) as f64;
        let linear: Vec<f64> = un
            .iter()
            .enumerate()
            .map(|(n, &p)| {
                let t = n as f64 * dt;
                p - a * t * t + std::f64::consts::PI * w * t
            })
            .collect();
        let xs: Vec<f64> = (0..linear.len()).map(|n| n as f64 * dt).collect();
        let fit = softlora_dsp::regression::linear_fit(&xs, &linear).unwrap();
        let delta_est = fit.slope / (2.0 * std::f64::consts::PI);
        assert!((delta_est + 25_000.0).abs() < 50.0, "estimated net bias {delta_est}, want −25000");
    }

    #[test]
    fn quantisation_bounds_error() {
        let cfg = PhyConfig::uplink(SpreadingFactor::Sf7);
        let mut ideal = receiver(0.0).without_quantisation().with_fixed_phase(0.3);
        let mut real = receiver(0.0).with_adc_bits(8).with_fixed_phase(0.3);
        let a = ideal.capture_chirps(&cfg, 1, -20e3, 0.5, 1.0, 0).unwrap();
        let b = real.capture_chirps(&cfg, 1, -20e3, 0.5, 1.0, 0).unwrap();
        let step = 2.0 * 2.0 / 256.0;
        for (x, y) in a.i.iter().zip(b.i.iter()) {
            assert!((x - y).abs() <= step / 2.0 + 1e-12);
        }
    }

    #[test]
    fn quantisation_clips_at_full_scale() {
        let adc = receiver(0.0).adc().expect("8-bit ADC by default");
        let big = adc.quantise(Complex::new(100.0, -100.0));
        assert!(big.re <= 2.0 && big.im >= -2.0);
    }

    #[test]
    fn inline_rounding_matches_f64_round_bit_for_bit() {
        // `assert_eq!` on floats cannot tell −0 from +0; compare bits.
        let check = |x: f64| {
            for v in [x, x.next_up(), x.next_down(), -x] {
                assert_eq!(round_half_away(v).to_bits(), v.round().to_bits(), "{v:e}");
            }
        };
        // The scaled range of a 16-bit ADC, which holds every narrower
        // one's, in 1/8 steps: every tie and every near-tie.
        for k in -(8 << 15)..=(8 << 15) {
            check(f64::from(k) / 8.0);
        }
        // Integers and ties out past the 32-bit ADC edge to the 2⁵¹ limit.
        for e in 0..51 {
            let p = (1u64 << e) as f64;
            check(p);
            check(p + 0.5);
            check(p - 0.5);
        }
    }

    #[test]
    fn downconvert_rotates_by_receiver_bias() {
        // A DC input through a biased receiver becomes a tone at −δRx.
        let delta_rx_hz = 5000.0;
        let ppm = delta_rx_hz / 869.75; // Hz -> ppm at fc
        let mut rx = receiver(ppm).without_quantisation().with_fixed_phase(0.0);
        let input = vec![Complex::ONE; 4800];
        let out = rx.downconvert(&input, 0.0);
        // Phase advance per sample = −2π·δRx/fs.
        let want = -2.0 * std::f64::consts::PI * delta_rx_hz / 2.4e6;
        let d = (out[100] * out[99].conj()).arg();
        assert!((d - want).abs() < 1e-9, "{d} vs {want}");
    }

    #[test]
    fn phase_continuity_across_captured_chirps() {
        let cfg = PhyConfig::uplink(SpreadingFactor::Sf7);
        let mut rx = receiver(0.0).without_quantisation().with_fixed_phase(0.0);
        let cap = rx.capture_chirps(&cfg, 2, -20e3, 0.0, 1.0, 0).unwrap();
        let z = cap.to_complex();
        let n = 2457;
        // Max per-sample phase step: band edge (62.5 kHz) + |δ| (20 kHz).
        let max_step = 2.0 * std::f64::consts::PI * (62.5e3 + 20e3) / 2.4e6 + 1e-6;
        let d = (z[n] * z[n - 1].conj()).arg().abs();
        assert!(d <= max_step, "discontinuity {d} at chirp boundary");
    }

    #[test]
    fn iq_capture_complex_round_trip() {
        let z = vec![Complex::new(1.0, 2.0), Complex::new(-0.5, 0.25)];
        let cap = IqCapture::from_complex(&z, 2.4e6, 0);
        assert_eq!(cap.to_complex(), z);
    }
}
