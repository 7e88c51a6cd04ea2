//! CSS chirp synthesis (paper §5.2, §6.1.1, §7.1).
//!
//! A LoRa up-chirp at complex baseband has instantaneous angle
//!
//! ```text
//! Θ(t) = π·W²/2^S · t² − π·W·t + 2π·δ·t + θ,    t ∈ [0, 2^S/W]
//! ```
//!
//! where `W` is the bandwidth, `S` the spreading factor, `δ` the net
//! frequency bias between transmitter and receiver, and `θ` the net phase.
//! The received I/Q components are `I(t) = A/2·cos Θ(t)` and
//! `Q(t) = A/2·sin Θ(t)`. Data symbols are cyclic shifts of the base chirp.
//!
//! This module generates sampled versions of these waveforms at an arbitrary
//! sample rate — `2.4 Msps` for the RTL-SDR capture path, or an integer
//! oversampling of `W` for the modem path.

use crate::params::{PhyConfig, SpreadingFactor};
use crate::PhyError;
use softlora_dsp::Complex;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Evaluates the paper's instantaneous angle `Θ(t)` of a symbol-0 up chirp.
///
/// `w` is the bandwidth in Hz, `sf` the spreading factor, `delta` the net
/// frequency bias in Hz and `theta` the net phase in radians.
///
/// ```
/// use softlora_phy::chirp::instantaneous_angle;
/// // At t = 0 the angle equals the phase offset.
/// assert_eq!(instantaneous_angle(0.0, 125e3, 7, 0.0, 1.0), 1.0);
/// ```
pub fn instantaneous_angle(t: f64, w: f64, sf: u32, delta: f64, theta: f64) -> f64 {
    let a = std::f64::consts::PI * w * w / (1u64 << sf) as f64;
    a * t * t - std::f64::consts::PI * w * t + 2.0 * std::f64::consts::PI * delta * t + theta
}

/// Direction of a chirp's frequency sweep.
///
/// LoRaWAN uplink preambles use up chirps; downlink preambles use down
/// chirps — which is how the paper's adversary tells transmission direction
/// within one chirp time (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChirpDirection {
    /// Frequency increases linearly from `−W/2` to `+W/2`.
    Up,
    /// Frequency decreases linearly from `+W/2` to `−W/2`.
    Down,
}

/// Generator for sampled CSS chirps of a fixed PHY configuration and sample
/// rate.
///
/// # Example
///
/// ```
/// use softlora_phy::{ChirpGenerator, SpreadingFactor};
///
/// // Modem-rate generator: 2 samples per chip.
/// let gen = ChirpGenerator::oversampled(SpreadingFactor::Sf7, 125e3, 2)?;
/// let chirp = gen.upchirp(0, 0.0, 0.0, 1.0);
/// assert_eq!(chirp.len(), 2 * 128);
/// # Ok::<(), softlora_phy::PhyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ChirpGenerator {
    sf: SpreadingFactor,
    bandwidth_hz: f64,
    sample_rate: f64,
    samples_per_chirp: usize,
}

impl ChirpGenerator {
    /// Creates a generator at an arbitrary sample rate (e.g. the RTL-SDR's
    /// 2.4 Msps). The number of samples per chirp is `floor(T_chirp · fs)`.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidConfig`] if the sample rate is below the
    /// bandwidth (Nyquist for complex baseband) or non-finite.
    pub fn new(sf: SpreadingFactor, bandwidth_hz: f64, sample_rate: f64) -> Result<Self, PhyError> {
        if bandwidth_hz <= 0.0 || !bandwidth_hz.is_finite() {
            return Err(PhyError::InvalidConfig { reason: "bandwidth must be positive" });
        }
        if sample_rate < bandwidth_hz || !sample_rate.is_finite() {
            return Err(PhyError::InvalidConfig {
                reason: "sample rate must be at least the bandwidth",
            });
        }
        let chirp_time = sf.chips() as f64 / bandwidth_hz;
        let samples_per_chirp = (chirp_time * sample_rate).floor() as usize;
        Ok(ChirpGenerator { sf, bandwidth_hz, sample_rate, samples_per_chirp })
    }

    /// Creates a modem-rate generator with an integer number of samples per
    /// chip (`sample_rate = oversample · bandwidth`), which keeps symbol
    /// boundaries sample-aligned for the demodulator.
    ///
    /// # Errors
    ///
    /// Returns [`PhyError::InvalidConfig`] if `oversample` is zero.
    pub fn oversampled(
        sf: SpreadingFactor,
        bandwidth_hz: f64,
        oversample: usize,
    ) -> Result<Self, PhyError> {
        if oversample == 0 {
            return Err(PhyError::InvalidConfig { reason: "oversample must be positive" });
        }
        Self::new(sf, bandwidth_hz, bandwidth_hz * oversample as f64)
    }

    /// Creates the paper's SDR-capture generator for a PHY config: the
    /// RTL-SDR's 2.4 Msps.
    ///
    /// # Errors
    ///
    /// Propagates [`PhyError::InvalidConfig`] from [`ChirpGenerator::new`].
    pub fn sdr_rate(cfg: &PhyConfig) -> Result<Self, PhyError> {
        Self::new(cfg.sf, cfg.channel.bandwidth.hz(), 2.4e6)
    }

    /// Spreading factor of the generated chirps.
    pub fn sf(&self) -> SpreadingFactor {
        self.sf
    }

    /// Bandwidth in Hz.
    pub fn bandwidth_hz(&self) -> f64 {
        self.bandwidth_hz
    }

    /// Sample rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Samples per chirp at this generator's sample rate.
    pub fn samples_per_chirp(&self) -> usize {
        self.samples_per_chirp
    }

    /// Chirp duration in seconds.
    pub fn chirp_time(&self) -> f64 {
        self.sf.chips() as f64 / self.bandwidth_hz
    }

    /// Generates one up chirp carrying `symbol` (cyclic shift), with net
    /// frequency bias `delta_hz`, net phase `theta` and amplitude `amp`.
    ///
    /// # Panics
    ///
    /// Panics if `symbol >= 2^SF` (symbols are validated upstream by the
    /// modulator; this is a programming error).
    pub fn upchirp(&self, symbol: usize, delta_hz: f64, theta: f64, amp: f64) -> Vec<Complex> {
        self.chirp(ChirpDirection::Up, symbol, delta_hz, theta, amp)
    }

    /// Generates one down chirp (used by the SFD and downlink preambles).
    ///
    /// # Panics
    ///
    /// Panics if `symbol >= 2^SF`.
    pub fn downchirp(&self, symbol: usize, delta_hz: f64, theta: f64, amp: f64) -> Vec<Complex> {
        self.chirp(ChirpDirection::Down, symbol, delta_hz, theta, amp)
    }

    /// Generates a chirp in the given direction.
    ///
    /// # Panics
    ///
    /// Panics if `symbol >= 2^SF`.
    pub fn chirp(
        &self,
        direction: ChirpDirection,
        symbol: usize,
        delta_hz: f64,
        theta: f64,
        amp: f64,
    ) -> Vec<Complex> {
        let chips = self.sf.chips();
        assert!(symbol < chips, "symbol {symbol} out of range for {}", self.sf);
        let w = self.bandwidth_hz;
        let t_total = self.chirp_time();
        // Frequency slope in Hz/s.
        let a = w * w / chips as f64;
        // Initial baseband frequency and time until the frequency wrap.
        let (f0, slope) = match direction {
            ChirpDirection::Up => (-w / 2.0 + symbol as f64 * w / chips as f64, a),
            ChirpDirection::Down => (w / 2.0 - symbol as f64 * w / chips as f64, -a),
        };
        let t_wrap = match direction {
            ChirpDirection::Up => (w / 2.0 - f0) / a,
            ChirpDirection::Down => (f0 + w / 2.0) / a,
        };
        // Phase accumulated by the first segment at its end.
        let two_pi = 2.0 * std::f64::consts::PI;
        let phase_at_wrap = two_pi * (f0 * t_wrap + slope * t_wrap * t_wrap / 2.0);
        // Frequency restarts at the opposite band edge after the wrap.
        let f_restart = match direction {
            ChirpDirection::Up => -w / 2.0,
            ChirpDirection::Down => w / 2.0,
        };

        let dt = 1.0 / self.sample_rate;
        (0..self.samples_per_chirp)
            .map(|n| {
                let t = n as f64 * dt;
                let core_phase = if t < t_wrap || t_wrap >= t_total {
                    two_pi * (f0 * t + slope * t * t / 2.0)
                } else {
                    let u = t - t_wrap;
                    phase_at_wrap + two_pi * (f_restart * u + slope * u * u / 2.0)
                };
                Complex::from_polar(amp, core_phase + two_pi * delta_hz * t + theta)
            })
            .collect()
    }

    /// Conjugate base up-chirp used as the dechirp reference.
    pub fn dechirp_reference(&self) -> Vec<Complex> {
        self.upchirp(0, 0.0, 0.0, 1.0).into_iter().map(Complex::conj).collect()
    }

    /// I/Q traces of an up chirp as separate real vectors, matching the
    /// paper's presentation (`I(t) = A/2·cos Θ`, `Q(t) = A/2·sin Θ` — pass
    /// `amp = A/2` for a literal match).
    pub fn upchirp_iq(
        &self,
        symbol: usize,
        delta_hz: f64,
        theta: f64,
        amp: f64,
    ) -> (Vec<f64>, Vec<f64>) {
        let z = self.upchirp(symbol, delta_hz, theta, amp);
        (z.iter().map(|c| c.re).collect(), z.iter().map(|c| c.im).collect())
    }
}

/// The shared reference waveforms of one `(SF, bandwidth, sample rate)`
/// parameterisation: every receiver instance at the same parameters uses
/// the **same** immutable tables instead of re-synthesising them.
#[derive(Debug, Clone)]
pub struct ChirpRefs {
    /// The clean symbol-0 up-chirp (fine-timing correlation template).
    pub upchirp: Arc<Vec<Complex>>,
    /// `conj(upchirp)` — the up-dechirp reference.
    pub up_conj: Arc<Vec<Complex>>,
    /// `conj(downchirp)` — the down-dechirp (SFD) reference.
    pub down_conj: Arc<Vec<Complex>>,
}

/// Cache key: `(sf, bandwidth bits, sample-rate bits)`.
type RefsKey = (u32, u64, u64);

/// Process-wide cache behind [`cached_chirp_refs`].
fn refs_cache() -> &'static Mutex<HashMap<RefsKey, ChirpRefs>> {
    static CACHE: OnceLock<Mutex<HashMap<RefsKey, ChirpRefs>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// The cached reference set for `(sf, bandwidth_hz, sample_rate)`,
/// synthesised on first request.
///
/// Demodulators and FB estimators are constructed per gateway (and per
/// benchmark iteration), but their reference chirps depend only on the
/// radio parameterisation — a fleet of SF7/125 kHz receivers shares three
/// tables instead of synthesising `3 × gateways` of them. The returned
/// handles are cheap to clone.
///
/// # Errors
///
/// Propagates [`PhyError::InvalidConfig`] from [`ChirpGenerator::new`].
pub fn cached_chirp_refs(
    sf: SpreadingFactor,
    bandwidth_hz: f64,
    sample_rate: f64,
) -> Result<ChirpRefs, PhyError> {
    let key = (sf.value(), bandwidth_hz.to_bits(), sample_rate.to_bits());
    if let Some(refs) = refs_cache().lock().expect("chirp cache poisoned").get(&key) {
        return Ok(refs.clone());
    }
    // Synthesise outside the lock (SF12 at 2.4 Msps is ~80k samples).
    let generator = ChirpGenerator::new(sf, bandwidth_hz, sample_rate)?;
    let upchirp = generator.upchirp(0, 0.0, 0.0, 1.0);
    let up_conj: Vec<Complex> = upchirp.iter().map(|z| z.conj()).collect();
    let down_conj: Vec<Complex> =
        generator.downchirp(0, 0.0, 0.0, 1.0).iter().map(|z| z.conj()).collect();
    let refs = ChirpRefs {
        upchirp: Arc::new(upchirp),
        up_conj: Arc::new(up_conj),
        down_conj: Arc::new(down_conj),
    };
    let mut cache = refs_cache().lock().expect("chirp cache poisoned");
    // A racing thread may have inserted meanwhile; keep the first entry so
    // every holder shares one table.
    Ok(cache.entry(key).or_insert(refs).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use softlora_dsp::fft::{argmax_bin, fft_forward};
    use softlora_dsp::unwrap::unwrap_iq;

    fn gen(os: usize) -> ChirpGenerator {
        ChirpGenerator::oversampled(SpreadingFactor::Sf7, 125e3, os).unwrap()
    }

    #[test]
    fn sample_counts() {
        let g = gen(1);
        assert_eq!(g.samples_per_chirp(), 128);
        let g4 = gen(4);
        assert_eq!(g4.samples_per_chirp(), 512);
        let sdr = ChirpGenerator::new(SpreadingFactor::Sf7, 125e3, 2.4e6).unwrap();
        // 1.024 ms at 2.4 Msps = 2457.6 -> 2457 samples.
        assert_eq!(sdr.samples_per_chirp(), 2457);
        assert!((sdr.chirp_time() - 1.024e-3).abs() < 1e-12);
    }

    #[test]
    fn constructor_validation() {
        assert!(ChirpGenerator::new(SpreadingFactor::Sf7, 0.0, 1e6).is_err());
        assert!(ChirpGenerator::new(SpreadingFactor::Sf7, 125e3, 60e3).is_err());
        assert!(ChirpGenerator::oversampled(SpreadingFactor::Sf7, 125e3, 0).is_err());
    }

    #[test]
    fn chirp_has_constant_amplitude() {
        let g = gen(2);
        for z in g.upchirp(37, 1000.0, 0.5, 2.0) {
            assert!((z.norm() - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn dechirped_symbol_lands_in_symbol_bin() {
        // Multiplying symbol-k upchirp by conj(base) must concentrate energy
        // in FFT bin k (the fundamental CSS demodulation property).
        let g = gen(1);
        let reference = g.dechirp_reference();
        for &sym in &[0usize, 1, 5, 64, 100, 127] {
            let c = g.upchirp(sym, 0.0, 0.0, 1.0);
            let mixed: Vec<Complex> =
                c.iter().zip(reference.iter()).map(|(a, b)| *a * *b).collect();
            let spec = fft_forward(&mixed);
            let (bin, _) = argmax_bin(&spec);
            assert_eq!(bin, sym, "symbol {sym} -> bin {bin}");
        }
    }

    #[test]
    fn unwrapped_phase_matches_paper_formula() {
        // For symbol 0, the sampled phase must equal Θ(t) up to 2π.
        let g = ChirpGenerator::new(SpreadingFactor::Sf7, 125e3, 2.4e6).unwrap();
        let delta = -22_800.0; // the paper's example FB, −22.8 kHz
        let theta = 0.7;
        let (i, q) = g.upchirp_iq(0, delta, theta, 1.0);
        let un = unwrap_iq(&i, &q);
        let dt = 1.0 / g.sample_rate();
        for n in (0..un.len()).step_by(97) {
            let t = n as f64 * dt;
            let want = instantaneous_angle(t, 125e3, 7, delta, theta);
            let diff = un[n] - want;
            // Same up to a constant multiple of 2π fixed at n = 0.
            let k = (diff / (2.0 * std::f64::consts::PI)).round();
            assert!(
                (diff - k * 2.0 * std::f64::consts::PI).abs() < 1e-6,
                "sample {n}: diff {diff}"
            );
        }
    }

    #[test]
    fn frequency_bias_shifts_dechirp_bin() {
        // A frequency bias of m bins (m·W/2^S Hz) moves the dechirped peak
        // by m bins — the effect Choir/the paper exploit.
        let g = gen(1);
        let reference = g.dechirp_reference();
        let bin_hz = 125e3 / 128.0;
        let c = g.upchirp(0, 3.0 * bin_hz, 0.0, 1.0);
        let mixed: Vec<Complex> = c.iter().zip(reference.iter()).map(|(a, b)| *a * *b).collect();
        let (bin, _) = argmax_bin(&fft_forward(&mixed));
        assert_eq!(bin, 3);
    }

    #[test]
    fn down_chirp_mirrors_up_chirp_spectrally() {
        // Dechirping a down chirp with the up reference spreads energy; with
        // the conjugate (down) reference it concentrates. This property lets
        // receivers detect transmission direction in one chirp (paper §4.2.2).
        let g = gen(1);
        let down = g.downchirp(0, 0.0, 0.0, 1.0);
        let up_ref = g.dechirp_reference();
        let down_ref: Vec<Complex> = down.iter().map(|z| z.conj()).collect();

        let mixed_wrong: Vec<Complex> =
            down.iter().zip(up_ref.iter()).map(|(a, b)| *a * *b).collect();
        let mixed_right: Vec<Complex> =
            down.iter().zip(down_ref.iter()).map(|(a, b)| *a * *b).collect();
        let peak_wrong = argmax_bin(&fft_forward(&mixed_wrong)).1;
        let peak_right = argmax_bin(&fft_forward(&mixed_right)).1;
        assert!(peak_right > 4.0 * peak_wrong, "right {peak_right} wrong {peak_wrong}");
    }

    #[test]
    fn symbol_shift_is_cyclic() {
        // Symbol k chirp equals base chirp cyclically shifted by k chips
        // (up to phase); verify via dechirp bin for a shifted slice instead
        // of sample equality (the wrap makes direct comparison awkward).
        let g = gen(4);
        let reference = g.dechirp_reference();
        let c = g.upchirp(100, 0.0, 0.0, 1.0);
        let mixed: Vec<Complex> = c.iter().zip(reference.iter()).map(|(a, b)| *a * *b).collect();
        let spec = fft_forward(&mixed);
        let (bin, _) = argmax_bin(&spec);
        // The dechirped symbol-k tone sits at k·W/2^S before the frequency
        // wrap and at k·W/2^S − W after it; for k > 2^S/2 the post-wrap
        // segment is longer and dominates the full-window FFT.
        let fft_len = spec.len() as f64;
        let fs = 4.0 * 125e3;
        let dominant_hz = 100.0 * (125e3 / 128.0) - 125e3; // −27.34 kHz
        let expected = ((dominant_hz / fs * fft_len).round() as i64).rem_euclid(fft_len as i64);
        assert_eq!(bin as i64, expected);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn oversized_symbol_panics() {
        gen(1).upchirp(128, 0.0, 0.0, 1.0);
    }

    #[test]
    fn iq_split_matches_complex() {
        let g = gen(1);
        let z = g.upchirp(5, 100.0, 0.3, 1.5);
        let (i, q) = g.upchirp_iq(5, 100.0, 0.3, 1.5);
        for (n, c) in z.iter().enumerate() {
            assert_eq!(c.re, i[n]);
            assert_eq!(c.im, q[n]);
        }
    }

    #[test]
    fn phase_continuity_across_wrap() {
        // The sample-to-sample phase increment should never jump by more
        // than the max instantaneous frequency allows.
        let g = gen(8); // high oversampling to bound the increment
        let c = g.upchirp(77, 0.0, 0.0, 1.0);
        let max_inc = 2.0 * std::f64::consts::PI * (125e3 / 2.0) / g.sample_rate() + 1e-9;
        for pair in c.windows(2) {
            let d = (pair[1] * pair[0].conj()).arg().abs();
            assert!(d <= max_inc + 1e-6, "phase jump {d} exceeds {max_inc}");
        }
    }
}
