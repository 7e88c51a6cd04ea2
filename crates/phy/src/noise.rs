//! Noise generators for channel and SDR-capture simulation.
//!
//! Paper Fig. 14 evaluates FB estimation under two noise types: synthetic
//! zero-mean Gaussian noise and "real noise traces captured using an SDR
//! receiver in a multistory building". The real traces are not published, so
//! [`RealNoiseEmulator`] synthesises their qualitative character: coloured
//! (low-frequency-weighted) background plus sporadic wideband impulse bursts
//! from other ISM-band users, with a small DC offset ripple typical of
//! RTL-SDR front-ends.
//!
//! Both sources draw their Gaussian variates from one sampler: the cosine
//! branch of Box–Muller, `√(−2 ln u₁)·cos(2πu₂)`, two uniforms per
//! variate. The platform `ln` and `cos` behind it cost most of a
//! capture's synthesis, so both are evaluated inline:
//!
//! * `ln` as fdlibm does it ([`softlora_dsp::math::ln_normal`], shared
//!   with the log-power onset picker); error below 1 ulp.
//! * `cos 2πu` from a 128-entry table of `cos`/`sin` at multiples of
//!   `2π/128`, rotated by short Taylor polynomials over the remaining
//!   `|t| ≤ π/128`; error about 1 ulp.
//!
//! Each draw is the textbook formula's to within 1e-14, with the same
//! uniforms in the same order, so a seed's noise realisation is
//! unchanged. [`GaussianNoise`] draws its uniforms 64 variates at a time
//! into a stack buffer and evaluates them in one branch-free pass.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use softlora_dsp::math::ln_normal;
use softlora_dsp::Complex;
use std::f64::consts::PI;
use std::sync::OnceLock;

/// Variates per batch in [`fill_standard_normal`].
const BATCH: usize = 64;
/// Entries of the `cos`/`sin` table: one per `2π/128` of phase.
const TURN_STEPS: usize = 128;
/// `1.5·2⁵²`: adding it rounds a float below 2⁵¹ to an integer held in
/// the low mantissa bits.
const ROUND_BIAS: f64 = 6_755_399_441_055_744.0;

/// `cos` and `sin` at the multiples of `2π/128`.
struct TurnTable {
    cos: [f64; TURN_STEPS],
    sin: [f64; TURN_STEPS],
}

impl TurnTable {
    fn get() -> &'static TurnTable {
        static TABLE: OnceLock<TurnTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            // (cos, sin) of 2πj/128 as a quarter turn plus |x| ≤ π/4, so
            // no entry carries the rounding of a large angle.
            let turn = |j: usize| {
                let quarter = (j + TURN_STEPS / 8) / (TURN_STEPS / 4);
                let x = 2.0 * PI * (j as f64 / TURN_STEPS as f64 - quarter as f64 / 4.0);
                let (s, c) = x.sin_cos();
                match quarter % 4 {
                    0 => (c, s),
                    1 => (-s, c),
                    2 => (-c, -s),
                    _ => (s, -c),
                }
            };
            TurnTable {
                cos: std::array::from_fn(|j| turn(j).0),
                sin: std::array::from_fn(|j| turn(j).1),
            }
        })
    }

    /// `cos 2πu` for `u` in `[0, 1)`.
    #[inline(always)]
    fn cos_turns(&self, u: f64) -> f64 {
        // u·128 = j + r with j the nearest integer (mod 128) and
        // |r| ≤ 1/2; both steps are exact.
        let scaled = u * TURN_STEPS as f64;
        let rounded = scaled + ROUND_BIAS;
        let j = (rounded.to_bits() as usize) & (TURN_STEPS - 1);
        let t = (scaled - (rounded - ROUND_BIAS)) * (2.0 * PI / TURN_STEPS as f64);
        // |t| ≤ π/128: the first Taylor terms left out, t⁸/8! and t⁹/9!,
        // are below 4e-18.
        let t2 = t * t;
        let one_minus_cos = t2 * (0.5 + t2 * (-1.0 / 24.0 + t2 * (1.0 / 720.0)));
        let sin = t * (1.0 + t2 * (-1.0 / 6.0 + t2 * (1.0 / 120.0 + t2 * (-1.0 / 5040.0))));
        self.cos[j] - (self.cos[j] * one_minus_cos + self.sin[j] * sin)
    }

    /// One Box–Muller variate from its two uniforms.
    #[inline(always)]
    fn box_muller(&self, u1: f64, u2: f64) -> f64 {
        (-2.0 * ln_normal(u1.max(1e-12))).sqrt() * self.cos_turns(u2)
    }
}

/// Fills `out` with standard-normal variates, drawing two uniforms per
/// variate in order (module docs).
fn fill_standard_normal(rng: &mut StdRng, out: &mut [f64]) {
    let table = TurnTable::get();
    let mut uniforms = [0.0; 2 * BATCH];
    for batch in out.chunks_mut(BATCH) {
        let uniforms = &mut uniforms[..2 * batch.len()];
        uniforms.iter_mut().for_each(|u| *u = rng.random());
        for (g, pair) in batch.iter_mut().zip(uniforms.chunks_exact(2)) {
            *g = table.box_muller(pair[0], pair[1]);
        }
    }
}

/// One standard-normal variate: the same draws and arithmetic as
/// [`fill_standard_normal`].
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1 = rng.random();
    let u2 = rng.random();
    TurnTable::get().box_muller(u1, u2)
}

/// Source of complex baseband noise samples.
pub trait NoiseSource {
    /// Generates `n` noise samples with the configured statistics.
    fn generate(&mut self, n: usize) -> Vec<Complex>;

    /// Mean power `E[|z|²]` this source produces (used to calibrate SNR).
    fn mean_power(&self) -> f64;

    /// Adds `z.len()` samples from this source to `z` in place, drawing
    /// exactly the sequence `generate(z.len())` would. Sources override
    /// this to skip the intermediate allocation (the per-frame capture
    /// path relies on that).
    fn add_to(&mut self, z: &mut [Complex]) {
        let noise = self.generate(z.len());
        for (s, n) in z.iter_mut().zip(noise) {
            *s += n;
        }
    }
}

/// Circularly symmetric complex white Gaussian noise.
#[derive(Debug)]
pub struct GaussianNoise {
    /// Per-component standard deviation.
    sigma: f64,
    rng: StdRng,
}

impl GaussianNoise {
    /// Creates a generator whose samples have mean power
    /// `2·sigma²` (`sigma` per I/Q component).
    pub fn new(sigma: f64, seed: u64) -> Self {
        GaussianNoise { sigma, rng: StdRng::seed_from_u64(seed) }
    }

    /// Creates a generator with the given total mean power `E[|z|²]`.
    pub fn with_power(power: f64, seed: u64) -> Self {
        Self::new((power / 2.0).max(0.0).sqrt(), seed)
    }
}

impl NoiseSource for GaussianNoise {
    fn generate(&mut self, n: usize) -> Vec<Complex> {
        let mut out = vec![Complex::ZERO; n];
        self.add_to(&mut out);
        out
    }

    fn add_to(&mut self, z: &mut [Complex]) {
        // Each sample takes its I draw, then its Q draw.
        let mut g = [0.0; BATCH];
        for block in z.chunks_mut(BATCH / 2) {
            let g = &mut g[..2 * block.len()];
            fill_standard_normal(&mut self.rng, g);
            for (s, iq) in block.iter_mut().zip(g.chunks_exact(2)) {
                *s += Complex::new(self.sigma * iq[0], self.sigma * iq[1]);
            }
        }
    }

    fn mean_power(&self) -> f64 {
        2.0 * self.sigma * self.sigma
    }
}

/// Emulation of the paper's "real noise" captures: AR(1)-coloured Gaussian
/// background, Bernoulli impulse bursts, and slow DC ripple.
#[derive(Debug)]
pub struct RealNoiseEmulator {
    sigma: f64,
    /// AR(1) colouring coefficient in `[0, 1)`; higher = more low-frequency
    /// energy.
    rho: f64,
    /// Probability that a given sample starts an impulse burst.
    burst_prob: f64,
    /// Burst length in samples.
    burst_len: usize,
    /// Burst amplitude multiplier over sigma.
    burst_gain: f64,
    /// DC ripple amplitude relative to sigma.
    dc_ripple: f64,
    state_i: f64,
    state_q: f64,
    rng: StdRng,
    phase: f64,
}

impl RealNoiseEmulator {
    /// Creates an emulator with building-like defaults.
    pub fn new(sigma: f64, seed: u64) -> Self {
        RealNoiseEmulator {
            sigma,
            // Moderate colouring: AR(1) density at DC is (1+rho)/(1-rho) x
            // the band average; the FB search band sits near DC after
            // dechirping, so strong colouring would silently worsen the
            // effective in-band SNR well beyond the nominal figure.
            rho: 0.35,
            burst_prob: 1e-4,
            burst_len: 48,
            burst_gain: 5.0,
            dc_ripple: 0.15,
            state_i: 0.0,
            state_q: 0.0,
            rng: StdRng::seed_from_u64(seed),
            phase: 0.0,
        }
    }

    /// Creates an emulator with the given total mean power.
    pub fn with_power(power: f64, seed: u64) -> Self {
        // Bursts and colouring raise the power slightly above 2·sigma²;
        // the correction factor is the analytic mean-power ratio measured
        // in `mean_power`.
        let base = Self::new(1.0, seed);
        let scale = (power / base.mean_power()).sqrt();
        Self::new(scale, seed)
    }

    fn gaussian(&mut self) -> f64 {
        standard_normal(&mut self.rng)
    }
}

impl NoiseSource for RealNoiseEmulator {
    fn generate(&mut self, n: usize) -> Vec<Complex> {
        let innovation = self.sigma * (1.0 - self.rho * self.rho).sqrt();
        let mut out = Vec::with_capacity(n);
        let mut burst_remaining = 0usize;
        for _ in 0..n {
            // Coloured background.
            let gi = self.gaussian();
            let gq = self.gaussian();
            self.state_i = self.rho * self.state_i + innovation * gi;
            self.state_q = self.rho * self.state_q + innovation * gq;
            let mut z = Complex::new(self.state_i, self.state_q);
            // Impulse bursts.
            if burst_remaining == 0 && self.rng.random::<f64>() < self.burst_prob {
                burst_remaining = self.burst_len;
            }
            if burst_remaining > 0 {
                burst_remaining -= 1;
                z += Complex::new(
                    self.burst_gain * self.sigma * self.gaussian(),
                    self.burst_gain * self.sigma * self.gaussian(),
                );
            }
            // Slow DC ripple.
            self.phase += 1e-4;
            z += Complex::new(self.dc_ripple * self.sigma * self.phase.sin(), 0.0);
            out.push(z);
        }
        out
    }

    fn mean_power(&self) -> f64 {
        // Background: 2·sigma² (AR(1) with matched stationary variance).
        // Bursts: duty = burst_prob·burst_len adds 2·(gain·sigma)²·duty.
        // Ripple: dc_ripple²·sigma²/2.
        let duty = self.burst_prob * self.burst_len as f64;
        2.0 * self.sigma * self.sigma * (1.0 + duty * self.burst_gain * self.burst_gain)
            + self.dc_ripple * self.dc_ripple * self.sigma * self.sigma / 2.0
    }
}

/// Adds noise from `source` to `signal` in place, scaled so the resulting
/// SNR (signal mean power over noise mean power) equals `snr_db`.
///
/// Returns the actual noise power used.
pub fn add_noise_at_snr<S: NoiseSource>(
    signal: &mut [Complex],
    source: &mut S,
    snr_db: f64,
) -> f64 {
    if signal.is_empty() {
        return 0.0;
    }
    let sig_power = signal.iter().map(|z| z.norm_sqr()).sum::<f64>() / signal.len() as f64;
    let target_noise_power = sig_power / 10f64.powf(snr_db / 10.0);
    let noise = source.generate(signal.len());
    let actual = noise.iter().map(|z| z.norm_sqr()).sum::<f64>() / noise.len() as f64;
    let scale = if actual > 0.0 { (target_noise_power / actual).sqrt() } else { 0.0 };
    for (s, nz) in signal.iter_mut().zip(noise.iter()) {
        *s += nz.scale(scale);
    }
    target_noise_power
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_power_calibrated() {
        let mut g = GaussianNoise::with_power(0.5, 1);
        let samples = g.generate(200_000);
        let p = samples.iter().map(|z| z.norm_sqr()).sum::<f64>() / samples.len() as f64;
        assert!((p - 0.5).abs() < 0.02, "power {p}");
        assert!((g.mean_power() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn gaussian_components_uncorrelated() {
        let mut g = GaussianNoise::new(1.0, 2);
        let samples = g.generate(100_000);
        let corr: f64 = samples.iter().map(|z| z.re * z.im).sum::<f64>() / samples.len() as f64;
        assert!(corr.abs() < 0.02, "I/Q correlation {corr}");
    }

    #[test]
    fn real_noise_power_close_to_model() {
        let mut r = RealNoiseEmulator::new(1.0, 3);
        let predicted = r.mean_power();
        let samples = r.generate(400_000);
        let p = samples.iter().map(|z| z.norm_sqr()).sum::<f64>() / samples.len() as f64;
        assert!((p - predicted).abs() / predicted < 0.25, "measured {p} predicted {predicted}");
    }

    #[test]
    fn real_noise_is_coloured() {
        // Lag-1 autocorrelation should be near rho, unlike white noise.
        let mut r = RealNoiseEmulator::new(1.0, 4);
        let samples = r.generate(100_000);
        let re: Vec<f64> = samples.iter().map(|z| z.re).collect();
        let mean = re.iter().sum::<f64>() / re.len() as f64;
        let var: f64 = re.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / re.len() as f64;
        let lag1: f64 = re.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum::<f64>()
            / (re.len() - 1) as f64;
        let rho_hat = lag1 / var;
        assert!(rho_hat > 0.15, "autocorrelation {rho_hat} looks white");
    }

    #[test]
    fn real_noise_has_heavier_tail_than_gaussian() {
        let mut g = GaussianNoise::new(1.0, 5);
        let mut r = RealNoiseEmulator::new(1.0, 5);
        let gs = g.generate(200_000);
        let rs = r.generate(200_000);
        let kurt = |v: &[Complex]| -> f64 {
            let xs: Vec<f64> = v.iter().map(|z| z.re).collect();
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
            let m4 = xs.iter().map(|x| (x - m).powi(4)).sum::<f64>() / xs.len() as f64;
            m4 / (var * var)
        };
        assert!(kurt(&rs) > kurt(&gs) + 0.3, "real {} gauss {}", kurt(&rs), kurt(&gs));
    }

    #[test]
    fn add_noise_reaches_target_snr() {
        for snr in [-20.0, -10.0, 0.0, 10.0] {
            let mut signal: Vec<Complex> =
                (0..50_000).map(|i| Complex::cis(0.01 * i as f64)).collect();
            let clean = signal.clone();
            let mut src = GaussianNoise::new(1.0, 6);
            add_noise_at_snr(&mut signal, &mut src, snr);
            let noise_p: f64 =
                signal.iter().zip(clean.iter()).map(|(a, b)| (*a - *b).norm_sqr()).sum::<f64>()
                    / signal.len() as f64;
            let got = 10.0 * (1.0 / noise_p).log10();
            assert!((got - snr).abs() < 0.5, "target {snr} got {got}");
        }
    }

    #[test]
    fn add_noise_empty_signal_noop() {
        let mut empty: Vec<Complex> = Vec::new();
        let mut src = GaussianNoise::new(1.0, 7);
        assert_eq!(add_noise_at_snr(&mut empty, &mut src, 0.0), 0.0);
    }

    /// Standard normal CDF, via the Abramowitz & Stegun 7.1.26 `erf`
    /// (absolute error below 1.5e-7).
    fn phi(x: f64) -> f64 {
        let z = x.abs() / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.327_591_1 * z);
        let poly = t
            * (0.254_829_592
                + t * (-0.284_496_736
                    + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
        let erf = 1.0 - poly * (-z * z).exp();
        if x >= 0.0 {
            0.5 * (1.0 + erf)
        } else {
            0.5 * (1.0 - erf)
        }
    }

    /// The textbook Box–Muller draw through the platform `ln` and `cos`.
    fn oracle_box_muller(rng: &mut StdRng) -> f64 {
        let u1: f64 = rng.random::<f64>().max(1e-12);
        let u2: f64 = rng.random();
        (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
    }

    #[test]
    fn sampler_matches_the_platform_formula() {
        const N: usize = 1_000_000;
        let mut oracle = StdRng::seed_from_u64(12);
        let mut batched = oracle.clone();
        let mut scalar = oracle.clone();
        let mut xs = vec![0.0; N];
        fill_standard_normal(&mut batched, &mut xs);
        let mut worst = 0.0f64;
        for &x in &xs {
            let want = oracle_box_muller(&mut oracle);
            assert_eq!(standard_normal(&mut scalar), x);
            worst = worst.max((x - want).abs());
        }
        assert!(worst < 1e-14, "largest deviation {worst}");
        // Both paths consumed exactly the oracle's uniforms.
        let next = oracle.random::<u64>();
        assert_eq!(batched.random::<u64>(), next);
        assert_eq!(scalar.random::<u64>(), next);
        // The smallest uniform the sampler admits, and the table's wrap.
        let table = TurnTable::get();
        let edge = (-2.0 * 1e-12f64.ln()).sqrt();
        assert!((table.box_muller(0.0, 0.0) - edge).abs() < 1e-14);
        assert!((table.cos_turns(1.0 - f64::EPSILON) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn cos_matches_the_platform() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut worst = 0.0f64;
        let table = TurnTable::get();
        for k in 0..1_000_000u64 {
            // cos 2πu reduced exactly to |2πr| ≤ π/4 before the platform
            // call, so the reference carries no large-argument rounding.
            let u = if k % 2 == 0 { rng.random::<f64>() } else { k as f64 / 1_000_000.0 };
            let quarter = (u * 4.0).round();
            let x = 2.0 * PI * (u - quarter / 4.0);
            let want = match quarter as u8 % 4 {
                0 => x.cos(),
                1 => -x.sin(),
                2 => -x.cos(),
                _ => x.sin(),
            };
            worst = worst.max((table.cos_turns(u) - want).abs());
        }
        assert!(worst < 4e-16, "cos: largest deviation {worst}");
    }

    #[test]
    fn add_to_draws_what_generate_draws() {
        let mut z = vec![Complex::new(0.5, -0.25); 77];
        GaussianNoise::new(0.3, 9).add_to(&mut z);
        let noise = GaussianNoise::new(0.3, 9).generate(77);
        for (s, n) in z.iter().zip(&noise) {
            assert_eq!(*s, Complex::new(0.5, -0.25) + *n);
        }
    }

    #[test]
    fn draws_are_standard_normal() {
        const N: usize = 1_000_000;
        /// A far-tail probe: 2·(1 − Φ(R)) ≈ 5.8·10⁻⁴.
        const R: f64 = 3.442_619_855_899;
        let mut rng = StdRng::seed_from_u64(11);
        let mut xs = vec![0.0; N];
        fill_standard_normal(&mut rng, &mut xs);
        let n = N as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let kurt = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / n / (var * var);
        assert!(mean.abs() < 5e-3, "mean {mean}");
        assert!((var - 1.0).abs() < 7e-3, "variance {var}");
        assert!((kurt - 3.0).abs() < 0.03, "kurtosis {kurt}");

        let tail = xs.iter().filter(|x| x.abs() > R).count() as f64;
        let expected = 2.0 * (1.0 - phi(R)) * n;
        assert!((expected - 5.8e-4 * n).abs() < 0.01 * expected, "expected tail count {expected}");
        assert!(
            (tail - expected).abs() < 4.0 * expected.sqrt(),
            "tail draws {tail}, expected {expected}"
        );

        xs.sort_by(f64::total_cmp);
        let ks = xs
            .iter()
            .enumerate()
            .map(|(k, &x)| {
                let cdf = phi(x);
                (cdf - k as f64 / n).abs().max((k as f64 + 1.0) / n - cdf)
            })
            .fold(0.0, f64::max);
        assert!(ks < 2e-3, "KS distance {ks}");
    }

    #[test]
    fn deterministic_with_seed() {
        let a = GaussianNoise::new(1.0, 8).generate(16);
        let b = GaussianNoise::new(1.0, 8).generate(16);
        assert_eq!(a, b);
    }
}
