//! Frequency-bias estimation from a single preamble chirp (paper §7.1).
//!
//! The captured I/Q of an up chirp obeys
//! `Θ(t) = πW²/2^S·t² − πW·t + 2πδ·t + θ` with `δ = δTx − δRx`; three
//! estimators recover `δ`:
//!
//! * [`FbEstimator::linear_regression_with`] — the paper's closed-form method
//!   (§7.1.1): rectified `atan2(Q, I)` unwrap, subtract the quadratic,
//!   fit the slope. `O(N)`, accurate at workable SNR, breaks when the
//!   unwrap slips at low SNR.
//! * [`FbEstimator::differential_evolution`] — the paper's low-SNR method
//!   (§7.1.2): least-squares template fit over `(δ, θ)` with the amplitude
//!   estimated from the power split, solved by DE (the paper uses scipy's
//!   implementation; ours lives in `softlora_dsp::optimize`).
//! * [`FbEstimator::matched_filter_with`] — an algebraically equivalent but much
//!   faster solver for the same least-squares problem: for fixed `δ` the
//!   optimal `θ` is closed-form, reducing the search to maximising
//!   `|⟨z, chirp_δ⟩|` over `δ` alone — a dechirped FFT plus a Newton
//!   polish. Used as the production path on the gateway.
//!
//! The matched filter works at the search band's rate, not the capture
//! rate. Dechirping turns the two preamble chirps into a tone at `δ`, and
//! `search_range_hz` (±34 kHz by default) is a few percent of the 2.4 MHz
//! capture rate. So the coarse search boxcar-decimates the dechirped tone
//! by `D` before a 4×-zero-padded FFT. `D` is the largest power of two
//! whose decimated Nyquist rate is at least four times the band edge
//! (`fs / 2D ≥ 4·max(|lo|, |hi|)`, D = 8 by default), which keeps the
//! boxcar's droop at the band edge within 0.2 dB and keeps the aliases of
//! the band out of it. The FFT length shrinks by `D`, so its bin grid
//! (`fs / 32768` ≈ 73 Hz at SF7) is the one the full-rate FFT had.
//!
//! The polish then maximises the correlation power `P(δ) = |C(δ)|²` on the
//! full-rate dechirped sequence by safeguarded Newton inside the coarse
//! peak's ±3-bin bracket. Each pass is one phasor-recurrence sweep (one
//! `cis` per pass, one complex multiply per sample) that accumulates `C`
//! and its first two index-weighted moments, which give `P′` and `P″` in
//! closed form. The bracket shrinks by the sign of `P′`; a Newton step
//! that leaves it, or a non-concave `P`, falls back to bisection. It takes
//! about 3 passes to reach 1 mHz.

use crate::SoftLoraError;
use softlora_dsp::fft::next_pow2;
use softlora_dsp::optimize::{nelder_mead, DifferentialEvolution};
use softlora_dsp::regression::linear_fit;
use softlora_dsp::unwrap::unwrap_iq_with;
use softlora_dsp::{Complex, DspScratch};
use softlora_phy::chirp::cached_chirp_refs;
use softlora_phy::PhyConfig;
use std::sync::Arc;

/// Estimation method.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FbMethod {
    /// Closed-form phase-unwrap + linear regression (paper §7.1.1).
    LinearRegression,
    /// Dechirp-FFT matched-filter search (fast LS solver).
    MatchedFilter,
    /// Least-squares over `(δ, θ)` via differential evolution
    /// (paper §7.1.2).
    DifferentialEvolution,
}

/// An estimated frequency bias.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FbEstimate {
    /// Estimated net bias `δ = δTx − δRx` in Hz.
    pub delta_hz: f64,
    /// Method that produced it.
    pub method: FbMethod,
    /// Method-specific quality score in `[0, 1]` (r² for regression,
    /// normalised correlation peak for the search methods).
    pub quality: f64,
}

/// Frequency-bias estimator bound to a chirp parameterisation.
#[derive(Debug, Clone)]
pub struct FbEstimator {
    bandwidth_hz: f64,
    sf: u32,
    sample_rate: f64,
    /// Search range for the LS methods, Hz.
    pub search_range_hz: (f64, f64),
    /// DE seed (deterministic runs).
    pub de_seed: u64,
    /// Lazily resolved up-dechirp reference (shared via the process-wide
    /// chirp cache; resolved once so the per-frame matched filter never
    /// touches the cache lock).
    dechirp_ref: std::sync::OnceLock<Arc<Vec<Complex>>>,
}

impl FbEstimator {
    /// Creates an estimator for chirps of `cfg` sampled at `sample_rate`.
    ///
    /// The default search range of ±34 kHz covers crystal biases up to
    /// ±39 ppm at 869.75 MHz.
    pub fn new(cfg: &PhyConfig, sample_rate: f64) -> Self {
        FbEstimator {
            bandwidth_hz: cfg.channel.bandwidth.hz(),
            sf: cfg.sf.value(),
            sample_rate,
            search_range_hz: (-34_000.0, 34_000.0),
            de_seed: 0xF0CC,
            dechirp_ref: std::sync::OnceLock::new(),
        }
    }

    /// Samples per chirp at this estimator's rate.
    pub fn samples_per_chirp(&self) -> usize {
        ((1u64 << self.sf) as f64 / self.bandwidth_hz * self.sample_rate).floor() as usize
    }

    /// The quadratic part of the chirp angle at time `t` (symbol-0 chirp,
    /// zero bias/phase): `πW²/2^S·t² − πW·t`.
    fn quadratic_angle(&self, t: f64) -> f64 {
        let a =
            std::f64::consts::PI * self.bandwidth_hz * self.bandwidth_hz / (1u64 << self.sf) as f64;
        a * t * t - std::f64::consts::PI * self.bandwidth_hz * t
    }

    /// Estimates the amplitude `A` of the noiseless templates from the
    /// noisy signal power and a separately measured noise power
    /// (paper §7.1.2: `E[Q² + I²] = A² + noise power`).
    pub fn estimate_amplitude(z: &[Complex], noise_power: f64) -> f64 {
        if z.is_empty() {
            return 0.0;
        }
        let total = z.iter().map(|c| c.norm_sqr()).sum::<f64>() / z.len() as f64;
        (total - noise_power).max(0.0).sqrt()
    }

    /// Closed-form linear-regression estimate from one chirp of I/Q data
    /// (paper §7.1.1). The slices must start at the chirp onset and be at
    /// least one chirp long (extra samples are ignored). The unwrapped
    /// phase, time axis and de-quadratic'd phase live in the arena.
    ///
    /// # Errors
    ///
    /// Returns [`SoftLoraError::Capture`] when fewer than one chirp of
    /// samples is supplied, and propagates regression failures.
    pub fn linear_regression_with(
        &self,
        i: &[f64],
        q: &[f64],
        scratch: &mut DspScratch,
    ) -> Result<FbEstimate, SoftLoraError> {
        let n = self.samples_per_chirp();
        if i.len() < n || q.len() < n {
            return Err(SoftLoraError::Capture { reason: "need one full chirp for regression" });
        }
        let mut theta = scratch.take_real_empty();
        unwrap_iq_with(&i[..n], &q[..n], scratch, &mut theta);
        let dt = 1.0 / self.sample_rate;
        let mut xs = scratch.take_real_empty();
        xs.extend((0..n).map(|k| k as f64 * dt));
        let mut linear = scratch.take_real_empty();
        linear.extend(
            theta.iter().enumerate().map(|(k, &p)| p - self.quadratic_angle(k as f64 * dt)),
        );
        let fit = linear_fit(&xs, &linear);
        scratch.put_real(linear);
        scratch.put_real(xs);
        scratch.put_real(theta);
        let fit = fit?;
        Ok(FbEstimate {
            delta_hz: fit.slope / (2.0 * std::f64::consts::PI),
            method: FbMethod::LinearRegression,
            quality: fit.r_squared,
        })
    }

    /// The shared up-dechirp reference (`conj` of the clean symbol-0
    /// chirp) for this estimator's parameterisation: resolved through the
    /// process-wide chirp cache on first use, then pinned on the
    /// estimator so the per-frame path never contends on the cache lock.
    fn dechirp_reference(&self) -> Result<Arc<Vec<Complex>>, SoftLoraError> {
        if let Some(reference) = self.dechirp_ref.get() {
            return Ok(Arc::clone(reference));
        }
        let sf = softlora_phy::SpreadingFactor::from_value(self.sf).map_err(SoftLoraError::Phy)?;
        let refs = cached_chirp_refs(sf, self.bandwidth_hz, self.sample_rate)
            .map_err(SoftLoraError::Phy)?;
        Ok(Arc::clone(self.dechirp_ref.get_or_init(|| refs.up_conj)))
    }

    /// Builds the dechirped sequence `z(t)·conj(chirp₀(t))` whose Fourier
    /// transform magnitude at frequency `δ` equals the matched-filter
    /// correlation `|⟨z, chirp_δ⟩|`, into a caller-owned buffer.
    ///
    /// Up to two chirps of input are used: the base chirp's phase returns
    /// to zero at each chirp boundary, so tiling the reference keeps the
    /// dechirped tone phase-continuous and doubles the coherent
    /// integration (+3 dB), which suppresses the occasional noise-peak
    /// outlier at −25 dB.
    fn dechirp_into(&self, z: &[Complex], out: &mut Vec<Complex>) -> Result<(), SoftLoraError> {
        let n = self.samples_per_chirp();
        if z.len() < n {
            return Err(SoftLoraError::Capture {
                reason: "need one full chirp for matched filter",
            });
        }
        let reference = self.dechirp_reference()?;
        let m = z.len().min(2 * n);
        out.clear();
        out.resize(m, Complex::ZERO);
        // Chunked cyclic multiply (the reference tiles per chirp period):
        // same products in the same order as the modular-index loop this
        // replaces, so the dechirped sequence is bit-identical.
        softlora_dsp::kernels::mul_cycle_into(&z[..m], &reference[..n], out);
        Ok(())
    }

    /// The boxcar decimation factor `D` of the matched filter's coarse
    /// search: the largest power of two with
    /// `fs / 2D ≥ 4·max(|lo|, |hi|)`, capped at [`MAX_DECIMATION`].
    ///
    /// # Errors
    ///
    /// Returns [`SoftLoraError::Capture`] when the search range reaches
    /// past ±Nyquist of the capture rate.
    fn decimation(&self) -> Result<usize, SoftLoraError> {
        let (lo, hi) = self.search_range_hz;
        let edge = lo.abs().max(hi.abs());
        // A NaN bound passes here and then matches no bin.
        if edge > self.sample_rate / 2.0 {
            return Err(SoftLoraError::Capture { reason: "FB search range outside ±Nyquist" });
        }
        let mut d = 1;
        while d < MAX_DECIMATION && self.sample_rate / (4.0 * d as f64) >= 4.0 * edge {
            d *= 2;
        }
        Ok(d)
    }

    /// Fast least-squares estimate: a decimated dechirp FFT finds the
    /// coarse peak, then a safeguarded Newton search (about 3 passes over
    /// the full-rate dechirped sequence) polishes the correlation power to
    /// 1 mHz. The coarse FFT runs
    /// on the tone boxcar-decimated by `D` (see the module docs), with the
    /// same ≈73 Hz bin grid as a 4×-padded full-rate FFT. The dechirped
    /// sequence and decimated spectrum live in the arena.
    ///
    /// # Errors
    ///
    /// Returns [`SoftLoraError::Capture`] when fewer than one chirp of
    /// samples is supplied, or when `search_range_hz` lies outside
    /// ±Nyquist or holds no FFT bin.
    pub fn matched_filter_with(
        &self,
        z: &[Complex],
        scratch: &mut DspScratch,
    ) -> Result<FbEstimate, SoftLoraError> {
        let mut d = scratch.take_complex_empty();
        let mut spec = scratch.take_complex_empty();
        let result = self.matched_filter_inner(z, scratch, &mut d, &mut spec);
        scratch.put_complex(spec);
        scratch.put_complex(d);
        result
    }

    fn matched_filter_inner(
        &self,
        z: &[Complex],
        scratch: &mut DspScratch,
        d: &mut Vec<Complex>,
        spec: &mut Vec<Complex>,
    ) -> Result<FbEstimate, SoftLoraError> {
        let (coarse_hz, bin_hz) = self.coarse_search(z, scratch, d, spec)?;
        // Polish: Newton on the continuous correlation power, over a
        // window wide enough to cover the 4-bin detection spread.
        let (delta_hz, peak, _) = self.newton_polish(d, coarse_hz, 3.0 * bin_hz);
        let energy: f64 = d.iter().map(|v| v.norm_sqr()).sum();
        let quality = if energy > 0.0 {
            (peak.norm_sqr() / (energy * d.len() as f64)).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Ok(FbEstimate { delta_hz, method: FbMethod::MatchedFilter, quality })
    }

    /// The matched filter's coarse stage: fills `d` with the clipped
    /// dechirped sequence and returns the decimated FFT's peak frequency
    /// and bin width, Hz.
    fn coarse_search(
        &self,
        z: &[Complex],
        scratch: &mut DspScratch,
        d: &mut Vec<Complex>,
        spec: &mut Vec<Complex>,
    ) -> Result<(f64, f64), SoftLoraError> {
        let decimation = self.decimation()?;
        self.dechirp_into(z, d)?;
        let m = d.len();
        // Impulse blanking: clip samples above 4x the trace RMS. At the
        // SNRs where this matters the RMS is noise-dominated, so the chirp
        // is untouched while interference bursts (the dominant failure
        // mode under "real" building noise) lose their leverage. The
        // reference has unit magnitude, so clipping the dechirped sample
        // is clipping the input sample.
        let mean_power = z.iter().map(|v| v.norm_sqr()).sum::<f64>() / z.len() as f64;
        let limit = 4.0 * mean_power.sqrt();
        let limit_sqr = limit * limit;
        for v in d.iter_mut() {
            let p = v.norm_sqr();
            if p > limit_sqr {
                *v = v.scale(limit / p.sqrt());
            }
        }

        // Coarse: the tone sits at δ. Boxcar-decimate by D, then zero-pad
        // 4x for a bin width well under 1/T.
        let fft_len = next_pow2(m * 4);
        let len = fft_len / decimation;
        spec.clear();
        spec.extend(d.chunks(decimation).map(|block| block.iter().copied().sum::<Complex>()));
        spec.resize(len, Complex::ZERO);
        scratch.planner().plan(len).forward(spec);
        let bin_hz = self.sample_rate / fft_len as f64;
        let signed_bin = |k: usize| if k < len / 2 { k as f64 } else { k as f64 - len as f64 };
        let (lo, hi) = self.search_range_hz;
        // With 4x zero padding the tone energy spreads over ~4 bins;
        // detecting on a 4-bin energy window (instead of a single bin)
        // matches that spread and suppresses low-SNR noise-peak outliers.
        let window_energy =
            |k: usize| -> f64 { (0..4).map(|j| spec[(k + j) % len].norm_sqr()).sum() };
        let mut best: Option<(usize, f64)> = None;
        for k in 0..len {
            let f = signed_bin(k) * bin_hz;
            if f >= lo && f <= hi {
                let energy = window_energy(k);
                if best.is_none_or(|(_, e)| energy > e) {
                    best = Some(((k + 1) % len, energy)); // centre-ish of the window
                }
            }
        }
        let (best_bin, _) =
            best.ok_or(SoftLoraError::Capture { reason: "FB search range holds no FFT bin" })?;
        Ok((signed_bin(best_bin) * bin_hz, bin_hz))
    }

    /// Maximises `P(f) = |C(f)|²`, `C(f) = Σ d[k]·e^{−2πjf·k/fs}`, over
    /// `centre ± half_width` Hz by safeguarded Newton: each pass
    /// ([`tone_moments`]) yields `P′` and `P″`, narrows the bracket by the
    /// sign of `P′`, and takes the Newton step when `P″ < 0` and the step
    /// lands inside the bracket, else bisects. Stops when the step or the
    /// bracket falls under [`POLISH_TOL_HZ`], or after
    /// [`MAX_POLISH_PASSES`]. Returns the last evaluated frequency, its
    /// `C` and the number of passes.
    fn newton_polish(&self, d: &[Complex], centre: f64, half_width: f64) -> (f64, Complex, usize) {
        // ω = −2π·f/fs, so dω/df = −2π/fs.
        let dw_df = -2.0 * std::f64::consts::PI / self.sample_rate;
        let (mut lo, mut hi) = (centre - half_width, centre + half_width);
        let mut f = centre;
        let mut passes = 0;
        loop {
            let (c, c1, c2) = tone_moments(d, dw_df * f);
            passes += 1;
            // P′ and P″ in ω, then in Hz.
            let slope = -2.0 * (c.conj() * c1).im * dw_df;
            let curvature = 2.0 * (c1.norm_sqr() - (c.conj() * c2).re) * dw_df * dw_df;
            if slope > 0.0 {
                lo = f;
            } else {
                hi = f;
            }
            let newton = f - slope / curvature;
            let next = if curvature < 0.0 && (lo..=hi).contains(&newton) {
                newton
            } else {
                0.5 * (lo + hi)
            };
            if (next - f).abs() < POLISH_TOL_HZ
                || hi - lo < POLISH_TOL_HZ
                || passes == MAX_POLISH_PASSES
            {
                return (f, c, passes);
            }
            f = next;
        }
    }

    /// Paper-faithful least-squares estimate over `(δ, θ)` solved by
    /// differential evolution with a Nelder–Mead polish (paper §7.1.2).
    ///
    /// `noise_power` is the separately measured noise power used for the
    /// amplitude estimate; pass 0.0 when unknown (the amplitude then
    /// absorbs the noise, which only scales the objective).
    ///
    /// # Errors
    ///
    /// Returns [`SoftLoraError::Capture`] when fewer than one chirp of
    /// samples is supplied, and propagates optimiser failures.
    pub fn differential_evolution(
        &self,
        z: &[Complex],
        noise_power: f64,
    ) -> Result<FbEstimate, SoftLoraError> {
        let n = self.samples_per_chirp();
        if z.len() < n {
            return Err(SoftLoraError::Capture { reason: "need one full chirp for least squares" });
        }
        let z = &z[..n];
        let amp = Self::estimate_amplitude(z, noise_power);
        let dt = 1.0 / self.sample_rate;
        // Precompute the quadratic angles once.
        let quad: Vec<f64> = (0..n).map(|k| self.quadratic_angle(k as f64 * dt)).collect();

        let objective = |params: &[f64]| -> f64 {
            let (delta, theta) = (params[0], params[1]);
            let mut acc = 0.0;
            for (k, (&sample, &qk)) in z.iter().zip(quad.iter()).enumerate() {
                let angle = qk + 2.0 * std::f64::consts::PI * delta * k as f64 * dt + theta;
                let tmpl = Complex::from_polar(amp, angle);
                acc += (sample - tmpl).norm_sqr();
            }
            acc
        };

        let de = DifferentialEvolution::new(vec![
            self.search_range_hz,
            (0.0, 2.0 * std::f64::consts::PI),
        ])
        .with_seed(self.de_seed)
        .with_population(24)
        .with_max_generations(120)
        .with_tolerance(1e-8);
        let coarse = de.minimize(objective).map_err(SoftLoraError::Dsp)?;
        let fine =
            nelder_mead(objective, &coarse.x, 1e-4, 200, 1e-12).map_err(SoftLoraError::Dsp)?;

        // Quality: residual power against total power.
        let total: f64 = z.iter().map(|v| v.norm_sqr()).sum();
        let quality = if total > 0.0 { (1.0 - fine.value / total).clamp(0.0, 1.0) } else { 0.0 };
        Ok(FbEstimate { delta_hz: fine.x[0], method: FbMethod::DifferentialEvolution, quality })
    }

    /// Where the analysed (second) chirp starts in a capture of `len`
    /// samples whose onset is at sample `onset`, or `None` when the
    /// capture does not hold two chirps after the onset.
    ///
    /// The onset picker can land a few samples late; a small shortfall at
    /// the capture tail is tolerated by shifting the analysis window back
    /// (bounded; the resulting bias is chirp-slope × shift and is
    /// reflected in the estimate's quality/band handling).
    pub(crate) fn second_chirp_start(&self, len: usize, onset: usize) -> Option<usize> {
        const SLACK: usize = 200;
        let n = self.samples_per_chirp();
        let start = onset + n;
        let shortfall = (start + n).saturating_sub(len);
        (shortfall <= SLACK).then(|| start - shortfall)
    }

    /// Estimates the FB from an SDR capture whose signal onset is at sample
    /// `onset` (from the PHY timestamper), using the *second* captured
    /// chirp as the paper prescribes (§5.1: "the second sampled chirp is
    /// used to extract the FB of the transmitter"). The complex view of
    /// the capture and every estimator intermediate reuse the arena's
    /// pooled buffers. (The differential-evolution method keeps its own
    /// allocations; it is the paper-faithful research path, not the
    /// production one.)
    ///
    /// # Errors
    ///
    /// Returns [`SoftLoraError::Capture`] when the capture does not hold
    /// two full chirps after `onset`.
    pub fn estimate_from_capture_with(
        &self,
        capture: &softlora_phy::sdr::IqCapture,
        onset: usize,
        method: FbMethod,
        noise_power: f64,
        scratch: &mut DspScratch,
    ) -> Result<FbEstimate, SoftLoraError> {
        let n = self.samples_per_chirp();
        let start =
            self.second_chirp_start(capture.len(), onset).ok_or(SoftLoraError::Capture {
                reason: "capture does not contain two chirps after the onset",
            })?;
        match method {
            FbMethod::LinearRegression => {
                self.linear_regression_with(&capture.i[start..], &capture.q[start..], scratch)
            }
            FbMethod::MatchedFilter => {
                // The matched filter integrates over both chirps (the
                // first is also a clean preamble up-chirp).
                let mut z = scratch.take_complex_empty();
                capture.to_complex_into(&mut z);
                let first = start - n;
                let result = self.matched_filter_with(&z[first..], scratch);
                scratch.put_complex(z);
                result
            }
            FbMethod::DifferentialEvolution => {
                let z = capture.to_complex();
                self.differential_evolution(&z[start..], noise_power)
            }
        }
    }
}

/// Upper bound on the matched filter's decimation factor: it keeps a
/// degenerate, near-zero search range from decimating the two-chirp tone
/// down to a handful of samples.
const MAX_DECIMATION: usize = 64;

/// Stop tolerance of the matched filter's Newton polish, Hz.
const POLISH_TOL_HZ: f64 = 1e-3;

/// Pass cap of the matched filter's Newton polish. Bisection alone
/// narrows the ±3-bin bracket below [`POLISH_TOL_HZ`] in about 20 passes.
const MAX_POLISH_PASSES: usize = 40;

/// The tone moments `(C, C₁, C₂)` of `y[k] = d[k]·e^{jωk}`: `C = Σ y[k]`,
/// `C₁ = Σ (k−c)·y[k]` and `C₂ = Σ (k−c)²·y[k]`, with `c = (m−1)/2`
/// centring the index for conditioning. They give the correlation power
/// `P = |C|²` and its derivatives in `ω`: `P′ = −2·Im(C̄·C₁)` and
/// `P″ = 2·(|C₁|² − Re(C̄·C₂))`.
///
/// One pass by phasor recurrence: one `cis` per call and one complex
/// multiply per sample. Four interleaved lanes, each advanced by
/// `e^{4jω}`, keep the multiply chains independent; the lanes are held as
/// separate real and imaginary arrays (the `kernels` chunked-loop layout)
/// so the per-lane arithmetic vectorizes.
fn tone_moments(d: &[Complex], omega: f64) -> (Complex, Complex, Complex) {
    const LANES: usize = 4;
    let step = Complex::cis(omega);
    let mut phasor = [Complex::ONE; LANES];
    for l in 1..LANES {
        phasor[l] = phasor[l - 1] * step;
    }
    let stride = phasor[LANES - 1] * step;
    let centre = (d.len() as f64 - 1.0) / 2.0;
    let (mut pr, mut pi) = (phasor.map(|p| p.re), phasor.map(|p| p.im));
    let mut w: [f64; LANES] = std::array::from_fn(|l| l as f64 - centre);
    let (mut ar, mut ai) = ([0.0f64; LANES], [0.0f64; LANES]);
    let (mut br, mut bi) = ([0.0f64; LANES], [0.0f64; LANES]);
    let (mut cr, mut ci) = ([0.0f64; LANES], [0.0f64; LANES]);
    let mut blocks = d.chunks_exact(LANES);
    for block in &mut blocks {
        for l in 0..LANES {
            let (x, y) = (block[l].re, block[l].im);
            let (yr, yi) = (x * pr[l] - y * pi[l], x * pi[l] + y * pr[l]);
            let (wr, wi) = (w[l] * yr, w[l] * yi);
            ar[l] += yr;
            ai[l] += yi;
            br[l] += wr;
            bi[l] += wi;
            cr[l] += w[l] * wr;
            ci[l] += w[l] * wi;
            w[l] += LANES as f64;
        }
        for l in 0..LANES {
            let re = pr[l] * stride.re - pi[l] * stride.im;
            pi[l] = pr[l] * stride.im + pi[l] * stride.re;
            pr[l] = re;
        }
    }
    let lane_sum = |re: [f64; LANES], im: [f64; LANES]| -> Complex {
        (0..LANES).map(|l| Complex::new(re[l], im[l])).sum()
    };
    let (mut c, mut c1, mut c2) = (lane_sum(ar, ai), lane_sum(br, bi), lane_sum(cr, ci));
    for (l, &v) in blocks.remainder().iter().enumerate() {
        let y = v * Complex::new(pr[l], pi[l]);
        c += y;
        c1 += y.scale(w[l]);
        c2 += y.scale(w[l] * w[l]);
    }
    (c, c1, c2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use softlora_dsp::optimize::golden_section;
    use softlora_phy::noise::{add_noise_at_snr, GaussianNoise, NoiseSource, RealNoiseEmulator};
    use softlora_phy::oscillator::Oscillator;
    use softlora_phy::sdr::SdrReceiver;
    use softlora_phy::{PhyConfig, SpreadingFactor};

    const FC: f64 = 869.75e6;

    fn cfg() -> PhyConfig {
        PhyConfig::uplink(SpreadingFactor::Sf7)
    }

    /// One clean capture: 2 chirps, known net bias, known onset.
    fn clean_capture(
        delta_tx: f64,
        delta_rx_ppm: f64,
        theta: f64,
        seed: u64,
    ) -> softlora_phy::sdr::IqCapture {
        let osc = Oscillator::with_bias_ppm(delta_rx_ppm, FC, seed).with_jitter_hz(0.0);
        let mut rx = SdrReceiver::new(osc).without_quantisation().with_fixed_phase(theta);
        rx.capture_chirps(&cfg(), 2, delta_tx, 0.9, 1.0, 300).unwrap()
    }

    #[test]
    fn linear_regression_recovers_paper_example() {
        let mut scratch = DspScratch::new();
        // Paper Fig. 12: δ ≈ −22.8 kHz estimated from a real trace.
        let cap = clean_capture(-22_800.0, 0.0, 0.3, 1);
        let est = FbEstimator::new(&cfg(), cap.sample_rate);
        let fb = est
            .estimate_from_capture_with(
                &cap,
                cap.true_onset,
                FbMethod::LinearRegression,
                0.0,
                &mut scratch,
            )
            .unwrap();
        assert!((fb.delta_hz + 22_800.0).abs() < 20.0, "fb {}", fb.delta_hz);
        assert!(fb.quality > 0.999);
    }

    #[test]
    fn net_bias_is_tx_minus_rx() {
        let mut scratch = DspScratch::new();
        // δTx = −20 kHz, δRx = +4.349 kHz (5 ppm) -> δ ≈ −24.35 kHz.
        let cap = clean_capture(-20_000.0, 5.0, 1.0, 2);
        let est = FbEstimator::new(&cfg(), cap.sample_rate);
        let fb = est
            .estimate_from_capture_with(
                &cap,
                cap.true_onset,
                FbMethod::LinearRegression,
                0.0,
                &mut scratch,
            )
            .unwrap();
        let expect = -20_000.0 - 5.0 * FC / 1e6;
        assert!((fb.delta_hz - expect).abs() < 20.0, "fb {} want {expect}", fb.delta_hz);
    }

    #[test]
    fn matched_filter_matches_regression_on_clean_signal() {
        let mut scratch = DspScratch::new();
        let cap = clean_capture(-18_500.0, 0.0, 2.0, 3);
        let est = FbEstimator::new(&cfg(), cap.sample_rate);
        let lr = est
            .estimate_from_capture_with(
                &cap,
                cap.true_onset,
                FbMethod::LinearRegression,
                0.0,
                &mut scratch,
            )
            .unwrap();
        let mf = est
            .estimate_from_capture_with(
                &cap,
                cap.true_onset,
                FbMethod::MatchedFilter,
                0.0,
                &mut scratch,
            )
            .unwrap();
        assert!((lr.delta_hz - mf.delta_hz).abs() < 30.0, "{} vs {}", lr.delta_hz, mf.delta_hz);
        assert!(mf.quality > 0.9, "quality {}", mf.quality);
    }

    #[test]
    fn matched_filter_robust_at_minus_25_db() {
        let mut scratch = DspScratch::new();
        // Paper Fig. 14: FB error ≤ 120 Hz down to −25 dB SNR.
        let mut errs = Vec::new();
        for seed in 0..6 {
            let cap = clean_capture(-21_000.0, 0.0, 0.5, 40 + seed);
            let mut z = cap.to_complex();
            let mut noise = GaussianNoise::new(1.0, 77 + seed);
            add_noise_at_snr(&mut z, &mut noise, -25.0);
            let noisy =
                softlora_phy::sdr::IqCapture::from_complex(&z, cap.sample_rate, cap.true_onset);
            let est = FbEstimator::new(&cfg(), cap.sample_rate);
            let fb = est
                .estimate_from_capture_with(
                    &noisy,
                    cap.true_onset,
                    FbMethod::MatchedFilter,
                    0.0,
                    &mut scratch,
                )
                .unwrap();
            errs.push((fb.delta_hz + 21_000.0).abs());
        }
        errs.sort_by(f64::total_cmp);
        let median = errs[errs.len() / 2];
        // Paper Fig. 14 reports ≤ 120 Hz at −25 dB; this SNR sits at the
        // nonlinear-estimation threshold, so an occasional outlier trial
        // is expected — require the median to hold the paper's bound.
        assert!(median < 150.0, "median error {median} Hz, errors {errs:?}");
    }

    #[test]
    fn regression_breaks_down_where_ls_survives() {
        let mut scratch = DspScratch::new();
        // The paper's §7.1.2 motivation: the unwrap-based method degrades
        // at very low SNR while the least-squares search does not.
        let mut lr_err = 0.0;
        let mut mf_err = 0.0;
        for seed in 0..4 {
            let cap = clean_capture(-21_000.0, 0.0, 0.5, 60 + seed);
            let mut z = cap.to_complex();
            let mut noise = GaussianNoise::new(1.0, 90 + seed);
            add_noise_at_snr(&mut z, &mut noise, -15.0);
            let noisy =
                softlora_phy::sdr::IqCapture::from_complex(&z, cap.sample_rate, cap.true_onset);
            let est = FbEstimator::new(&cfg(), cap.sample_rate);
            lr_err += (est
                .estimate_from_capture_with(
                    &noisy,
                    cap.true_onset,
                    FbMethod::LinearRegression,
                    0.0,
                    &mut scratch,
                )
                .unwrap()
                .delta_hz
                + 21_000.0)
                .abs();
            mf_err += (est
                .estimate_from_capture_with(
                    &noisy,
                    cap.true_onset,
                    FbMethod::MatchedFilter,
                    0.0,
                    &mut scratch,
                )
                .unwrap()
                .delta_hz
                + 21_000.0)
                .abs();
        }
        assert!(mf_err * 5.0 < lr_err, "mf {mf_err} lr {lr_err}");
    }

    #[test]
    fn de_solves_the_least_squares_problem() {
        let mut scratch = DspScratch::new();
        // Keep it light for unit tests: clean signal, small DE budget.
        let cap = clean_capture(-23_456.0, 0.0, 1.3, 5);
        let mut est = FbEstimator::new(&cfg(), cap.sample_rate);
        est.de_seed = 11;
        let fb = est
            .estimate_from_capture_with(
                &cap,
                cap.true_onset,
                FbMethod::DifferentialEvolution,
                0.0,
                &mut scratch,
            )
            .unwrap();
        assert!((fb.delta_hz + 23_456.0).abs() < 50.0, "fb {}", fb.delta_hz);
        assert!(fb.quality > 0.9, "quality {}", fb.quality);
    }

    #[test]
    fn amplitude_estimation_power_split() {
        // A = 1 signal plus noise of power 0.5: E|z|² ≈ 1.5.
        let mut gen = GaussianNoise::with_power(0.5, 9);
        let z: Vec<Complex> = gen
            .generate(50_000)
            .into_iter()
            .enumerate()
            .map(|(k, n)| Complex::cis(0.01 * k as f64) + n)
            .collect();
        let a = FbEstimator::estimate_amplitude(&z, 0.5);
        assert!((a - 1.0).abs() < 0.02, "a {a}");
        assert_eq!(FbEstimator::estimate_amplitude(&[], 0.1), 0.0);
        // Noise estimate exceeding total power clamps to zero.
        assert_eq!(FbEstimator::estimate_amplitude(&[Complex::ONE], 5.0), 0.0);
    }

    #[test]
    fn onset_error_biases_estimate_microseconds_matter() {
        let mut scratch = DspScratch::new();
        // The paper's claim that µs timestamping is a *prerequisite*:
        // a 25-sample (10 µs) onset error biases the regression by
        // ~W²/2^S · ε ≈ 1.25 kHz at SF7. Use a 3-chirp capture so the
        // shifted window still fits without tail-slack correction.
        let osc = Oscillator::with_bias_ppm(0.0, FC, 6).with_jitter_hz(0.0);
        let mut rx = SdrReceiver::new(osc).without_quantisation().with_fixed_phase(0.0);
        let cap = rx.capture_chirps(&cfg(), 3, -20_000.0, 0.9, 1.0, 300).unwrap();
        let est = FbEstimator::new(&cfg(), cap.sample_rate);
        let good = est
            .estimate_from_capture_with(
                &cap,
                cap.true_onset,
                FbMethod::LinearRegression,
                0.0,
                &mut scratch,
            )
            .unwrap();
        let bad = est
            .estimate_from_capture_with(
                &cap,
                cap.true_onset + 25,
                FbMethod::LinearRegression,
                0.0,
                &mut scratch,
            )
            .unwrap();
        let bias = (bad.delta_hz - good.delta_hz).abs();
        assert!(bias > 800.0, "onset error should visibly bias the FB: {bias} Hz");
    }

    #[test]
    fn capture_too_short_is_error() {
        let mut scratch = DspScratch::new();
        let cap = clean_capture(-20_000.0, 0.0, 0.0, 7);
        let est = FbEstimator::new(&cfg(), cap.sample_rate);
        for m in
            [FbMethod::LinearRegression, FbMethod::MatchedFilter, FbMethod::DifferentialEvolution]
        {
            assert!(
                est.estimate_from_capture_with(&cap, cap.len(), m, 0.0, &mut scratch).is_err(),
                "{m:?}"
            );
        }
    }

    /// The matched filter before the coarse search was decimated: a
    /// 4×-padded full-rate FFT, then a golden-section polish that calls
    /// `cis` on every sample. The decimated estimator must agree with it.
    fn oracle_matched_filter(est: &FbEstimator, z: &[Complex]) -> f64 {
        let rms = (z.iter().map(|v| v.norm_sqr()).sum::<f64>() / z.len() as f64).sqrt();
        let limit = 4.0 * rms;
        let n = est.samples_per_chirp();
        let reference = est.dechirp_reference().unwrap();
        let d: Vec<Complex> = z
            .iter()
            .take(2 * n)
            .enumerate()
            .map(|(k, &v)| {
                let m = v.norm();
                let v = if m > limit { v.scale(limit / m) } else { v };
                v * reference[k % n]
            })
            .collect();
        let fft_len = next_pow2(d.len() * 4);
        let mut spec = d.clone();
        spec.resize(fft_len, Complex::ZERO);
        softlora_dsp::fft::FftPlanner::new().plan(fft_len).forward(&mut spec);
        let bin_hz = est.sample_rate / fft_len as f64;
        let signed = |k: usize| if k < fft_len / 2 { k as f64 } else { k as f64 - fft_len as f64 };
        let (lo, hi) = est.search_range_hz;
        let window_energy =
            |k: usize| -> f64 { (0..4).map(|j| spec[(k + j) % fft_len].norm_sqr()).sum() };
        let mut best_bin = 0usize;
        let mut best_mag = -1.0;
        for k in 0..fft_len {
            let f = signed(k) * bin_hz;
            if f >= lo && f <= hi && window_energy(k) > best_mag {
                best_mag = window_energy(k);
                best_bin = (k + 1) % fft_len;
            }
        }
        let coarse_hz = signed(best_bin) * bin_hz;
        let dt = 1.0 / est.sample_rate;
        let corr_mag = |delta: f64| -> f64 {
            let c: Complex = d
                .iter()
                .enumerate()
                .map(|(k, &v)| {
                    v * Complex::cis(-2.0 * std::f64::consts::PI * delta * k as f64 * dt)
                })
                .sum();
            -c.norm()
        };
        golden_section(corr_mag, coarse_hz - 3.0 * bin_hz, coarse_hz + 3.0 * bin_hz, 0.5).unwrap().0
    }

    /// `cap` at `snr_db` (Gaussian noise, fixed seed) as one complex
    /// trace starting at the first chirp.
    fn noisy_from_onset(
        cap: &softlora_phy::sdr::IqCapture,
        snr_db: f64,
        seed: u64,
    ) -> Vec<Complex> {
        let mut z = cap.to_complex();
        add_noise_at_snr(&mut z, &mut GaussianNoise::new(1.0, seed), snr_db);
        z.split_off(cap.true_onset)
    }

    #[test]
    fn decimated_search_agrees_with_full_rate_oracle() {
        let mut scratch = DspScratch::new();
        let mut seed = 200;
        for delta in [0.0, 10_000.0, -10_000.0, 33_900.0, -33_900.0] {
            for snr_db in [10.0, 0.0, -10.0, -20.0] {
                seed += 1;
                let cap = clean_capture(delta, 0.0, 0.7, seed);
                let est = FbEstimator::new(&cfg(), cap.sample_rate);
                let z = noisy_from_onset(&cap, snr_db, 1000 + seed);
                let fast = est.matched_filter_with(&z, &mut scratch).unwrap().delta_hz;
                let oracle = oracle_matched_filter(&est, &z);
                assert!(
                    (fast - oracle).abs() < 1.0,
                    "δ {delta} Hz at {snr_db} dB: decimated {fast} vs oracle {oracle}"
                );
                assert!((fast - delta).abs() < 150.0, "δ {delta} Hz at {snr_db} dB: {fast}");
            }
        }
    }

    /// The polish before Newton: golden-section on `|C(f)|` to 0.5 Hz
    /// over the same bracket.
    fn golden_polish(est: &FbEstimator, d: &[Complex], centre: f64, half_width: f64) -> f64 {
        let dw_df = -2.0 * std::f64::consts::PI / est.sample_rate;
        let corr_mag = |f: f64| -> f64 { -tone_moments(d, dw_df * f).0.norm() };
        golden_section(corr_mag, centre - half_width, centre + half_width, 0.5).unwrap().0
    }

    #[test]
    fn newton_polish_matches_golden_section() {
        let mut scratch = DspScratch::new();
        let (mut d, mut spec) = (Vec::new(), Vec::new());
        let (mut seed, mut trials, mut passes) = (300, 0, 0);
        for delta in [0.0, 10_000.0, -10_000.0, 33_900.0, -33_900.0] {
            for snr_db in [10.0, 0.0, -10.0, -20.0, -25.0] {
                for real_noise in [false, true] {
                    seed += 1;
                    let cap = clean_capture(delta, 0.0, 0.9, seed);
                    let est = FbEstimator::new(&cfg(), cap.sample_rate);
                    let mut z = cap.to_complex();
                    if real_noise {
                        add_noise_at_snr(&mut z, &mut RealNoiseEmulator::new(1.0, seed), snr_db);
                    } else {
                        add_noise_at_snr(&mut z, &mut GaussianNoise::new(1.0, seed), snr_db);
                    }
                    let z = &z[cap.true_onset..];
                    let (coarse, bin_hz) =
                        est.coarse_search(z, &mut scratch, &mut d, &mut spec).unwrap();
                    let (newton, _, n) = est.newton_polish(&d, coarse, 3.0 * bin_hz);
                    let golden = golden_polish(&est, &d, coarse, 3.0 * bin_hz);
                    assert!(
                        (newton - golden).abs() < 0.5,
                        "δ {delta} Hz at {snr_db} dB (real noise {real_noise}): \
                         newton {newton} vs golden {golden}"
                    );
                    trials += 1;
                    passes += n;
                }
            }
        }
        // Golden-section needs 18 passes to reach 0.5 Hz.
        let mean = passes as f64 / trials as f64;
        assert!(mean < 4.0, "mean Newton passes {mean}");
    }

    #[test]
    fn newton_polish_is_safeguarded() {
        let est = FbEstimator::new(&cfg(), 2.4e6);
        let m = 2 * est.samples_per_chirp();
        let (centre, half_width) = (1_000.0, 220.0);
        let inside =
            |f: f64| f.is_finite() && (centre - half_width..=centre + half_width).contains(&f);
        // Pure noise: no peak to converge on.
        let noise = GaussianNoise::new(1.0, 5).generate(m);
        let (f, c, passes) = est.newton_polish(&noise, centre, half_width);
        assert!(inside(f) && c.norm().is_finite(), "noise: {f} Hz");
        assert!(passes <= MAX_POLISH_PASSES);
        // A tone on the bracket edge, and one past it: the polish ends
        // on the edge.
        for tone_hz in [centre + half_width, centre - half_width - 100.0] {
            let dw = 2.0 * std::f64::consts::PI * tone_hz / est.sample_rate;
            let tone: Vec<Complex> = (0..m).map(|k| Complex::cis(dw * k as f64)).collect();
            let (f, _, passes) = est.newton_polish(&tone, centre, half_width);
            assert!(inside(f), "tone at {tone_hz} Hz: {f} Hz");
            assert!(passes <= MAX_POLISH_PASSES);
            let edge = if tone_hz > centre { centre + half_width } else { centre - half_width };
            assert!((f - edge).abs() < 0.01, "tone at {tone_hz} Hz: {f} Hz");
        }
        // An all-zero trace is flat.
        let zeros = vec![Complex::ZERO; m];
        let (f, _, passes) = est.newton_polish(&zeros, centre, half_width);
        assert!(inside(f) && passes <= MAX_POLISH_PASSES, "zeros: {f} Hz");
    }

    #[test]
    fn decimation_follows_the_search_band() {
        let mut scratch = DspScratch::new();
        assert_eq!(FbEstimator::new(&cfg(), 2.4e6).decimation().unwrap(), 8);
        // A fixed D = 8 (decimated Nyquist 150 kHz) would droop the
        // +90 kHz tone and fold the +250 kHz one onto −50 kHz.
        for (edge, delta, want_d) in [(100_000.0, 90_000.0, 2), (300_000.0, 250_000.0, 1)] {
            let cap = clean_capture(delta, 0.0, 1.1, 12);
            let mut est = FbEstimator::new(&cfg(), cap.sample_rate);
            est.search_range_hz = (-edge, edge);
            assert_eq!(est.decimation().unwrap(), want_d, "±{edge} Hz");
            let z = noisy_from_onset(&cap, 0.0, 13);
            let fb = est.matched_filter_with(&z, &mut scratch).unwrap().delta_hz;
            assert!((fb - delta).abs() < 150.0, "δ {delta} Hz: fb {fb}");
            assert!((fb - oracle_matched_filter(&est, &z)).abs() < 1.0, "δ {delta} Hz: fb {fb}");
        }
    }

    #[test]
    fn search_range_without_a_bin_is_an_error() {
        let mut scratch = DspScratch::new();
        let cap = clean_capture(-20_000.0, 0.0, 0.2, 14);
        let z = noisy_from_onset(&cap, 10.0, 15);
        let mut est = FbEstimator::new(&cfg(), cap.sample_rate);
        // Between two bins of the ≈73 Hz grid.
        est.search_range_hz = (10.0, 20.0);
        assert!(matches!(
            est.matched_filter_with(&z, &mut scratch),
            Err(SoftLoraError::Capture { .. })
        ));
        // Empty range.
        est.search_range_hz = (5_000.0, -5_000.0);
        assert!(matches!(
            est.matched_filter_with(&z, &mut scratch),
            Err(SoftLoraError::Capture { .. })
        ));
        // Past ±Nyquist of the 2.4 MHz capture.
        est.search_range_hz = (-1.3e6, 0.0);
        assert!(matches!(
            est.matched_filter_with(&z, &mut scratch),
            Err(SoftLoraError::Capture { .. })
        ));
        est.search_range_hz = (f64::NAN, 0.0);
        assert!(matches!(
            est.matched_filter_with(&z, &mut scratch),
            Err(SoftLoraError::Capture { .. })
        ));
    }

    #[test]
    fn resolution_is_sub_ppm() {
        let mut scratch = DspScratch::new();
        // Two biases 300 Hz apart (0.35 ppm) must be distinguishable.
        let cap_a = clean_capture(-20_000.0, 0.0, 0.4, 8);
        let cap_b = clean_capture(-20_300.0, 0.0, 1.9, 9);
        let est = FbEstimator::new(&cfg(), cap_a.sample_rate);
        let a = est
            .estimate_from_capture_with(
                &cap_a,
                cap_a.true_onset,
                FbMethod::MatchedFilter,
                0.0,
                &mut scratch,
            )
            .unwrap();
        let b = est
            .estimate_from_capture_with(
                &cap_b,
                cap_b.true_onset,
                FbMethod::MatchedFilter,
                0.0,
                &mut scratch,
            )
            .unwrap();
        let separation = a.delta_hz - b.delta_hz;
        assert!((separation - 300.0).abs() < 60.0, "separation {separation}");
    }
}
