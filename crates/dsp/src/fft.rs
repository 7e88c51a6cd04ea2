//! Radix-2 fast Fourier transform.
//!
//! Implemented from scratch (no external FFT crate in the offline set): an
//! iterative, in-place, decimation-in-time Cooley–Tukey transform for
//! power-of-two lengths, plus convenience wrappers that zero-pad arbitrary
//! lengths. Used by the spectrogram (paper Fig. 6), the Hilbert-transform
//! envelope detector (paper §6.1.2) and the matched-filter frequency-bias
//! estimator's dechirped spectrum (paper §7.1).
//!
//! Two execution paths share the same butterfly arithmetic:
//!
//! * [`fft_in_place`] / [`ifft_in_place`] — the original self-contained
//!   transform that recomputes its twiddle factors per call (the
//!   reference the planner is pinned against);
//! * [`FftPlan`] via [`FftPlanner`] — precomputed per-stage twiddle
//!   tables, built once per size and reused for every transform of that
//!   size. The tables are generated by the *same* `w *= wlen` recurrence
//!   the reference path runs, so planned output is **bit-for-bit
//!   identical** to the unplanned one (pinned by the
//!   `planner_properties` proptest) while skipping the per-call
//!   `sin`/`cos` work — the per-symbol cost of the dechirp receiver.
//!
//! A plan executes one of two **schedules** (see [`FftKernel`]):
//!
//! * `Reference` — one pass per radix-2 stage, exactly the loop above;
//! * `Fused` — consecutive radix-2 stages fused pairwise into radix-4
//!   passes that read the *same* per-stage twiddle tables and perform
//!   the *same* floating-point operations per element in the *same*
//!   order — so the fused schedule is **also bit-for-bit identical** to
//!   the reference transform while halving the number of passes over
//!   the data (the win at 16k/32k points, where a pass spills L1/L2).
//!
//! The only output that differs between kernels is
//! [`FftPlanner::forward_real_into`]: under the fused kernel it runs a
//! true real-input transform (N/2 complex-FFT trick, ~half the work),
//! which is ulp-close rather than bit-identical to embedding the reals
//! — so that path alone is gated on [`crate::kernels::fast_kernels`].
//!
//! The module-level convenience wrappers ([`fft_forward`], [`ifft`],
//! [`fft_real`]) route through a thread-local planner, so repeated
//! transforms of the same size reuse cached tables even for callers that
//! never hold a planner themselves.

use crate::complex::Complex;
use crate::kernels::FftKernel;
use std::cell::RefCell;
use std::sync::Arc;

/// Returns the smallest power of two `>= n` (and `>= 1`).
///
/// ```
/// use softlora_dsp::fft::next_pow2;
/// assert_eq!(next_pow2(1), 1);
/// assert_eq!(next_pow2(5), 8);
/// assert_eq!(next_pow2(1024), 1024);
/// ```
pub fn next_pow2(n: usize) -> usize {
    n.max(1).next_power_of_two()
}

/// In-place forward FFT.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two. Use [`fft_forward`] for
/// arbitrary lengths (it zero-pads).
pub fn fft_in_place(data: &mut [Complex]) {
    transform(data, false);
}

/// In-place inverse FFT, including the `1/N` normalisation.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn ifft_in_place(data: &mut [Complex]) {
    transform(data, true);
    let n = data.len() as f64;
    for x in data.iter_mut() {
        *x = *x / n;
    }
}

/// Forward FFT of an arbitrary-length slice; the input is zero-padded to the
/// next power of two.
///
/// The returned vector has `next_pow2(input.len())` bins. Twiddle tables
/// come from the calling thread's cached planner.
pub fn fft_forward(input: &[Complex]) -> Vec<Complex> {
    with_thread_planner(|p| {
        let mut buf = Vec::new();
        p.forward_into(input, &mut buf);
        buf
    })
}

/// Inverse FFT of an arbitrary-length slice (zero-padded to a power of two,
/// `1/N` normalised).
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    with_thread_planner(|p| {
        let mut buf = Vec::new();
        p.inverse_into(input, &mut buf);
        buf
    })
}

/// Forward FFT of a real-valued signal (imaginary parts zero).
///
/// Shares the planner path with [`fft_forward`]: the real samples are
/// embedded directly into the transform buffer (no intermediate complex
/// copy) and the cached twiddle tables do the rest.
pub fn fft_real(input: &[f64]) -> Vec<Complex> {
    with_thread_planner(|p| {
        let mut buf = Vec::new();
        p.forward_real_into(input, &mut buf);
        buf
    })
}

/// Index of the largest-magnitude FFT bin together with its magnitude.
///
/// After multiplying a received symbol by the conjugate base chirp, the
/// symbol value (plus the frequency bias, in bins) appears as the argmax
/// bin of the FFT.
///
/// Returns `(0, 0.0)` for an empty spectrum.
pub fn argmax_bin(spectrum: &[Complex]) -> (usize, f64) {
    let mut best = (0usize, 0.0f64);
    for (i, z) in spectrum.iter().enumerate() {
        let m = z.norm();
        if m > best.1 {
            best = (i, m);
        }
    }
    best
}

/// Circular cross-correlation of two equal-length complex signals via FFT:
/// `r[k] = sum_n a[n] * conj(b[n-k])`.
///
/// # Errors
///
/// Returns [`crate::DspError::InvalidWindow`] if the inputs have different
/// lengths, and [`crate::DspError::InputTooShort`] if they are empty.
pub fn circular_cross_correlation(
    a: &[Complex],
    b: &[Complex],
) -> Result<Vec<Complex>, crate::DspError> {
    if a.len() != b.len() {
        return Err(crate::DspError::InvalidWindow { reason: "inputs must have equal length" });
    }
    if a.is_empty() {
        return Err(crate::DspError::InputTooShort { required: 1, actual: 0 });
    }
    let n = next_pow2(a.len());
    // Zero-padding a circular correlation changes its semantics, so require
    // power-of-two input for the exact circular case; otherwise fall back to
    // a direct O(N^2) computation, which is fine for the short preamble
    // segments this is used on.
    if a.len() == n {
        let mut fa = fft_forward(a);
        let fb = fft_forward(b);
        for (x, y) in fa.iter_mut().zip(fb.iter()) {
            *x *= y.conj();
        }
        Ok(ifft(&fa))
    } else {
        let len = a.len();
        let mut out = vec![Complex::ZERO; len];
        for (k, o) in out.iter_mut().enumerate() {
            let mut acc = Complex::ZERO;
            for (i, ai) in a.iter().enumerate() {
                let j = (i + len - k) % len;
                acc += *ai * b[j].conj();
            }
            *o = acc;
        }
        Ok(out)
    }
}

/// Iterative decimation-in-time radix-2 transform.
fn transform(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
    if n <= 1 {
        return;
    }

    bit_reverse_permute(data);

    // Butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut i = 0;
        while i < n {
            let mut w = Complex::ONE;
            for j in 0..len / 2 {
                let u = data[i + j];
                let v = data[i + j + len / 2] * w;
                data[i + j] = u + v;
                data[i + j + len / 2] = u - v;
                w *= wlen;
            }
            i += len;
        }
        len <<= 1;
    }
}

/// Bit-reversal permutation shared by the reference and planned paths.
#[inline]
fn bit_reverse_permute(data: &mut [Complex]) {
    let n = data.len();
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = i.reverse_bits() >> (usize::BITS - bits);
        if j > i {
            data.swap(i, j);
        }
    }
}

/// Builds the concatenated per-stage twiddle tables for an `n`-point
/// transform using the **same** `w *= wlen` recurrence the reference
/// transform runs, so a planned butterfly consumes bit-identical factors.
fn build_twiddles(n: usize, inverse: bool) -> Vec<Complex> {
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut table = Vec::with_capacity(n.saturating_sub(1));
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * std::f64::consts::PI / len as f64;
        let wlen = Complex::cis(ang);
        let mut w = Complex::ONE;
        for _ in 0..len / 2 {
            table.push(w);
            w *= wlen;
        }
        len <<= 1;
    }
    table
}

/// One radix-2 stage pass over a single frame (the reference schedule's
/// inner loop, shared by [`FftPlan::forward`] and
/// [`FftPlan::forward_many`]).
#[inline]
fn radix2_stage(data: &mut [Complex], stage: &[Complex], len: usize) {
    let half = len / 2;
    let mut i = 0;
    while i < data.len() {
        for (j, &w) in stage.iter().enumerate() {
            let u = data[i + j];
            let v = data[i + j + half] * w;
            data[i + j] = u + v;
            data[i + j + half] = u - v;
        }
        i += len;
    }
}

/// One fused pass over a single frame covering the two consecutive
/// radix-2 stages with halves `h` and `2h`. `wa` is the `h`-entry table
/// of the first stage, `wb` the `2h`-entry table of the second.
///
/// Per output element this performs exactly the operations the two
/// radix-2 passes would — same multiplies, same add/sub order, same
/// twiddle values — so the result is bit-for-bit identical; what it
/// saves is one full read/write pass over the data per stage pair.
#[inline]
fn radix4_fused_stage(data: &mut [Complex], wa: &[Complex], wb: &[Complex], h: usize) {
    let quad = 4 * h;
    let (wb0, wb1) = wb.split_at(h);
    let mut i = 0;
    while i < data.len() {
        let block = &mut data[i..i + quad];
        let (q01, q23) = block.split_at_mut(2 * h);
        let (q0, q1) = q01.split_at_mut(h);
        let (q2, q3) = q23.split_at_mut(h);
        for j in 0..h {
            // First stage (half = h) on both sub-blocks...
            let x1 = q1[j] * wa[j];
            let x3 = q3[j] * wa[j];
            let a0 = q0[j] + x1;
            let a1 = q0[j] - x1;
            let a2 = q2[j] + x3;
            let a3 = q2[j] - x3;
            // ...then the second stage (half = 2h) across them.
            let t0 = a2 * wb0[j];
            let t1 = a3 * wb1[j];
            q0[j] = a0 + t0;
            q2[j] = a0 - t0;
            q1[j] = a1 + t1;
            q3[j] = a1 - t1;
        }
        i += quad;
    }
}

/// Runs the butterfly stages of one bit-reversed frame under the fused
/// schedule: radix-2 stage pairs fused into radix-4 passes, plus one
/// plain radix-2 pass when `log2(n)` is odd.
#[inline]
fn fused_stages(data: &mut [Complex], twiddles: &[Complex]) {
    let n = data.len();
    // `h` is the half-length of the next unconsumed radix-2 stage; its
    // table starts at `base` (stages are concatenated smallest-first).
    let mut h = 1;
    let mut base = 0;
    while 4 * h <= n {
        let wa = &twiddles[base..base + h];
        let wb = &twiddles[base + h..base + 3 * h];
        radix4_fused_stage(data, wa, wb, h);
        base += 3 * h;
        h *= 4;
    }
    if 2 * h <= n {
        radix2_stage(data, &twiddles[base..base + h], 2 * h);
    }
}

/// Runs the butterfly stages of one bit-reversed frame under the
/// reference schedule (one pass per radix-2 stage).
#[inline]
fn reference_stages(data: &mut [Complex], twiddles: &[Complex]) {
    let n = data.len();
    let mut len = 2;
    let mut base = 0;
    while len <= n {
        let half = len / 2;
        radix2_stage(data, &twiddles[base..base + half], len);
        base += half;
        len <<= 1;
    }
}

/// Counter of transforms executed (one per `run`, one per batched
/// frame). Handle resolved once; each transform adds a relaxed
/// `fetch_add` — noise next to even the smallest butterfly pass.
fn fft_transforms_total() -> &'static softlora_telemetry::Counter {
    static C: std::sync::OnceLock<softlora_telemetry::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| softlora_telemetry::global().counter("dsp_fft_transforms_total"))
}

/// Counter of twiddle-table plans built (cache misses in a planner).
fn fft_plans_total() -> &'static softlora_telemetry::Counter {
    static C: std::sync::OnceLock<softlora_telemetry::Counter> = std::sync::OnceLock::new();
    C.get_or_init(|| softlora_telemetry::global().counter("dsp_fft_plans_total"))
}

/// Builds the unpack twiddles `e^{-2πik/n}` for `k = 0..=n/2`, used by
/// the real-input (N/2 trick) forward transform of an `n`-point plan.
fn build_real_twiddles(n: usize) -> Vec<Complex> {
    if n < 4 {
        return Vec::new();
    }
    (0..=n / 2).map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64)).collect()
}

/// A preplanned `n`-point transform: the bit-reversal schedule is
/// implicit in `n` and the twiddle factors of every stage are cached.
///
/// Output is bit-for-bit identical to [`fft_in_place`] / [`ifft_in_place`]
/// of the same data — under **either** [`FftKernel`] schedule (the tables
/// come from the same recurrence, and the fused radix-4 schedule performs
/// the same operations per element in the same order). What a plan saves
/// is the per-call `sin`/`cos` evaluations; what the fused schedule saves
/// on top is half the passes over the data.
#[derive(Debug)]
pub struct FftPlan {
    n: usize,
    kernel: FftKernel,
    forward_twiddles: Vec<Complex>,
    inverse_twiddles: Vec<Complex>,
    /// `e^{-2πik/n}`, `k = 0..=n/2` — the unpack factors of the
    /// real-input transform (empty for `n < 4`).
    real_twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Plans an `n`-point transform with the process-wide active kernel.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn new(n: usize) -> Self {
        FftPlan::with_kernel(n, FftKernel::active())
    }

    /// Plans an `n`-point transform with an explicit kernel schedule.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn with_kernel(n: usize, kernel: FftKernel) -> Self {
        assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
        fft_plans_total().inc();
        FftPlan {
            n,
            kernel,
            forward_twiddles: build_twiddles(n, false),
            inverse_twiddles: build_twiddles(n, true),
            real_twiddles: build_real_twiddles(n),
        }
    }

    /// The planned transform length.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether this is the trivial 1-point plan.
    pub fn is_empty(&self) -> bool {
        self.n <= 1
    }

    /// The kernel schedule this plan executes.
    pub fn kernel(&self) -> FftKernel {
        self.kernel
    }

    fn run(&self, data: &mut [Complex], twiddles: &[Complex]) {
        assert_eq!(data.len(), self.n, "plan is for {}-point transforms", self.n);
        fft_transforms_total().inc();
        if self.n <= 1 {
            return;
        }
        bit_reverse_permute(data);
        match self.kernel {
            FftKernel::Reference => reference_stages(data, twiddles),
            FftKernel::Fused => fused_stages(data, twiddles),
        }
    }

    /// In-place forward transform of exactly `len()` samples.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn forward(&self, data: &mut [Complex]) {
        self.run(data, &self.forward_twiddles);
    }

    /// In-place inverse transform (`1/N` normalised) of exactly `len()`
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.len()`.
    pub fn inverse(&self, data: &mut [Complex]) {
        self.run(data, &self.inverse_twiddles);
        let n = self.n as f64;
        for x in data.iter_mut() {
            *x = *x / n;
        }
    }

    /// In-place forward transform of a whole batch: `data` holds
    /// `data.len() / len()` contiguous frames, each transformed exactly
    /// as [`forward`](FftPlan::forward) would — per frame the output is
    /// bit-for-bit identical to transforming it alone.
    ///
    /// The stage loop runs stage-major across frames, so one plan's
    /// twiddle tables stream through the cache once per stage for the
    /// whole batch instead of once per frame — the amortization
    /// `process_batch` uplink groups want.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `len()`.
    pub fn forward_many(&self, data: &mut [Complex]) {
        assert!(
            self.n > 0 && data.len().is_multiple_of(self.n),
            "batch length {} is not a multiple of the {}-point plan",
            data.len(),
            self.n
        );
        if self.n <= 1 || data.is_empty() {
            return;
        }
        fft_transforms_total().add((data.len() / self.n) as u64);
        for frame in data.chunks_exact_mut(self.n) {
            bit_reverse_permute(frame);
        }
        let n = self.n;
        let twiddles = &self.forward_twiddles;
        match self.kernel {
            FftKernel::Reference => {
                let mut len = 2;
                let mut base = 0;
                while len <= n {
                    let half = len / 2;
                    let stage = &twiddles[base..base + half];
                    for frame in data.chunks_exact_mut(n) {
                        radix2_stage(frame, stage, len);
                    }
                    base += half;
                    len <<= 1;
                }
            }
            FftKernel::Fused => {
                let mut h = 1;
                let mut base = 0;
                while 4 * h <= n {
                    let wa = &twiddles[base..base + h];
                    let wb = &twiddles[base + h..base + 3 * h];
                    for frame in data.chunks_exact_mut(n) {
                        radix4_fused_stage(frame, wa, wb, h);
                    }
                    base += 3 * h;
                    h *= 4;
                }
                if 2 * h <= n {
                    let stage = &twiddles[base..base + h];
                    for frame in data.chunks_exact_mut(n) {
                        radix2_stage(frame, stage, 2 * h);
                    }
                }
            }
        }
    }

    /// Forward transform of a **real** signal via the N/2 complex-FFT
    /// trick: the `n` reals are packed into an `n/2`-point complex
    /// transform and unpacked with the cached `e^{-2πik/n}` factors —
    /// roughly half the butterfly work of embedding them.
    ///
    /// `data` must hold the `n/2` packed samples `x[2j] + i·x[2j+1]` in
    /// its first half (the second half is overwritten); `half_plan` must
    /// be the `n/2`-point plan. The result is the full `n`-bin spectrum,
    /// ulp-close (not bit-identical) to the embedded reference path.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != len()`, `half_plan.len() != len()/2`, or
    /// `len() < 4`.
    pub fn forward_real_packed(&self, half_plan: &FftPlan, data: &mut [Complex]) {
        let n = self.n;
        assert!(n >= 4, "real-input fast path needs n >= 4, got {n}");
        assert_eq!(data.len(), n, "plan is for {n}-point transforms");
        assert_eq!(half_plan.len(), n / 2, "half plan must be {}-point", n / 2);
        let h = n / 2;
        half_plan.forward(&mut data[..h]);
        let w = &self.real_twiddles;
        // Unpack in place: X[k] = Xe + W^k·Xo with Xe/Xo the spectra of
        // the even/odd samples, then mirror X[n-k] = conj(X[k]). Pairs
        // (k, h-k) are consumed before their slots are overwritten.
        let unpack = |yk: Complex, ym: Complex, wk: Complex| {
            let ymc = ym.conj();
            let xe = (yk + ymc) * 0.5;
            let xo = (yk - ymc) * Complex::new(0.0, -0.5);
            xe + wk * xo
        };
        let y0 = data[0];
        let mut k = 1;
        while 2 * k < h {
            let yk = data[k];
            let ym = data[h - k];
            let xk = unpack(yk, ym, w[k]);
            let xm = unpack(ym, yk, w[h - k]);
            data[k] = xk;
            data[h - k] = xm;
            data[n - k] = xk.conj();
            data[h + k] = xm.conj();
            k += 1;
        }
        if h >= 2 {
            // Self-paired midpoint k = h/2.
            let yk = data[h / 2];
            let xk = unpack(yk, yk, w[h / 2]);
            data[h / 2] = xk;
            data[n - h / 2] = xk.conj();
        }
        // DC and Nyquist from Y[0]: both exactly real.
        data[0] = Complex::new(y0.re + y0.im, 0.0);
        data[h] = Complex::new(y0.re - y0.im, 0.0);
    }
}

/// A cache of [`FftPlan`]s, one per power-of-two size.
///
/// Cheap to hold per worker (plans are built lazily and shared via
/// [`Arc`]); after the first transform of each size the planner allocates
/// nothing. [`crate::scratch::DspScratch`] embeds one, and the
/// module-level wrappers use a thread-local instance.
#[derive(Debug, Default)]
pub struct FftPlanner {
    /// Plans indexed by `log2(n)`.
    plans: Vec<Option<Arc<FftPlan>>>,
    /// `Some(k)` pins every plan (and the real-input path) to kernel
    /// `k`; `None` follows the process-wide switch.
    kernel: Option<FftKernel>,
}

impl FftPlanner {
    /// Creates an empty planner following the process-wide kernel switch.
    pub fn new() -> Self {
        FftPlanner { plans: Vec::new(), kernel: None }
    }

    /// Creates a planner pinned to an explicit kernel, regardless of the
    /// process-wide switch — how the equivalence tests hold the reference
    /// path still while the fast path moves.
    pub fn with_kernel(kernel: FftKernel) -> Self {
        FftPlanner { plans: Vec::new(), kernel: Some(kernel) }
    }

    /// The kernel new plans (and the real-input path) will use.
    pub fn active_kernel(&self) -> FftKernel {
        self.kernel.unwrap_or_else(FftKernel::active)
    }

    /// The plan for an `n`-point transform, building it on first request.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn plan(&mut self, n: usize) -> &FftPlan {
        assert!(n.is_power_of_two(), "FFT length must be a power of two, got {n}");
        let slot = n.trailing_zeros() as usize;
        if self.plans.len() <= slot {
            self.plans.resize(slot + 1, None);
        }
        let kernel = self.kernel.unwrap_or_else(FftKernel::active);
        self.plans[slot].get_or_insert_with(|| Arc::new(FftPlan::with_kernel(n, kernel)))
    }

    /// A shareable handle to the `n`-point plan (e.g. to move into a
    /// worker while the planner stays behind).
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two.
    pub fn plan_arc(&mut self, n: usize) -> Arc<FftPlan> {
        let slot = n.trailing_zeros() as usize;
        self.plan(n);
        Arc::clone(self.plans[slot].as_ref().expect("plan was just built"))
    }

    /// Forward FFT of `input` into `out`, zero-padded to the next power of
    /// two — the planner-backed equivalent of [`fft_forward`]. `out` is
    /// cleared and resized; its capacity is reused across calls.
    pub fn forward_into(&mut self, input: &[Complex], out: &mut Vec<Complex>) {
        let n = next_pow2(input.len());
        out.clear();
        out.extend_from_slice(input);
        out.resize(n, Complex::ZERO);
        self.plan(n).forward(out);
    }

    /// Inverse FFT of `input` into `out` (zero-padded, `1/N` normalised) —
    /// the planner-backed equivalent of [`ifft`].
    pub fn inverse_into(&mut self, input: &[Complex], out: &mut Vec<Complex>) {
        let n = next_pow2(input.len());
        out.clear();
        out.extend_from_slice(input);
        out.resize(n, Complex::ZERO);
        self.plan(n).inverse(out);
    }

    /// Forward FFT of a real signal into `out` — the planner-backed
    /// equivalent of [`fft_real`].
    ///
    /// Under the `Reference` kernel the reals are embedded into a full
    /// `n`-point complex transform (the original path, bit-for-bit
    /// stable). Under the `Fused` kernel — the default — the `n/2`
    /// complex-FFT trick runs instead: about half the butterflies, with
    /// output ulp-close to the reference (bounded by the
    /// `kernel_equivalence` tests). Both produce the full `n`-bin
    /// conjugate-symmetric spectrum.
    pub fn forward_real_into(&mut self, input: &[f64], out: &mut Vec<Complex>) {
        let n = next_pow2(input.len());
        if self.active_kernel() == FftKernel::Fused && n >= 4 {
            let h = n / 2;
            out.clear();
            out.reserve(n);
            // Pack pairs of reals as one complex sample each; the tail
            // beyond `input` is the usual zero padding.
            let mut it = input.chunks_exact(2);
            out.extend((&mut it).map(|p| Complex::new(p[0], p[1])));
            if let [last] = it.remainder() {
                out.push(Complex::new(*last, 0.0));
            }
            out.resize(n, Complex::ZERO);
            let full = self.plan_arc(n);
            let half_plan = self.plan(h);
            full.forward_real_packed(half_plan, out);
        } else {
            out.clear();
            out.extend(input.iter().map(|&x| Complex::new(x, 0.0)));
            out.resize(n, Complex::ZERO);
            self.plan(n).forward(out);
        }
    }
}

thread_local! {
    static THREAD_PLANNER: RefCell<FftPlanner> = RefCell::new(FftPlanner::new());
}

/// Runs `f` with the calling thread's shared [`FftPlanner`].
///
/// The module-level wrappers ([`fft_forward`], [`ifft`], [`fft_real`])
/// go through here, so ad-hoc callers amortise twiddle construction
/// per thread. Do **not** call the module-level wrappers from inside `f`
/// (the planner is already borrowed).
pub fn with_thread_planner<R>(f: impl FnOnce(&mut FftPlanner) -> R) -> R {
    THREAD_PLANNER.with(|p| f(&mut p.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn next_pow2_values() {
        assert_eq!(next_pow2(0), 1);
        assert_eq!(next_pow2(1), 1);
        assert_eq!(next_pow2(2), 2);
        assert_eq!(next_pow2(3), 4);
        assert_eq!(next_pow2(129), 256);
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        fft_in_place(&mut data);
        for z in &data {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn fft_of_dc_is_impulse() {
        let mut data = vec![Complex::ONE; 16];
        fft_in_place(&mut data);
        assert!((data[0].re - 16.0).abs() < 1e-12);
        for z in &data[1..] {
            assert!(z.norm() < 1e-10);
        }
    }

    #[test]
    fn tone_lands_in_expected_bin() {
        let n = 128;
        let k = 9;
        let tone: Vec<Complex> =
            (0..n).map(|i| Complex::cis(2.0 * PI * k as f64 * i as f64 / n as f64)).collect();
        let spec = fft_forward(&tone);
        let (bin, mag) = argmax_bin(&spec);
        assert_eq!(bin, k);
        assert!((mag - n as f64).abs() < 1e-9);
    }

    #[test]
    fn negative_frequency_tone_lands_in_high_bin() {
        let n = 64;
        let tone: Vec<Complex> =
            (0..n).map(|i| Complex::cis(-2.0 * PI * 3.0 * i as f64 / n as f64)).collect();
        let spec = fft_forward(&tone);
        let (bin, _) = argmax_bin(&spec);
        assert_eq!(bin, n - 3);
    }

    #[test]
    fn round_trip_identity() {
        let data: Vec<Complex> =
            (0..64).map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos())).collect();
        let mut buf = data.clone();
        fft_in_place(&mut buf);
        ifft_in_place(&mut buf);
        for (a, b) in data.iter().zip(buf.iter()) {
            assert!((*a - *b).norm() < 1e-10);
        }
    }

    #[test]
    fn parseval_theorem_holds() {
        let data: Vec<Complex> = (0..256)
            .map(|i| Complex::new((i as f64 * 0.11).sin() * 2.0, (i as f64 * 0.05).cos()))
            .collect();
        let time_energy: f64 = data.iter().map(|z| z.norm_sqr()).sum();
        let spec = fft_forward(&data);
        let freq_energy: f64 = spec.iter().map(|z| z.norm_sqr()).sum::<f64>() / 256.0;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-10);
    }

    #[test]
    fn linearity() {
        let a: Vec<Complex> = (0..32).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..32).map(|i| Complex::new(0.0, (i as f64).sqrt())).collect();
        let sum: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        let fa = fft_forward(&a);
        let fb = fft_forward(&b);
        let fsum = fft_forward(&sum);
        for i in 0..32 {
            assert!((fa[i] + fb[i] - fsum[i]).norm() < 1e-9);
        }
    }

    #[test]
    fn zero_padding_applied_for_non_pow2() {
        let input = vec![Complex::ONE; 5];
        let out = fft_forward(&input);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn fft_real_matches_complex() {
        let xs: Vec<f64> = (0..64).map(|i| (i as f64 * 0.2).sin()).collect();
        let zs: Vec<Complex> = xs.iter().map(|&x| Complex::new(x, 0.0)).collect();
        let a = fft_real(&xs);
        let b = fft_forward(&zs);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((*x - *y).norm() < 1e-12);
        }
    }

    #[test]
    fn real_signal_spectrum_is_conjugate_symmetric() {
        let xs: Vec<f64> =
            (0..128).map(|i| (i as f64 * 0.3).sin() + 0.5 * (i as f64 * 1.1).cos()).collect();
        let spec = fft_real(&xs);
        let n = spec.len();
        for k in 1..n / 2 {
            assert!((spec[k] - spec[n - k].conj()).norm() < 1e-9);
        }
    }

    #[test]
    fn cross_correlation_peak_at_lag() {
        let n = 64;
        let base: Vec<Complex> =
            (0..n).map(|i| Complex::cis(2.0 * PI * (i * i) as f64 / n as f64)).collect();
        // b is a circularly shifted copy of a; correlation should peak at the shift.
        let shift = 13;
        let shifted: Vec<Complex> = (0..n).map(|i| base[(i + n - shift) % n]).collect();
        let corr = circular_cross_correlation(&shifted, &base).unwrap();
        let (peak, _) = argmax_bin(&corr);
        assert_eq!(peak, shift);
    }

    #[test]
    fn cross_correlation_rejects_mismatched_lengths() {
        let a = vec![Complex::ONE; 4];
        let b = vec![Complex::ONE; 8];
        assert!(circular_cross_correlation(&a, &b).is_err());
    }

    #[test]
    fn cross_correlation_direct_path_matches_fft_path() {
        // length 12 (non pow2) exercises the direct path; compare against
        // manually computed circular correlation.
        let a: Vec<Complex> =
            (0..12).map(|i| Complex::new((i as f64).sin(), 0.3 * i as f64)).collect();
        let b: Vec<Complex> =
            (0..12).map(|i| Complex::new((i as f64 * 0.5).cos(), -0.1 * i as f64)).collect();
        let got = circular_cross_correlation(&a, &b).unwrap();
        for k in 0..12 {
            let mut want = Complex::ZERO;
            for i in 0..12 {
                want += a[i] * b[(i + 12 - k) % 12].conj();
            }
            assert!((got[k] - want).norm() < 1e-9, "lag {k}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn in_place_rejects_non_pow2() {
        let mut data = vec![Complex::ONE; 6];
        fft_in_place(&mut data);
    }
}
