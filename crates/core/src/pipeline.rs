//! The staged SoftLoRa gateway pipeline (paper §5.3, Fig. 4), as explicit
//! types.
//!
//! The defence is a fixed chain; this module names each link and the typed
//! intermediates flowing between them:
//!
//! ```text
//! RadioFrontEnd ─▶ CaptureSynth ─▶ OnsetStage ─▶ FbStage ─▶ FB check ─▶ MacStage
//!  RadioDecision    CaptureOutput    OnsetOutput   FbEstimate  ReplayVerdict  SoftLoraVerdict
//! ```
//!
//! The first four stages — the **front half**, one [`Pipeline`] per
//! gateway — are pure per-delivery functions of `(configuration, gateway
//! seed, frame index)`: they take `&self`, draw all randomness from a
//! per-delivery generator derived from the seed and index, and can
//! therefore run for many deliveries in parallel. The FB check and the
//! LoRaWAN MAC — the **back half** — are stateful (FB history, frame
//! counters) and run per device in arrival order, in the network
//! server's shard tail ([`crate::NetworkServer`]).
//!
//! The onset is picked **once** per frame, in [`OnsetStage`], and its
//! output feeds both the PHY arrival timestamp and the FB estimator's
//! chirp window. (The previous monolithic `process()` ran the AIC picker
//! twice per frame — the hottest redundant computation in the repo;
//! [`OnsetStage::picker_runs`] exists so tests can pin this down.)

use crate::config::SoftLoraConfig;
use crate::fb_estimator::{FbEstimate, FbEstimator, FbMethod};
use crate::observer::Stage;
use crate::phy_timestamp::{PhyTimestamp, PhyTimestamper};
use crate::SoftLoraError;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use softlora_dsp::DspScratch;
use softlora_lorawan::frame::DataFrame;
use softlora_lorawan::{DeviceKeys, Gateway as LorawanGateway, RxVerdict};
use softlora_phy::noise::{GaussianNoise, NoiseSource};
use softlora_phy::oscillator::Oscillator;
use softlora_phy::rn2483::{ReceptionOutcome, Rn2483Model};
use softlora_phy::sdr::{IqCapture, SdrReceiver};
use softlora_sim::Delivery;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Derives the per-delivery random stream: every draw the front half makes
/// for frame `frame_index` comes from this generator, so processing a
/// delivery is a pure function of `(seed, index)` regardless of whether it
/// runs sequentially or on a batch worker thread.
fn delivery_rng(seed: u64, frame_index: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ frame_index.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(17) ^ 0x50F7,
    )
}

/// Stage 1 output: what the commodity radio did with the frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadioDecision {
    /// The chip-level outcome.
    pub outcome: ReceptionOutcome,
    /// Whether the legitimate frame reached the host (and the SDR path
    /// should therefore analyse the capture).
    pub host_received: bool,
}

/// Stage 1: the commodity radio reception model.
#[derive(Debug, Clone, Default)]
pub struct RadioFrontEnd {
    model: Rn2483Model,
}

impl RadioFrontEnd {
    /// Builds the stage with the paper's Table-1 calibration.
    pub fn new() -> Self {
        RadioFrontEnd { model: Rn2483Model::new() }
    }

    /// Decides whether the frame survives jamming and the demodulation
    /// floor.
    pub fn evaluate(&self, config: &SoftLoraConfig, delivery: &Delivery) -> RadioDecision {
        let outcome = self.model.receive(
            &config.phy,
            delivery.bytes.len(),
            delivery.snr_db,
            delivery.jamming,
        );
        let host_received =
            matches!(outcome, ReceptionOutcome::Legitimate | ReceptionOutcome::BothReceived);
        RadioDecision { outcome, host_received }
    }
}

/// Stage 2 output: the synthesised SDR capture.
#[derive(Debug, Clone)]
pub struct CaptureOutput {
    /// The noisy I/Q capture of the first preamble chirps.
    pub capture: IqCapture,
    /// Noise-only lead samples before the signal onset region.
    pub lead: usize,
}

impl CaptureOutput {
    /// Returns the capture's I/Q buffers to a scratch arena once the
    /// per-frame analysis is done with them — the other half of
    /// [`CaptureSynth::synthesise_with`]'s checkout.
    pub fn recycle(self, scratch: &mut DspScratch) {
        scratch.put_real(self.capture.i);
        scratch.put_real(self.capture.q);
    }
}

/// Stage 2: SDR capture synthesis — the first preamble chirps at 2.4 Msps
/// with the delivery's carrier bias/phase, plus channel noise at the
/// delivery SNR.
#[derive(Debug, Clone)]
pub struct CaptureSynth {
    sdr: SdrReceiver,
    seed: u64,
    capture_chirps: usize,
    capture_lead: usize,
}

impl CaptureSynth {
    /// Builds the stage from the gateway configuration and seed.
    pub fn new(config: &SoftLoraConfig, seed: u64) -> Self {
        let osc = Oscillator::sample_rtl_sdr(config.phy.channel.center_hz, seed);
        let mut sdr = SdrReceiver::new(osc);
        if !config.adc_quantisation {
            sdr = sdr.without_quantisation();
        }
        CaptureSynth {
            sdr,
            seed,
            capture_chirps: config.capture_chirps,
            capture_lead: config.capture_lead,
        }
    }

    /// The SDR receiver's oscillator bias (δRx), Hz.
    pub fn receiver_bias_hz(&self) -> f64 {
        self.sdr.receiver_bias_hz()
    }

    /// The SDR sample rate, Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sdr.sample_rate()
    }

    /// Synthesises the capture for one delivery against a caller-owned
    /// scratch arena: the waveform staging buffer and the capture's I/Q
    /// vectors come from the pool, so a warm worker synthesises captures
    /// without allocating. Return the capture's buffers via
    /// [`CaptureOutput::recycle`] once the onset/FB stages are done with
    /// them. Deterministic in `(gateway seed, frame_index)`; takes `&self`
    /// so independent deliveries can be captured concurrently.
    ///
    /// # Errors
    ///
    /// Returns [`SoftLoraError::Phy`] when chirp synthesis fails.
    pub fn synthesise_with(
        &self,
        config: &SoftLoraConfig,
        delivery: &Delivery,
        frame_index: u64,
        scratch: &mut DspScratch,
    ) -> Result<CaptureOutput, SoftLoraError> {
        let mut rng = delivery_rng(self.seed, frame_index);
        let lead = self.capture_lead + (rng.random::<u64>() % 200) as usize;
        let theta_rx = 2.0 * std::f64::consts::PI * rng.random::<f64>();
        let noise_seed = rng.random::<u64>();
        // Capture one chirp beyond the configured analysis window: the
        // real preamble has 8 identical up-chirps, so when a low-SNR onset
        // pick lands late the analysis window still covers genuine
        // preamble signal instead of running off the buffer.
        let mut z = scratch.take_complex_empty();
        let synth = self.sdr.capture_chirps_with_phase_into(
            &config.phy,
            self.capture_chirps + 1,
            delivery.carrier_bias_hz,
            delivery.carrier_phase,
            1.0,
            lead,
            theta_rx,
            &mut z,
        );
        if let Err(e) = synth {
            scratch.put_complex(z);
            return Err(SoftLoraError::Phy(e));
        }
        // Add noise at the delivery SNR (power referenced to the unit-
        // amplitude chirp: signal power = 1).
        let noise_power = 10f64.powf(-delivery.snr_db / 10.0);
        let mut src = GaussianNoise::with_power(noise_power, noise_seed);
        src.add_to(&mut z);
        let mut i = scratch.take_real_empty();
        i.extend(z.iter().map(|c| c.re));
        let mut q = scratch.take_real_empty();
        q.extend(z.iter().map(|c| c.im));
        scratch.put_complex(z);
        Ok(CaptureOutput {
            capture: IqCapture { i, q, sample_rate: self.sdr.sample_rate(), true_onset: lead },
            lead,
        })
    }
}

/// Stage 3 output: the PHY timestamp and its mapping to the gateway clock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnsetOutput {
    /// The onset pick within the capture.
    pub timestamp: PhyTimestamp,
    /// PHY arrival instant on the gateway's global clock, seconds.
    pub phy_arrival_s: f64,
}

/// Stage 3: microsecond PHY-layer signal timestamping. The single onset
/// pick made here feeds **both** the data-timestamping path and the FB
/// estimator (paper §6: "microseconds-accurate PHY signal timestamping is
/// a prerequisite of the FB estimation").
#[derive(Debug)]
pub struct OnsetStage {
    timestamper: PhyTimestamper,
    picks: AtomicU64,
}

impl OnsetStage {
    /// Builds the stage around a timestamper.
    pub fn new(timestamper: PhyTimestamper) -> Self {
        OnsetStage { timestamper, picks: AtomicU64::new(0) }
    }

    /// The underlying timestamper.
    pub fn timestamper(&self) -> &PhyTimestamper {
        &self.timestamper
    }

    /// How many times the onset picker has run — exactly once per frame
    /// that reached the SDR path. Tests use this to pin down that the
    /// pick is not recomputed downstream.
    pub fn picker_runs(&self) -> u64 {
        self.picks.load(Ordering::Relaxed)
    }

    /// Picks the onset and maps it to the gateway clock, given the true
    /// arrival time the capture was triggered by. The picker's
    /// intermediates reuse the caller's arena.
    ///
    /// # Errors
    ///
    /// Returns [`SoftLoraError::Capture`] when the capture is too short.
    pub fn pick_with(
        &self,
        capture: &IqCapture,
        delivery_arrival_s: f64,
        scratch: &mut DspScratch,
    ) -> Result<OnsetOutput, SoftLoraError> {
        self.picks.fetch_add(1, Ordering::Relaxed);
        let timestamp = self.timestamper.timestamp_with(capture, scratch)?;
        // The capture buffer started (true_onset · dt) before the frame
        // arrived; the PHY arrival is the buffer start plus the detected
        // onset.
        let capture_start_s = delivery_arrival_s - capture.true_onset as f64 * capture.dt();
        Ok(OnsetOutput { timestamp, phy_arrival_s: capture_start_s + timestamp.onset_s })
    }
}

/// Stage 4: frequency-bias estimation from the second captured chirp,
/// with the estimator chosen by operating SNR.
#[derive(Debug, Clone)]
pub struct FbStage {
    estimator: FbEstimator,
    ls_below_snr_db: f64,
    ls_method: FbMethod,
}

impl FbStage {
    /// Builds the stage from the gateway configuration and SDR rate.
    pub fn new(config: &SoftLoraConfig, sample_rate: f64) -> Self {
        FbStage {
            estimator: FbEstimator::new(&config.phy, sample_rate),
            ls_below_snr_db: config.ls_below_snr_db,
            ls_method: config.ls_method,
        }
    }

    /// The underlying estimator.
    pub fn estimator(&self) -> &FbEstimator {
        &self.estimator
    }

    /// The estimator the SNR policy selects for a delivery.
    pub fn method_for_snr(&self, snr_db: f64) -> FbMethod {
        if snr_db >= self.ls_below_snr_db {
            FbMethod::LinearRegression
        } else {
            self.ls_method
        }
    }

    /// Estimates the FB from the capture, reusing the onset picked by
    /// [`OnsetStage`]. The estimator's intermediates reuse the caller's
    /// arena.
    ///
    /// # Errors
    ///
    /// Returns [`SoftLoraError::Capture`] when the capture does not hold
    /// two chirps after the onset.
    pub fn estimate_with(
        &self,
        capture: &IqCapture,
        onset: &OnsetOutput,
        snr_db: f64,
        scratch: &mut DspScratch,
    ) -> Result<FbEstimate, SoftLoraError> {
        let noise_power = 10f64.powf(-snr_db / 10.0);
        self.estimator.estimate_from_capture_with(
            capture,
            onset.timestamp.onset_sample,
            self.method_for_snr(snr_db),
            noise_power,
            scratch,
        )
    }
}

/// Stage 6: LoRaWAN verification (MIC, counter, device lookup) and
/// synchronization-free record timestamping, one per server shard.
/// Sequential per device — frame counters are per-device monotonic state.
#[derive(Debug, Clone, Default)]
pub struct MacStage {
    lorawan: LorawanGateway,
}

impl MacStage {
    /// Builds an empty MAC stage.
    pub fn new() -> Self {
        MacStage { lorawan: LorawanGateway::new() }
    }

    /// Provisions a device's LoRaWAN session keys.
    pub fn provision(&mut self, dev_addr: u32, keys: DeviceKeys) {
        self.lorawan.provision(dev_addr, keys);
    }

    /// Verifies the frame and timestamps its records at the PHY arrival
    /// instant.
    pub fn verify(&mut self, bytes: &[u8], phy_arrival_s: f64) -> RxVerdict {
        self.lorawan.receive(bytes, phy_arrival_s)
    }

    /// Per-device last-accepted frame counters (state export).
    pub fn session_fcnts(&self) -> Vec<(u32, u16)> {
        self.lorawan.session_fcnts()
    }

    /// Reinstates a device's last-accepted frame counter (state restore);
    /// ignored for unprovisioned devices.
    pub fn restore_session_fcnt(&mut self, dev_addr: u32, fcnt: u16) {
        self.lorawan.restore_session_fcnt(dev_addr, fcnt);
    }

    /// Accepted/rejected frame totals (state export).
    pub fn frame_counts(&self) -> (u64, u64) {
        (self.lorawan.accepted_count(), self.lorawan.rejected_count())
    }

    /// Overwrites the accepted/rejected totals (state restore).
    pub fn restore_frame_counts(&mut self, accepted: u64, rejected: u64) {
        self.lorawan.restore_frame_counts(accepted, rejected);
    }
}

/// A stage timing sample: which stage ran and for how long, seconds.
pub type StageTiming = (Stage, f64);

/// Per-stage latency histograms in the process-wide telemetry registry
/// (`gateway_stage_ns{stage="radio"|…|"fb"}`; the server's shards record
/// the `detect` and `mac` series of the same family).
///
/// Handles are resolved once at pipeline construction; recording a
/// sample on the warm path is three relaxed atomic adds — the
/// zero-alloc pins (`zero_alloc_telemetry.rs`) cover this path.
#[derive(Debug, Clone)]
pub struct StageMetrics {
    histograms: [softlora_telemetry::Histogram; Stage::ALL.len()],
    /// Copies the radio heard whose capture could not be analysed
    /// (`gateway_unanalysed_copies_total`).
    unanalysed: softlora_telemetry::Counter,
}

impl StageMetrics {
    /// Resolves the six per-stage histogram handles and the
    /// unanalysed-copy counter.
    pub fn new() -> Self {
        let registry = softlora_telemetry::global();
        StageMetrics {
            histograms: Stage::ALL.map(|stage| {
                registry.histogram_with("gateway_stage_ns", &[("stage", stage.name())])
            }),
            unanalysed: registry.counter("gateway_unanalysed_copies_total"),
        }
    }

    /// Records one stage's elapsed wall time (seconds → nanoseconds).
    #[inline]
    pub fn record(&self, stage: Stage, elapsed_s: f64) {
        self.histograms[stage as usize].record((elapsed_s * 1e9) as u64);
    }
}

impl Default for StageMetrics {
    fn default() -> Self {
        StageMetrics::new()
    }
}

/// The front half's stage-timing samples, held inline: the front half
/// runs at most four stages, so a fixed-size array (instead of the
/// former `Vec<StageTiming>`) keeps per-frame telemetry off the heap —
/// part of the allocation-free steady state pinned by the
/// `softlora-bench` zero-allocation tests.
#[derive(Debug, Clone, Copy)]
pub struct StageTimings {
    len: u8,
    samples: [StageTiming; Self::CAPACITY],
}

impl StageTimings {
    /// The front half has four stages (radio → capture → onset → FB).
    pub const CAPACITY: usize = 4;

    /// An empty sample set.
    pub fn new() -> Self {
        StageTimings { len: 0, samples: [(Stage::RadioFrontEnd, 0.0); Self::CAPACITY] }
    }

    /// Records one stage's elapsed time.
    pub(crate) fn push(&mut self, stage: Stage, elapsed_s: f64) {
        assert!((self.len as usize) < Self::CAPACITY, "more samples than front-half stages");
        self.samples[self.len as usize] = (stage, elapsed_s);
        self.len += 1;
    }

    /// The recorded samples, in stage order.
    pub fn as_slice(&self) -> &[StageTiming] {
        &self.samples[..self.len as usize]
    }
}

impl Default for StageTimings {
    fn default() -> Self {
        StageTimings::new()
    }
}

impl std::ops::Deref for StageTimings {
    type Target = [StageTiming];

    fn deref(&self) -> &[StageTiming] {
        self.as_slice()
    }
}

/// Front-half result for one delivery: either the radio dropped it, or the
/// per-frame analysis (capture → onset → FB) completed.
#[derive(Debug, Clone)]
pub enum FrontFrame {
    /// The host never saw the frame; only [`Stage::RadioFrontEnd`] ran.
    NotReceived {
        /// The chip-level outcome.
        outcome: ReceptionOutcome,
        /// Timing of the stages that ran.
        timings: StageTimings,
    },
    /// The embarrassingly-parallel analysis completed.
    Analyzed(AnalyzedFrame),
}

/// Everything the stateful back half needs about an analysed delivery.
#[derive(Debug, Clone)]
pub struct AnalyzedFrame {
    /// Source address claimed in the (unverified) header.
    pub claimed_dev: u32,
    /// The frame's estimated frequency bias.
    pub fb: FbEstimate,
    /// The single onset pick and its gateway-clock mapping.
    pub onset: OnsetOutput,
    /// Timing of the front-half stages.
    pub timings: StageTimings,
}

/// One gateway's front half: the four stateless stages.
///
/// A [`crate::NetworkServer`] builds one per gateway and drives it from
/// `process_delivery` / `process_batch` (read it back with
/// [`crate::NetworkServer::pipeline`]); experiments that only need part
/// of the chain build one with [`Pipeline::new`] and call the stages
/// directly.
#[derive(Debug)]
pub struct Pipeline {
    config: SoftLoraConfig,
    /// Stage 1: commodity radio model.
    pub radio: RadioFrontEnd,
    /// Stage 2: SDR capture synthesis.
    pub capture: CaptureSynth,
    /// Stage 3: PHY onset timestamping.
    pub onset: OnsetStage,
    /// Stage 4: FB estimation.
    pub fb: FbStage,
    /// Per-stage latency histograms (process-wide registry handles).
    pub stage_metrics: StageMetrics,
}

impl Pipeline {
    /// Assembles the pipeline from a configuration and seed.
    ///
    /// Applies `config.fast_dsp` to the **process-wide** DSP kernel
    /// switch (see [`softlora_dsp::set_fast_kernels`]): scratch arenas
    /// and thread-local planners are shared across pipelines, so the
    /// kernel choice cannot be per-instance. Build pipelines before the
    /// first frame if mixing configurations.
    pub fn new(config: SoftLoraConfig, seed: u64) -> Self {
        softlora_dsp::set_fast_kernels(config.fast_dsp);
        let capture = CaptureSynth::new(&config, seed);
        let fb = FbStage::new(&config, capture.sample_rate());
        let onset = OnsetStage::new(PhyTimestamper::new(config.onset_method));
        Pipeline {
            radio: RadioFrontEnd::new(),
            capture,
            onset,
            fb,
            stage_metrics: StageMetrics::new(),
            config,
        }
    }

    /// The pipeline configuration.
    pub fn config(&self) -> &SoftLoraConfig {
        &self.config
    }

    /// Runs stages 1–4 for one delivery against a caller-owned scratch
    /// arena. Pure in `(seed, frame_index)`: safe to call concurrently for
    /// independent deliveries, one arena per worker. The whole per-frame
    /// signal chain (capture synthesis, onset pick, FB estimate) runs on
    /// pooled buffers and cached FFT plans; the ephemeral capture's I/Q
    /// vectors are recycled back into the arena before returning, so a
    /// warm worker analyses a delivery without heap allocations on the
    /// DSP path.
    ///
    /// # Errors
    ///
    /// Returns [`SoftLoraError`] only for infrastructure failures (capture
    /// synthesis or analysis windows); radio-level drops are data, not
    /// errors. So is a copy whose capture holds fewer than two chirps
    /// after its onset: it comes back as [`FrontFrame::NotReceived`] with
    /// [`ReceptionOutcome::NoSignal`] and counts in
    /// `gateway_unanalysed_copies_total`.
    pub fn front_half_with(
        &self,
        delivery: &Delivery,
        frame_index: u64,
        scratch: &mut DspScratch,
    ) -> Result<FrontFrame, SoftLoraError> {
        let mut timings = StageTimings::new();

        let t = Instant::now();
        let radio = self.radio.evaluate(&self.config, delivery);
        let elapsed = t.elapsed().as_secs_f64();
        timings.push(Stage::RadioFrontEnd, elapsed);
        self.stage_metrics.record(Stage::RadioFrontEnd, elapsed);
        if !radio.host_received {
            return Ok(FrontFrame::NotReceived { outcome: radio.outcome, timings });
        }

        let t = Instant::now();
        let captured =
            self.capture.synthesise_with(&self.config, delivery, frame_index, scratch)?;
        let elapsed = t.elapsed().as_secs_f64();
        timings.push(Stage::CaptureSynth, elapsed);
        self.stage_metrics.record(Stage::CaptureSynth, elapsed);

        let t = Instant::now();
        let onset = self.onset.pick_with(&captured.capture, delivery.arrival_global_s, scratch);
        let onset = match onset {
            Ok(onset) => onset,
            Err(e) => {
                captured.recycle(scratch);
                return Err(e);
            }
        };
        let elapsed = t.elapsed().as_secs_f64();
        timings.push(Stage::Onset, elapsed);
        self.stage_metrics.record(Stage::Onset, elapsed);

        // A copy at the demodulation floor can have its onset picked so
        // late that two chirps no longer follow it. That is data, not an
        // infrastructure failure: the copy is unanalysed, so it drops out
        // of its group's evidence like a copy the radio never heard.
        let onset_sample = onset.timestamp.onset_sample;
        if self.fb.estimator().second_chirp_start(captured.capture.len(), onset_sample).is_none() {
            captured.recycle(scratch);
            self.stage_metrics.unanalysed.inc();
            return Ok(FrontFrame::NotReceived { outcome: ReceptionOutcome::NoSignal, timings });
        }

        let t = Instant::now();
        let fb = self.fb.estimate_with(&captured.capture, &onset, delivery.snr_db, scratch);
        captured.recycle(scratch);
        let fb = fb?;
        let elapsed = t.elapsed().as_secs_f64();
        timings.push(Stage::Fb, elapsed);
        self.stage_metrics.record(Stage::Fb, elapsed);

        // The replay check needs the *claimed* source; peeking the header
        // requires no keys and no state.
        let claimed_dev = DataFrame::peek_header(&delivery.bytes)
            .map(|(_, addr, _)| addr)
            .unwrap_or(delivery.dev_addr);

        Ok(FrontFrame::Analyzed(AnalyzedFrame { claimed_dev, fb, onset, timings }))
    }
}
