//! The SoftLoRa gateway: the full attack-aware timestamping pipeline
//! (paper §5.3, Fig. 4), staged and batchable.
//!
//! Per uplink delivery the gateway drives the six stages of
//! [`crate::pipeline`]:
//!
//! 1. [`crate::pipeline::RadioFrontEnd`] — the commodity radio model decides
//!    whether the frame survives any jamming (silent drops stay silent);
//! 2. [`crate::pipeline::CaptureSynth`] — the SDR front-end captures the first
//!    preamble chirps at 2.4 Msps;
//! 3. [`crate::pipeline::OnsetStage`] — the AIC picker timestamps the signal
//!    onset to microseconds, **once**; the pick feeds both the timestamp
//!    and the FB window;
//! 4. [`crate::pipeline::FbStage`] — the FB estimator extracts the frame's
//!    carrier bias from the second chirp;
//! 5. [`crate::pipeline::DetectStage`] — the replay detector compares the FB with
//!    the claimed device's history: flagged frames are dropped *before*
//!    any record is timestamped, and never update the database;
//! 6. [`crate::pipeline::MacStage`] — the LoRaWAN layer verifies MIC and counter
//!    and timestamps the records at the PHY arrival instant.
//!
//! Stages 1–4 are pure per-delivery functions; [`SoftLoraGateway::process_batch`]
//! runs them for independent deliveries in parallel and then replays the
//! stateful tail sequentially in arrival order, yielding verdicts
//! bit-identical to a sequential [`SoftLoraGateway::process`] loop.

use crate::builder::GatewayBuilder;
use crate::config::SoftLoraConfig;
use crate::fan_out::{fan_out, host_arenas};
use crate::fb_db::FbDatabase;
use crate::fb_estimator::FbEstimate;
use crate::observer::{AcceptEvent, GatewayObserver, RejectEvent, ReplayFlagEvent, Stage};
use crate::pipeline::{AnalyzedFrame, FrontFrame, Pipeline, StageTiming};
use crate::replay_detect::{DetectionStats, ReplayVerdict};
use crate::SoftLoraError;
use softlora_dsp::scratch::DspScratch;
use softlora_lorawan::{DeviceKeys, ReceivedUplink, RxVerdict};
use softlora_phy::rn2483::ReceptionOutcome;
use softlora_phy::PhyConfig;
use softlora_sim::Delivery;
use std::time::Instant;

/// Outcome of processing one delivery.
#[derive(Debug, Clone, PartialEq)]
pub enum SoftLoraVerdict {
    /// Frame accepted: records carry trustworthy timestamps.
    Accepted {
        /// The verified, timestamped uplink.
        uplink: ReceivedUplink,
        /// The frame's estimated FB.
        fb: FbEstimate,
        /// PHY-layer arrival timestamp (gateway clock), seconds.
        phy_arrival_s: f64,
        /// Whether the FB database was still warming up for this device.
        learning: bool,
    },
    /// The FB check flagged the frame; it was dropped without
    /// timestamping.
    ReplayDetected {
        /// Claimed source address.
        dev_addr: u32,
        /// FB deviation from the tracked centre, Hz.
        deviation_hz: f64,
        /// Band that was exceeded, Hz.
        band_hz: f64,
    },
    /// The radio never handed the frame to the host (jamming or below the
    /// demodulation floor).
    NotReceived {
        /// What the chip experienced.
        outcome: ReceptionOutcome,
    },
    /// The LoRaWAN layer rejected the frame (MIC, counter, unknown
    /// device).
    LorawanRejected {
        /// The rejection reason, printable.
        reason: String,
    },
}

impl SoftLoraVerdict {
    /// Whether the frame was accepted and timestamped.
    pub fn is_accepted(&self) -> bool {
        matches!(self, SoftLoraVerdict::Accepted { .. })
    }

    /// Whether a replay was flagged.
    pub fn is_replay_detected(&self) -> bool {
        matches!(self, SoftLoraVerdict::ReplayDetected { .. })
    }
}

/// The SoftLoRa gateway (commodity radio + SDR receiver + defence).
pub struct SoftLoraGateway {
    pipeline: Pipeline,
    observers: Vec<Box<dyn GatewayObserver>>,
    /// Deliveries processed so far; doubles as the per-delivery random
    /// stream index, so batch and sequential processing draw identically.
    frames_seen: u64,
    /// One DSP arena per batch worker; [`SoftLoraGateway::process`] uses
    /// the first.
    arenas: Vec<DspScratch>,
}

impl std::fmt::Debug for SoftLoraGateway {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SoftLoraGateway")
            .field("pipeline", &self.pipeline)
            .field("observers", &self.observers.len())
            .field("frames_seen", &self.frames_seen)
            .finish()
    }
}

impl SoftLoraGateway {
    /// Creates a gateway with the given configuration; `seed` controls the
    /// SDR oscillator draw and all per-delivery randomness (deterministic
    /// runs).
    pub fn new(config: SoftLoraConfig, seed: u64) -> Self {
        SoftLoraGateway {
            pipeline: Pipeline::new(config, seed),
            observers: Vec::new(),
            frames_seen: 0,
            arenas: host_arenas(),
        }
    }

    /// Starts a [`GatewayBuilder`] from the paper-faithful defaults for
    /// `phy` — the preferred way to construct a gateway.
    pub fn builder(phy: PhyConfig) -> GatewayBuilder {
        GatewayBuilder::new(phy)
    }

    /// Provisions a device's LoRaWAN session keys.
    pub fn provision(&mut self, dev_addr: u32, keys: DeviceKeys) {
        self.pipeline.mac.provision(dev_addr, keys);
    }

    /// Pre-loads a device's FB history (offline database construction,
    /// paper §7.2).
    pub fn preload_fb(&mut self, dev_addr: u32, fbs_hz: &[f64]) {
        self.pipeline.detect.preload(dev_addr, fbs_hz);
    }

    /// Attaches an event observer (see [`crate::observer`]).
    pub fn attach_observer(&mut self, observer: Box<dyn GatewayObserver>) {
        self.observers.push(observer);
    }

    /// The SDR receiver's oscillator bias (δRx), Hz.
    pub fn receiver_bias_hz(&self) -> f64 {
        self.pipeline.capture.receiver_bias_hz()
    }

    /// Detection statistics accumulated so far.
    pub fn detection_stats(&self) -> DetectionStats {
        self.pipeline.detect.stats()
    }

    /// Read access to the FB database.
    pub fn fb_database(&self) -> &FbDatabase {
        self.pipeline.detect.db()
    }

    /// The gateway configuration.
    pub fn config(&self) -> &SoftLoraConfig {
        self.pipeline.config()
    }

    /// The staged pipeline (read access, e.g. for stage-level telemetry).
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// How many times the onset picker has run (exactly once per frame
    /// that reached the SDR path).
    pub fn onset_picker_runs(&self) -> u64 {
        self.pipeline.onset.picker_runs()
    }

    /// Deliveries processed so far.
    pub fn frames_seen(&self) -> u64 {
        self.frames_seen
    }

    /// Processes one delivery through the full pipeline.
    ///
    /// # Errors
    ///
    /// Returns [`SoftLoraError`] only for infrastructure failures (capture
    /// synthesis); protocol-level rejections are verdicts, not errors.
    pub fn process(&mut self, delivery: &Delivery) -> Result<SoftLoraVerdict, SoftLoraError> {
        let frame_index = self.frames_seen;
        self.frames_seen += 1;
        let front = self.pipeline.front_half_with(delivery, frame_index, &mut self.arenas[0])?;
        Ok(self.commit(delivery, frame_index, front))
    }

    /// Processes a batch of deliveries: the embarrassingly-parallel front
    /// half (radio gate, capture synthesis, onset pick, FB estimation)
    /// runs across worker threads, then the stateful detector/MAC tail is
    /// replayed **sequentially in slice order**.
    ///
    /// Verdicts are bit-identical to calling [`SoftLoraGateway::process`]
    /// on each delivery in order: per-delivery randomness is derived from
    /// `(gateway seed, frame index)`, not from a shared sequential stream.
    ///
    /// # Errors
    ///
    /// On an infrastructure failure for delivery `k`, deliveries `0..k`
    /// are committed (exactly as the sequential loop would have) and the
    /// error is returned. Note that the parallel front half may already
    /// have run for deliveries after `k` before the error surfaces, so
    /// [`SoftLoraGateway::onset_picker_runs`] can exceed the committed
    /// frame count on this path; the once-per-frame invariant holds for
    /// every batch that returns `Ok`.
    pub fn process_batch(
        &mut self,
        deliveries: &[Delivery],
    ) -> Result<Vec<SoftLoraVerdict>, SoftLoraError> {
        let start = self.frames_seen;
        let indexed: Vec<(u64, &Delivery)> =
            deliveries.iter().enumerate().map(|(k, d)| (start + k as u64, d)).collect();
        let pipeline = &self.pipeline;
        let fronts = fan_out(&mut self.arenas, indexed, |scratch, (index, d)| {
            pipeline.front_half_with(d, index, scratch)
        });

        let mut verdicts = Vec::with_capacity(deliveries.len());
        for (k, front) in fronts.into_iter().enumerate() {
            let frame_index = start + k as u64;
            self.frames_seen = frame_index + 1;
            match front {
                Ok(front) => verdicts.push(self.commit(&deliveries[k], frame_index, front)),
                Err(e) => return Err(e),
            }
        }
        Ok(verdicts)
    }

    /// Runs the stateful back half for one front-half result and notifies
    /// observers. Sequential by construction.
    fn commit(
        &mut self,
        delivery: &Delivery,
        frame_index: u64,
        front: FrontFrame,
    ) -> SoftLoraVerdict {
        match front {
            FrontFrame::NotReceived { outcome, timings } => {
                self.notify_stages(frame_index, &timings);
                self.notify(|o| o.on_reject(frame_index, RejectEvent::NotReceived { outcome }));
                SoftLoraVerdict::NotReceived { outcome }
            }
            FrontFrame::Analyzed(frame) => self.commit_analyzed(delivery, frame_index, frame),
        }
    }

    fn commit_analyzed(
        &mut self,
        delivery: &Delivery,
        frame_index: u64,
        frame: AnalyzedFrame,
    ) -> SoftLoraVerdict {
        let AnalyzedFrame { claimed_dev, fb, onset, timings } = frame;
        self.notify_stages(frame_index, &timings);

        // 5. Replay check against the claimed source, BEFORE consuming any
        // LoRaWAN state.
        let t = Instant::now();
        let verdict = self.pipeline.detect.check(claimed_dev, fb.delta_hz, delivery.is_replay);
        let detect_s = t.elapsed().as_secs_f64();
        self.pipeline.stage_metrics.record(Stage::Detect, detect_s);
        self.notify(|o| o.on_stage(frame_index, Stage::Detect, detect_s));
        if let ReplayVerdict::ReplayDetected { deviation_hz, band_hz } = verdict {
            let event = ReplayFlagEvent { dev_addr: claimed_dev, deviation_hz, band_hz };
            self.notify(|o| o.on_replay_flag(frame_index, event));
            return SoftLoraVerdict::ReplayDetected {
                dev_addr: claimed_dev,
                deviation_hz,
                band_hz,
            };
        }

        // 6. LoRaWAN verification + synchronization-free timestamping at
        // the PHY arrival instant.
        let t = Instant::now();
        let rx = self.pipeline.mac.verify(&delivery.bytes, onset.phy_arrival_s);
        let mac_s = t.elapsed().as_secs_f64();
        self.pipeline.stage_metrics.record(Stage::Mac, mac_s);
        self.notify(|o| o.on_stage(frame_index, Stage::Mac, mac_s));
        match rx {
            RxVerdict::Accepted(uplink) => {
                // Learn this frame's FB only once the MAC layer vouches
                // for it.
                self.pipeline.detect.learn(claimed_dev, fb.delta_hz);
                let learning = matches!(verdict, ReplayVerdict::LearningPhase);
                let event = AcceptEvent {
                    uplink: &uplink,
                    fb: &fb,
                    timestamp: onset.timestamp,
                    phy_arrival_s: onset.phy_arrival_s,
                    learning,
                };
                self.notify(|o| o.on_accept(frame_index, event));
                SoftLoraVerdict::Accepted {
                    uplink,
                    fb,
                    phy_arrival_s: onset.phy_arrival_s,
                    learning,
                }
            }
            RxVerdict::UnknownDevice { dev_addr } => {
                let reason = format!("unknown device {dev_addr:#x}");
                self.notify(|o| o.on_reject(frame_index, RejectEvent::Lorawan { reason: &reason }));
                SoftLoraVerdict::LorawanRejected { reason }
            }
            RxVerdict::Rejected(e) => {
                let reason = e.to_string();
                self.notify(|o| o.on_reject(frame_index, RejectEvent::Lorawan { reason: &reason }));
                SoftLoraVerdict::LorawanRejected { reason }
            }
        }
    }

    fn notify_stages(&mut self, frame_index: u64, timings: &[StageTiming]) {
        for &(stage, elapsed_s) in timings {
            self.notify(|o| o.on_stage(frame_index, stage, elapsed_s));
        }
    }

    fn notify(&mut self, mut f: impl FnMut(&mut dyn GatewayObserver)) {
        for observer in &mut self.observers {
            f(observer.as_mut());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observer::GatewayStats;
    use softlora_lorawan::{ClassADevice, DeviceConfig};
    use softlora_phy::{PhyConfig, SpreadingFactor};
    use softlora_sim::Delivery;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn phy() -> PhyConfig {
        PhyConfig::uplink(SpreadingFactor::Sf7)
    }

    fn quick_gateway(seed: u64) -> GatewayBuilder {
        SoftLoraGateway::builder(phy()).adc_quantisation(false).seed(seed)
    }

    /// Builds a delivery from a real device transmission.
    fn delivery(
        dev: &mut ClassADevice,
        t: f64,
        bias_hz: f64,
        snr_db: f64,
        delay_s: f64,
        is_replay: bool,
    ) -> Delivery {
        dev.sense(777, t - 1.0).unwrap();
        let tx = dev.try_transmit(t).unwrap();
        Delivery {
            bytes: tx.bytes,
            dev_addr: dev.dev_addr(),
            arrival_global_s: t + delay_s + 4e-6,
            snr_db,
            carrier_bias_hz: bias_hz,
            carrier_phase: 0.7,
            sf: SpreadingFactor::Sf7,
            jamming: None,
            is_replay,
        }
    }

    fn setup() -> (ClassADevice, SoftLoraGateway) {
        let dev_cfg = DeviceConfig::new(0x2601_0001, phy());
        let gw = quick_gateway(99).provision(dev_cfg.dev_addr, dev_cfg.keys.clone()).build();
        (ClassADevice::new(dev_cfg), gw)
    }

    #[test]
    fn genuine_frames_accept_and_learn() {
        let (mut dev, mut gw) = setup();
        let device_bias = -22_000.0;
        for k in 0..5 {
            let t = 100.0 + 200.0 * k as f64;
            let d = delivery(&mut dev, t, device_bias + 20.0 * (k as f64 - 2.0), 10.0, 0.0, false);
            let v = gw.process(&d).unwrap();
            assert!(v.is_accepted(), "frame {k}: {v:?}");
        }
        assert!(gw.fb_database().history_len(0x2601_0001) >= 5);
        // The tracked centre reflects δTx − δRx.
        let center = gw.fb_database().tracked_center_hz(0x2601_0001).unwrap();
        let expect = device_bias - gw.receiver_bias_hz();
        assert!((center - expect).abs() < 100.0, "center {center} expect {expect}");
    }

    #[test]
    fn replay_with_usrp_bias_is_detected_and_dropped() {
        let (mut dev, mut gw) = setup();
        let device_bias = -22_000.0;
        // Build history.
        for k in 0..5 {
            let d = delivery(&mut dev, 100.0 + 200.0 * k as f64, device_bias, 10.0, 0.0, false);
            assert!(gw.process(&d).unwrap().is_accepted());
        }
        // Frame-delay attack: original suppressed, replay arrives 30 s late
        // with the USRP's −600 Hz chain bias.
        let d = delivery(&mut dev, 1100.0, device_bias - 600.0, 10.0, 30.0, true);
        let v = gw.process(&d).unwrap();
        assert!(v.is_replay_detected(), "{v:?}");
        if let SoftLoraVerdict::ReplayDetected { deviation_hz, .. } = v {
            assert!((deviation_hz + 600.0).abs() < 250.0, "deviation {deviation_hz}");
        }
        // Counter state untouched: a later legitimate frame still accepts.
        let d = delivery(&mut dev, 1300.0, device_bias, 10.0, 0.0, false);
        assert!(gw.process(&d).unwrap().is_accepted());
        let stats = gw.detection_stats();
        assert_eq!(stats.true_positives, 1);
        assert_eq!(stats.false_positives, 0);
    }

    #[test]
    fn timestamps_are_millisecond_accurate() {
        let (mut dev, mut gw) = setup();
        for k in 0..3 {
            let d = delivery(&mut dev, 100.0 + 200.0 * k as f64, -20_000.0, 10.0, 0.0, false);
            let v = gw.process(&d).unwrap();
            if let SoftLoraVerdict::Accepted { uplink, .. } = v {
                // Record's true time of interest was t − 1.
                let t = 100.0 + 200.0 * k as f64;
                let err = (uplink.records[0].global_time_s - (t - 1.0)).abs();
                assert!(err < 2e-3, "timestamp error {err}");
            } else {
                panic!("{v:?}");
            }
        }
    }

    #[test]
    fn jammed_frame_is_silently_dropped() {
        let (mut dev, mut gw) = setup();
        let mut d = delivery(&mut dev, 100.0, -20_000.0, 10.0, 0.0, false);
        d.jamming = Some(softlora_phy::rn2483::JammingAttempt {
            onset_s: 0.02, // inside the SF7 effective window
            relative_power_db: 10.0,
        });
        let v = gw.process(&d).unwrap();
        match v {
            SoftLoraVerdict::NotReceived { outcome } => {
                assert_eq!(outcome, ReceptionOutcome::SilentDrop);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn below_floor_frame_not_received() {
        let (mut dev, mut gw) = setup();
        let d = delivery(&mut dev, 100.0, -20_000.0, -15.0, 0.0, false);
        let v = gw.process(&d).unwrap();
        assert!(matches!(v, SoftLoraVerdict::NotReceived { outcome: ReceptionOutcome::NoSignal }));
    }

    #[test]
    fn unknown_device_rejected_after_fb_stage() {
        let dev_cfg = DeviceConfig::new(0xBEEF, phy());
        let mut dev = ClassADevice::new(dev_cfg);
        let mut gw = quick_gateway(5).build();
        let d = delivery(&mut dev, 100.0, -20_000.0, 10.0, 0.0, false);
        let v = gw.process(&d).unwrap();
        assert!(matches!(v, SoftLoraVerdict::LorawanRejected { .. }));
    }

    #[test]
    fn preloaded_database_flags_first_replay() {
        let (mut dev, mut gw) = setup();
        // Offline-built database (paper §7.2).
        let expected_center = -22_000.0 - gw.receiver_bias_hz();
        gw.preload_fb(0x2601_0001, &[expected_center; 8]);
        let d = delivery(&mut dev, 100.0, -22_000.0 - 700.0, 10.0, 60.0, true);
        let v = gw.process(&d).unwrap();
        assert!(v.is_replay_detected(), "{v:?}");
    }

    #[test]
    fn low_snr_path_uses_ls_estimator() {
        let (mut dev, mut gw) = setup();
        // SNR −7 dB < the −5 dB threshold -> matched-filter LS path; the
        // frame still decodes (SF7 floor −7.5) and the FB must be close.
        let d = delivery(&mut dev, 100.0, -21_000.0, -7.0, 0.0, false);
        let v = gw.process(&d).unwrap();
        if let SoftLoraVerdict::Accepted { fb, .. } = v {
            assert_eq!(fb.method, crate::FbMethod::MatchedFilter);
            // At this SNR the onset-pick error (tens of microseconds)
            // couples into the FB estimate as chirp-slope × timing error —
            // the physical reason the paper calls µs timestamping a
            // prerequisite of FB estimation. The estimate is therefore only
            // required to stay within the oscillator search range here; the
            // controlled-onset accuracy claims are covered by the
            // fb_estimator tests and the Fig. 14 repro, which follow the
            // paper in taking the onset from the clean trace.
            assert!(fb.delta_hz.abs() < 34_000.0, "fb {}", fb.delta_hz);
        } else {
            panic!("{v:?}");
        }
    }

    #[test]
    fn onset_picker_runs_once_per_processed_frame() {
        let (mut dev, mut gw) = setup();
        for k in 0..4 {
            let d = delivery(&mut dev, 100.0 + 200.0 * k as f64, -22_000.0, 10.0, 0.0, false);
            gw.process(&d).unwrap();
        }
        assert_eq!(gw.onset_picker_runs(), 4);
        assert_eq!(gw.frames_seen(), 4);
    }

    #[test]
    fn observers_see_every_outcome() {
        let stats = Rc::new(RefCell::new(GatewayStats::default()));
        let dev_cfg = DeviceConfig::new(0x2601_0001, phy());
        let mut gw = quick_gateway(99)
            .provision(dev_cfg.dev_addr, dev_cfg.keys.clone())
            .observer(Box::new(Rc::clone(&stats)))
            .build();
        let mut dev = ClassADevice::new(dev_cfg);
        // 5 accepted (learning + genuine), then one replay.
        for k in 0..5 {
            let d = delivery(&mut dev, 100.0 + 200.0 * k as f64, -22_000.0, 10.0, 0.0, false);
            gw.process(&d).unwrap();
        }
        let d = delivery(&mut dev, 1100.0, -22_700.0, 10.0, 30.0, true);
        gw.process(&d).unwrap();
        // And one below-floor frame.
        let d = delivery(&mut dev, 1300.0, -22_000.0, -15.0, 0.0, false);
        gw.process(&d).unwrap();

        let s = stats.borrow();
        assert_eq!(s.accepted, 5);
        assert_eq!(s.replays_flagged, 1);
        assert_eq!(s.not_received, 1);
        assert_eq!(s.frames(), 7);
        // The onset stage ran once per frame that reached the SDR path.
        assert_eq!(s.stage_runs(Stage::Onset), 6);
        assert_eq!(s.stage_runs(Stage::RadioFrontEnd), 7);
        // The MAC stage never ran for the flagged or dropped frames.
        assert_eq!(s.stage_runs(Stage::Mac), 5);
    }
}
