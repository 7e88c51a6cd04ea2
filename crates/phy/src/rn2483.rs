//! Behavioural model of the RN2483/SX1276 receiver under interference
//! (paper §4.3).
//!
//! The paper's attack experiments characterise how a commodity LoRa chip
//! reacts to a jamming frame that starts at different offsets into a
//! legitimate reception. This module reproduces that observable behaviour —
//! which frames the host sees and whether any alert is raised — without
//! waveform-level simulation, so the network simulator can evaluate
//! thousands of frames cheaply.

use crate::channel::CAPTURE_THRESHOLD_DB;
use crate::frame_timing::{jamming_windows, JammingCalibration, JammingWindows};
use crate::params::PhyConfig;

/// What the gateway host observes for one legitimate frame under (possible)
/// jamming.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReceptionOutcome {
    /// No interference (or interference too weak): the legitimate frame is
    /// received normally.
    Legitimate,
    /// The jammer started early enough (before `w1`) and strong enough that
    /// the chip locked onto the *jamming* frame instead; the host receives
    /// the jammer's frame.
    JammerCaptured,
    /// The chip aborted reception without telling the host anything — the
    /// stealthy outcome the frame-delay attack needs (onset in `[w1, w2]`).
    SilentDrop,
    /// The chip decoded a frame whose integrity check failed and raised a
    /// corruption alert (onset in `[w2, w3]`).
    CrcAlert,
    /// The jammer started after `w3`: both frames are received
    /// sequentially.
    BothReceived,
    /// The legitimate frame was below the demodulation floor regardless of
    /// jamming.
    NoSignal,
}

impl ReceptionOutcome {
    /// Whether this outcome is *stealthy* from the attacker's point of
    /// view: the legitimate frame is suppressed and the gateway raises no
    /// alert.
    pub fn is_stealthy_suppression(self) -> bool {
        matches!(self, ReceptionOutcome::SilentDrop)
    }

    /// Whether the gateway's host sees any frame at all.
    pub fn host_sees_frame(self) -> bool {
        matches!(
            self,
            ReceptionOutcome::Legitimate
                | ReceptionOutcome::JammerCaptured
                | ReceptionOutcome::BothReceived
        )
    }
}

/// Behavioural RN2483 receiver model.
#[derive(Debug, Clone)]
pub struct Rn2483Model {
    calibration: JammingCalibration,
}

impl Default for Rn2483Model {
    fn default() -> Self {
        Self::new()
    }
}

impl Rn2483Model {
    /// Creates the model with the Table-1 calibration.
    pub fn new() -> Self {
        Rn2483Model { calibration: JammingCalibration::default() }
    }

    /// The calibration in use.
    pub fn calibration(&self) -> &JammingCalibration {
        &self.calibration
    }

    /// The jamming windows for a frame.
    pub fn windows(&self, cfg: &PhyConfig, payload_len: usize) -> JammingWindows {
        jamming_windows(cfg, payload_len, &self.calibration)
    }

    /// Determines the reception outcome of a legitimate frame.
    ///
    /// * `legit_snr_db` — SNR of the legitimate frame at the gateway;
    /// * `jam` — optional jamming transmission: onset relative to the
    ///   legitimate frame start (seconds; may be negative) and the jamming
    ///   signal's power *relative to the legitimate signal* in dB.
    pub fn receive(
        &self,
        cfg: &PhyConfig,
        payload_len: usize,
        legit_snr_db: f64,
        jam: Option<JammingAttempt>,
    ) -> ReceptionOutcome {
        if legit_snr_db < cfg.sf.demod_floor_db() {
            return ReceptionOutcome::NoSignal;
        }
        let Some(jam) = jam else {
            return ReceptionOutcome::Legitimate;
        };
        // A jammer more than the capture margin *below* the legitimate
        // signal cannot corrupt the reception.
        if jam.relative_power_db < -CAPTURE_THRESHOLD_DB {
            return ReceptionOutcome::Legitimate;
        }
        let w = self.windows(cfg, payload_len);
        if jam.onset_s < w.w1 {
            // The chip has not committed to the legitimate preamble yet; a
            // sufficiently strong jammer steals the lock. A comparable-power
            // jammer still prevents either frame from decoding — treat as
            // silent drop (neither preamble wins cleanly).
            if jam.relative_power_db >= CAPTURE_THRESHOLD_DB {
                ReceptionOutcome::JammerCaptured
            } else {
                ReceptionOutcome::SilentDrop
            }
        } else if jam.onset_s < w.w2 {
            ReceptionOutcome::SilentDrop
        } else if jam.onset_s < w.w3 {
            ReceptionOutcome::CrcAlert
        } else {
            ReceptionOutcome::BothReceived
        }
    }
}

/// A jamming transmission overlapping a legitimate frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JammingAttempt {
    /// Jamming onset relative to the legitimate frame's onset, seconds.
    pub onset_s: f64,
    /// Jammer power at the victim receiver, relative to the legitimate
    /// signal's power there, in dB.
    pub relative_power_db: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{PhyConfig, SpreadingFactor};

    fn cfg() -> PhyConfig {
        PhyConfig::uplink(SpreadingFactor::Sf7)
    }

    fn strong_jam(onset_s: f64) -> Option<JammingAttempt> {
        Some(JammingAttempt { onset_s, relative_power_db: 10.0 })
    }

    #[test]
    fn no_jam_receives_legitimate() {
        let m = Rn2483Model::new();
        assert_eq!(m.receive(&cfg(), 20, 5.0, None), ReceptionOutcome::Legitimate);
    }

    #[test]
    fn below_floor_is_no_signal() {
        let m = Rn2483Model::new();
        assert_eq!(m.receive(&cfg(), 20, -10.0, None), ReceptionOutcome::NoSignal);
        // Jamming does not resurrect an undecodable frame.
        assert_eq!(m.receive(&cfg(), 20, -10.0, strong_jam(0.01)), ReceptionOutcome::NoSignal);
    }

    #[test]
    fn weak_jammer_is_harmless() {
        let m = Rn2483Model::new();
        let jam = Some(JammingAttempt { onset_s: 0.02, relative_power_db: -10.0 });
        assert_eq!(m.receive(&cfg(), 20, 5.0, jam), ReceptionOutcome::Legitimate);
    }

    #[test]
    fn early_strong_jam_captures_receiver() {
        let m = Rn2483Model::new();
        // Before w1 = 5 chirps ≈ 5.12 ms.
        assert_eq!(m.receive(&cfg(), 20, 5.0, strong_jam(0.002)), ReceptionOutcome::JammerCaptured);
    }

    #[test]
    fn early_comparable_jam_is_silent() {
        let m = Rn2483Model::new();
        let jam = Some(JammingAttempt { onset_s: 0.002, relative_power_db: 0.0 });
        assert_eq!(m.receive(&cfg(), 20, 5.0, jam), ReceptionOutcome::SilentDrop);
    }

    #[test]
    fn effective_window_silently_drops() {
        let m = Rn2483Model::new();
        let w = m.windows(&cfg(), 20);
        let mid = (w.w1 + w.w2) / 2.0;
        assert_eq!(m.receive(&cfg(), 20, 5.0, strong_jam(mid)), ReceptionOutcome::SilentDrop);
        assert!(m.receive(&cfg(), 20, 5.0, strong_jam(mid)).is_stealthy_suppression());
    }

    #[test]
    fn late_jam_raises_crc_alert() {
        let m = Rn2483Model::new();
        let w = m.windows(&cfg(), 20);
        let late = (w.w2 + w.w3) / 2.0;
        assert_eq!(m.receive(&cfg(), 20, 5.0, strong_jam(late)), ReceptionOutcome::CrcAlert);
    }

    #[test]
    fn very_late_jam_both_received() {
        let m = Rn2483Model::new();
        let w = m.windows(&cfg(), 20);
        assert_eq!(
            m.receive(&cfg(), 20, 5.0, strong_jam(w.w3 + 0.01)),
            ReceptionOutcome::BothReceived
        );
    }

    #[test]
    fn outcome_sweep_is_monotone_in_onset() {
        // Sweeping the onset must walk through the outcome sequence in
        // order: capture -> silent -> alert -> both.
        let m = Rn2483Model::new();
        let w = m.windows(&cfg(), 30);
        let mut seen = Vec::new();
        let mut onset = 0.0;
        while onset < w.w3 + 0.05 {
            let o = m.receive(&cfg(), 30, 5.0, strong_jam(onset));
            if seen.last() != Some(&o) {
                seen.push(o);
            }
            onset += 0.001;
        }
        assert_eq!(
            seen,
            vec![
                ReceptionOutcome::JammerCaptured,
                ReceptionOutcome::SilentDrop,
                ReceptionOutcome::CrcAlert,
                ReceptionOutcome::BothReceived
            ]
        );
    }

    #[test]
    fn host_visibility_classification() {
        assert!(ReceptionOutcome::Legitimate.host_sees_frame());
        assert!(ReceptionOutcome::JammerCaptured.host_sees_frame());
        assert!(ReceptionOutcome::BothReceived.host_sees_frame());
        assert!(!ReceptionOutcome::SilentDrop.host_sees_frame());
        assert!(!ReceptionOutcome::CrcAlert.host_sees_frame());
        assert!(!ReceptionOutcome::NoSignal.host_sees_frame());
    }
}
