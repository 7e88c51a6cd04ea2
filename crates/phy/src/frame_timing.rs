//! Frame timing decomposition and the stealthy-jamming windows of paper
//! Table 1.
//!
//! The paper identifies three critical time offsets after the onset `t0` of
//! a legitimate frame transmission:
//!
//! * jam onset in `[t0, t0+w1]` — the victim re-locks onto the (stronger)
//!   jamming preamble and receives the *jamming* frame;
//! * jam onset in `[t0+w1, t0+w2]` — the **effective attack window**: the
//!   victim decodes nothing and raises no alert (silent drop);
//! * jam onset in `[t0+w2, t0+w3]` — the victim reports frame corruption
//!   (CRC alert);
//! * jam onset after `t0+w3` — both frames are received sequentially.

use crate::params::PhyConfig;

/// Full timing decomposition of a frame, in seconds from the frame onset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameTiming {
    /// One chirp (symbol) time.
    pub chirp_time: f64,
    /// End of the preamble up-chirps.
    pub preamble_end: f64,
    /// End of the sync word + SFD (payload section start).
    pub payload_start: f64,
    /// End of the header interleaving block.
    pub header_end: f64,
    /// End of the whole frame (total air time).
    pub frame_end: f64,
}

impl FrameTiming {
    /// Computes the timing of a frame with `payload_len` payload bytes.
    pub fn of(cfg: &PhyConfig, payload_len: usize) -> Self {
        let t = cfg.chirp_time();
        FrameTiming {
            chirp_time: t,
            preamble_end: cfg.preamble_time(),
            payload_start: (cfg.preamble_chirps as f64 + 4.25) * t,
            header_end: cfg.header_end_time(),
            frame_end: cfg.airtime(payload_len),
        }
    }
}

/// The three jamming windows of paper Table 1, in seconds after the frame
/// onset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JammingWindows {
    /// Before `w1`: the gateway re-locks the jammer's preamble and receives
    /// the jamming frame.
    pub w1: f64,
    /// Between `w1` and `w2`: silent drop — the effective attack window.
    pub w2: f64,
    /// Between `w2` and `w3`: CRC-alert; after `w3`: both frames decode.
    pub w3: f64,
}

impl JammingWindows {
    /// Length of the effective (stealthy) attack window, `w2 − w1`.
    pub fn effective_window(&self) -> f64 {
        self.w2 - self.w1
    }
}

/// Calibration of the RN2483 receiver behaviour used to derive the windows.
///
/// The *mechanisms* come from the paper's §4.3 analysis; two constants are
/// calibrated against the measured Table 1 values (`repro_table1` prints
/// the model's windows beside the paper's):
///
/// * `lock_chirps = 5`: the chip locks the legitimate preamble from the 6th
///   chirp; jamming that starts earlier captures the receiver instead.
/// * `abandon_fraction ≈ 0.67`: when jamming corrupts more than about a
///   third of the frame (onset before ~2/3 of the air time), the chip
///   abandons reception silently; later corruption yields a decoded-but-
///   CRC-failed frame and an alert. The measured `w2` in Table 1 tracks
///   ~0.67 · airtime across all SF/payload rows (and is never below the end
///   of the header, whose corruption is always silent).
/// * `decode_latency_s ≈ 0.09`: fixed post-frame processing time the chip
///   needs before it can receive again; `w3 = airtime + latency`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JammingCalibration {
    /// Preamble chirps after which the receiver is committed to the
    /// legitimate frame.
    pub lock_chirps: f64,
    /// Fraction of the air time before which jamming causes a silent
    /// abandon rather than a CRC alert.
    pub abandon_fraction: f64,
    /// Post-frame decode/turnaround latency in seconds.
    pub decode_latency_s: f64,
}

impl Default for JammingCalibration {
    fn default() -> Self {
        JammingCalibration { lock_chirps: 5.0, abandon_fraction: 0.67, decode_latency_s: 0.09 }
    }
}

/// Computes the jamming windows for a frame configuration and payload size.
pub fn jamming_windows(
    cfg: &PhyConfig,
    payload_len: usize,
    cal: &JammingCalibration,
) -> JammingWindows {
    let timing = FrameTiming::of(cfg, payload_len);
    let w1 = cal.lock_chirps * timing.chirp_time;
    let w2 = (cal.abandon_fraction * timing.frame_end).max(timing.header_end);
    let w3 = timing.frame_end + cal.decode_latency_s;
    JammingWindows { w1, w2, w3 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{PhyConfig, SpreadingFactor};

    fn ms(x: f64) -> f64 {
        x * 1e3
    }

    #[test]
    fn timing_ordering_invariant() {
        for sf in SpreadingFactor::ALL {
            let mut cfg = PhyConfig::uplink(sf);
            if sf == SpreadingFactor::Sf6 {
                cfg.explicit_header = false;
            }
            for len in [0usize, 10, 40, 120] {
                let t = FrameTiming::of(&cfg, len);
                assert!(t.preamble_end < t.payload_start);
                assert!(t.payload_start < t.header_end);
                assert!(t.header_end <= t.frame_end, "{sf} len {len}");
            }
        }
    }

    #[test]
    fn w1_matches_table1() {
        // Table 1 measured w1: ~5–6 ms (SF7), 10 ms (SF8), 22 ms (SF9) —
        // i.e. five chirp times.
        let cal = JammingCalibration::default();
        let w7 = jamming_windows(&PhyConfig::uplink(SpreadingFactor::Sf7), 20, &cal).w1;
        let w8 = jamming_windows(&PhyConfig::uplink(SpreadingFactor::Sf8), 30, &cal).w1;
        let w9 = jamming_windows(&PhyConfig::uplink(SpreadingFactor::Sf9), 30, &cal).w1;
        assert!((ms(w7) - 5.12).abs() < 0.01);
        assert!((ms(w8) - 10.24).abs() < 0.01);
        assert!((ms(w9) - 20.48).abs() < 0.01);
    }

    #[test]
    fn w2_tracks_table1_shape() {
        // Table 1 SF7 w2: 28/38/41/54 ms for 10/20/30/40 B. Our model gives
        // 0.67·airtime; verify within a few ms and strictly increasing.
        let cal = JammingCalibration::default();
        let cfg = PhyConfig::uplink(SpreadingFactor::Sf7);
        let measured = [28.0, 38.0, 41.0, 54.0];
        let mut prev = 0.0;
        for (len, want) in [10usize, 20, 30, 40].iter().zip(measured.iter()) {
            let w2 = ms(jamming_windows(&cfg, *len, &cal).w2);
            assert!((w2 - want).abs() < 8.0, "payload {len}: {w2} vs {want}");
            assert!(w2 > prev);
            prev = w2;
        }
    }

    #[test]
    fn w2_grows_exponentially_with_sf() {
        // Paper: "w2 increases exponentially with the spreading factor".
        let cal = JammingCalibration::default();
        let w7 = jamming_windows(&PhyConfig::uplink(SpreadingFactor::Sf7), 30, &cal).w2;
        let w8 = jamming_windows(&PhyConfig::uplink(SpreadingFactor::Sf8), 30, &cal).w2;
        let w9 = jamming_windows(&PhyConfig::uplink(SpreadingFactor::Sf9), 30, &cal).w2;
        assert!(w8 / w7 > 1.6 && w8 / w7 < 2.4, "ratio {}", w8 / w7);
        assert!(w9 / w8 > 1.6 && w9 / w8 < 2.4, "ratio {}", w9 / w8);
        // Table 1: SF8 30 B w2 = 82 ms, SF9 30 B w2 = 156 ms.
        assert!((ms(w8) - 82.0).abs() < 10.0, "w8 {}", ms(w8));
        assert!((ms(w9) - 156.0).abs() < 12.0, "w9 {}", ms(w9));
    }

    #[test]
    fn w3_is_airtime_plus_latency() {
        let cal = JammingCalibration::default();
        let cfg = PhyConfig::uplink(SpreadingFactor::Sf7);
        for len in [10usize, 20, 30, 40] {
            let w = jamming_windows(&cfg, len, &cal);
            assert!((w.w3 - cfg.airtime(len) - 0.09).abs() < 1e-12);
        }
        // Table 1 SF7 20 B: w3 = 156 ms; airtime ≈ 56.6 + 90 = 146.6 ms —
        // within the shape tolerance.
        let w3 = ms(jamming_windows(&cfg, 20, &cal).w3);
        assert!((w3 - 156.0).abs() < 15.0, "{w3}");
    }

    #[test]
    fn effective_window_is_tens_of_ms() {
        // The paper's headline: "a time window of tens of milliseconds ...
        // for implementing stealthy jamming".
        let cal = JammingCalibration::default();
        for (sf, len) in [
            (SpreadingFactor::Sf7, 20usize),
            (SpreadingFactor::Sf8, 30),
            (SpreadingFactor::Sf9, 30),
        ] {
            let w = jamming_windows(&PhyConfig::uplink(sf), len, &cal);
            let eff = ms(w.effective_window());
            assert!(eff > 20.0, "{sf}: effective window only {eff} ms");
        }
    }

    #[test]
    fn windows_ordered() {
        let cal = JammingCalibration::default();
        for sf in [SpreadingFactor::Sf7, SpreadingFactor::Sf9, SpreadingFactor::Sf12] {
            let w = jamming_windows(&PhyConfig::uplink(sf), 25, &cal);
            assert!(w.w1 < w.w2 && w.w2 < w.w3);
        }
    }

    #[test]
    fn w2_never_below_header_end() {
        // Tiny payloads: the 0.67·airtime rule would dip below the header
        // end; the header mechanism floors it.
        let cal = JammingCalibration::default();
        let cfg = PhyConfig::uplink(SpreadingFactor::Sf7);
        let w = jamming_windows(&cfg, 0, &cal);
        assert!(w.w2 >= cfg.header_end_time() - 1e-12);
    }
}
