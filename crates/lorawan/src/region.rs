//! EU868 regional parameters and duty-cycle accounting.
//!
//! The paper's §3.2 overhead argument rests on the ETSI 1 % duty-cycle
//! rule: an SF12 device sending 30-byte frames can only transmit about 24
//! frames per hour, so spending airtime on clock-synchronisation traffic is
//! expensive. [`DutyCycleTracker`] enforces the rule the way commodity
//! stacks do (per-transmission wait time), and [`TxPower`] models the
//! RN2483 power steps swept in paper Fig. 16.

use crate::LorawanError;

/// The EU 868 MHz sub-band duty cycle limit (1 %).
pub const EU868_DUTY_CYCLE: f64 = 0.01;

/// Transmit power settings.
///
/// Fig. 16 sweeps the end device's measured output power over
/// 3.6–10.4 dBm; `MAX` mirrors "the maximum level, i.e., 15" used in the
/// full attack experiment (§8.1.1, ≈ 14 dBm EIRP).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxPower {
    /// Output power in dBm.
    pub dbm: f64,
}

impl TxPower {
    /// Maximum EU868 EIRP (14 dBm).
    pub const MAX: TxPower = TxPower { dbm: 14.0 };

    /// The seven measured output steps of paper Fig. 16.
    pub const FIG16_SWEEP: [TxPower; 7] = [
        TxPower { dbm: 3.6 },
        TxPower { dbm: 4.7 },
        TxPower { dbm: 5.8 },
        TxPower { dbm: 6.9 },
        TxPower { dbm: 8.1 },
        TxPower { dbm: 9.3 },
        TxPower { dbm: 10.4 },
    ];
}

/// Per-device duty-cycle enforcement using the "wait time" rule:
/// after a transmission of `t_air`, the device must stay silent for
/// `t_air · (1/duty − 1)`.
#[derive(Debug, Clone)]
pub struct DutyCycleTracker {
    duty: f64,
    next_allowed_s: f64,
    total_airtime_s: f64,
    transmissions: u64,
}

impl DutyCycleTracker {
    /// Creates a tracker for the given duty-cycle fraction.
    ///
    /// # Panics
    ///
    /// Panics if `duty` is not in `(0, 1]`.
    pub fn new(duty: f64) -> Self {
        assert!(duty > 0.0 && duty <= 1.0, "duty cycle must be in (0, 1]");
        DutyCycleTracker { duty, next_allowed_s: 0.0, total_airtime_s: 0.0, transmissions: 0 }
    }

    /// EU868 1 % tracker.
    pub fn eu868() -> Self {
        Self::new(EU868_DUTY_CYCLE)
    }

    /// Whether a transmission may start at `now_s`.
    pub fn can_transmit(&self, now_s: f64) -> bool {
        now_s >= self.next_allowed_s
    }

    /// Seconds until the next transmission is allowed (0 if allowed now).
    pub fn wait_s(&self, now_s: f64) -> f64 {
        (self.next_allowed_s - now_s).max(0.0)
    }

    /// Records a transmission of `airtime_s` starting at `now_s`.
    ///
    /// # Errors
    ///
    /// Returns [`LorawanError::DutyCycleExceeded`] if the silence period of
    /// the previous transmission has not elapsed (the transmission is *not*
    /// recorded in that case).
    pub fn record(&mut self, now_s: f64, airtime_s: f64) -> Result<(), LorawanError> {
        if !self.can_transmit(now_s) {
            return Err(LorawanError::DutyCycleExceeded { wait_s: self.wait_s(now_s) });
        }
        self.next_allowed_s = now_s + airtime_s + airtime_s * (1.0 / self.duty - 1.0);
        self.total_airtime_s += airtime_s;
        self.transmissions += 1;
        Ok(())
    }

    /// Total airtime consumed so far.
    pub fn total_airtime_s(&self) -> f64 {
        self.total_airtime_s
    }

    /// Number of recorded transmissions.
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Maximum frames of `airtime_s` each that fit in `window_s` under this
    /// duty cycle (the paper's "24 30-byte frames per hour at SF12").
    pub fn max_frames(&self, airtime_s: f64, window_s: f64) -> u64 {
        if airtime_s <= 0.0 {
            return u64::MAX;
        }
        (window_s * self.duty / airtime_s).floor() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softlora_phy::{PhyConfig, SpreadingFactor};

    #[test]
    fn paper_sf12_frames_per_hour() {
        // Paper §3.2: SF12, 30-byte frames, 1 % duty cycle -> 24 frames/hour
        // (the paper's figure assumes no low-data-rate optimisation; with
        // the LDRO that EU868 mandates at SF12 the count drops to 21).
        let cfg = PhyConfig::uplink(SpreadingFactor::Sf12);
        let tracker = DutyCycleTracker::eu868();
        let frames = tracker.max_frames(cfg.airtime(30), 3600.0);
        assert!((20..=26).contains(&frames), "frames {frames}");
        let mut no_ldro = cfg;
        no_ldro.low_data_rate = false;
        let frames_paper = tracker.max_frames(no_ldro.airtime(30), 3600.0);
        assert_eq!(frames_paper, 24);
    }

    #[test]
    fn wait_time_rule() {
        let mut t = DutyCycleTracker::new(0.01);
        t.record(0.0, 1.0).unwrap();
        // 1 s airtime at 1 % -> silent until t = 100 s.
        assert!(!t.can_transmit(50.0));
        assert!((t.wait_s(50.0) - 50.0).abs() < 1e-9);
        assert!(t.can_transmit(100.0));
        assert!(t.record(100.0, 1.0).is_ok());
    }

    #[test]
    fn rejected_transmission_not_counted() {
        let mut t = DutyCycleTracker::new(0.01);
        t.record(0.0, 2.0).unwrap();
        assert!(t.record(10.0, 2.0).is_err());
        assert_eq!(t.transmissions(), 1);
        assert!((t.total_airtime_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn full_duty_never_blocks_after_airtime() {
        let mut t = DutyCycleTracker::new(1.0);
        t.record(0.0, 1.0).unwrap();
        assert!(t.can_transmit(1.0));
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn zero_duty_panics() {
        DutyCycleTracker::new(0.0);
    }

    #[test]
    fn fig16_sweep_values() {
        assert_eq!(TxPower::FIG16_SWEEP.len(), 7);
        assert!((TxPower::FIG16_SWEEP[0].dbm - 3.6).abs() < 1e-12);
        assert!((TxPower::FIG16_SWEEP[6].dbm - 10.4).abs() < 1e-12);
        for pair in TxPower::FIG16_SWEEP.windows(2) {
            assert!(pair[1].dbm > pair[0].dbm);
        }
        assert_eq!(TxPower::MAX.dbm, 14.0);
    }

    #[test]
    fn max_frames_degenerate() {
        let t = DutyCycleTracker::eu868();
        assert_eq!(t.max_frames(0.0, 3600.0), u64::MAX);
    }
}
