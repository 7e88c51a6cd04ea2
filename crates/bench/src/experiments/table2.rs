//! Paper Table 2: signal-timestamping error upper bound for the envelope
//! detector versus the AIC detector, on I and Q traces, over ten trials.

use crate::common;
use softlora::phy_timestamp::{OnsetMethod, PhyTimestamper};
use softlora_dsp::aic::aic_pick;
use softlora_dsp::envelope::EnvelopeDetector;
use softlora_dsp::DspScratch;
use softlora_phy::{PhyConfig, SpreadingFactor};

/// Result of one detector/trace-component combination across trials.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// "ENV" or "AIC".
    pub detector: &'static str,
    /// "I" or "Q".
    pub component: &'static str,
    /// Per-trial error upper bounds in µs (error magnitude plus the
    /// half-sample quantisation bound, matching the paper's metric).
    pub errors_us: Vec<f64>,
}

impl Table2Row {
    /// Maximum error across trials, µs.
    pub fn max_us(&self) -> f64 {
        self.errors_us.iter().cloned().fold(0.0, f64::max)
    }

    /// Mean error across trials, µs.
    pub fn mean_us(&self) -> f64 {
        self.errors_us.iter().sum::<f64>() / self.errors_us.len().max(1) as f64
    }
}

/// Runs the ten high-SNR trials of Table 2.
pub fn run(trials: usize) -> Vec<Table2Row> {
    let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
    let mut rows = vec![
        Table2Row { detector: "ENV", component: "I", errors_us: Vec::new() },
        Table2Row { detector: "ENV", component: "Q", errors_us: Vec::new() },
        Table2Row { detector: "AIC", component: "I", errors_us: Vec::new() },
        Table2Row { detector: "AIC", component: "Q", errors_us: Vec::new() },
    ];
    let mut scratch = DspScratch::new();
    for t in 0..trials {
        let cap = common::capture(&phy, 2, -22_000.0 - 150.0 * (t % 4) as f64, 1.5, 500, t as u64);
        let dt_us = cap.dt() * 1e6;
        let bound = |onset: usize| -> f64 {
            (onset as f64 - cap.true_onset as f64).abs() * dt_us + dt_us / 2.0
        };
        let env = EnvelopeDetector::new();
        rows[0].errors_us.push(bound(env.detect_onset_with(&cap.i, &mut scratch).expect("env I")));
        rows[1].errors_us.push(bound(env.detect_onset_with(&cap.q, &mut scratch).expect("env Q")));
        rows[2].errors_us.push(bound(aic_pick(&cap.i, 16).expect("aic I").onset));
        rows[3].errors_us.push(bound(aic_pick(&cap.q, 16).expect("aic Q").onset));
    }
    rows
}

/// The paper's summary claim: AIC under 2 µs, envelope under ~10 µs.
pub fn paper_bounds() -> (f64, f64) {
    (2.0, 9.8)
}

/// Convenience used by the integration tests: errors of the production
/// timestamper on the same trace family.
pub fn production_timestamper_max_error_us(trials: usize) -> f64 {
    let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
    let ts = PhyTimestamper::new(OnsetMethod::Aic);
    let mut max = 0.0f64;
    let mut scratch = DspScratch::new();
    for t in 0..trials {
        let cap = common::capture(&phy, 2, -21_000.0, 0.5, 500, 1000 + t as u64);
        let err = ts.timestamp_error_s(&cap, &mut scratch).expect("timestamp").abs() * 1e6;
        max = max.max(err);
    }
    max
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aic_rows_meet_paper_bound() {
        let rows = run(10);
        let (aic_bound, env_bound) = paper_bounds();
        for row in rows.iter().filter(|r| r.detector == "AIC") {
            assert!(row.max_us() <= aic_bound, "AIC {} max {} µs", row.component, row.max_us());
        }
        for row in rows.iter().filter(|r| r.detector == "ENV") {
            assert!(
                row.max_us() <= env_bound + 2.0,
                "ENV {} max {} µs",
                row.component,
                row.max_us()
            );
        }
    }

    #[test]
    fn aic_beats_envelope() {
        let rows = run(10);
        let mean = |d: &str| -> f64 {
            rows.iter().filter(|r| r.detector == d).map(Table2Row::mean_us).sum::<f64>() / 2.0
        };
        assert!(mean("AIC") < mean("ENV"), "AIC {} ENV {}", mean("AIC"), mean("ENV"));
    }

    #[test]
    fn production_path_microsecond_accurate() {
        assert!(production_timestamper_max_error_us(6) < 3.0);
    }
}
