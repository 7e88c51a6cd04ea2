//! Paper Fig. 16: estimated FB versus the end device's transmission power,
//! at three observation points:
//!
//! * the eavesdropper's USRP (bottom row in the paper),
//! * the SoftLoRa gateway, no attack (middle row),
//! * the SoftLoRa gateway receiving the *replay* of the eavesdropper's
//!   recording (top row — shifted by ≈ 2 kHz because the two USRPs'
//!   biases superimpose).
//!
//! The paper's two findings: transmission power has little impact on the
//! FB estimate, and the two-USRP replay chain adds ≈ 2.3 ppm.

use crate::common;
use softlora::fb_estimator::{FbEstimator, FbMethod};
use softlora_dsp::DspScratch;
use softlora_lorawan::region::TxPower;
use softlora_phy::oscillator::Oscillator;
use softlora_phy::{PhyConfig, SpreadingFactor};

/// Box statistics of FB estimates at one TX power for one path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig16Box {
    /// End device transmission power, dBm.
    pub tx_power_dbm: f64,
    /// Minimum FB, kHz.
    pub min_khz: f64,
    /// 25th percentile, kHz.
    pub q25_khz: f64,
    /// 75th percentile, kHz.
    pub q75_khz: f64,
    /// Maximum FB, kHz.
    pub max_khz: f64,
}

/// The three observation paths of Fig. 16.
#[derive(Debug, Clone)]
pub struct Fig16Series {
    /// FBs seen by the eavesdropper's USRP.
    pub device_to_eavesdropper: Vec<Fig16Box>,
    /// FBs seen by the SoftLoRa gateway directly.
    pub device_to_gateway: Vec<Fig16Box>,
    /// FBs seen by the gateway when the eavesdropper's recording is
    /// replayed through the replayer USRP.
    pub replayer_to_gateway: Vec<Fig16Box>,
}

fn boxes(samples: &[(f64, Vec<f64>)]) -> Vec<Fig16Box> {
    samples
        .iter()
        .map(|(p, v)| {
            let mut s = v.clone();
            s.sort_by(f64::total_cmp);
            let q = |frac: f64| s[(frac * (s.len() - 1) as f64).round() as usize];
            Fig16Box {
                tx_power_dbm: *p,
                min_khz: s[0] / 1e3,
                q25_khz: q(0.25) / 1e3,
                q75_khz: q(0.75) / 1e3,
                max_khz: s[s.len() - 1] / 1e3,
            }
        })
        .collect()
}

/// Runs the power sweep with `trials` frames per power step.
///
/// SNR rises with TX power (the building link gains ~1 dB per dBm); the FB
/// estimate should be invariant to it.
pub fn run(trials: usize) -> Fig16Series {
    let phy = PhyConfig::uplink(SpreadingFactor::Sf8);
    let estimator = FbEstimator::new(&phy, 2.4e6);
    let mut device = Oscillator::sample_end_device(common::FC, 3);
    // Two different USRPs, as in §8.1.4: "their FBs are superimposed".
    let eaves_usrp = Oscillator::sample_usrp(common::FC, 100);
    let mut replay_usrp = Oscillator::sample_usrp(common::FC, 200);
    // Receiver biases: the eavesdropper is a USRP; the gateway an RTL-SDR.
    let eaves_rx_ppm = eaves_usrp.bias_ppm();
    let gw_rx_ppm = 1.5;
    let mut scratch = DspScratch::new();

    let mut to_eaves = Vec::new();
    let mut to_gw = Vec::new();
    let mut replay_gw = Vec::new();
    for (step, power) in TxPower::FIG16_SWEEP.iter().enumerate() {
        // Received SNR grows with TX power; base −2 dB at the lowest step.
        let snr = -2.0 + (power.dbm - TxPower::FIG16_SWEEP[0].dbm);
        let mut v_eaves = Vec::new();
        let mut v_gw = Vec::new();
        let mut v_replay = Vec::new();
        for t in 0..trials {
            let tx_bias = device.frame_bias_hz();
            let seed = (step * 100 + t) as u64;
            // Path 1: device -> eavesdropper (USRP front-end).
            let cap = common::capture(&phy, 2, tx_bias, eaves_rx_ppm, 400, seed);
            let noisy = common::with_noise(&cap, snr + 15.0, false, seed + 1); // eaves is close
            v_eaves.push(
                estimator
                    .estimate_from_capture_with(
                        &noisy,
                        noisy.true_onset,
                        FbMethod::LinearRegression,
                        0.0,
                        &mut scratch,
                    )
                    .expect("eaves fb")
                    .delta_hz,
            );
            // Path 2: device -> gateway.
            let cap = common::capture(&phy, 2, tx_bias, gw_rx_ppm, 400, seed + 2);
            let noisy = common::with_noise(&cap, snr, false, seed + 3);
            v_gw.push(
                estimator
                    .estimate_from_capture_with(
                        &noisy,
                        noisy.true_onset,
                        FbMethod::MatchedFilter,
                        0.0,
                        &mut scratch,
                    )
                    .expect("gw fb")
                    .delta_hz,
            );
            // Path 3: eavesdropper recording replayed through the second
            // USRP. The paper measures the two devices' biases
            // *superimposing* (§8.1.4: "here we use two different USRPs as
            // the eavesdropper and replayer; their FBs are superimposed"),
            // so the chain adds both empirically measured offsets.
            let replay_bias =
                tx_bias + eaves_usrp.frequency_bias_hz() + replay_usrp.frame_bias_hz();
            let cap = common::capture(&phy, 2, replay_bias, gw_rx_ppm, 400, seed + 4);
            let noisy = common::with_noise(&cap, snr, false, seed + 5);
            v_replay.push(
                estimator
                    .estimate_from_capture_with(
                        &noisy,
                        noisy.true_onset,
                        FbMethod::MatchedFilter,
                        0.0,
                        &mut scratch,
                    )
                    .expect("replay fb")
                    .delta_hz,
            );
        }
        to_eaves.push((power.dbm, v_eaves));
        to_gw.push((power.dbm, v_gw));
        replay_gw.push((power.dbm, v_replay));
    }
    Fig16Series {
        device_to_eavesdropper: boxes(&to_eaves),
        device_to_gateway: boxes(&to_gw),
        replayer_to_gateway: boxes(&replay_gw),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn center(b: &Fig16Box) -> f64 {
        (b.q25_khz + b.q75_khz) / 2.0
    }

    #[test]
    fn power_has_little_impact_on_fb() {
        // Paper: "the end device's transmission power has little impact on
        // the FB estimation" — spread of per-power centres < 0.5 kHz.
        let s = run(6);
        for series in [&s.device_to_eavesdropper, &s.device_to_gateway] {
            let centers: Vec<f64> = series.iter().map(center).collect();
            let min = centers.iter().cloned().fold(f64::MAX, f64::min);
            let max = centers.iter().cloned().fold(f64::MIN, f64::max);
            assert!(max - min < 0.5, "centre spread {} kHz", max - min);
        }
    }

    #[test]
    fn eavesdropper_and_gateway_estimates_differ() {
        // Paper §8.1.3: the two receivers have different δRx, so their
        // estimates of the same device differ.
        let s = run(5);
        let d = (center(&s.device_to_eavesdropper[0]) - center(&s.device_to_gateway[0])).abs();
        assert!(d > 0.3, "difference {d} kHz");
    }

    #[test]
    fn replay_adds_about_two_khz() {
        // Paper §8.1.4: "the replay attack introduces an additional FB of
        // about 2 kHz (2.3 ppm)" when two different USRPs are chained. Our
        // USRP population is calibrated to Fig. 13's −543..−743 Hz single
        // chain, so the superimposed chain lands near 1–2 kHz.
        let s = run(5);
        let added: Vec<f64> = s
            .replayer_to_gateway
            .iter()
            .zip(s.device_to_gateway.iter())
            .map(|(r, g)| (center(r) - center(g)).abs())
            .collect();
        for (k, a) in added.iter().enumerate() {
            assert!((0.6..=3.0).contains(a), "step {k}: added {a} kHz");
        }
    }
}
