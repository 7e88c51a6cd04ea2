//! Paper Fig. 13: FBs estimated from 16 nodes' original transmissions and
//! from the same transmissions replayed by a USRP.
//!
//! 20 frames per node; the error bars show mean/min/max per node. The
//! replayed series sits consistently *below* the original because the
//! USRP's oscillator bias is negative (−543 to −743 Hz mean added bias in
//! the paper).

use crate::common;
use softlora::fb_estimator::{FbEstimator, FbMethod};
use softlora_dsp::DspScratch;
use softlora_phy::oscillator::Oscillator;
use softlora_phy::{PhyConfig, SpreadingFactor};

/// Per-node Fig. 13 statistics (all in kHz to match the paper's axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig13Node {
    /// Node ID (0..16).
    pub node: usize,
    /// Mean / min / max FB of original transmissions, kHz.
    pub original_khz: (f64, f64, f64),
    /// Mean / min / max FB of replayed transmissions, kHz.
    pub replayed_khz: (f64, f64, f64),
}

impl Fig13Node {
    /// Mean additional FB introduced by the replayer, Hz.
    pub fn added_bias_hz(&self) -> f64 {
        (self.replayed_khz.0 - self.original_khz.0) * 1e3
    }
}

/// Runs the Fig. 13 experiment: `nodes` devices × `frames` transmissions,
/// each estimated from a clean high-SNR capture (bench conditions, 5 m),
/// then replayed through a single USRP chain.
pub fn run(nodes: usize, frames: usize) -> Vec<Fig13Node> {
    let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
    let estimator = FbEstimator::new(&phy, 2.4e6);
    // One SoftLoRa SDR receiver for all measurements (fixed δRx).
    let rx_bias_ppm = 2.0;
    let mut scratch = DspScratch::new();
    let mut out = Vec::with_capacity(nodes);
    for node in 0..nodes {
        let mut device = Oscillator::sample_end_device(common::FC, node as u64);
        let mut usrp = Oscillator::sample_usrp(common::FC, 1000 + node as u64);
        let mut orig = Vec::with_capacity(frames);
        let mut replayed = Vec::with_capacity(frames);
        for f in 0..frames {
            let tx_bias = device.frame_bias_hz();
            let seed = (node * 1000 + f) as u64;
            // Original transmission.
            let cap = common::capture(&phy, 2, tx_bias, rx_bias_ppm, 400, seed);
            let fb = estimator
                .estimate_from_capture_with(
                    &cap,
                    cap.true_onset,
                    FbMethod::LinearRegression,
                    0.0,
                    &mut scratch,
                )
                .expect("fb original");
            orig.push(fb.delta_hz / 1e3);
            // Replay: same waveform re-emitted through the USRP chain.
            let replay_bias = tx_bias + usrp.frame_bias_hz();
            let cap_r = common::capture(&phy, 2, replay_bias, rx_bias_ppm, 400, seed + 7);
            let fb_r = estimator
                .estimate_from_capture_with(
                    &cap_r,
                    cap_r.true_onset,
                    FbMethod::LinearRegression,
                    0.0,
                    &mut scratch,
                )
                .expect("fb replay");
            replayed.push(fb_r.delta_hz / 1e3);
        }
        let stats = |v: &[f64]| -> (f64, f64, f64) {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let min = v.iter().cloned().fold(f64::MAX, f64::min);
            let max = v.iter().cloned().fold(f64::MIN, f64::max);
            (mean, min, max)
        };
        out.push(Fig13Node { node, original_khz: stats(&orig), replayed_khz: stats(&replayed) });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn original_fbs_in_paper_range() {
        // Paper: absolute FBs 17–25 kHz (20–29 ppm) for the population;
        // our measured δ includes the receiver's own bias.
        for node in run(16, 5) {
            let fb = node.original_khz.0;
            assert!((-28.0..=-16.0).contains(&fb), "node {}: {fb} kHz", node.node);
        }
    }

    #[test]
    fn replayed_consistently_lower() {
        // Paper: "the FBs of the replayed transmissions are consistently
        // lower ... because the USRP has a negative FB".
        for node in run(16, 5) {
            assert!(
                node.replayed_khz.0 < node.original_khz.0,
                "node {}: replay {} >= orig {}",
                node.node,
                node.replayed_khz.0,
                node.original_khz.0
            );
        }
    }

    #[test]
    fn added_bias_matches_paper_band() {
        // Paper: mean additional FBs from −543 to −743 Hz. Our USRP
        // population spans −783..−435 Hz.
        for node in run(16, 5) {
            let added = node.added_bias_hz();
            assert!((-900.0..=-350.0).contains(&added), "node {}: added {added} Hz", node.node);
        }
    }

    #[test]
    fn per_node_fbs_are_stable() {
        // Error bars in Fig. 13 are tight: per-node FB spread ≤ ~300 Hz.
        for node in run(8, 8) {
            let spread = (node.original_khz.2 - node.original_khz.1) * 1e3;
            assert!(spread < 350.0, "node {}: spread {spread} Hz", node.node);
        }
    }
}
