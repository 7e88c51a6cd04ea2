//! LoRa physical layer for the SoftLoRa reproduction.
//!
//! This crate rebuilds, in software, every piece of radio hardware the paper
//! ("Attack-Aware Data Timestamping in Low-Power Synchronization-Free
//! LoRaWAN", ICDCS 2020) relies on:
//!
//! * the **Chirp Spread Spectrum waveform** exactly as modelled in paper
//!   §5.2/§6.1.1/§7.1 — instantaneous angle
//!   `Θ(t) = πW²/2^S·t² − πW·t + 2πδ·t + θ` — in [`chirp`];
//! * the LoRa **PHY parameters and airtime** (spreading factor, bandwidth,
//!   coding rate, the SX1276 symbol-count formula) in [`params`];
//! * the frame format's **bit-level primitives** (whitening, diagonal
//!   interleaving, Gray mapping, payload CRC-16) in [`coding`];
//! * **oscillator models** with ppm-scale frequency bias — the physical trait
//!   the paper's defence keys on — in [`oscillator`];
//! * the **SDR receiver front-end** (quadrature mixing with receiver bias
//!   `δRx` and random phase `θRx`, low-pass filtering, 2.4 Msps sampling;
//!   paper Fig. 5) in [`sdr`];
//! * **radio channel models** (log-distance/free-space path loss, the
//!   six-floor building of paper Fig. 15, AWGN and "real" coloured noise) in
//!   [`channel`] and [`noise`];
//! * **frame timing** and the stealthy-jamming windows `w1/w2/w3` of paper
//!   Table 1 in [`frame_timing`];
//! * a behavioural model of the **RN2483 receiver chip's** lock/drop/alert
//!   logic under jamming (paper §4.3) in [`rn2483`].
//!
//! As in the paper's gateway (§5), a commodity LoRaWAN radio decodes the
//! frame and the SDR captures only the preamble, so the crate holds no
//! modem: given a device oscillator and a channel, it produces the
//! preamble I/Q trace an RTL-SDR would capture, which the `softlora` core
//! crate then timestamps and analyses, while the payload bytes travel
//! with the delivery.

pub mod channel;
pub mod chirp;
pub mod coding;
pub mod frame_timing;
pub mod noise;
pub mod oscillator;
pub mod params;
pub mod rn2483;
pub mod sdr;

pub use chirp::{cached_chirp_refs, ChirpGenerator, ChirpRefs};
pub use params::{Bandwidth, CodingRate, LoRaChannel, PhyConfig, SpreadingFactor};

/// Errors returned by PHY-layer routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhyError {
    /// A configuration parameter was out of its documented domain.
    InvalidConfig {
        /// Human-readable description of the violated constraint.
        reason: &'static str,
    },
    /// An underlying DSP routine rejected its input.
    Dsp(softlora_dsp::DspError),
}

impl std::fmt::Display for PhyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PhyError::InvalidConfig { reason } => write!(f, "invalid PHY configuration: {reason}"),
            PhyError::Dsp(e) => write!(f, "dsp error: {e}"),
        }
    }
}

impl std::error::Error for PhyError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PhyError::Dsp(e) => Some(e),
            _ => None,
        }
    }
}

impl From<softlora_dsp::DspError> for PhyError {
    fn from(e: softlora_dsp::DspError) -> Self {
        PhyError::Dsp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = PhyError::InvalidConfig { reason: "bandwidth must be positive" };
        assert!(e.to_string().contains("bandwidth must be positive"));
    }

    #[test]
    fn dsp_error_converts_and_sources() {
        use std::error::Error;
        let d = softlora_dsp::DspError::InputTooShort { required: 4, actual: 1 };
        let e: PhyError = d.clone().into();
        assert_eq!(e, PhyError::Dsp(d));
        assert!(e.source().is_some());
    }
}
