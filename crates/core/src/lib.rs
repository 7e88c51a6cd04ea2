//! **SoftLoRa** — attack-aware, synchronization-free data timestamping for
//! LoRaWAN.
//!
//! This crate is the paper's primary contribution ("Attack-Aware Data
//! Timestamping in Low-Power Synchronization-Free LoRaWAN", ICDCS 2020): a
//! commodity LoRaWAN gateway augmented with a $25 RTL-SDR receiver that
//!
//! 1. **timestamps the radio signal itself** with microsecond accuracy by
//!    picking the preamble onset on the SDR's I/Q capture with an AIC
//!    picker ([`phy_timestamp`], paper §6);
//! 2. **estimates each frame's carrier frequency bias (FB)** from a single
//!    preamble chirp — closed-form linear regression on the unwrapped
//!    phase at high SNR, a least-squares matched filter (a dechirped-tone
//!    FFT peak, Newton-polished) below the `ls_below_snr_db` threshold
//!    ([`fb_estimator`], paper §7.1, 0.14 ppm resolution at −25 dB);
//! 3. **detects the frame-delay attack** by checking each frame's FB
//!    against the per-device history ([`fb_db`], [`replay_detect`],
//!    paper §7.2) — a replayed frame carries the replay chain's extra
//!    ≥ 0.6 ppm bias;
//! 4. **reconstructs trustworthy global timestamps** for the sensor
//!    records of accepted frames and refuses to timestamp flagged ones
//!    ([`network_server`], paper §3.2/§5.3).
//!
//! The defence is entirely passive: no extra transmissions, no device
//! modifications, no clock synchronisation ([`analysis`] quantifies the
//! savings).
//!
//! Each gateway runs the stateless front half of the staged pipeline
//! ([`pipeline`]: radio gate → capture synthesis → onset pick → FB
//! estimate), a pure function of the gateway seed and frame index. The
//! stateful tail — FB check, then MAC verification and timestamping — runs
//! once, in the [`NetworkServer`]'s device-sharded shards. A one-gateway
//! server is the paper's single-link SoftLoRa gateway;
//! [`NetworkServer::process_batch`] fans the front halves out across
//! threads and is bit-identical to a [`NetworkServer::process_delivery`]
//! loop.
//!
//! With several gateways, [`network_server`] lifts the defence to the
//! network-server tier: per-gateway front halves feed a shared,
//! capacity-bounded FB database, copies are deduplicated to the best-SNR
//! one, and cross-gateway timestamp/FB consistency adds a second replay
//! signal — the frame-delay attack is caught even at gateways the
//! attacker never jammed.
//!
//! # Quick start
//!
//! ```
//! use softlora::{NetworkServer, ServerObserver, ServerVerdict};
//! use softlora_phy::{PhyConfig, SpreadingFactor};
//! use std::sync::{Arc, Mutex};
//!
//! #[derive(Default)]
//! struct Flags(u64);
//! impl ServerObserver for Flags {
//!     fn on_verdict(&mut self, _uplink: u64, verdict: &ServerVerdict) {
//!         self.0 += u64::from(verdict.verdict.is_replay_detected());
//!     }
//! }
//!
//! let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
//! let flags = Arc::new(Mutex::new(Flags::default()));
//! let mut gw = NetworkServer::builder(phy)
//!     .gateway(42)
//!     .warmup_frames(3)
//!     .observer(Box::new(Arc::clone(&flags)))
//!     .build();
//! // Provision devices, then feed deliveries from the simulator:
//! // `gw.process_delivery(0, &delivery)` one at a time, or
//! // `gw.process_batch(&groups)` with one group per delivery to run the
//! // DSP front half for independent deliveries in parallel.
//! assert_eq!(flags.lock().unwrap().0, 0);
//! # let _ = &mut gw;
//! ```

pub mod analysis;
pub mod builder;
pub mod config;
mod fan_out;
pub mod fb_db;
pub mod fb_estimator;
pub mod fsck;
#[cfg(test)]
mod gateway;
pub mod network_server;
pub mod observer;
pub(crate) mod persist;
pub mod phy_timestamp;
pub mod pipeline;
pub mod replay_detect;
pub mod replication;
pub mod streaming;

pub use builder::NetworkServerBuilder;
pub use config::SoftLoraConfig;
pub use fb_db::{FbDatabase, FbEviction};
pub use fb_estimator::{FbEstimate, FbEstimator, FbMethod};
pub use fsck::{fsck_store, ShardReport, StoreReport};
pub use network_server::{
    NetworkServer, ReplaySignal, ServerStats, ServerVerdict, SoftLoraVerdict,
};
pub use observer::{ServerObserver, Stage};
pub use phy_timestamp::{OnsetMethod, PhyTimestamp, PhyTimestamper};
pub use pipeline::Pipeline;
pub use replay_detect::{ReplayDetector, ReplayVerdict};
pub use replication::CommitHook;
pub use streaming::{
    FrontEntry, FrontPart, FrontVec, GatewayFrontBlock, RoutedUplink, ServerSinkBlock,
    ShardRouterBlock, ShardSinkBlock,
};

/// Errors returned by SoftLoRa processing stages.
#[derive(Debug, Clone, PartialEq)]
pub enum SoftLoraError {
    /// The SDR capture was unusable (too short, or onset not found).
    Capture {
        /// Description of the capture problem.
        reason: &'static str,
    },
    /// A DSP stage failed.
    Dsp(softlora_dsp::DspError),
    /// A PHY stage failed.
    Phy(softlora_phy::PhyError),
    /// A LoRaWAN stage failed.
    Lorawan(softlora_lorawan::LorawanError),
    /// The durable device-state store failed (WAL append, snapshot or
    /// flush) on a server built with persistence enabled.
    Persistence {
        /// Description of the store failure.
        detail: String,
    },
}

impl std::fmt::Display for SoftLoraError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SoftLoraError::Capture { reason } => write!(f, "capture error: {reason}"),
            SoftLoraError::Dsp(e) => write!(f, "dsp error: {e}"),
            SoftLoraError::Phy(e) => write!(f, "phy error: {e}"),
            SoftLoraError::Lorawan(e) => write!(f, "lorawan error: {e}"),
            SoftLoraError::Persistence { detail } => write!(f, "persistence error: {detail}"),
        }
    }
}

impl std::error::Error for SoftLoraError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SoftLoraError::Dsp(e) => Some(e),
            SoftLoraError::Phy(e) => Some(e),
            SoftLoraError::Lorawan(e) => Some(e),
            _ => None,
        }
    }
}

impl From<softlora_dsp::DspError> for SoftLoraError {
    fn from(e: softlora_dsp::DspError) -> Self {
        SoftLoraError::Dsp(e)
    }
}

impl From<softlora_phy::PhyError> for SoftLoraError {
    fn from(e: softlora_phy::PhyError) -> Self {
        SoftLoraError::Phy(e)
    }
}

impl From<softlora_lorawan::LorawanError> for SoftLoraError {
    fn from(e: softlora_lorawan::LorawanError) -> Self {
        SoftLoraError::Lorawan(e)
    }
}

impl From<softlora_store::StoreError> for SoftLoraError {
    fn from(e: softlora_store::StoreError) -> Self {
        SoftLoraError::Persistence { detail: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_conversions_and_display() {
        use std::error::Error;
        let d: SoftLoraError =
            softlora_dsp::DspError::InputTooShort { required: 2, actual: 0 }.into();
        assert!(d.source().is_some());
        assert!(d.to_string().contains("dsp"));
        let p: SoftLoraError =
            softlora_phy::PhyError::InvalidConfig { reason: "bandwidth must be positive" }.into();
        assert!(p.to_string().contains("phy"));
        let l: SoftLoraError = softlora_lorawan::LorawanError::BadMic.into();
        assert!(l.to_string().contains("lorawan"));
        let c = SoftLoraError::Capture { reason: "too short" };
        assert!(c.source().is_none());
    }

    #[test]
    fn works_on_tiny_inputs() {
        let mut arenas = vec![(); 4];
        let out: Vec<u32> = fan_out::fan_out(&mut arenas, Vec::new(), |_, x: u32| x + 1);
        assert!(out.is_empty());
        assert_eq!(fan_out::fan_out(&mut arenas, vec![41u32], |_, x| x + 1), vec![42]);
    }

    #[test]
    fn map_init_single_item() {
        // One item among four arenas still sees its arena's state.
        let mut arenas = vec![10u32; 4];
        assert_eq!(fan_out::fan_out(&mut arenas, vec![7u32], |s, x| *s + x), vec![17]);
    }
}
