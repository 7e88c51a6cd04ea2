//! Observability hooks: the named pipeline stages that label the
//! `gateway_stage_ns` latency series, and [`ServerObserver`], through
//! which the network server reports every committed verdict.
//!
//! Observers are invoked **in uplink order**, including for
//! [`crate::NetworkServer::process_batch`]: the shard tails commit in parallel,
//! and the server replays their verdicts and running statistics to the
//! observers afterwards, exactly as a sequential tail would have.

use crate::fb_db::FbEviction;
use crate::network_server::{ServerStats, ServerVerdict};
use crate::SoftLoraError;
use std::sync::{Arc, Mutex};

/// The named stages of the SoftLoRa gateway pipeline (paper §5.3, Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Commodity-radio reception model (RN2483 under jamming).
    RadioFrontEnd,
    /// SDR capture synthesis of the first preamble chirps.
    CaptureSynth,
    /// AIC onset pick — PHY-layer signal timestamping.
    Onset,
    /// Frequency-bias estimation from the second chirp.
    Fb,
    /// FB-consistency replay check against the device history.
    Detect,
    /// LoRaWAN MIC/counter verification and record timestamping.
    Mac,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 6] = [
        Stage::RadioFrontEnd,
        Stage::CaptureSynth,
        Stage::Onset,
        Stage::Fb,
        Stage::Detect,
        Stage::Mac,
    ];

    /// Short lowercase label, used as the `stage` label value of the
    /// `gateway_stage_ns` telemetry series.
    pub fn name(self) -> &'static str {
        match self {
            Stage::RadioFrontEnd => "radio",
            Stage::CaptureSynth => "capture",
            Stage::Onset => "onset",
            Stage::Fb => "fb",
            Stage::Detect => "detect",
            Stage::Mac => "mac",
        }
    }
}

/// Hooks the network server calls as it commits deduplicated verdicts.
/// The batch path ([`crate::NetworkServer::process_batch`]) and the streaming paths
/// (`softlora::streaming`) drive the same hooks, so observability does
/// not depend on the execution mode. All methods have empty defaults.
///
/// Observers run on whichever thread commits the verdict (the streaming
/// sink blocks run on scheduler workers), hence the `Send` bound.
#[allow(unused_variables)]
pub trait ServerObserver: Send {
    /// One uplink group was deduplicated to its authoritative verdict.
    fn on_verdict(&mut self, uplink: u64, verdict: &ServerVerdict) {}

    /// Aggregate statistics after committing that uplink.
    fn on_stats(&mut self, stats: ServerStats) {}

    /// The FB database's capacity bound evicted a device while learning
    /// from this uplink; the dropped history rides along so the loss is
    /// auditable (it also lands in the WAL when persistence is on).
    fn on_eviction(&mut self, uplink: u64, eviction: &FbEviction) {}

    /// A gateway front end failed with an infrastructure error; the
    /// stream (or batch) stops after this uplink.
    fn on_error(&mut self, uplink: u64, error: &SoftLoraError) {}
}

impl<T: ServerObserver> ServerObserver for Arc<Mutex<T>> {
    fn on_verdict(&mut self, uplink: u64, verdict: &ServerVerdict) {
        self.lock().expect("server observer poisoned").on_verdict(uplink, verdict);
    }
    fn on_stats(&mut self, stats: ServerStats) {
        self.lock().expect("server observer poisoned").on_stats(stats);
    }
    fn on_eviction(&mut self, uplink: u64, eviction: &FbEviction) {
        self.lock().expect("server observer poisoned").on_eviction(uplink, eviction);
    }
    fn on_error(&mut self, uplink: u64, error: &SoftLoraError) {
        self.lock().expect("server observer poisoned").on_error(uplink, error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network_server::SoftLoraVerdict;
    use softlora_phy::rn2483::ReceptionOutcome;

    #[derive(Default)]
    struct Tally {
        verdicts: u64,
        uplinks: u64,
        errors: u64,
    }

    impl ServerObserver for Tally {
        fn on_verdict(&mut self, _uplink: u64, _verdict: &ServerVerdict) {
            self.verdicts += 1;
        }
        fn on_stats(&mut self, stats: ServerStats) {
            self.uplinks = stats.uplinks;
        }
        fn on_error(&mut self, _uplink: u64, _error: &SoftLoraError) {
            self.errors += 1;
        }
    }

    #[test]
    fn shared_handle_observers_delegate() {
        let shared = Arc::new(Mutex::new(Tally::default()));
        let mut handle = Arc::clone(&shared);
        let verdict = ServerVerdict {
            verdict: SoftLoraVerdict::NotReceived { outcome: ReceptionOutcome::SilentDrop },
            gateway: None,
            copies_heard: 0,
            duplicates_suppressed: 0,
            signals: Vec::new(),
        };
        handle.on_verdict(0, &verdict);
        handle.on_stats(ServerStats { uplinks: 1, not_received: 1, ..ServerStats::default() });
        handle.on_error(1, &SoftLoraError::Capture { reason: "too short" });
        let tally = shared.lock().unwrap();
        assert_eq!(tally.verdicts, 1);
        assert_eq!(tally.uplinks, 1);
        assert_eq!(tally.errors, 1);
    }
}
