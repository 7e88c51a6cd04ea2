//! Umbrella crate for the SoftLoRa reproduction.
//!
//! This repository reproduces **"Attack-Aware Data Timestamping in
//! Low-Power Synchronization-Free LoRaWAN"** (Gu, Tan, Huang — ICDCS 2020)
//! as a set of Rust crates:
//!
//! | crate | contents |
//! |---|---|
//! | [`dsp`] | FFT, windows, Hilbert envelope, AIC pickers, phase unwrap, regression, differential evolution |
//! | [`phy`] | CSS chirps, PHY parameters and airtime, oscillators, SDR front-end, channels, jamming windows, RN2483 behaviour |
//! | [`crypto`] | AES-128, AES-CMAC, LoRaWAN MIC / payload encryption |
//! | [`lorawan`] | frames, Class A device, duty cycle, elapsed-time timestamping, commodity gateway |
//! | [`sim`] | drifting clocks, event queue, radio medium, building/campus deployments, interception |
//! | [`attack`] | eavesdropper, stealthy jammer, USRP replayer, frame-delay orchestrator, RTT strawman |
//! | [`runtime`] | streaming flowgraph runtime: blocks over lock-free SPSC rings, multi-threaded scheduler, runtime observers |
//! | [`store`] | durable sharded device-state store: append-only WAL with a hand-rolled binary codec, snapshots + compaction, crash recovery |
//! | [`telemetry`] | process-wide lock-free metrics registry: counters, gauges, log₂-bucketed latency histograms, text/JSON exposition |
//! | [`net`] | the wire-protocol front door: Semtech-UDP-style gateway frames, the UDP/loopback listener feeding the sharded server tail, a lock-step fleet replay client |
//! | [`softlora`] | the paper's contribution: PHY timestamping, FB estimation, FB database, replay detection, the sharded network server (a one-gateway server is the SoftLoRa gateway), the streaming network-server blocks |
//!
//! See the repository `README.md` for a guided tour, the workspace
//! layout and the measured performance record. The `examples/`
//! directory holds runnable scenarios; the
//! `softlora-bench` crate regenerates every table and figure of the
//! paper's evaluation.
//!
//! # Quick start
//!
//! The SoftLoRa gateway is a one-gateway network server: each gateway runs
//! the staged pipeline's DSP front half, and the server's shard tail runs
//! the FB replay check and the LoRaWAN MAC. Outcomes come back as
//! verdicts, and batches run the front half in parallel:
//!
//! ```
//! use softlora_repro::phy::{PhyConfig, SpreadingFactor};
//! use softlora_repro::softlora::NetworkServer;
//!
//! let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
//! let gateway = NetworkServer::builder(phy).gateway(1).adc_quantisation(false).build();
//! assert!(gateway.receiver_bias_hz(0).abs() < 10_000.0); // an RTL-SDR crystal
//! assert_eq!(gateway.pipeline(0).onset.picker_runs(), 0); // one AIC pick per frame, later
//! // gateway.process_delivery(0, &delivery)? / gateway.process_batch(&groups)?
//! ```

pub use softlora;
pub use softlora_attack as attack;
pub use softlora_crypto as crypto;
pub use softlora_dsp as dsp;
pub use softlora_lorawan as lorawan;
pub use softlora_net as net;
pub use softlora_phy as phy;
pub use softlora_runtime as runtime;
pub use softlora_sim as sim;
pub use softlora_store as store;
pub use softlora_telemetry as telemetry;
