//! Umbrella crate for the SoftLoRa reproduction.
//!
//! This repository reproduces **"Attack-Aware Data Timestamping in
//! Low-Power Synchronization-Free LoRaWAN"** (Gu, Tan, Huang — ICDCS 2020)
//! as a set of Rust crates:
//!
//! | crate | contents |
//! |---|---|
//! | [`dsp`] | FFT, windows, Hilbert envelope, AIC pickers, phase unwrap, regression, differential evolution |
//! | [`phy`] | CSS chirps, modulator/demodulator, oscillators, SDR front-end, channels, jamming windows, RN2483 behaviour |
//! | [`crypto`] | AES-128, AES-CMAC, LoRaWAN MIC / payload encryption |
//! | [`lorawan`] | frames, Class A device, duty cycle, elapsed-time timestamping, commodity gateway |
//! | [`sim`] | drifting clocks, event queue, radio medium, building/campus deployments, interception |
//! | [`attack`] | eavesdropper, stealthy jammer, USRP replayer, frame-delay orchestrator, RTT strawman |
//! | [`runtime`] | streaming flowgraph runtime: blocks over lock-free SPSC rings, multi-threaded scheduler, runtime observers |
//! | [`store`] | durable sharded device-state store: append-only WAL with a hand-rolled binary codec, snapshots + compaction, crash recovery |
//! | [`telemetry`] | process-wide lock-free metrics registry: counters, gauges, log₂-bucketed latency histograms, text/JSON exposition |
//! | [`net`] | the wire-protocol front door: Semtech-UDP-style gateway frames, the UDP/loopback listener feeding the sharded server tail, a lock-step fleet replay client |
//! | [`softlora`] | the paper's contribution: PHY timestamping, FB estimation, FB database, replay detection, the SoftLoRa gateway, the streaming network-server blocks |
//!
//! See the repository `README.md` for a guided tour, the workspace
//! layout and the measured performance record. The `examples/`
//! directory holds runnable scenarios; the
//! `softlora-bench` crate regenerates every table and figure of the
//! paper's evaluation.
//!
//! # Quick start
//!
//! The gateway is built with a fluent builder and processed deliveries
//! flow through an explicit six-stage pipeline; outcomes can be consumed
//! as observer events, and batches run the DSP front half in parallel:
//!
//! ```
//! use softlora_repro::phy::{PhyConfig, SpreadingFactor};
//! use softlora_repro::softlora::observer::GatewayStats;
//! use softlora_repro::softlora::SoftLoraGateway;
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
//! let stats = Rc::new(RefCell::new(GatewayStats::default()));
//! let gateway = SoftLoraGateway::builder(phy)
//!     .seed(1)
//!     .adc_quantisation(false)
//!     .observer(Box::new(Rc::clone(&stats)))
//!     .build();
//! assert!(gateway.receiver_bias_hz().abs() < 10_000.0); // an RTL-SDR crystal
//! assert_eq!(gateway.onset_picker_runs(), 0); // one AIC pick per frame, later
//! // gateway.process(&delivery)? / gateway.process_batch(&deliveries)?
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
