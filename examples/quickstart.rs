//! Quickstart: one sensor, one SoftLoRa gateway, one frame-delay attack.
//!
//! Demonstrates the paper's whole story in a hundred lines:
//! synchronization-free timestamping works to milliseconds, a jam-and-
//! replay attack silently shifts every timestamp by τ on a commodity
//! gateway, and the SoftLoRa gateway catches it by the replayed frame's
//! carrier frequency bias.
//!
//! The SoftLoRa gateway is a one-gateway [`NetworkServer`]: each
//! delivery is processed as its own uplink and comes back as a
//! [`ServerVerdict`].
//!
//! Run with: `cargo run --release --example quickstart`

use softlora_repro::attack::FrameDelayAttack;
use softlora_repro::lorawan::{ClassADevice, DeviceConfig};
use softlora_repro::phy::oscillator::Oscillator;
use softlora_repro::phy::{PhyConfig, SpreadingFactor};
use softlora_repro::sim::medium::FreeSpace;
use softlora_repro::sim::{AirFrame, HonestChannel, Interceptor, Position, RadioMedium};
use softlora_repro::softlora::{NetworkServer, ServerVerdict, SoftLoraVerdict};

/// Prints one gateway outcome against the frame's ground truth: `label`
/// names the frame ("frame 3 replay  ", ...) and `true_time_s` is the
/// true global time of its record of interest.
fn narrate(label: &str, true_time_s: f64, verdict: &ServerVerdict) {
    match &verdict.verdict {
        SoftLoraVerdict::Accepted { uplink, fb, .. } => {
            let err_s = uplink.records[0].global_time_s - true_time_s;
            if err_s.abs() < 0.1 {
                println!(
                    "{label}: accepted; FB {:.2} kHz; timestamp error {:+.2} ms",
                    fb.delta_hz / 1e3,
                    err_s * 1e3
                );
            } else {
                println!("{label}: ACCEPTED — timestamp error {err_s:+.2} s (!!)");
            }
        }
        SoftLoraVerdict::ReplayDetected { deviation_hz, band_hz, .. } => {
            println!(
                "{label}: REPLAY DETECTED — FB off by {deviation_hz:+.0} Hz (band ±{band_hz:.0} \
                 Hz); frame dropped, no timestamp spoofed"
            );
        }
        SoftLoraVerdict::NotReceived { outcome } => {
            println!("{label}: not received ({outcome:?}) — stealthy jamming");
        }
        SoftLoraVerdict::LorawanRejected { reason } => {
            println!("{label}: rejected ({reason})");
        }
    }
}

fn main() {
    // --- Topology: a device 300 m from the gateway, free space. ---
    let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
    let device_pos = Position::new(0.0, 0.0, 1.5);
    let gateway_pos = Position::new(300.0, 0.0, 10.0);
    let medium = RadioMedium::new(Box::new(FreeSpace { freq_hz: 869.75e6 }));

    // --- A Class A device with a 22 ppm crystal, and the gateway. ---
    let dev_cfg = DeviceConfig::new(0x2601_0001, phy);
    let mut device = ClassADevice::new(dev_cfg.clone());
    let mut device_osc = Oscillator::with_bias_ppm(-25.3, 869.75e6, 7);
    let mut gateway = NetworkServer::builder(phy)
        .gateway(42)
        .provision(dev_cfg.dev_addr, dev_cfg.keys.clone())
        .build();

    println!("SoftLoRa quickstart — synchronization-free timestamping under attack");
    println!(
        "device crystal bias: {:.1} kHz; gateway SDR bias: {:.1} kHz\n",
        device_osc.frequency_bias_hz() / 1e3,
        gateway.receiver_bias_hz(0) / 1e3
    );

    let send = |device: &mut ClassADevice, osc: &mut Oscillator, t: f64, value: u16| -> AirFrame {
        device.sense(value, t - 0.8).expect("record buffered");
        let tx = device.try_transmit(t).expect("duty cycle clear");
        AirFrame {
            dev_addr: dev_cfg.dev_addr,
            bytes: tx.bytes,
            tx_start_global_s: t,
            airtime_s: tx.airtime_s,
            tx_power_dbm: 14.0,
            tx_position: device_pos,
            tx_bias_hz: osc.frame_bias_hz(),
            tx_phase: 0.2,
            sf: phy.sf,
        }
    };

    // --- Phase 1: five honest uplinks build the FB database. ---
    let mut honest = HonestChannel;
    for k in 0..5 {
        let t = 100.0 + 200.0 * k as f64;
        let frame = send(&mut device, &mut device_osc, t, 2000 + k as u16);
        for d in honest.intercept(&frame, &medium, &gateway_pos) {
            let verdict = gateway.process_delivery(0, &d).expect("pipeline");
            narrate(&format!("frame {k}"), t - 0.8, &verdict);
        }
    }

    // --- Phase 2: the frame-delay attack (τ = 45 s). ---
    println!("\n>> frame-delay attack begins: jam, record, replay 45 s later\n");
    let mut attack = FrameDelayAttack::new(
        Position::new(2.0, 1.0, 1.5),    // eavesdropper beside the device
        Position::new(298.0, 1.0, 10.0), // jammer + replayer beside the gateway
        45.0,
        phy,
        9,
    );
    for k in 5..8 {
        let t = 100.0 + 200.0 * k as f64;
        let frame = send(&mut device, &mut device_osc, t, 2000 + k);
        for d in attack.intercept(&frame, &medium, &gateway_pos) {
            let kind = if d.is_replay { "replay  " } else { "original" };
            let verdict = gateway.process_delivery(0, &d).expect("pipeline");
            narrate(&format!("frame {k} {kind}"), t - 0.8, &verdict);
        }
    }

    let stats = gateway.detection_stats();
    println!(
        "\ndetection rate {:.0} %, false alarms {:.0} % — the timestamps stayed honest.",
        stats.detection_rate() * 100.0,
        stats.false_alarm_rate() * 100.0
    );
}
