//! Commodity gateway versus SoftLoRa under a sweep of attack delays.
//!
//! For τ from 5 s to 10 minutes, runs the frame-delay attack and compares
//! what each gateway believes: the commodity gateway's data timeline is
//! silently shifted by exactly τ, while SoftLoRa drops the replays. Also
//! demonstrates the naive counter-based defence failing (the original was
//! jammed, so the replay's counter looks fresh).
//!
//! The SoftLoRa gateway is a one-gateway [`NetworkServer`]. The attacked
//! frame's deliveries (jammed original + delayed replay) are handed to
//! [`NetworkServer::process_batch`] in one call, one uplink group per
//! delivery — the paranoid DSP front half runs in parallel.
//!
//! Run with: `cargo run --release --example attack_comparison`

use softlora_repro::attack::FrameDelayAttack;
use softlora_repro::lorawan::{ClassADevice, DeviceConfig, Gateway as CommodityGateway, RxVerdict};
use softlora_repro::phy::oscillator::Oscillator;
use softlora_repro::phy::rn2483::Rn2483Model;
use softlora_repro::phy::{PhyConfig, SpreadingFactor};
use softlora_repro::sim::medium::FreeSpace;
use softlora_repro::sim::{
    AirFrame, FleetDelivery, HonestChannel, Interceptor, Position, RadioMedium, UplinkDeliveries,
};
use softlora_repro::softlora::{NetworkServer, SoftLoraVerdict};

fn main() {
    let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
    let device_pos = Position::new(0.0, 0.0, 1.5);
    let gw_pos = Position::new(500.0, 0.0, 12.0);

    println!("Frame-delay attack: commodity vs SoftLoRa gateway\n");
    println!(
        "{:>8} {:>22} {:>14} {:>20}",
        "τ (s)", "commodity accepts?", "ts error (s)", "SoftLoRa verdict"
    );

    for tau in [5.0, 30.0, 120.0, 600.0] {
        let medium = RadioMedium::new(Box::new(FreeSpace { freq_hz: 869.75e6 }));
        let dev_cfg = DeviceConfig::new(0x2601_0007, phy);
        let mut device = ClassADevice::new(dev_cfg.clone());
        let mut osc = Oscillator::sample_end_device(869.75e6, 4);
        let mut commodity = CommodityGateway::new();
        commodity.provision(dev_cfg.dev_addr, dev_cfg.keys.clone());
        let mut softlora = NetworkServer::builder(phy)
            .gateway(8)
            .provision(dev_cfg.dev_addr, dev_cfg.keys.clone())
            .build();
        let model = Rn2483Model::new();

        let send = |device: &mut ClassADevice, osc: &mut Oscillator, t: f64| -> AirFrame {
            device.sense(1, t - 1.0).expect("sense");
            let tx = device.try_transmit(t).expect("tx");
            AirFrame {
                dev_addr: dev_cfg.dev_addr,
                bytes: tx.bytes,
                tx_start_global_s: t,
                airtime_s: tx.airtime_s,
                tx_power_dbm: 14.0,
                tx_position: device_pos,
                tx_bias_hz: osc.frame_bias_hz(),
                tx_phase: 0.0,
                sf: phy.sf,
            }
        };

        // Warm both gateways with four honest frames.
        let mut honest = HonestChannel;
        for k in 0..4 {
            let frame = send(&mut device, &mut osc, 50.0 + 200.0 * k as f64);
            for d in honest.intercept(&frame, &medium, &gw_pos) {
                let _ = commodity.receive(&d.bytes, d.arrival_global_s);
                let _ = softlora.process_delivery(0, &d).expect("pipeline");
            }
        }

        // One attacked frame at this τ. Its deliveries (the jammed
        // original and the delayed replay) go through as one batch.
        let mut attack = FrameDelayAttack::new(
            Position::new(2.0, 0.0, 1.5),
            Position::new(498.0, 0.0, 12.0),
            tau,
            phy,
            13,
        );
        let t = 1000.0;
        let frame = send(&mut device, &mut osc, t);
        let deliveries = attack.intercept(&frame, &medium, &gw_pos);

        let mut commodity_line = ("no frame seen".to_string(), f64::NAN);
        for d in &deliveries {
            let outcome = model.receive(&phy, d.bytes.len(), d.snr_db, d.jamming);
            if outcome.host_sees_frame() {
                if let RxVerdict::Accepted(up) = commodity.receive(&d.bytes, d.arrival_global_s) {
                    commodity_line = (
                        "yes (fresh counter!)".to_string(),
                        up.records[0].global_time_s - (t - 1.0),
                    );
                }
            }
        }

        // One group per delivery: the jammed original and the replay are
        // separate receptions, not copies of one uplink.
        let groups: Vec<UplinkDeliveries> = deliveries
            .iter()
            .enumerate()
            .map(|(k, d)| UplinkDeliveries {
                uplink: k as u64,
                dev_addr: d.dev_addr,
                tx_start_global_s: d.arrival_global_s,
                airtime_s: 0.0,
                copies: vec![FleetDelivery { gateway: 0, delivery: d.clone() }],
            })
            .collect();
        let verdicts = softlora.process_batch(&groups).expect("pipeline");
        let last_flag = verdicts.iter().rev().find_map(|v| match v.verdict {
            SoftLoraVerdict::ReplayDetected { deviation_hz, .. } => Some(deviation_hz),
            _ => None,
        });
        let softlora_line = match last_flag {
            Some(deviation_hz) => format!("flagged ({deviation_hz:+.0} Hz)"),
            None if deliveries
                .iter()
                .zip(&verdicts)
                .any(|(d, v)| d.is_replay && v.is_accepted()) =>
            {
                "MISSED".to_string()
            }
            None => "-".to_string(),
        };
        println!(
            "{:>8.0} {:>22} {:>14.2} {:>20}",
            tau, commodity_line.0, commodity_line.1, softlora_line
        );
    }

    println!("\nThe delay τ is arbitrary (paper Definition 1): cryptography and frame");
    println!("counters pass because the original never reached the gateway. Only the");
    println!("physical-layer FB trait betrays the replay.");
}
