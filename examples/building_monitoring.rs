//! Building environment monitoring — the paper's Fig. 15 deployment as an
//! application.
//!
//! Six temperature sensors spread over the six-floor concrete building
//! report to a SoftLoRa gateway on the 6th floor. The example surveys the
//! per-sensor link quality, runs an hour of simulated reporting, and
//! summarises the reconstructed-timestamp accuracy per sensor. The gateway
//! is a one-gateway `NetworkServer`; its verdicts are bucketed per device.
//!
//! Run with: `cargo run --release --example building_monitoring`

use softlora_repro::lorawan::{ClassADevice, DeviceConfig};
use softlora_repro::phy::oscillator::Oscillator;
use softlora_repro::phy::{PhyConfig, SpreadingFactor};
use softlora_repro::sim::clock::DriftingClock;
use softlora_repro::sim::deployment::BuildingDeployment;
use softlora_repro::sim::{AirFrame, HonestChannel, Interceptor};
use softlora_repro::softlora::{NetworkServer, NetworkServerBuilder, SoftLoraVerdict};
use std::collections::HashMap;

/// Buckets reconstructed-timestamp errors per device address.
#[derive(Default)]
struct AccuracyLedger {
    /// Per-device signed errors, ms.
    errors_ms: HashMap<u32, Vec<f64>>,
    /// Frames that produced no timestamped records.
    lost: usize,
}

impl AccuracyLedger {
    /// Books one verdict whose record was sampled at `true_time_s`.
    fn book(&mut self, true_time_s: f64, verdict: &SoftLoraVerdict) {
        match verdict {
            SoftLoraVerdict::Accepted { uplink, .. } => {
                let err = (uplink.records[0].global_time_s - true_time_s) * 1e3;
                self.errors_ms.entry(uplink.dev_addr).or_default().push(err);
            }
            _ => self.lost += 1,
        }
    }
}

fn main() {
    let building = BuildingDeployment::new();
    let medium = building.medium();
    let gw_pos = building.attack_gateway_site(); // C3, 6th floor
    let phy = PhyConfig::uplink(SpreadingFactor::Sf8);

    // Sensors at (column, floor) spots across the building.
    let spots = [(0usize, 1usize), (2, 3), (4, 2), (6, 5), (8, 4), (9, 6)];
    println!("Building monitoring: 6 sensors -> SoftLoRa gateway at C3/6F (SF8)\n");
    println!("{:<8} {:>10} {:>10} {:>12}", "sensor", "floor", "SNR(dB)", "decodable");

    let mut ledger = AccuracyLedger::default();
    let mut builder: NetworkServerBuilder = NetworkServer::builder(phy).gateway(2024);
    let mut sensors = Vec::new();
    for (idx, &(col, floor)) in spots.iter().enumerate() {
        let pos = building.position(col, floor);
        let link = medium.link(&pos, &gw_pos, 14.0);
        println!(
            "{:<8} {:>10} {:>10.1} {:>12}",
            format!("S{idx}"),
            floor,
            link.snr_db(),
            link.decodable(phy.sf)
        );
        let cfg = DeviceConfig::new(0x2601_0100 + idx as u32, phy);
        builder = builder.provision(cfg.dev_addr, cfg.keys.clone());
        sensors.push((
            ClassADevice::new(cfg),
            Oscillator::sample_end_device(869.75e6, idx as u64),
            DriftingClock::sample_device_crystal(idx as u64),
            pos,
        ));
    }
    let mut gateway = builder.build();

    // One hour: each sensor samples every 10 minutes and uplinks.
    let mut honest = HonestChannel;
    for round in 0..6 {
        for (idx, (device, osc, clock, pos)) in sensors.iter_mut().enumerate() {
            let t_global = 120.0 + 600.0 * round as f64 + 13.0 * idx as f64;
            // The device reads its *own drifting clock*; the reading taken
            // 2 s before transmission.
            let t_sample_local = clock.read(t_global - 2.0);
            let t_tx_local = clock.read(t_global);
            device.sense(400 + round as u16, t_sample_local).expect("buffer");
            let Ok(tx) = device.try_transmit(t_tx_local) else {
                ledger.lost += 1;
                continue;
            };
            let frame = AirFrame {
                dev_addr: device.dev_addr(),
                bytes: tx.bytes,
                tx_start_global_s: t_global,
                airtime_s: tx.airtime_s,
                tx_power_dbm: 14.0,
                tx_position: *pos,
                tx_bias_hz: osc.frame_bias_hz(),
                tx_phase: 0.1,
                sf: phy.sf,
            };
            for d in honest.intercept(&frame, &medium, &gw_pos) {
                let verdict = gateway.process_delivery(0, &d).expect("pipeline");
                ledger.book(t_global - 2.0, &verdict.verdict);
            }
        }
    }

    let accepted: usize = ledger.errors_ms.values().map(Vec::len).sum();
    println!("\nhour summary: {accepted} uplinks accepted, {} lost", ledger.lost);
    println!("\nreconstructed timestamp error per sensor (ms):");
    println!("{:<8} {:>8} {:>10} {:>10}", "sensor", "frames", "mean", "worst");
    for (idx, &(_, _)) in spots.iter().enumerate() {
        let dev_addr = 0x2601_0100 + idx as u32;
        match ledger.errors_ms.get(&dev_addr) {
            None => println!("{:<8} {:>8}", format!("S{idx}"), 0),
            Some(errs) => {
                let mean = errs.iter().map(|e| e.abs()).sum::<f64>() / errs.len() as f64;
                let worst = errs.iter().map(|e| e.abs()).fold(0.0f64, f64::max);
                println!(
                    "{:<8} {:>8} {:>10.3} {:>10.3}",
                    format!("S{idx}"),
                    errs.len(),
                    mean,
                    worst
                );
            }
        }
    }
    println!("\nDevice clocks drift 30–50 ppm and were never synchronised; the");
    println!("elapsed-time scheme plus PHY-layer arrival timestamping keeps every");
    println!("record within milliseconds of global time (paper §3.2).");
}
