//! Long-range timestamping across the 1.07 km campus link (paper §8.2).
//!
//! A roadway-detector-style sensor on a roof top reports through a kilometre
//! of campus, in heavy rain, to a SoftLoRa gateway in an open staircase.
//! The example reports the link budget, then runs a sequence of uplinks
//! and prints the PHY timestamping and record-timestamp accuracy of each
//! verdict the gateway (a one-gateway `NetworkServer`) returns.
//!
//! Run with: `cargo run --release --example campus_long_range`

use softlora_repro::lorawan::{ClassADevice, DeviceConfig};
use softlora_repro::phy::channel::propagation_delay_s;
use softlora_repro::phy::oscillator::Oscillator;
use softlora_repro::phy::{PhyConfig, SpreadingFactor};
use softlora_repro::sim::deployment::CampusDeployment;
use softlora_repro::sim::{AirFrame, HonestChannel, Interceptor};
use softlora_repro::softlora::{NetworkServer, SoftLoraVerdict};

/// Prints one table row for test `test`'s verdict, against the true
/// arrival (tx start + propagation) and the true sample time.
fn print_row(test: usize, true_arrival_s: f64, true_sample_s: f64, verdict: &SoftLoraVerdict) {
    match verdict {
        SoftLoraVerdict::Accepted { uplink, phy_arrival_s, .. } => {
            let phy_err_us = (phy_arrival_s - true_arrival_s).abs() * 1e6;
            let rec_err_ms = (uplink.records[0].global_time_s - true_sample_s).abs() * 1e3;
            println!("{test:>6} {phy_err_us:>16.2} {rec_err_ms:>18.3}");
        }
        other => println!("{test:>6} {other:?}"),
    }
}

fn main() {
    let campus = CampusDeployment::default();
    let medium = campus.medium();
    let site_a = campus.site_a(); // roof top: the end device
    let site_b = campus.site_b(); // open staircase: the gateway
                                  // SF9 keeps the demo fast; §8.2 used SF12 (same link budget story).
    let phy = PhyConfig::uplink(SpreadingFactor::Sf9);

    let distance = site_a.distance_m(&site_b);
    let link = medium.link(&site_a, &site_b, 14.0);
    println!("Campus long-range timestamping (paper §8.2, heavy rain)\n");
    println!("distance            : {distance:.0} m");
    println!("one-way propagation : {:.2} µs", propagation_delay_s(distance) * 1e6);
    println!(
        "link SNR            : {:.1} dB (SF9 floor: {:.1} dB)",
        link.snr_db(),
        phy.sf.demod_floor_db()
    );
    println!();

    let dev_cfg = DeviceConfig::new(0x2601_0C0C, phy);
    let mut device = ClassADevice::new(dev_cfg.clone());
    let mut osc = Oscillator::sample_end_device(869.75e6, 21);
    let mut gateway = NetworkServer::builder(phy)
        .gateway(33)
        .provision(dev_cfg.dev_addr, dev_cfg.keys.clone())
        .build();

    let mut honest = HonestChannel;
    println!("{:>6} {:>16} {:>18}", "test", "PHY error (µs)", "record error (ms)");
    for k in 0..4 {
        let t = 60.0 + 300.0 * k as f64;
        device.sense(900 + k as u16, t - 1.5).expect("sense");
        let tx = device.try_transmit(t).expect("tx");
        let frame = AirFrame {
            dev_addr: dev_cfg.dev_addr,
            bytes: tx.bytes,
            tx_start_global_s: t,
            airtime_s: tx.airtime_s,
            tx_power_dbm: 14.0,
            tx_position: site_a,
            tx_bias_hz: osc.frame_bias_hz(),
            tx_phase: 0.9,
            sf: phy.sf,
        };
        for d in honest.intercept(&frame, &medium, &site_b) {
            let verdict = gateway.process_delivery(0, &d).expect("pipeline");
            print_row(k + 1, t + propagation_delay_s(distance), t - 1.5, &verdict.verdict);
        }
    }
    println!("\nPaper §8.2 measured 0.23–6.43 µs over four rainy tests — microsecond");
    println!("signal timestamping at a kilometre, which keeps the FB estimate (and");
    println!("therefore the attack detector) accurate.");
}
