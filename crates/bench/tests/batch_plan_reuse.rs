//! Pins that a warm `process_batch` builds no FFT plans. The DSP arenas
//! belong to the server, not to the threads a batch runs on, so the
//! twiddle tables the first call builds serve every later call — batch
//! or sequential.
//!
//! One test per file: the telemetry registry is process-global, so a
//! lone test keeps other tests' plan builds out of the counted region.

use softlora::NetworkServer;
use softlora_lorawan::{ClassADevice, DeviceConfig};
use softlora_phy::{PhyConfig, SpreadingFactor};
use softlora_sim::{Delivery, FleetDelivery, UplinkDeliveries};

const GATEWAYS: usize = 2;
const UPLINKS: usize = 24;
/// Below the −5 dB switch to the matched-filter FB estimator (the stage
/// that runs an FFT) and above the floor band where a copy can go
/// unanalysed, so every copy builds on the same plan.
const SNR_DB: f64 = -5.5;

fn phy() -> PhyConfig {
    PhyConfig::uplink(SpreadingFactor::Sf7)
}

fn plans_built() -> u64 {
    softlora_telemetry::global().snapshot().counter_sum("dsp_fft_plans_total")
}

#[test]
fn warm_batches_build_no_fft_plans() {
    let device = DeviceConfig::new(0x2601_0001, phy());
    let mut dev = ClassADevice::new(device.clone());
    let groups: Vec<UplinkDeliveries> = (0..UPLINKS)
        .map(|k| {
            let t = 100.0 + 200.0 * k as f64;
            dev.sense(777, t - 1.0).expect("sense");
            let tx = dev.try_transmit(t).expect("transmit");
            let copies = (0..GATEWAYS)
                .map(|gateway| FleetDelivery {
                    gateway,
                    delivery: Delivery {
                        bytes: tx.bytes.clone(),
                        dev_addr: device.dev_addr,
                        arrival_global_s: t + 4e-6,
                        snr_db: SNR_DB,
                        carrier_bias_hz: -22_000.0,
                        carrier_phase: 0.7,
                        sf: SpreadingFactor::Sf7,
                        jamming: None,
                        is_replay: false,
                    },
                })
                .collect();
            UplinkDeliveries {
                uplink: k as u64,
                dev_addr: device.dev_addr,
                tx_start_global_s: t,
                airtime_s: 0.05,
                copies,
            }
        })
        .collect();

    let mut server = NetworkServer::builder(phy()).adc_quantisation(false);
    for g in 0..GATEWAYS {
        server = server.gateway(g as u64);
    }
    let mut server = server.provision(device.dev_addr, device.keys.clone()).build();
    let cold = plans_built();
    server.process_batch(&groups).expect("warm-up batch");
    let before = plans_built();
    assert!(before > cold, "the warm-up ran no FFT, so this test pins nothing");
    server.process_batch(&groups).expect("warm batch");
    assert_eq!(plans_built() - before, 0, "a warm NetworkServer batch rebuilt FFT plans");

    // One gateway, one group per delivery: the single-link configuration.
    let singles: Vec<UplinkDeliveries> = groups
        .iter()
        .map(|g| UplinkDeliveries { copies: vec![g.copies[0].clone()], ..g.clone() })
        .collect();
    let mut gateway = NetworkServer::builder(phy()).adc_quantisation(false).build();
    gateway.process_batch(&singles).expect("warm-up batch");
    let before = plans_built();
    gateway.process_batch(&singles).expect("warm batch");
    assert_eq!(plans_built() - before, 0, "a warm one-gateway batch rebuilt FFT plans");
    gateway.process_delivery(0, &singles[0].copies[0].delivery).expect("sequential delivery");
    assert_eq!(plans_built() - before, 0, "process_delivery after a warm batch rebuilt FFT plans");
}
