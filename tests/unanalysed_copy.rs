//! A copy at the SF7 demodulation floor whose onset pick lands too late
//! for two chirps to follow it is unanalysed data, not an infrastructure
//! failure. It drops out of its group's evidence and counts in
//! `gateway_unanalysed_copies_total`; `process_batch` does not abort, and
//! the sequential, batch, network-server and streaming paths agree on
//! every verdict.

use softlora_repro::dsp::DspScratch;
use softlora_repro::lorawan::{ClassADevice, DeviceConfig};
use softlora_repro::phy::rn2483::ReceptionOutcome;
use softlora_repro::phy::{PhyConfig, SpreadingFactor};
use softlora_repro::runtime::{FlowgraphBuilder, Scheduler};
use softlora_repro::sim::{Delivery, FleetDelivery, FrameSource, UplinkDeliveries};
use softlora_repro::softlora::pipeline::{FrontFrame, Pipeline};
use softlora_repro::softlora::ServerObserver;
use softlora_repro::softlora::{NetworkServer, ServerVerdict, SoftLoraConfig, SoftLoraVerdict};
use std::sync::{Arc, Mutex, OnceLock};

const DEV_ADDR: u32 = 0x2601_0001;
/// Inside the −7.4 … −5.8 dB band where such copies occur.
const FLOOR_SNR_DB: f64 = -6.6;
/// The first gateway seed in `0..512` whose first capture of the floor
/// copy lands its onset too late for two chirps (the other seeds of this
/// test are ordinary). Which seeds do depends on the simulated noise, so
/// it is found by a deterministic scan rather than fixed.
fn floor_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        let floor = uplinks(&[&[FLOOR_SNR_DB]]).concat().remove(0);
        let mut scratch = DspScratch::new();
        (0..512)
            .find(|&seed| {
                // The front half a server gateway seeded `seed` runs.
                let pipeline = Pipeline::new(SoftLoraConfig::new(phy()), seed);
                matches!(
                    pipeline.front_half_with(&floor, 0, &mut scratch),
                    Ok(FrontFrame::NotReceived { outcome: ReceptionOutcome::NoSignal, .. })
                )
            })
            .expect("some gateway seed leaves the floor copy unanalysable")
    })
}

fn phy() -> PhyConfig {
    PhyConfig::uplink(SpreadingFactor::Sf7)
}

fn device() -> DeviceConfig {
    DeviceConfig::new(DEV_ADDR, phy())
}

/// One genuine uplink every 200 s, heard at each SNR of `snrs_db`.
fn uplinks(snrs_db: &[&[f64]]) -> Vec<Vec<Delivery>> {
    let mut dev = ClassADevice::new(device());
    snrs_db
        .iter()
        .enumerate()
        .map(|(k, snrs)| {
            let t = 100.0 + 200.0 * k as f64;
            dev.sense(777, t - 1.0).unwrap();
            let tx = dev.try_transmit(t).unwrap();
            snrs.iter()
                .map(|&snr_db| Delivery {
                    bytes: tx.bytes.clone(),
                    dev_addr: DEV_ADDR,
                    arrival_global_s: t + 4e-6,
                    snr_db,
                    carrier_bias_hz: -22_000.0,
                    carrier_phase: 0.7,
                    sf: SpreadingFactor::Sf7,
                    jamming: None,
                    is_replay: false,
                })
                .collect()
        })
        .collect()
}

fn unanalysed_total() -> u64 {
    softlora_repro::telemetry::global().snapshot().counter_sum("gateway_unanalysed_copies_total")
}

#[test]
fn single_gateway_batch_survives_an_unanalysable_copy() {
    let stream: Vec<Delivery> =
        uplinks(&[&[FLOOR_SNR_DB], &[10.0], &[10.0], &[10.0], &[10.0]]).concat();
    let gateway = || {
        let dev = device();
        NetworkServer::builder(phy())
            .gateway(floor_seed())
            .provision(dev.dev_addr, dev.keys)
            .build()
    };
    let before = unanalysed_total();
    let mut sequential = gateway();
    let expected: Vec<SoftLoraVerdict> = stream
        .iter()
        .map(|d| sequential.process_delivery(0, d).expect("sequential").verdict)
        .collect();
    // One group per delivery.
    let groups: Vec<UplinkDeliveries> = stream
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
    let batch: Vec<SoftLoraVerdict> = gateway()
        .process_batch(&groups)
        .expect("one short capture must not abort")
        .into_iter()
        .map(|v| v.verdict)
        .collect();
    assert_eq!(batch, expected);
    assert_eq!(batch[0], SoftLoraVerdict::NotReceived { outcome: ReceptionOutcome::NoSignal });
    assert!(batch[1..].iter().all(|v| !matches!(v, SoftLoraVerdict::NotReceived { .. })));
    // Once per path; other tests in this binary may add their own.
    assert!(unanalysed_total() >= before + 2);
}

#[derive(Default)]
struct Collect(Vec<ServerVerdict>);

impl ServerObserver for Collect {
    fn on_verdict(&mut self, _uplink: u64, verdict: &ServerVerdict) {
        self.0.push(verdict.clone());
    }
}

#[test]
fn network_server_drops_the_copy_from_its_group() {
    // Gateway 1 hears the first uplink at the floor; gateway 0 hears
    // everything loud.
    let groups: Vec<UplinkDeliveries> =
        uplinks(&[&[10.0, FLOOR_SNR_DB], &[10.0, 10.0], &[10.0, 10.0], &[10.0, 10.0]])
            .into_iter()
            .enumerate()
            .map(|(k, copies)| UplinkDeliveries {
                uplink: k as u64,
                dev_addr: DEV_ADDR,
                tx_start_global_s: copies[0].arrival_global_s,
                airtime_s: 0.05,
                copies: copies
                    .into_iter()
                    .enumerate()
                    .map(|(gateway, delivery)| FleetDelivery { gateway, delivery })
                    .collect(),
            })
            .collect();
    let server = || {
        let dev = device();
        NetworkServer::builder(phy())
            .warmup_frames(2)
            .gateway(5)
            .gateway(floor_seed())
            .shards(1)
            .provision(dev.dev_addr, dev.keys)
            .build()
    };

    let batch = server().process_batch(&groups).expect("one short capture must not abort");
    assert_eq!(batch[0].copies_heard, 1, "{:?}", batch[0]);
    assert_eq!(batch[0].gateway, Some(0));
    assert!(batch[1..].iter().all(|v| v.copies_heard == 2), "{batch:?}");

    let streamed = Arc::new(Mutex::new(Collect::default()));
    let (fronts, mut sink) = server().into_streaming();
    sink.attach_observer(Box::new(Arc::clone(&streamed)));
    let mut b = FlowgraphBuilder::new();
    let src = b.source(FrameSource::from_groups(groups));
    let parts: Vec<_> = fronts.into_iter().map(|front| b.stage(src, front)).collect();
    b.sink(&parts, sink);
    Scheduler::new(2).run(b.build().expect("valid flowgraph"));
    assert_eq!(streamed.lock().unwrap().0, batch);
}
