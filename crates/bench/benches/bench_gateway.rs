//! Criterion benchmarks for the SoftLoRa gateway pipeline, driven through
//! a one-gateway `NetworkServer` (the paper's single-link gateway).
//!
//! Three questions:
//!
//! 1. the cost of being attack-aware per delivery (`process_delivery_sf7`:
//!    capture + AIC timestamp + FB estimate + the server's shard tail);
//! 2. what the staged refactor bought per frame — the monolithic gateway
//!    ran the AIC onset picker **twice** per frame (once for the
//!    timestamp, once for the FB window); `front_half_single_pick` versus
//!    `front_half_with_redundant_pick` measures exactly that delta;
//! 3. what batching buys — `sequential_16` versus `batch_16` runs the
//!    same 16-delivery stream through a `process_delivery` loop and
//!    through one `process_batch` call (one group per delivery, so the
//!    front halves run in parallel).
//!
//! `capture_synth_sf7` times the simulator's share of the front half on
//! its own: one quantised SF7 capture (three chirps plus lead, ≈ 8k
//! samples, with Gaussian noise) synthesised on a warm scratch arena.

use criterion::{criterion_group, criterion_main, Criterion};
use softlora::pipeline::CaptureSynth;
use softlora::{NetworkServer, SoftLoraConfig};
use softlora_dsp::DspScratch;
use softlora_lorawan::{ClassADevice, DeviceConfig};
use softlora_phy::{PhyConfig, SpreadingFactor};
use softlora_sim::{Delivery, FleetDelivery, UplinkDeliveries};
use std::hint::black_box;

fn mk_gateway_and_stream(n: usize) -> (NetworkServer, Vec<Delivery>) {
    let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
    let dev_cfg = DeviceConfig::new(0x2601_0001, phy);
    let mut dev = ClassADevice::new(dev_cfg.clone());
    let mut gw = NetworkServer::builder(phy)
        .adc_quantisation(false)
        .gateway(3)
        .provision(dev_cfg.dev_addr, dev_cfg.keys.clone())
        .build();

    let mut mk_delivery = |t: f64, fcnt_time: f64| -> Delivery {
        dev.sense(1, fcnt_time).expect("sense");
        let tx = dev.try_transmit(t).expect("tx");
        Delivery {
            bytes: tx.bytes,
            dev_addr: dev_cfg.dev_addr,
            arrival_global_s: t + 4e-6,
            snr_db: 10.0,
            carrier_bias_hz: -22_000.0,
            carrier_phase: 0.4,
            sf: phy.sf,
            jamming: None,
            is_replay: false,
        }
    };
    // Warm the FB database so the benchmarks measure the steady state.
    for k in 0..5 {
        let d = mk_delivery(100.0 + 200.0 * k as f64, 99.0 + 200.0 * k as f64);
        gw.process_delivery(0, &d).expect("warmup");
    }
    // Representative steady-state deliveries. Re-processing them trips the
    // server's recent-uplink dedup, which still exercises the whole SDR +
    // DSP front half of the pipeline (the expensive part).
    let stream: Vec<Delivery> =
        (0..n).map(|k| mk_delivery(2000.0 + 200.0 * k as f64, 1999.0 + 200.0 * k as f64)).collect();
    (gw, stream)
}

fn bench_pipeline(c: &mut Criterion) {
    let (mut gw, stream) = mk_gateway_and_stream(1);
    let d = stream[0].clone();

    let mut group = c.benchmark_group("softlora_gateway");
    group.sample_size(20);
    group.bench_function("process_delivery_sf7", |b| {
        b.iter(|| gw.process_delivery(0, black_box(&d)).expect("process"))
    });

    // The per-frame win of the staged refactor: the front half picks the
    // onset once; the monolithic gateway effectively ran it twice.
    let pipeline = gw.pipeline(0);
    let mut scratch = DspScratch::new();
    group.bench_function("front_half_single_pick", |b| {
        b.iter(|| pipeline.front_half_with(black_box(&d), 1_000, &mut scratch).expect("front half"))
    });
    let capture = pipeline
        .capture
        .synthesise_with(pipeline.config(), &d, 1_000, &mut scratch)
        .expect("capture");
    group.bench_function("front_half_with_redundant_pick", |b| {
        b.iter(|| {
            let front =
                pipeline.front_half_with(black_box(&d), 1_000, &mut scratch).expect("front half");
            // The second pick the old monolith paid for per frame.
            let again = pipeline
                .onset
                .pick_with(black_box(&capture.capture), d.arrival_global_s, &mut scratch)
                .expect("redundant pick");
            (front, again)
        })
    });

    // The simulator stage alone, with ADC quantisation on (the default).
    let config = SoftLoraConfig::new(pipeline.config().phy);
    let synth = CaptureSynth::new(&config, 3);
    group.bench_function("capture_synth_sf7", |b| {
        b.iter(|| {
            let out = synth
                .synthesise_with(&config, black_box(&d), 1_000, &mut scratch)
                .expect("capture");
            out.recycle(&mut scratch);
        })
    });
    group.finish();
}

fn bench_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("softlora_gateway_batch");
    group.sample_size(10);

    let (mut gw, stream) = mk_gateway_and_stream(16);
    group.bench_function("sequential_16", |b| {
        b.iter(|| {
            for d in &stream {
                gw.process_delivery(0, black_box(d)).expect("process");
            }
        })
    });

    let (mut gw, stream) = mk_gateway_and_stream(16);
    // One group per delivery: each is its own uplink, never a copy of
    // another.
    let groups: Vec<UplinkDeliveries> = stream
        .into_iter()
        .enumerate()
        .map(|(k, delivery)| UplinkDeliveries {
            uplink: k as u64,
            dev_addr: delivery.dev_addr,
            tx_start_global_s: delivery.arrival_global_s,
            airtime_s: 0.0,
            copies: vec![FleetDelivery { gateway: 0, delivery }],
        })
        .collect();
    group.bench_function("batch_16", |b| {
        b.iter(|| gw.process_batch(black_box(&groups)).expect("batch"))
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline, bench_batch);
criterion_main!(benches);
