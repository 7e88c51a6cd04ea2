//! Criterion benchmarks for the streaming flowgraph runtime.
//!
//! Two layers:
//!
//! 1. `ring_*` — raw SPSC ring throughput across a thread pair, singleton
//!    vs batched push/pop (the transport cost under every flowgraph
//!    edge);
//! 2. `stream_*` — the gateway + network-server stack end to end:
//!    the same pinned group stream through `NetworkServer::process_batch`
//!    (the scoped-thread batch path) and through the flowgraph
//!    (source → per-gateway fronts → server sink) at 1 and 4 scheduler
//!    workers, in frames (per-gateway copies) per second.

use criterion::{criterion_group, criterion_main, Criterion};
use softlora::NetworkServer;
use softlora_phy::{PhyConfig, SpreadingFactor};
use softlora_runtime::ring::channel;
use softlora_runtime::{FlowgraphBuilder, Scheduler};
use softlora_sim::{FleetDeployment, FrameSource, HonestChannel, Scenario, UplinkDeliveries};
use std::hint::black_box;

fn phy() -> PhyConfig {
    PhyConfig::uplink(SpreadingFactor::Sf7)
}

const RING_ITEMS: u64 = 200_000;

fn bench_ring(c: &mut Criterion) {
    let mut group = c.benchmark_group("runtime_ring");
    group.sample_size(10);

    group.bench_function(format!("ring_spsc_singleton_{RING_ITEMS}"), |b| {
        b.iter(|| {
            let (mut tx, mut rx) = channel::<u64, 1024>();
            let producer = std::thread::spawn(move || {
                for k in 0..RING_ITEMS {
                    let mut item = k;
                    while let Err(back) = tx.push(item) {
                        item = back;
                        std::thread::yield_now();
                    }
                }
            });
            let mut sum = 0u64;
            let mut seen = 0u64;
            while seen < RING_ITEMS {
                if let Some(v) = rx.pop() {
                    sum = sum.wrapping_add(v);
                    seen += 1;
                } else {
                    std::thread::yield_now();
                }
            }
            producer.join().unwrap();
            black_box(sum)
        })
    });

    group.bench_function(format!("ring_spsc_batched_{RING_ITEMS}"), |b| {
        b.iter(|| {
            let (mut tx, mut rx) = channel::<u64, 1024>();
            let producer = std::thread::spawn(move || {
                let mut pending: Vec<u64> = Vec::with_capacity(256);
                let mut next = 0u64;
                while next < RING_ITEMS || !pending.is_empty() {
                    while pending.len() < 256 && next < RING_ITEMS {
                        pending.push(next);
                        next += 1;
                    }
                    if tx.push_batch(&mut pending) == 0 {
                        std::thread::yield_now();
                    }
                }
            });
            let mut out: Vec<u64> = Vec::with_capacity(256);
            let mut sum = 0u64;
            let mut seen = 0u64;
            while seen < RING_ITEMS {
                if rx.pop_batch(&mut out, 256) == 0 {
                    std::thread::yield_now();
                }
                seen += out.len() as u64;
                for v in out.drain(..) {
                    sum = sum.wrapping_add(v);
                }
            }
            producer.join().unwrap();
            black_box(sum)
        })
    });

    group.finish();
}

/// A fixed stream of uplink groups from the fleet scenario engine.
fn pinned_groups(
    devices: usize,
    gateways: usize,
    until_s: f64,
) -> (Vec<UplinkDeliveries>, Scenario) {
    let fleet = FleetDeployment::with_gateways(gateways);
    let mut scenario = Scenario::new_fleet(
        phy(),
        fleet.medium(),
        fleet.gateway_positions(),
        Box::new(HonestChannel),
    );
    for (k, pos) in fleet.device_positions(devices, 42).iter().enumerate() {
        scenario.add_device(0x2601_6000 + k as u32, *pos, 60.0, k as u64);
    }
    let mut groups = Vec::new();
    scenario.run(until_s, |u| groups.push(u.clone()));
    (groups, scenario)
}

fn build_server(scenario: &Scenario, gateways: usize) -> NetworkServer {
    let mut builder = NetworkServer::builder(phy()).adc_quantisation(false).warmup_frames(2);
    for g in 0..gateways {
        builder = builder.gateway(g as u64);
    }
    for k in 0..scenario.devices() {
        let cfg = scenario.device_config(k).clone();
        builder = builder.provision(cfg.dev_addr, cfg.keys);
    }
    builder.build()
}

fn bench_streaming_vs_batch(c: &mut Criterion) {
    let gateways = 2;
    let (groups, scenario) = pinned_groups(4, gateways, 900.0);
    let copies: usize = groups.iter().map(|g| g.copies.len()).sum();

    let mut group = c.benchmark_group("runtime_stream");
    group.sample_size(10);

    group.bench_function(format!("process_batch_{copies}frames"), |b| {
        b.iter(|| {
            let mut server = build_server(&scenario, gateways);
            let verdicts = server.process_batch(black_box(&groups)).expect("batch pipeline");
            black_box(verdicts.len())
        })
    });

    for workers in [1usize, 4] {
        group.bench_function(format!("flowgraph_{workers}workers_{copies}frames"), |b| {
            b.iter(|| {
                let (fronts, sink) = build_server(&scenario, gateways).into_streaming();
                let mut fg = FlowgraphBuilder::new();
                let src = fg.source(FrameSource::from_groups(groups.clone()));
                let parts: Vec<_> = fronts.into_iter().map(|front| fg.stage(src, front)).collect();
                fg.sink(&parts, sink);
                let report = Scheduler::new(workers).run(fg.build().expect("valid flowgraph"));
                black_box(report.block("server-sink").expect("sink report").items_in)
            })
        });
    }

    group.finish();
}

criterion_group!(benches, bench_ring, bench_streaming_vs_batch);
criterion_main!(benches);
