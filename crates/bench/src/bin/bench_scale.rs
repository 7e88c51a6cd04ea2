//! `bench_scale` — the multi-core scaling campaign: the same Poisson
//! fleet, persisted and sharded, replayed through the streaming
//! flowgraph at a grid of worker counts.
//!
//! Usage:
//!
//! ```text
//! bench_scale [--out BENCH_scale.json] [--sim-s SECONDS]
//! ```
//!
//! For every worker count the run measures wall-clock
//! throughput (uplink groups per second through source → per-gateway
//! fronts → shard router → per-shard persisted sinks) and the
//! commit-latency distribution (`server_commit_ns`, per-shard histogram
//! deltas merged across shards). Verdicts are checked bit-for-bit
//! against the first cell, so a worker count that corrupts results fails
//! the bench rather than posting a good number. The JSON artifact is
//! uploaded by CI; the README "Performance" table is generated from it.

use softlora::NetworkServer;
use softlora_bench::table::Table;
use softlora_phy::{PhyConfig, SpreadingFactor};
use softlora_runtime::{FlowgraphBuilder, Scheduler};
use softlora_sim::{FleetDeployment, FrameSource, HonestChannel, Scenario, UplinkDeliveries};
use softlora_store::test_dir;
use softlora_telemetry::{HistogramSnapshot, RegistrySnapshot};
use std::fmt::Write as _;
use std::time::Instant;

const GATEWAYS: usize = 2;
const DEVICES: usize = 4;
const SHARDS: usize = 2;

fn phy() -> PhyConfig {
    PhyConfig::uplink(SpreadingFactor::Sf7)
}

/// The pinned workload: a 2-gateway fleet with Poisson-spaced uplinks
/// from 4 meters (mean period 300 s). Honest channel — this campaign
/// measures the pipeline, not the detector.
fn scenario() -> Scenario {
    let fleet = FleetDeployment::with_gateways(GATEWAYS);
    let mut scenario = Scenario::new_fleet(
        phy(),
        fleet.medium(),
        fleet.gateway_positions(),
        Box::new(HonestChannel),
    );
    for (k, pos) in fleet.device_positions(DEVICES, 47).iter().enumerate() {
        scenario.add_device(0x2603_1000 + k as u32, *pos, 300.0, k as u64);
    }
    scenario
}

fn build_server(dir: &std::path::Path) -> NetworkServer {
    let reference = scenario();
    let mut builder = NetworkServer::builder(phy())
        .adc_quantisation(false)
        .warmup_frames(2)
        .shards(SHARDS)
        .with_persistence(dir);
    for g in 0..GATEWAYS {
        builder = builder.gateway(g as u64 + 1);
    }
    for k in 0..reference.devices() {
        let cfg = reference.device_config(k).clone();
        builder = builder.provision(cfg.dev_addr, cfg.keys);
    }
    builder.build()
}

/// The `server_commit_ns` histogram delta between two registry
/// snapshots, merged across shards — the commit-latency distribution of
/// exactly one run, even though the process-global registry accumulates
/// forever.
fn commit_ns_delta(before: &RegistrySnapshot, after: &RegistrySnapshot) -> HistogramSnapshot {
    let mut delta = after.histogram_sum("server_commit_ns").unwrap_or_default();
    if let Some(prior) = before.histogram_sum("server_commit_ns") {
        for (d, p) in delta.buckets.iter_mut().zip(prior.buckets.iter()) {
            *d = d.wrapping_sub(*p);
        }
        delta.count = delta.count.wrapping_sub(prior.count);
        delta.sum = delta.sum.wrapping_sub(prior.sum);
    }
    delta
}

struct Cell {
    workers: usize,
    elapsed_s: f64,
    throughput: f64,
    commit_ns: HistogramSnapshot,
}

fn main() {
    let mut out: Option<String> = None;
    let mut sim_s = 2600.0f64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = args.next(),
            "--sim-s" => {
                sim_s = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("--sim-s needs a number");
                    std::process::exit(2);
                });
            }
            other => {
                eprintln!("unknown argument {other}; usage: bench_scale [--out FILE] [--sim-s S]");
                std::process::exit(2);
            }
        }
    }

    let mut sim = scenario();
    let mut groups: Vec<UplinkDeliveries> = Vec::new();
    sim.run(sim_s, |u| groups.push(u.clone()));
    assert!(groups.len() >= 10, "too few uplinks: {}", groups.len());

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut worker_grid = vec![1usize, 2, 4, cores];
    worker_grid.sort_unstable();
    worker_grid.dedup();
    println!(
        "Scaling campaign: {GATEWAYS} gateways, {DEVICES} devices, {SHARDS} shards, \
         {} groups, workers {worker_grid:?} ({cores} cores)",
        groups.len()
    );

    let registry = softlora_telemetry::global();
    let mut cells: Vec<Cell> = Vec::new();
    let mut reference: Option<Vec<(u64, softlora::ServerVerdict)>> = None;
    for &workers in &worker_grid {
        let dir = test_dir(&format!("bench-scale-{workers}"));
        let mut server = build_server(&dir);
        let verdicts = std::sync::Arc::new(std::sync::Mutex::new(Vec::<(
            u64,
            softlora::ServerVerdict,
        )>::new()));
        struct Tap(std::sync::Arc<std::sync::Mutex<Vec<(u64, softlora::ServerVerdict)>>>);
        impl softlora::ServerObserver for Tap {
            fn on_verdict(&mut self, uplink: u64, verdict: &softlora::ServerVerdict) {
                self.0.lock().unwrap().push((uplink, verdict.clone()));
            }
        }
        server.attach_observer(Box::new(Tap(std::sync::Arc::clone(&verdicts))));
        let (fronts, router, sinks) = server.into_sharded_streaming();

        let before = registry.snapshot();
        let mut b = FlowgraphBuilder::new();
        let src = b.source(FrameSource::from_groups(groups.clone()));
        let parts: Vec<_> = fronts.into_iter().map(|front| b.stage(src, front)).collect();
        let routed = b.merge(&parts, router);
        for sink in sinks {
            b.sink(&[routed], sink);
        }
        let start = Instant::now();
        Scheduler::new(workers).run(b.build().expect("valid flowgraph"));
        let elapsed = start.elapsed();
        let after = registry.snapshot();

        let mut sorted = verdicts.lock().unwrap().clone();
        sorted.sort_by_key(|(uplink, _)| *uplink);
        assert_eq!(sorted.len(), groups.len(), "every group must commit");
        match &reference {
            None => reference = Some(sorted),
            Some(expected) => {
                assert_eq!(&sorted, expected, "{workers} workers diverged");
            }
        }

        let elapsed_s = elapsed.as_secs_f64();
        cells.push(Cell {
            workers,
            elapsed_s,
            throughput: groups.len() as f64 / elapsed_s,
            commit_ns: commit_ns_delta(&before, &after),
        });
        std::fs::remove_dir_all(&dir).ok();
    }

    let mut t = Table::new(["Workers", "Groups/s", "Commit p50", "Commit p99"]);
    for c in &cells {
        t.row([
            c.workers.to_string(),
            format!("{:.1}", c.throughput),
            format!("{:.0} ns", c.commit_ns.p50()),
            format!("{:.0} ns", c.commit_ns.p99()),
        ]);
    }
    println!("\n{t}");

    if let Some(path) = out {
        let mut json = format!(
            "{{\"gateways\":{GATEWAYS},\"devices\":{DEVICES},\"shards\":{SHARDS},\
             \"groups\":{},\"cores\":{cores},\"configs\":[",
            groups.len()
        );
        for (k, c) in cells.iter().enumerate() {
            if k > 0 {
                json.push(',');
            }
            let _ = write!(
                json,
                "{{\"workers\":{},\"elapsed_s\":{:.4},\
                 \"throughput_groups_per_s\":{:.2},\"commit_ns\":{{\
                 \"count\":{},\"mean\":{:.0},\"p50\":{:.0},\"p90\":{:.0},\"p99\":{:.0}}}}}",
                c.workers,
                c.elapsed_s,
                c.throughput,
                c.commit_ns.count,
                c.commit_ns.mean(),
                c.commit_ns.p50(),
                c.commit_ns.p90(),
                c.commit_ns.p99(),
            );
        }
        json.push_str("]}");
        std::fs::write(&path, json).expect("write JSON artifact");
        println!("Wrote {path}");
    }
}
