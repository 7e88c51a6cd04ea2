//! Streaming-runtime acceptance test: the flowgraph execution of the
//! gateway + network-server stack emits **bit-for-bit** the same verdicts
//! as the batch path on a pinned fleet scenario — including an attack
//! phase — and loses no uplink at shutdown. The sequential tail runs on
//! 3 worker threads and the sharded tail on 1, 2 and 4 (the 2-worker run
//! persisted), so items cross threads at every ring hop without changing
//! a single verdict.

use softlora_repro::attack::FrameDelayAttack;
use softlora_repro::phy::{PhyConfig, SpreadingFactor};
use softlora_repro::runtime::{FlowgraphBuilder, RuntimeStats, Scheduler};
use softlora_repro::sim::{
    FleetDeployment, FrameSource, HonestChannel, Position, Scenario, UplinkDeliveries,
};
use softlora_repro::softlora::ServerObserver;
use softlora_repro::softlora::{fsck_store, NetworkServer, ServerStats, ServerVerdict};
use softlora_repro::store::test_dir;
use std::path::Path;
use std::sync::{Arc, Mutex};

const GATEWAYS: usize = 2;
const DEVICES: usize = 3;

fn phy() -> PhyConfig {
    PhyConfig::uplink(SpreadingFactor::Sf7)
}

/// The pinned workload: a 2-gateway fleet, clean traffic until t = 1500 s,
/// then the frame-delay attack (τ = 40 s) against the first meter until
/// t = 2600 s. Fully deterministic.
fn pinned_scenario() -> Scenario {
    let fleet = FleetDeployment::with_gateways(GATEWAYS);
    let gateways = fleet.gateway_positions();
    let mut scenario =
        Scenario::new_fleet(phy(), fleet.medium(), gateways.clone(), Box::new(HonestChannel));
    let positions = fleet.device_positions(DEVICES, 21);
    for (k, pos) in positions.iter().enumerate() {
        scenario.add_device(0x2601_5000 + k as u32, *pos, 300.0, k as u64);
    }
    let target = positions[0];
    let attack = FrameDelayAttack::near_gateway(
        Position::new(target.x + 2.0, target.y + 1.0, target.z),
        &gateways,
        0,
        2.0,
        40.0,
        phy(),
        7,
    )
    .with_targets(vec![0x2601_5000]);
    scenario.schedule_interceptor(1500.0, Box::new(attack));
    scenario
}

fn build_server_sharded(
    scenario: &Scenario,
    shards: usize,
    persist: Option<&Path>,
) -> NetworkServer {
    let mut builder = NetworkServer::builder(phy())
        .adc_quantisation(false)
        .warmup_frames(2)
        .gateway(1)
        .gateway(2)
        .shards(shards);
    for k in 0..scenario.devices() {
        let cfg = scenario.device_config(k).clone();
        builder = builder.provision(cfg.dev_addr, cfg.keys);
    }
    if let Some(dir) = persist {
        builder = builder.with_persistence(dir);
    }
    builder.build()
}

fn build_server(scenario: &Scenario) -> NetworkServer {
    build_server_sharded(scenario, 1, None)
}

/// Observer collecting every committed verdict — the streaming path's
/// result channel, shared by both paths here so the observer surface
/// itself is part of what the test pins.
#[derive(Default)]
struct Collect {
    verdicts: Vec<(u64, ServerVerdict)>,
    last_stats: Option<ServerStats>,
}

impl ServerObserver for Collect {
    fn on_verdict(&mut self, uplink: u64, verdict: &ServerVerdict) {
        self.verdicts.push((uplink, verdict.clone()));
    }
    fn on_stats(&mut self, stats: ServerStats) {
        self.last_stats = Some(stats);
    }
}

#[test]
fn flowgraph_matches_batch_bit_for_bit() {
    // Generate the pinned group stream once.
    let mut scenario = pinned_scenario();
    let mut groups: Vec<UplinkDeliveries> = Vec::new();
    scenario.run(2600.0, |u| groups.push(u.clone()));
    assert!(groups.len() >= 15, "too few uplinks: {}", groups.len());
    assert!(
        groups.iter().any(|g| g.copies.iter().any(|c| c.delivery.is_replay)),
        "the attack phase must put replay groups on the stream"
    );

    // Batch path.
    let batch_observer = Arc::new(Mutex::new(Collect::default()));
    let mut batch_server = build_server(&pinned_scenario());
    batch_server.attach_observer(Box::new(Arc::clone(&batch_observer)));
    let batch_verdicts = batch_server.process_batch(&groups).expect("batch pipeline");
    let batch_stats = batch_server.stats();
    let batch_detection = batch_server.detection_stats();

    // Streaming path: the identical server, dismantled into flowgraph
    // blocks and run on 3 workers.
    let stream_observer = Arc::new(Mutex::new(Collect::default()));
    let (fronts, mut sink) = build_server(&pinned_scenario()).into_streaming();
    assert_eq!(fronts.len(), GATEWAYS);
    sink.attach_observer(Box::new(Arc::clone(&stream_observer)));

    let runtime_stats = Arc::new(RuntimeStats::new());
    let mut b = FlowgraphBuilder::new();
    b.observer(Arc::clone(&runtime_stats) as _);
    let src = b.source(FrameSource::from_groups(groups.clone()));
    let parts: Vec<_> = fronts.into_iter().map(|front| b.stage(src, front)).collect();
    b.sink(&parts, sink);
    let report = Scheduler::new(3).run(b.build().expect("valid flowgraph"));

    // 1. Verdict equivalence, bit for bit, in uplink order.
    let streamed = stream_observer.lock().unwrap();
    assert_eq!(streamed.verdicts.len(), batch_verdicts.len(), "no uplink lost at shutdown");
    for ((uplink, verdict), expected) in streamed.verdicts.iter().zip(batch_verdicts.iter()) {
        assert_eq!(verdict, expected, "uplink {uplink}");
    }

    // 2. Both observer streams saw identical sequences and final stats.
    let batched = batch_observer.lock().unwrap();
    assert_eq!(streamed.verdicts, batched.verdicts);
    assert_eq!(streamed.last_stats, Some(batch_stats));
    assert_eq!(streamed.last_stats, batched.last_stats);

    // 3. The workload actually exercised the defence: accepted clean
    //    traffic and flagged replays.
    assert!(batch_stats.accepted > 5, "{batch_stats:?}");
    assert!(
        batch_stats.fb_replays_flagged + batch_stats.cross_gateway_replays_flagged > 0,
        "{batch_stats:?}"
    );
    assert!(batch_detection.true_positives > 0, "{batch_detection:?}");

    // 4. Runtime accounting: every group flowed through every front
    //    block and all parts reached the sink.
    let n = groups.len() as u64;
    assert_eq!(report.block("frame-source").unwrap().items_out, n * GATEWAYS as u64);
    for g in 0..GATEWAYS {
        let front = report.block(&format!("gateway-front-{g}")).unwrap();
        assert_eq!(front.items_in, n);
        assert_eq!(front.items_out, n);
    }
    assert_eq!(report.block("server-sink").unwrap().items_in, n * GATEWAYS as u64);
    assert_eq!(runtime_stats.finished_blocks(), (GATEWAYS + 2) as u64);
}

#[test]
fn sharded_flowgraph_matches_batch_bit_for_bit() {
    const SHARDS: usize = 3;
    // The pinned group stream, once.
    let mut scenario = pinned_scenario();
    let mut groups: Vec<UplinkDeliveries> = Vec::new();
    scenario.run(2600.0, |u| groups.push(u.clone()));

    // Batch path with the same shard count.
    let mut batch_server = build_server_sharded(&pinned_scenario(), SHARDS, None);
    let batch_verdicts = batch_server.process_batch(&groups).expect("batch pipeline");
    let batch_stats = batch_server.stats();
    let batch_detection = batch_server.detection_stats();

    for workers in [1, 2, 4] {
        // The 2-worker run persists: each shard sink flushes its WAL when
        // the flowgraph finishes.
        let dir = (workers == 2).then(|| test_dir("sharded-flowgraph"));

        // Streaming path with the tail parallelised INSIDE the flowgraph:
        // source → per-gateway fronts → shard router → per-shard sinks.
        let stream_observer = Arc::new(Mutex::new(Collect::default()));
        let mut server = build_server_sharded(&pinned_scenario(), SHARDS, dir.as_deref());
        server.attach_observer(Box::new(Arc::clone(&stream_observer)));
        let (fronts, router, sinks) = server.into_sharded_streaming();
        assert_eq!(fronts.len(), GATEWAYS);
        assert_eq!(sinks.len(), SHARDS);

        let runtime_stats = Arc::new(RuntimeStats::new());
        let mut b = FlowgraphBuilder::new();
        b.observer(Arc::clone(&runtime_stats) as _);
        let src = b.source(FrameSource::from_groups(groups.clone()));
        let parts: Vec<_> = fronts.into_iter().map(|front| b.stage(src, front)).collect();
        let routed = b.merge(&parts, router);
        for sink in sinks {
            b.sink(&[routed], sink);
        }
        let report = Scheduler::new(workers).run(b.build().expect("valid flowgraph"));

        // 1. Per-uplink verdicts are bit-for-bit the batch path's. Shard
        //    sinks commit concurrently, so the observer sees them in
        //    cross-shard commit order — compare keyed by uplink id.
        let streamed = stream_observer.lock().unwrap();
        assert_eq!(
            streamed.verdicts.len(),
            batch_verdicts.len(),
            "no uplink lost at shutdown ({workers} workers)"
        );
        let mut by_uplink: Vec<(u64, ServerVerdict)> = streamed.verdicts.clone();
        by_uplink.sort_by_key(|(uplink, _)| *uplink);
        for ((uplink, verdict), (group, expected)) in
            by_uplink.iter().zip(groups.iter().zip(batch_verdicts.iter()))
        {
            assert_eq!(uplink, &group.uplink);
            assert_eq!(verdict, expected, "uplink {uplink} ({workers} workers)");
        }

        // 2. Final statistics are exact: the observer hub accumulates every
        //    shard's deltas, so the last on_stats snapshot is the total.
        assert_eq!(streamed.last_stats, Some(batch_stats), "{workers} workers");
        assert!(batch_detection.true_positives > 0, "{batch_detection:?}");

        // 3. Runtime accounting: the router consumed every gateway part and
        //    the shard sinks jointly drained every routed group.
        let n = groups.len() as u64;
        let router_report = report.block("shard-router").unwrap();
        assert_eq!(router_report.items_in, n * GATEWAYS as u64);
        assert_eq!(router_report.items_out, n);
        let sunk: u64 =
            (0..SHARDS).map(|s| report.block(&format!("shard-sink-{s}")).unwrap().items_in).sum();
        assert_eq!(sunk, n);
        assert_eq!(runtime_stats.finished_blocks(), (GATEWAYS + 2 + SHARDS) as u64);

        // 4. The persisted run left a store whose statistics are the
        //    batch path's.
        if let Some(dir) = dir {
            let store = fsck_store(&dir).expect("fsck the streamed store");
            assert_eq!(store.stats(), batch_stats);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
