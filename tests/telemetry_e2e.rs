//! Telemetry acceptance test: one process-wide registry, fed by every
//! layer, scraped over the wire. A loopback fleet replay (with WAL
//! persistence on) plus a small flowgraph run must leave the global
//! registry holding at least one series from each layer — core stage
//! latency, store WAL append, runtime block throughput, net datagram
//! counters — and a `METRICS_REQ` over the ctrl socket must return that
//! snapshot intact, alongside the `STATS_RESP` runtime section. Counters
//! never go backwards between two scrapes, and the store the wire path
//! persisted passes `fsck_store` with the server's own statistics.

use softlora_repro::attack::FrameDelayAttack;
use softlora_repro::net::listener::{NetServer, NetServerConfig};
use softlora_repro::net::loadgen::replay_fleet;
use softlora_repro::net::protocol::{decode_frame, encode_frame, Frame};
use softlora_repro::phy::{PhyConfig, SpreadingFactor};
use softlora_repro::runtime::{FlowgraphBuilder, RuntimeStats, Scheduler};
use softlora_repro::sim::{
    FleetDeployment, FrameSource, HonestChannel, Position, Scenario, UplinkDeliveries,
};
use softlora_repro::softlora::{fsck_store, NetworkServer};
use softlora_repro::telemetry::RegistrySnapshot;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Duration;

const GATEWAYS: usize = 4;
const LOUD: usize = 2;
const DEVICES: usize = 2;

/// One `METRICS_REQ` round trip over the ctrl socket.
fn scrape(ctrl: &UdpSocket, buf: &mut [u8], token: u64) -> RegistrySnapshot {
    ctrl.send(&encode_frame(&Frame::MetricsReq { token })).expect("metrics req");
    let len = ctrl.recv(buf).expect("metrics resp");
    let Frame::MetricsResp { token: echoed, snapshot } =
        decode_frame(&buf[..len]).expect("metrics frame")
    else {
        panic!("expected METRICS_RESP");
    };
    assert_eq!(echoed, token);
    snapshot
}

fn phy() -> PhyConfig {
    PhyConfig::uplink(SpreadingFactor::Sf7)
}

/// Small attacked fleet: clean traffic until t = 900 s, then the
/// frame-delay attack against meter 0 until t = 1500 s.
fn pinned_scenario() -> Scenario {
    let floors: Vec<f64> = (0..GATEWAYS).map(|g| if g < LOUD { -117.0 } else { -57.0 }).collect();
    let fleet = FleetDeployment::with_gateways(GATEWAYS).with_site_noise_floors_dbm(floors);
    let gateways = fleet.gateway_positions();
    let mut scenario = Scenario::new_fleet_sites(
        phy(),
        fleet.medium(),
        fleet.gateway_sites(),
        Box::new(HonestChannel),
    );
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
    scenario.schedule_interceptor(900.0, Box::new(attack));
    scenario
}

fn build_server(scenario: &Scenario, persist: Option<&str>) -> NetworkServer {
    // Two shards whatever the host's core count, so the per-shard
    // series this test reads are merged families, never one shard's.
    let mut builder =
        NetworkServer::builder(phy()).adc_quantisation(false).warmup_frames(2).shards(2);
    for g in 0..GATEWAYS {
        builder = builder.gateway(g as u64 + 1);
    }
    for k in 0..scenario.devices() {
        let cfg = scenario.device_config(k).clone();
        builder = builder.provision(cfg.dev_addr, cfg.keys);
    }
    if let Some(dir) = persist {
        builder = builder.with_persistence(dir);
    }
    builder.build()
}

#[test]
fn metrics_scrape_covers_every_layer() {
    let mut scenario = pinned_scenario();
    let mut groups: Vec<UplinkDeliveries> = Vec::new();
    scenario.run(1500.0, |u| groups.push(u.clone()));
    assert!(!groups.is_empty(), "scenario must produce uplinks");

    // Runtime layer: run the same stream through the flowgraph so block
    // reports land in the global registry as `runtime_block_*` series.
    let (fronts, sink) = build_server(&pinned_scenario(), None).into_streaming();
    let runtime_stats = Arc::new(RuntimeStats::new());
    let mut b = FlowgraphBuilder::new();
    b.observer(Arc::clone(&runtime_stats) as _);
    let src = b.source(FrameSource::from_groups(groups.clone()));
    let parts: Vec<_> = fronts.into_iter().map(|front| b.stage(src, front)).collect();
    b.sink(&parts, sink);
    let report = Scheduler::new(2).run(b.build().expect("valid flowgraph"));
    assert!(!report.blocks.is_empty(), "flowgraph must report blocks");

    // Store + core + net layers: the loopback fleet with persistence on.
    let persist_dir =
        std::env::temp_dir().join(format!("softlora-telemetry-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&persist_dir);
    let persist = persist_dir.to_str().expect("utf-8 temp path").to_string();
    let net = NetServer::bind(
        build_server(&pinned_scenario(), Some(&persist)),
        NetServerConfig::default(),
    )
    .expect("bind listener");
    let data_addr = net.data_addr().expect("data addr");
    let ctrl_addr = net.ctrl_addr().expect("ctrl addr");
    let listener = std::thread::spawn(move || net.run());

    let ctrl = UdpSocket::bind("127.0.0.1:0").expect("ctrl socket");
    ctrl.connect(ctrl_addr).expect("connect ctrl");
    ctrl.set_read_timeout(Some(Duration::from_secs(5))).expect("timeout");
    let mut buf = vec![0u8; 65_535];
    let before = scrape(&ctrl, &mut buf, 40);

    let replayed = replay_fleet(&groups, GATEWAYS, data_addr).expect("fleet replay");
    assert_eq!(replayed, groups.len());
    // Let the poll loop commit the tail before scraping.
    std::thread::sleep(Duration::from_millis(200));

    // The wire scrape: one METRICS_REQ, one full registry snapshot back.
    let snapshot = scrape(&ctrl, &mut buf, 41);

    // Counters only ever go up: every counter of the first scrape is in
    // the second with a value at least as large.
    for series in &before.series {
        let Some(earlier) = series.value.as_counter() else { continue };
        let labels: Vec<(&str, &str)> =
            series.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        let later = snapshot.find_with(&series.name, &labels).and_then(|s| s.value.as_counter());
        assert!(
            later.is_some_and(|later| later >= earlier),
            "counter {} went {earlier} -> {later:?} between scrapes",
            series.key()
        );
    }
    assert!(
        snapshot.counter_sum("net_datagrams_total") > before.counter_sum("net_datagrams_total"),
        "the replay's datagrams must show between the two scrapes"
    );

    // One series from every layer, over the wire.
    for (layer, family) in [
        ("core", "gateway_stage_ns"),
        ("core", "server_commit_ns"),
        ("store", "store_wal_append_ns"),
        ("runtime", "runtime_block_throughput_per_s"),
        ("runtime", "runtime_block_work_calls_total"),
        ("net", "net_datagrams_total"),
        ("net", "net_groups_committed_total"),
    ] {
        assert!(
            snapshot.series.iter().any(|s| s.name == family),
            "{layer} series {family} missing from the wire snapshot; got: {}",
            snapshot.series.iter().map(|s| s.key()).collect::<Vec<_>>().join(", ")
        );
    }

    // The series carry real measurements, not empty registrations.
    // The fleet path runs the four front-half stages per copy; detect
    // and MAC latency lands in `server_commit_ns` on this path.
    let stage = snapshot
        .find_with("gateway_stage_ns", &[("stage", "radio")])
        .and_then(|s| s.value.as_histogram())
        .expect("radio stage histogram");
    assert!(stage.count > 0, "radio stage must have recorded latencies");
    let commit = snapshot.histogram_sum("server_commit_ns").expect("commit histogram");
    assert!(commit.count > 0, "shard commits must have recorded latencies");
    let wal = snapshot.histogram_sum("store_wal_append_ns").expect("WAL append histogram");
    assert!(wal.count > 0, "persistence must have appended WAL records");
    assert!(
        snapshot.counter_sum("net_datagrams_total") > 0,
        "listener must have counted datagrams"
    );
    assert!(
        snapshot.counter_sum("server_verdicts_total") > 0,
        "shard cores must have counted verdicts"
    );

    // The Prometheus-style exposition renders every scraped series.
    let text = snapshot.render_text();
    assert!(text.contains("gateway_stage_ns"), "exposition must carry stage latency");
    assert!(text.contains("store_wal_append_ns_count"), "histograms render cumulative lines");

    // Satellite: STATS_RESP now carries the runtime section too.
    ctrl.send(&encode_frame(&Frame::StatsReq { token: 42 })).expect("stats req");
    let len = ctrl.recv(&mut buf).expect("stats resp");
    let Frame::StatsResp { stats, .. } = decode_frame(&buf[..len]).expect("stats frame") else {
        panic!("expected STATS_RESP");
    };
    assert!(stats.runtime.work_calls > 0, "runtime work calls must reach STATS_RESP");
    assert!(!stats.runtime.blocks.is_empty(), "per-block runtime stats must reach STATS_RESP");
    assert_eq!(
        stats.counters.datagrams,
        snapshot.counter_sum("net_datagrams_total"),
        "NetCounters and the registry are two views of the same cells"
    );

    ctrl.send(&encode_frame(&Frame::Shutdown { token: 43 })).expect("shutdown");
    let _ = ctrl.recv(&mut buf).expect("shutdown ack");
    let run = listener.join().expect("listener thread").expect("listener run");
    assert_eq!(run.counters.groups_committed, groups.len() as u64);

    // The store the wire path persisted passes fsck with the server's
    // own statistics and no torn tail.
    run.server.sync_persistence().expect("sync persistence");
    let store = fsck_store(&persist_dir).expect("fsck the wire path's store");
    assert_eq!(store.stats(), run.server.stats());
    for shard in &store.shards {
        assert!(!shard.dropped_torn_tail, "shard {} has a torn tail", shard.shard);
    }
    let _ = std::fs::remove_dir_all(&persist_dir);
}
