//! End-to-end multi-gateway fleet tests: the acceptance criteria of the
//! fleet-engine refactor.
//!
//! * a fleet scenario produces per-gateway deliveries with distinct SNRs
//!   and the network server dedups every uplink group to **one** verdict;
//! * the frame-delay attack is detected at a gateway the attacker never
//!   jammed, via cross-gateway arrival consistency — and the uplink is
//!   *still delivered correctly* from a clean gateway's copy;
//! * on a one-gateway `NetworkServer` (the paper's single-link gateway),
//!   `process_batch` over an attacked stream, one group per delivery,
//!   equals the sequential `process_delivery` oracle bit for bit.

use softlora_repro::attack::FrameDelayAttack;
use softlora_repro::lorawan::{ClassADevice, DeviceConfig};
use softlora_repro::phy::oscillator::Oscillator;
use softlora_repro::phy::{PhyConfig, SpreadingFactor};
use softlora_repro::sim::{
    AirFrame, FleetDeployment, HonestChannel, Interceptor, Position, Scenario, UplinkDeliveries,
};
use softlora_repro::softlora::network_server::ReplaySignal;
use softlora_repro::softlora::ServerObserver;
use softlora_repro::softlora::{NetworkServer, ServerStats, ServerVerdict};
use std::sync::{Arc, Mutex};

const DEV_ADDR: u32 = 0x2601_0042;

fn phy() -> PhyConfig {
    PhyConfig::uplink(SpreadingFactor::Sf8)
}

/// A device transmission as an air frame at `device_pos`.
fn air_frame(
    dev: &mut ClassADevice,
    osc: &mut Oscillator,
    device_pos: Position,
    t: f64,
    value: u16,
) -> AirFrame {
    dev.sense(value, t - 1.0).expect("sense");
    let tx = dev.try_transmit(t).expect("transmit");
    AirFrame {
        dev_addr: dev.dev_addr(),
        bytes: tx.bytes,
        tx_start_global_s: t,
        airtime_s: tx.airtime_s,
        tx_power_dbm: 14.0,
        tx_position: device_pos,
        tx_bias_hz: osc.frame_bias_hz(),
        tx_phase: 0.3,
        sf: phy().sf,
    }
}

fn group(
    uplink: u64,
    frame: &AirFrame,
    copies: Vec<softlora_repro::sim::FleetDelivery>,
) -> UplinkDeliveries {
    UplinkDeliveries {
        uplink,
        dev_addr: frame.dev_addr,
        tx_start_global_s: frame.tx_start_global_s,
        airtime_s: frame.airtime_s,
        copies,
    }
}

#[test]
fn fleet_attack_detected_at_non_attacked_gateway() {
    let fleet = FleetDeployment::with_gateways(3);
    let gateways = fleet.gateway_positions();
    let medium = fleet.medium();
    let device_pos = fleet.device_positions(1, 3)[0];

    let dev_cfg = DeviceConfig::new(DEV_ADDR, phy());
    let mut dev = ClassADevice::new(dev_cfg.clone());
    let mut osc = Oscillator::sample_end_device(869.75e6, 11);

    let mut server = NetworkServer::builder(phy())
        .adc_quantisation(false)
        .warmup_frames(4)
        .gateway(7)
        .gateway(8)
        .gateway(9)
        .provision(dev_cfg.dev_addr, dev_cfg.keys.clone())
        .build();

    // Clean warm-up through the honest fleet channel.
    let mut honest = HonestChannel;
    let mut t = 100.0;
    for k in 0..6u16 {
        let frame = air_frame(&mut dev, &mut osc, device_pos, t, 500 + k);
        let copies = honest.intercept_fleet(&frame, &medium, &gateways);
        // Per-gateway copies with distinct SNRs (independent path loss).
        assert_eq!(copies.len(), 3);
        assert!(copies[0].delivery.snr_db != copies[1].delivery.snr_db);
        assert!(copies[1].delivery.snr_db != copies[2].delivery.snr_db);
        let v = server.process_uplink(&group(k as u64, &frame, copies)).expect("pipeline");
        assert!(v.is_accepted(), "warm-up {k}: {v:?}");
        t += 200.0;
    }

    // The attacker parks the jammer/replayer chain next to gateway 0 and
    // replays with τ = 45 s.
    let eaves_pos = Position::new(device_pos.x + 2.0, device_pos.y + 1.0, device_pos.z);
    let mut attack = FrameDelayAttack::near_gateway(eaves_pos, &gateways, 0, 2.0, 45.0, phy(), 5);

    let mut attacked_accepts = 0;
    let mut cross_gateway_flags_at_clean_gateways = 0;
    for k in 0..4u16 {
        let frame = air_frame(&mut dev, &mut osc, device_pos, t, 600 + k);
        let true_time = t - 1.0;
        let copies = attack.intercept_fleet(&frame, &medium, &gateways);
        let v = server.process_uplink(&group(100 + k as u64, &frame, copies)).expect("pipeline");

        // One verdict per uplink: the original is accepted from a clean
        // gateway's copy even though gateway 0 was jammed...
        assert!(v.is_accepted(), "attacked uplink {k}: {v:?}");
        let chosen = v.gateway.expect("accepted via some gateway");
        assert_ne!(chosen, 0, "verdict must come from a non-attacked gateway");

        // ...and the τ-late replay copies raised cross-gateway arrival
        // evidence, including at gateways the attacker never jammed.
        let late_gateways: Vec<usize> = v
            .signals
            .iter()
            .filter_map(|s| match s {
                ReplaySignal::ArrivalInconsistent { gateway, gap_s, .. } => {
                    assert!((gap_s - 45.0).abs() < 0.1, "gap {gap_s}");
                    Some(*gateway)
                }
                _ => None,
            })
            .collect();
        assert!(!late_gateways.is_empty(), "no replay evidence: {v:?}");
        cross_gateway_flags_at_clean_gateways += late_gateways.iter().filter(|g| **g != 0).count();

        // The accepted copy timestamps the record correctly — the fleet
        // defeats the delay outright instead of merely dropping frames.
        if let softlora_repro::softlora::SoftLoraVerdict::Accepted { uplink, .. } = &v.verdict {
            let err = (uplink.records[0].global_time_s - true_time).abs();
            assert!(err < 5e-3, "timestamp error {err}");
            attacked_accepts += 1;
        }
        t += 200.0;
    }
    assert_eq!(attacked_accepts, 4);
    assert!(
        cross_gateway_flags_at_clean_gateways >= 4,
        "flags at clean gateways: {cross_gateway_flags_at_clean_gateways}"
    );
    let stats = server.stats();
    assert_eq!(stats.accepted, 10);
    assert!(stats.cross_gateway_replays_flagged >= 4, "{stats:?}");
    // Replay copies were scored as true positives, none of the clean
    // traffic was flagged.
    let det = server.detection_stats();
    assert!(det.true_positives >= 4, "{det:?}");
    assert_eq!(det.false_positives, 0, "{det:?}");
}

#[test]
fn one_gateway_batch_matches_process_delivery_bit_for_bit() {
    // The same delivery stream — honest warm-up, then frame-delay attack
    // with the original jammed — through a `process_delivery` loop and
    // through one `process_batch` call, each on a one-gateway server
    // built from the same seed.
    let seed = 99;
    let dev_cfg = DeviceConfig::new(DEV_ADDR, phy());
    let mut dev = ClassADevice::new(dev_cfg.clone());
    let mut osc = Oscillator::sample_end_device(869.75e6, 11);

    let gw_pos = Position::new(400.0, 0.0, 10.0);
    let device_pos = Position::new(0.0, 0.0, 1.5);
    let medium = FleetDeployment::default().medium();

    let build = || {
        NetworkServer::builder(phy())
            .adc_quantisation(false)
            .gateway(seed)
            .provision(dev_cfg.dev_addr, dev_cfg.keys.clone())
            .build()
    };
    let mut sequential = build();
    let mut batched = build();

    // Build the stream once: 6 honest uplinks, then 3 attacked ones.
    let mut honest = HonestChannel;
    let mut attack = FrameDelayAttack::new(
        Position::new(2.0, 1.0, 1.5),
        Position::new(398.0, 1.0, 10.0),
        30.0,
        phy(),
        5,
    );
    let mut stream = Vec::new();
    let mut t = 100.0;
    for k in 0..9u16 {
        let frame = air_frame(&mut dev, &mut osc, device_pos, t, k);
        let interceptor: &mut dyn Interceptor = if k < 6 { &mut honest } else { &mut attack };
        stream.extend(interceptor.intercept(&frame, &medium, &gw_pos));
        t += 200.0;
    }
    assert!(stream.iter().any(|d| d.is_replay), "attack phase must produce replays");

    // One group per delivery: the jammed original and its replay are two
    // receptions, not two copies of one uplink.
    let groups: Vec<UplinkDeliveries> = stream
        .iter()
        .enumerate()
        .map(|(k, d)| UplinkDeliveries {
            uplink: k as u64,
            dev_addr: d.dev_addr,
            tx_start_global_s: d.arrival_global_s,
            airtime_s: 0.0,
            copies: vec![softlora_repro::sim::FleetDelivery { gateway: 0, delivery: d.clone() }],
        })
        .collect();
    let got = batched.process_batch(&groups).expect("batch pipeline");
    assert_eq!(got.len(), stream.len());
    for (k, delivery) in stream.iter().enumerate() {
        let expected = sequential.process_delivery(0, delivery).expect("sequential pipeline");
        // Bit-for-bit: the enum fields (timestamps, FB estimates, bands,
        // deviations) compare by exact equality.
        assert_eq!(got[k], expected, "delivery {k}");
    }
    assert!(got.iter().any(|v| v.verdict.is_replay_detected()), "the attack must be flagged");
    // The database and the detector scores converged too.
    assert_eq!(
        batched.fb_database().history_len(DEV_ADDR),
        sequential.fb_database().history_len(DEV_ADDR)
    );
    assert_eq!(
        batched.fb_database().tracked_center_hz(DEV_ADDR),
        sequential.fb_database().tracked_center_hz(DEV_ADDR)
    );
    assert_eq!(batched.detection_stats(), sequential.detection_stats());
}

/// Observer collecting the full notification stream, so the equivalence
/// test pins the observer surface too, not just returned verdicts.
#[derive(Default)]
struct Collect {
    verdicts: Vec<(u64, ServerVerdict)>,
    stats: Vec<ServerStats>,
}

impl ServerObserver for Collect {
    fn on_verdict(&mut self, uplink: u64, verdict: &ServerVerdict) {
        self.verdicts.push((uplink, verdict.clone()));
    }
    fn on_stats(&mut self, stats: ServerStats) {
        self.stats.push(stats);
    }
}

#[test]
fn sharded_tail_matches_sequential_tail_on_attacked_fleet() {
    // An attacked multi-device fleet scenario through a 1-shard
    // (sequential) tail and a 4-shard tail: returned verdicts, the full
    // observer stream (order *and* running statistics), detection scores
    // and FB state must be bit-for-bit equal — per-device tail state
    // never couples devices, so sharding cannot change a verdict.
    let fleet = FleetDeployment::with_gateways(2);
    let gateways = fleet.gateway_positions();
    let scenario = || {
        let mut s =
            Scenario::new_fleet(phy(), fleet.medium(), gateways.clone(), Box::new(HonestChannel));
        let positions = fleet.device_positions(4, 33);
        for (k, pos) in positions.iter().enumerate() {
            s.add_device(0x2601_7000 + k as u32, *pos, 300.0, 10 + k as u64);
        }
        let target = positions[1];
        let attack = FrameDelayAttack::near_gateway(
            Position::new(target.x + 2.0, target.y + 1.0, target.z),
            &gateways,
            0,
            2.0,
            35.0,
            phy(),
            3,
        )
        .with_targets(vec![0x2601_7001]);
        s.schedule_interceptor(1200.0, Box::new(attack));
        s
    };
    let mut groups: Vec<UplinkDeliveries> = Vec::new();
    scenario().run(2400.0, |u| groups.push(u.clone()));
    assert!(groups.len() >= 12, "too few uplinks: {}", groups.len());
    assert!(
        groups.iter().any(|g| g.copies.iter().any(|c| c.delivery.is_replay)),
        "attack phase must produce replays"
    );

    let build = |shards: usize, observer: Arc<Mutex<Collect>>| {
        let s = scenario();
        let mut b = NetworkServer::builder(phy())
            .adc_quantisation(false)
            .warmup_frames(2)
            .gateway(5)
            .gateway(6)
            .shards(shards)
            .observer(Box::new(observer));
        for k in 0..s.devices() {
            let cfg = s.device_config(k).clone();
            b = b.provision(cfg.dev_addr, cfg.keys);
        }
        b.build()
    };
    let seq_obs = Arc::new(Mutex::new(Collect::default()));
    let sharded_obs = Arc::new(Mutex::new(Collect::default()));
    let mut sequential = build(1, Arc::clone(&seq_obs));
    let mut sharded = build(4, Arc::clone(&sharded_obs));
    assert_eq!(sequential.shard_count(), 1);
    assert_eq!(sharded.shard_count(), 4);

    let seq_verdicts = sequential.process_batch(&groups).expect("sequential tail");
    let sharded_verdicts = sharded.process_batch(&groups).expect("sharded tail");
    assert_eq!(seq_verdicts, sharded_verdicts, "verdicts diverge across shard counts");
    assert_eq!(sequential.stats(), sharded.stats());
    assert_eq!(sequential.detection_stats(), sharded.detection_stats());
    // The workload exercised the defence.
    assert!(sequential.stats().accepted > 5, "{:?}", sequential.stats());
    assert!(
        sequential.stats().fb_replays_flagged + sequential.stats().cross_gateway_replays_flagged
            > 0,
        "{:?}",
        sequential.stats()
    );
    // The observer streams — verdict order and every running-statistics
    // snapshot — are identical: the sharded batch tail replays
    // notifications in uplink order.
    let seq_seen = seq_obs.lock().unwrap();
    let sharded_seen = sharded_obs.lock().unwrap();
    assert_eq!(seq_seen.verdicts, sharded_seen.verdicts);
    assert_eq!(seq_seen.stats, sharded_seen.stats);
    // Shared per-device FB state matches device by device.
    let (db1, db4) = (sequential.fb_database(), sharded.fb_database());
    assert_eq!(db1.devices(), db4.devices());
    for k in 0..4u32 {
        let dev = 0x2601_7000 + k;
        assert_eq!(db1.history_len(dev), db4.history_len(dev), "device {dev:#x}");
        assert_eq!(db1.tracked_center_hz(dev), db4.tracked_center_hz(dev));
    }
}

#[test]
fn scenario_fleet_feeds_server_end_to_end() {
    // A small honest fleet scenario: groups flow from the discrete-event
    // engine straight into the network server, one verdict per uplink.
    let fleet = FleetDeployment::with_gateways(2);
    let gateways = fleet.gateway_positions();
    let mut scenario =
        Scenario::new_fleet(phy(), fleet.medium(), gateways.clone(), Box::new(HonestChannel));
    let positions = fleet.device_positions(3, 21);
    for (k, pos) in positions.iter().enumerate() {
        scenario.add_device(0x2601_5000 + k as u32, *pos, 400.0, k as u64);
    }
    let mut builder = NetworkServer::builder(phy()).adc_quantisation(false).gateway(1).gateway(2);
    for k in 0..scenario.devices() {
        let cfg = scenario.device_config(k).clone();
        builder = builder.provision(cfg.dev_addr, cfg.keys);
    }
    let mut server = builder.build();

    let mut groups = Vec::new();
    scenario.run(1300.0, |u| groups.push(u.clone()));
    assert!(groups.len() >= 6, "too few uplinks: {}", groups.len());
    let verdicts = server.process_batch(&groups).expect("server pipeline");
    assert_eq!(verdicts.len(), groups.len(), "one verdict per uplink");
    for (g, v) in groups.iter().zip(&verdicts) {
        assert_eq!(v.copies_heard, 2, "both gateways hear uplink {}", g.uplink);
        assert_eq!(v.duplicates_suppressed, 1);
        assert!(v.is_accepted(), "{v:?}");
        assert!(!v.is_replay_flagged());
    }
    // Shared per-device state, bounded dedup bookkeeping.
    assert_eq!(server.fb_database().devices(), 3);
    assert_eq!(server.stats().accepted, groups.len() as u64);
}
