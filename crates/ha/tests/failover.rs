//! Failover acceptance tests: the WAL-shipping replication path end to
//! end, over real loopback sockets.
//!
//! * **Kill and fail over**: a primary that dies mid-attacked-fleet is
//!   replaced by its promoted follower, and the joined verdict stream
//!   is **bit-for-bit identical** to an uninterrupted run — including
//!   the replay-attack detections. The promoted store's `fsck` digests
//!   equal the uninterrupted store's: the follower logged the same
//!   record bytes and installed snapshots at the same points.
//! * **Zombie fencing**: promotion advances the epoch; frames from the
//!   deposed primary (lower epoch) are refused and counted, and the
//!   deposed shipper fences itself on the first handoff it hears.
//! * **Forged shard index**: a CRC-valid chunk or snapshot marker naming
//!   a shard the standby does not have is refused and counted, and the
//!   genuine stream still applies.

use softlora::{fsck_store, NetworkServer, ServerVerdict};
use softlora_attack::FrameDelayAttack;
use softlora_ha::protocol::{encode_frame, Frame};
use softlora_ha::{Follower, Shipper, ShipperConfig};
use softlora_phy::{PhyConfig, SpreadingFactor};
use softlora_sim::{FleetDeployment, HonestChannel, Position, Scenario, UplinkDeliveries};
use softlora_store::test_dir;
use std::net::UdpSocket;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

const GATEWAYS: usize = 2;
const DEVICES: usize = 3;
/// Groups per committed batch — the same chunking everywhere, so the
/// deterministic snapshot points line up between runs.
const CHUNK: usize = 3;

fn phy() -> PhyConfig {
    PhyConfig::uplink(SpreadingFactor::Sf7)
}

/// The pinned workload from the persistence acceptance tests: a
/// 2-gateway fleet, clean traffic until t = 1500 s, then the
/// frame-delay attack (τ = 40 s) against the first meter until
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

fn build_server(
    scenario: &Scenario,
    dir: Option<&Path>,
    hook: Option<Arc<Shipper>>,
) -> NetworkServer {
    let mut builder = NetworkServer::builder(phy())
        .adc_quantisation(false)
        .warmup_frames(2)
        .gateway(1)
        .gateway(2)
        .shards(2)
        // Aggressive persistence tuning so the short run exercises
        // snapshot markers, replica installs and segment rotation.
        .snapshot_every(4)
        .wal_segment_bytes(512);
    for k in 0..scenario.devices() {
        let cfg = scenario.device_config(k).clone();
        builder = builder.provision(cfg.dev_addr, cfg.keys);
    }
    if let Some(dir) = dir {
        builder = builder.with_persistence(dir);
    }
    if let Some(hook) = hook {
        builder = builder.commit_hook(hook);
    }
    builder.build()
}

fn pinned_groups() -> Vec<UplinkDeliveries> {
    let mut scenario = pinned_scenario();
    let mut groups = Vec::new();
    scenario.run(2600.0, |u| groups.push(u.clone()));
    assert!(groups.len() >= 15, "too few uplinks: {}", groups.len());
    assert!(
        groups.iter().any(|g| g.copies.iter().any(|c| c.delivery.is_replay)),
        "the attack phase must put replay groups on the stream"
    );
    groups
}

/// Pumps the shipper and polls the follower until the follower's tail
/// has caught up to `target` and every shipped frame is acked.
fn replicate_until(shipper: &Shipper, follower: &mut Follower, target: u64) {
    for _ in 0..2_000 {
        shipper.pump().expect("shipper pump");
        follower.poll().expect("follower poll");
        if follower.server().global_seq() >= target
            && follower.lag() == 0
            && shipper.pending_len() == 0
        {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!(
        "follower never caught up: at {} of {target}, lag {}, {} pending",
        follower.server().global_seq(),
        follower.lag(),
        shipper.pending_len()
    );
}

#[test]
fn failover_matches_uninterrupted_run_bit_for_bit() {
    let groups = pinned_groups();
    // Fail over at a batch boundary so baseline and primary commit the
    // same batches up to the kill point.
    let mid = (groups.len() / 2 / CHUNK) * CHUNK;
    assert!(mid > 0, "pinned workload too small to split");

    // The uninterrupted baseline, persisted, same chunking.
    let dir_c = test_dir("ha-baseline");
    let mut baseline = build_server(&pinned_scenario(), Some(&dir_c), None);
    let mut expected = Vec::new();
    for chunk in groups.chunks(CHUNK) {
        expected.extend(baseline.process_batch(chunk).expect("baseline pipeline"));
    }

    // Primary over dir A shipping to a warm standby over dir B.
    let dir_a = test_dir("ha-primary");
    let dir_b = test_dir("ha-follower");
    let standby = build_server(&pinned_scenario(), Some(&dir_b), None);
    let mut follower = Follower::new(standby).expect("follower");
    let shipper = Arc::new(
        Shipper::new(follower.local_addr().expect("follower addr"), 0, ShipperConfig::default())
            .expect("shipper"),
    );
    let mut primary = build_server(&pinned_scenario(), Some(&dir_a), Some(Arc::clone(&shipper)));
    follower.subscribe(shipper.local_addr().expect("shipper addr")).expect("subscribe");

    let mut first_half = Vec::new();
    for chunk in groups[..mid].chunks(CHUNK) {
        first_half.extend(primary.process_batch(chunk).expect("primary pipeline"));
        replicate_until(&shipper, &mut follower, primary.global_seq());
    }
    shipper.heartbeat();
    follower.poll().expect("heartbeat poll");
    assert_eq!(follower.server().global_seq(), primary.global_seq(), "follower caught up");
    assert_eq!(follower.server().stats(), primary.stats(), "replicated statistics");

    // The primary dies hard — no shutdown flush — and the standby takes
    // over under a fresh epoch.
    primary.abandon();
    let mut promoted = follower.promote().expect("promotion");
    assert_eq!(promoted.epoch().expect("epoch"), 1, "promotion advanced the epoch durably");

    let mut second_half = Vec::new();
    for chunk in groups[mid..].chunks(CHUNK) {
        second_half.extend(promoted.process_batch(chunk).expect("promoted pipeline"));
    }

    // The acceptance criterion: failover must not change a single
    // verdict, statistic or detection score.
    let rejoined: Vec<ServerVerdict> = first_half.into_iter().chain(second_half).collect();
    assert_eq!(rejoined, expected, "failover must not change a single verdict");
    assert_eq!(promoted.stats(), baseline.stats());
    assert_eq!(promoted.detection_stats(), baseline.detection_stats());

    // Digest parity: the promoted store replays — and fscks — exactly
    // like the uninterrupted one.
    promoted.drain_snapshots().expect("promoted installs");
    baseline.drain_snapshots().expect("baseline installs");
    drop(promoted);
    drop(baseline);
    let report_b = fsck_store(&dir_b).expect("fsck follower store");
    let report_c = fsck_store(&dir_c).expect("fsck baseline store");
    assert_eq!(report_b.shards.len(), report_c.shards.len());
    for (b, c) in report_b.shards.iter().zip(&report_c.shards) {
        assert_eq!(b.digest, c.digest, "shard {} digest", b.shard);
        assert_eq!(b.wal_records, c.wal_records, "shard {} wal records", b.shard);
        assert_eq!(b.snapshot_seq, c.snapshot_seq, "shard {} snapshot seq", b.shard);
    }
    assert_eq!(report_b.digest(), report_c.digest(), "store digests");

    std::fs::remove_dir_all(&dir_a).ok();
    std::fs::remove_dir_all(&dir_b).ok();
    std::fs::remove_dir_all(&dir_c).ok();
}

#[test]
fn zombie_primary_frames_are_refused_after_handoff() {
    let server = build_server(&pinned_scenario(), None, None);
    let mut follower = Follower::new(server).expect("follower");
    let addr = follower.local_addr().expect("addr");
    let zombie = UdpSocket::bind("127.0.0.1:0").expect("zombie socket");

    // A handoff under epoch 2 fences every lower epoch.
    zombie.send_to(&encode_frame(&Frame::EpochHandoff { epoch: 2 }), addr).expect("send handoff");
    for _ in 0..200 {
        follower.poll().expect("poll");
        if follower.epoch() == 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(follower.epoch(), 2, "handoff adopted");

    // The zombie keeps shipping under its stale epoch: refused, counted,
    // nothing buffered.
    let refused_before = follower.chunks_refused();
    let stale = Frame::SegmentChunk {
        epoch: 1,
        stream_seq: 1,
        shard: 0,
        first: 1,
        count: 0,
        payload: Vec::new(),
    };
    zombie.send_to(&encode_frame(&stale), addr).expect("send stale chunk");
    for _ in 0..200 {
        follower.poll().expect("poll");
        if follower.chunks_refused() > refused_before {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(follower.chunks_refused(), refused_before + 1, "stale chunk counted");
    assert_eq!(follower.lag(), 0, "stale chunk not buffered");
}

#[test]
fn deposed_shipper_fences_itself_and_stops_shipping() {
    let sink = UdpSocket::bind("127.0.0.1:0").expect("sink socket");
    let shipper = Shipper::new(sink.local_addr().expect("sink addr"), 0, ShipperConfig::default())
        .expect("shipper");

    use softlora::CommitHook;
    shipper.on_frame(0, 1, 1, &[2, 0, 0, 0, 0xAB, 0xCD]);
    assert_eq!(shipper.pending_len(), 1, "frame queued until acked");

    let promoted = UdpSocket::bind("127.0.0.1:0").expect("promoted socket");
    promoted
        .send_to(
            &encode_frame(&Frame::EpochHandoff { epoch: 3 }),
            shipper.local_addr().expect("shipper addr"),
        )
        .expect("send handoff");
    let fenced = (0..200).find_map(|_| match shipper.pump() {
        Err(softlora_ha::HaError::Fenced { epoch }) => Some(epoch),
        _ => {
            std::thread::sleep(Duration::from_millis(1));
            None
        }
    });
    assert_eq!(fenced, Some(3), "shipper fenced by the promotion epoch");
    assert_eq!(shipper.fenced_by(), Some(3));

    // A zombie primary keeps committing locally; nothing ships.
    shipper.on_frame(0, 2, 1, &[2, 0, 0, 0, 0xEF, 0x01]);
    assert_eq!(shipper.pending_len(), 0, "fenced shipper drops frames on the floor");
}

#[test]
fn forged_shard_index_is_refused_and_stream_still_applies() {
    let groups = pinned_groups();
    let dir_standby = test_dir("ha-forged-standby");
    let standby = build_server(&pinned_scenario(), Some(&dir_standby), None);
    let shards = standby.shard_count() as u32;
    let mut follower = Follower::new(standby).expect("follower");
    let addr = follower.local_addr().expect("addr");
    let forger = UdpSocket::bind("127.0.0.1:0").expect("forger socket");

    // The forged frames claim the genuine stream's first two positions:
    // once refused, they must not hold those slots either. The chunk
    // carries a record the standby would try to apply.
    let record = [1u8, 1, 0, 0, 0, 0, 0, 0, 0];
    let mut run = (record.len() as u32).to_le_bytes().to_vec();
    run.extend_from_slice(&record);
    let forged = [
        Frame::SnapMark {
            epoch: 0,
            stream_seq: 1,
            shard: shards + 7,
            covered_seq: 0,
            global_seq: 0,
            frames_cumulative: vec![0; GATEWAYS],
        },
        Frame::SegmentChunk {
            epoch: 0,
            stream_seq: 2,
            shard: shards,
            first: 1,
            count: 1,
            payload: run,
        },
    ];
    let refused_before = follower.chunks_refused();
    for frame in &forged {
        forger.send_to(&encode_frame(frame), addr).expect("send forged frame");
    }
    for _ in 0..200 {
        follower.poll().expect("a forged shard index must not fail the poll");
        if follower.chunks_refused() == refused_before + 2 {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(follower.chunks_refused(), refused_before + 2, "both forged frames counted");
    assert_eq!(follower.lag(), 0, "forged frames not buffered");

    // The genuine primary's stream still applies, record for record.
    let shipper = Arc::new(Shipper::new(addr, 0, ShipperConfig::default()).expect("shipper"));
    let dir = test_dir("ha-forged-primary");
    let mut primary = build_server(&pinned_scenario(), Some(&dir), Some(Arc::clone(&shipper)));
    follower.subscribe(shipper.local_addr().expect("shipper addr")).expect("subscribe");
    for chunk in groups.chunks(CHUNK) {
        primary.process_batch(chunk).expect("primary pipeline");
        replicate_until(&shipper, &mut follower, primary.global_seq());
    }
    assert_eq!(follower.server().global_seq(), primary.global_seq());
    assert_eq!(follower.server().stats(), primary.stats(), "replicated statistics");
    drop(primary);
    drop(follower);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&dir_standby).ok();
}
