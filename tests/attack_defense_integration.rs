//! Cross-crate integration: the frame-delay attack against the SoftLoRa
//! defence (a one-gateway `NetworkServer`), over multiple devices, delays
//! and conditions.

use softlora_repro::attack::{AttackOutcome, FrameDelayAttack};
use softlora_repro::lorawan::{ClassADevice, DeviceConfig};
use softlora_repro::phy::oscillator::Oscillator;
use softlora_repro::phy::{PhyConfig, SpreadingFactor};
use softlora_repro::sim::medium::FreeSpace;
use softlora_repro::sim::Delivery;
use softlora_repro::sim::{AirFrame, HonestChannel, Interceptor, Position, RadioMedium};
use softlora_repro::softlora::{NetworkServer, NetworkServerBuilder, SoftLoraVerdict};

struct World {
    phy: PhyConfig,
    medium: RadioMedium,
    gw_pos: Position,
    gateway: NetworkServer,
    devices: Vec<(ClassADevice, Oscillator, Position)>,
    t: f64,
}

impl World {
    fn new(n_devices: usize, seed: u64) -> Self {
        let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
        let mut builder: NetworkServerBuilder = NetworkServer::builder(phy).gateway(seed);
        let mut devices = Vec::new();
        for k in 0..n_devices {
            let cfg = DeviceConfig::new(0x2601_1000 + k as u32, phy);
            builder = builder.provision(cfg.dev_addr, cfg.keys.clone());
            devices.push((
                ClassADevice::new(cfg),
                Oscillator::sample_end_device(869.75e6, seed * 100 + k as u64),
                Position::new(50.0 * k as f64, 30.0, 1.5),
            ));
        }
        let gateway = builder.build();
        World {
            phy,
            medium: RadioMedium::new(Box::new(FreeSpace { freq_hz: 869.75e6 })),
            gw_pos: Position::new(400.0, 0.0, 10.0),
            gateway,
            devices,
            t: 100.0,
        }
    }

    /// One delivery through the gateway, as its own uplink group.
    fn process(&mut self, d: &Delivery) -> SoftLoraVerdict {
        self.gateway.process_delivery(0, d).expect("pipeline").verdict
    }

    fn uplink(&mut self, dev_idx: usize) -> AirFrame {
        let (device, osc, pos) = &mut self.devices[dev_idx];
        device.sense(100, self.t - 0.5).expect("sense");
        let tx = device.try_transmit(self.t).expect("tx");
        let frame = AirFrame {
            dev_addr: device.dev_addr(),
            bytes: tx.bytes,
            tx_start_global_s: self.t,
            airtime_s: tx.airtime_s,
            tx_power_dbm: 14.0,
            tx_position: *pos,
            tx_bias_hz: osc.frame_bias_hz(),
            tx_phase: 0.1,
            sf: self.phy.sf,
        };
        self.t += 150.0;
        frame
    }
}

#[test]
fn multi_device_defense_with_per_device_bands() {
    let mut w = World::new(3, 1);
    let mut honest = HonestChannel;

    // Warm all three devices.
    for _round in 0..5 {
        for dev in 0..3 {
            let frame = w.uplink(dev);
            for d in honest.intercept(&frame, &w.medium, &w.gw_pos) {
                let v = w.process(&d);
                assert!(v.is_accepted(), "{v:?}");
            }
        }
    }
    // Attack device 1 only.
    let mut attack = FrameDelayAttack::new(
        Position::new(51.0, 31.0, 1.5),
        Position::new(399.0, 1.0, 10.0),
        20.0,
        w.phy,
        7,
    )
    .with_targets(vec![0x2601_1001]);

    let mut detections = 0;
    let mut accepted = 0;
    for _round in 0..3 {
        for dev in 0..3 {
            let frame = w.uplink(dev);
            let deliveries = attack.intercept(&frame, &w.medium, &w.gw_pos);
            for d in &deliveries {
                match w.process(d) {
                    SoftLoraVerdict::ReplayDetected { dev_addr, .. } => {
                        assert_eq!(dev_addr, 0x2601_1001, "wrong device flagged");
                        detections += 1;
                    }
                    SoftLoraVerdict::Accepted { .. } => accepted += 1,
                    SoftLoraVerdict::NotReceived { .. } => {}
                    other => panic!("{other:?}"),
                }
            }
        }
    }
    assert_eq!(detections, 3, "one replay per attacked round");
    assert_eq!(accepted, 6, "the two untargeted devices keep working");
    let stats = w.gateway.detection_stats();
    assert_eq!(stats.detection_rate(), 1.0);
    assert_eq!(stats.false_alarm_rate(), 0.0);
}

#[test]
fn attack_outcomes_are_tracked() {
    let mut w = World::new(1, 2);
    let mut honest = HonestChannel;
    for _ in 0..4 {
        let frame = w.uplink(0);
        for d in honest.intercept(&frame, &w.medium, &w.gw_pos) {
            w.process(&d);
        }
    }
    let mut attack = FrameDelayAttack::new(
        Position::new(1.0, 31.0, 1.5),
        Position::new(399.0, 1.0, 10.0),
        60.0,
        w.phy,
        3,
    );
    let frame = w.uplink(0);
    attack.intercept(&frame, &w.medium, &w.gw_pos);
    assert_eq!(attack.outcomes(), &[AttackOutcome::Executed]);
}

#[test]
fn long_run_false_alarm_rate_is_low() {
    // 40 honest frames across temperature drift: the adaptive band must
    // follow without flagging.
    let mut w = World::new(1, 5);
    let mut honest = HonestChannel;
    let mut false_alarms = 0;
    let mut accepted = 0;
    for round in 0..40 {
        // Slow thermal drift: ~12 Hz per frame, 500 Hz over the run.
        w.devices[0].1.set_temperature_offset(round as f64 * 0.05);
        let frame = w.uplink(0);
        for d in honest.intercept(&frame, &w.medium, &w.gw_pos) {
            match w.process(&d) {
                SoftLoraVerdict::Accepted { .. } => accepted += 1,
                SoftLoraVerdict::ReplayDetected { .. } => false_alarms += 1,
                _ => {}
            }
        }
    }
    assert!(accepted >= 38, "accepted {accepted}");
    assert!(false_alarms <= 2, "false alarms {false_alarms}");
}

#[test]
fn tau_sweep_always_detected() {
    for (i, tau) in [2.0, 30.0, 300.0].iter().enumerate() {
        let mut w = World::new(1, 10 + i as u64);
        let mut honest = HonestChannel;
        for _ in 0..5 {
            let frame = w.uplink(0);
            for d in honest.intercept(&frame, &w.medium, &w.gw_pos) {
                w.process(&d);
            }
        }
        let mut attack = FrameDelayAttack::new(
            Position::new(1.0, 31.0, 1.5),
            Position::new(399.0, 1.0, 10.0),
            *tau,
            w.phy,
            50 + i as u64,
        );
        let frame = w.uplink(0);
        let mut detected = false;
        for d in attack.intercept(&frame, &w.medium, &w.gw_pos) {
            if w.process(&d).is_replay_detected() {
                detected = true;
            }
        }
        assert!(detected, "τ = {tau} not detected");
    }
}
