//! The full frame-delay attack orchestrator (paper §4.2.1, Fig. 1).
//!
//! Per intercepted uplink: ❶ the jammer (co-located with the replayer near
//! the gateway) jams the gateway inside the effective attack window while
//! the eavesdropper records the waveform near the device; ❷ the recording
//! is transferred to the replayer out of band; ❸ after τ seconds the
//! replayer re-transmits it. Implemented as a
//! [`softlora_sim::Interceptor`], so swapping it for the honest channel
//! puts any scenario under attack.

use crate::eavesdropper::Eavesdropper;
use crate::jammer::StealthyJammer;
use crate::replayer::Replayer;
use softlora_phy::PhyConfig;
use softlora_sim::{AirFrame, Delivery, FleetDelivery, Interceptor, Position, RadioMedium};

/// Per-frame attack bookkeeping for evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackOutcome {
    /// Device not targeted; frame passed through untouched.
    NotTargeted,
    /// Attack executed: original jammed, replay delivered.
    Executed,
    /// Recording failed (too weak at the eavesdropper) — attack aborted,
    /// original delivered with jamming anyway cancelled.
    RecordingFailed,
    /// Recording corrupted by the attacker's own jamming (eavesdropper too
    /// close to the jammer).
    RecordingCorrupted,
}

/// The jam-and-replay frame-delay attack.
#[derive(Debug)]
pub struct FrameDelayAttack {
    /// Waveform recorder near the device.
    pub eavesdropper: Eavesdropper,
    /// Stealthy jammer near the gateway.
    pub jammer: StealthyJammer,
    /// USRP replayer near the gateway.
    pub replayer: Replayer,
    /// Injected delay τ in seconds.
    pub tau_s: f64,
    /// Devices under attack (`None` = attack every uplink the eavesdropper
    /// hears — paper §4.2.1 notes the setup affects all devices near the
    /// eavesdropper).
    pub targets: Option<Vec<u32>>,
    /// In a gateway fleet, the index of the gateway the jammer/replayer
    /// chain is parked next to. Only this gateway's original copy is
    /// jammed; the replay transmission is heard by every gateway.
    pub attacked_gateway: usize,
    /// PHY configuration used to plan jamming windows.
    pub phy: PhyConfig,
    outcomes: Vec<AttackOutcome>,
}

impl FrameDelayAttack {
    /// Creates an attack with eavesdropper/jammer/replayer at the given
    /// positions, a delay of `tau_s` and default powers (jam 14.1 dBm,
    /// replay 7 dBm).
    pub fn new(
        eavesdropper_pos: Position,
        attacker_gw_side_pos: Position,
        tau_s: f64,
        phy: PhyConfig,
        seed: u64,
    ) -> Self {
        // The paper's setup (Fig. 1, §8.1.1) uses two USRP N210 stations:
        // the eavesdropper's down/up-conversion chain contributes its own
        // bias on top of the replayer's, superimposing to the ≈ 2 kHz
        // artefact of §8.1.4.
        let eaves_chain =
            softlora_phy::oscillator::Oscillator::sample_usrp(869.75e6, seed ^ 0xEA7E5)
                .frequency_bias_hz();
        FrameDelayAttack {
            eavesdropper: Eavesdropper::new(eavesdropper_pos),
            jammer: StealthyJammer::new(attacker_gw_side_pos),
            replayer: Replayer::new(attacker_gw_side_pos, seed)
                .with_recording_chain_bias_hz(eaves_chain),
            tau_s,
            targets: None,
            attacked_gateway: 0,
            phy,
            outcomes: Vec::new(),
        }
    }

    /// Places the attack in a gateway fleet: the jammer/replayer chain is
    /// parked `standoff_m` metres from `gateways[attacked]` and only that
    /// gateway's original copies are jammed.
    ///
    /// # Panics
    ///
    /// Panics if `attacked` is out of range.
    pub fn near_gateway(
        eavesdropper_pos: Position,
        gateways: &[Position],
        attacked: usize,
        standoff_m: f64,
        tau_s: f64,
        phy: PhyConfig,
        seed: u64,
    ) -> Self {
        assert!(attacked < gateways.len(), "attacked gateway {attacked} out of range");
        let gw = gateways[attacked];
        let chain_pos = Position::new(gw.x + standoff_m, gw.y, gw.z);
        let mut attack = Self::new(eavesdropper_pos, chain_pos, tau_s, phy, seed);
        attack.attacked_gateway = attacked;
        attack
    }

    /// Restricts the attack to specific device addresses.
    pub fn with_targets(mut self, targets: Vec<u32>) -> Self {
        self.targets = Some(targets);
        self
    }

    /// Attack outcomes so far, one per intercepted uplink.
    pub fn outcomes(&self) -> &[AttackOutcome] {
        &self.outcomes
    }

    fn is_target(&self, dev_addr: u32) -> bool {
        match &self.targets {
            None => true,
            Some(t) => t.contains(&dev_addr),
        }
    }

    /// Honest pass-through used when the attack aborts.
    fn deliver_honest_fleet(
        frame: &AirFrame,
        medium: &RadioMedium,
        gateways: &[Position],
    ) -> Vec<FleetDelivery> {
        softlora_sim::HonestChannel.intercept_fleet(frame, medium, gateways)
    }
}

impl Interceptor for FrameDelayAttack {
    fn intercept(
        &mut self,
        frame: &AirFrame,
        medium: &RadioMedium,
        gateway_position: &Position,
    ) -> Vec<Delivery> {
        self.intercept_fleet(frame, medium, std::slice::from_ref(gateway_position))
            .into_iter()
            .map(|c| c.delivery)
            .collect()
    }

    /// The fleet-aware attack: the jammer suppresses the original only at
    /// the gateway the chain is parked next to; the other gateways hear
    /// the original clean. The single replay transmission τ later is
    /// heard by **every** gateway — which is exactly what a network
    /// server's cross-gateway consistency check exploits.
    fn intercept_fleet(
        &mut self,
        frame: &AirFrame,
        medium: &RadioMedium,
        gateways: &[Position],
    ) -> Vec<FleetDelivery> {
        if !self.is_target(frame.dev_addr) {
            self.outcomes.push(AttackOutcome::NotTargeted);
            return Self::deliver_honest_fleet(frame, medium, gateways);
        }

        // ❶ Record at the eavesdropper while the jammer fires.
        let recording = match self.eavesdropper.record(
            frame,
            medium,
            Some((&self.jammer.position, self.jammer.tx_power_dbm)),
        ) {
            Some(r) => r,
            None => {
                self.outcomes.push(AttackOutcome::RecordingFailed);
                return Self::deliver_honest_fleet(frame, medium, gateways);
            }
        };
        if !recording.is_clean() {
            self.outcomes.push(AttackOutcome::RecordingCorrupted);
            return Self::deliver_honest_fleet(frame, medium, gateways);
        }

        let attacked = self.attacked_gateway.min(gateways.len().saturating_sub(1));
        let payload_len = frame.bytes.len();
        let mut copies = Vec::with_capacity(2 * gateways.len());
        for (gateway, gw_pos) in gateways.iter().enumerate() {
            let legit_at_gw = medium.link(&frame.tx_position, gw_pos, frame.tx_power_dbm);
            // Jamming is local: only the attacked gateway's copy overlaps
            // the jammer's burst at suppression strength.
            let jamming = (gateway == attacked).then(|| {
                let jam_at_gw =
                    medium.link(&self.jammer.position, gw_pos, self.jammer.tx_power_dbm);
                let relative_power_db = jam_at_gw.rx_power_dbm() - legit_at_gw.rx_power_dbm();
                self.jammer.attempt(&self.phy, payload_len, relative_power_db)
            });
            let delay = medium.delay_s(&frame.tx_position, gw_pos);
            copies.push(FleetDelivery {
                gateway,
                delivery: Delivery {
                    bytes: frame.bytes.clone(),
                    dev_addr: frame.dev_addr,
                    arrival_global_s: frame.tx_start_global_s + delay,
                    snr_db: legit_at_gw.snr_db(),
                    carrier_bias_hz: frame.tx_bias_hz,
                    carrier_phase: frame.tx_phase,
                    sf: frame.sf,
                    jamming,
                    is_replay: false,
                },
            });
        }

        // ❷❸ The replay τ later is one emission the whole fleet hears.
        for (gateway, delivery) in self
            .replayer
            .replay_fleet(&recording, self.tau_s, medium, gateways)
            .into_iter()
            .enumerate()
        {
            copies.push(FleetDelivery { gateway, delivery });
        }

        self.outcomes.push(AttackOutcome::Executed);
        copies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use softlora_phy::rn2483::{ReceptionOutcome, Rn2483Model};
    use softlora_phy::SpreadingFactor;
    use softlora_sim::medium::FreeSpace;

    fn setup() -> (FrameDelayAttack, RadioMedium, Position) {
        let phy = PhyConfig::uplink(SpreadingFactor::Sf8);
        let device_pos = Position::default();
        let gw_pos = Position::new(400.0, 0.0, 0.0);
        let attack = FrameDelayAttack::new(
            Position::new(3.0, 2.0, 0.0),   // eavesdropper near device
            Position::new(398.0, 1.0, 0.0), // jammer+replayer near gateway
            30.0,
            phy,
            7,
        );
        let medium = RadioMedium::new(Box::new(FreeSpace { freq_hz: 868e6 }));
        let _ = device_pos;
        (attack, medium, gw_pos)
    }

    fn uplink(dev_addr: u32) -> AirFrame {
        AirFrame {
            dev_addr,
            bytes: vec![0x5A; 30],
            tx_start_global_s: 100.0,
            airtime_s: 0.12,
            tx_power_dbm: 14.0,
            tx_position: Position::default(),
            tx_bias_hz: -21_500.0,
            tx_phase: 0.2,
            sf: SpreadingFactor::Sf8,
        }
    }

    #[test]
    fn attack_produces_jammed_original_plus_delayed_replay() {
        let (mut attack, medium, gw) = setup();
        let deliveries = attack.intercept(&uplink(1), &medium, &gw);
        assert_eq!(deliveries.len(), 2);
        let original = &deliveries[0];
        let replay = &deliveries[1];

        assert!(!original.is_replay && original.jamming.is_some());
        assert!(replay.is_replay && replay.jamming.is_none());
        // Replay delayed by τ = 30 s.
        let shift = replay.arrival_global_s - original.arrival_global_s;
        assert!((shift - 30.0).abs() < 1e-3, "shift {shift}");
        // Bytes bit-exact.
        assert_eq!(original.bytes, replay.bytes);
        // Replay carries the two-USRP chain's extra bias (§8.1.4).
        let extra = replay.carrier_bias_hz - original.carrier_bias_hz;
        assert!((-1800.0..=-700.0).contains(&extra), "extra bias {extra}");
        assert_eq!(attack.outcomes(), &[AttackOutcome::Executed]);
    }

    #[test]
    fn victim_chip_silently_drops_the_original() {
        let (mut attack, medium, gw) = setup();
        let deliveries = attack.intercept(&uplink(1), &medium, &gw);
        let original = &deliveries[0];
        let model = Rn2483Model::new();
        let outcome = model.receive(
            &PhyConfig::uplink(SpreadingFactor::Sf8),
            original.bytes.len(),
            original.snr_db,
            original.jamming,
        );
        assert_eq!(outcome, ReceptionOutcome::SilentDrop, "jam rel power {:?}", original.jamming);
    }

    #[test]
    fn untargeted_devices_pass_through() {
        let (attack, medium, gw) = setup();
        let mut attack = attack.with_targets(vec![42]);
        let deliveries = attack.intercept(&uplink(1), &medium, &gw);
        assert_eq!(deliveries.len(), 1);
        assert!(!deliveries[0].is_replay);
        assert_eq!(attack.outcomes(), &[AttackOutcome::NotTargeted]);
    }

    #[test]
    fn targeted_device_attacked() {
        let (attack, medium, gw) = setup();
        let mut attack = attack.with_targets(vec![1]);
        let deliveries = attack.intercept(&uplink(1), &medium, &gw);
        assert_eq!(deliveries.len(), 2);
    }

    #[test]
    fn failed_recording_aborts_to_honest_delivery() {
        let (mut attack, medium, gw) = setup();
        // Move the eavesdropper absurdly far from the device.
        attack.eavesdropper.position = Position::new(0.0, 500_000.0, 0.0);
        let deliveries = attack.intercept(&uplink(1), &medium, &gw);
        assert_eq!(deliveries.len(), 1);
        assert!(deliveries[0].jamming.is_none());
        assert_eq!(attack.outcomes(), &[AttackOutcome::RecordingFailed]);
    }

    #[test]
    fn jammer_next_to_eavesdropper_corrupts_recording() {
        let (mut attack, medium, gw) = setup();
        // Jammer right next to the eavesdropper: recording contaminated.
        attack.jammer.position = Position::new(3.5, 2.0, 0.0);
        let deliveries = attack.intercept(&uplink(1), &medium, &gw);
        assert_eq!(deliveries.len(), 1);
        assert_eq!(attack.outcomes(), &[AttackOutcome::RecordingCorrupted]);
    }

    #[test]
    fn fleet_attack_jams_only_the_attacked_gateway() {
        let phy = PhyConfig::uplink(SpreadingFactor::Sf8);
        let gateways = [
            Position::new(400.0, 0.0, 0.0),
            Position::new(0.0, 400.0, 0.0),
            Position::new(-400.0, -50.0, 0.0),
        ];
        let mut attack = FrameDelayAttack::near_gateway(
            Position::new(3.0, 2.0, 0.0),
            &gateways,
            1,
            2.0,
            30.0,
            phy,
            7,
        );
        let medium = RadioMedium::new(Box::new(FreeSpace { freq_hz: 868e6 }));
        let copies = attack.intercept_fleet(&uplink(1), &medium, &gateways);
        // One original + one replay copy per gateway.
        assert_eq!(copies.len(), 6);
        let originals: Vec<_> = copies.iter().filter(|c| !c.delivery.is_replay).collect();
        let replays: Vec<_> = copies.iter().filter(|c| c.delivery.is_replay).collect();
        assert_eq!(originals.len(), 3);
        assert_eq!(replays.len(), 3);
        for c in &originals {
            if c.gateway == 1 {
                assert!(c.delivery.jamming.is_some(), "attacked gateway is jammed");
            } else {
                assert!(c.delivery.jamming.is_none(), "gateway {} must stay clean", c.gateway);
            }
        }
        // The replay is heard by every gateway, τ late, strongest next to
        // the replay chain (gateway 1).
        for r in &replays {
            let shift = r.delivery.arrival_global_s - 100.0;
            assert!((shift - 30.0).abs() < 1e-2, "shift {shift}");
        }
        let snr_at = |g: usize| replays.iter().find(|r| r.gateway == g).unwrap().delivery.snr_db;
        assert!(snr_at(1) > snr_at(0) && snr_at(1) > snr_at(2));
        assert_eq!(attack.outcomes(), &[AttackOutcome::Executed]);
    }

    #[test]
    fn fleet_intercept_with_one_gateway_matches_single_link() {
        let (mut a, medium, gw) = setup();
        let single = a.intercept(&uplink(1), &medium, &gw);
        let (mut b, _, _) = setup();
        let fleet = b.intercept_fleet(&uplink(1), &medium, std::slice::from_ref(&gw));
        assert_eq!(single.len(), fleet.len());
        for (s, f) in single.iter().zip(fleet.iter()) {
            assert_eq!(f.gateway, 0);
            assert_eq!(s.arrival_global_s, f.delivery.arrival_global_s);
            assert_eq!(s.carrier_bias_hz, f.delivery.carrier_bias_hz);
            assert_eq!(s.is_replay, f.delivery.is_replay);
            assert_eq!(s.jamming.is_some(), f.delivery.jamming.is_some());
        }
    }

    #[test]
    fn aborted_fleet_attack_falls_back_to_honest_fan_out() {
        let phy = PhyConfig::uplink(SpreadingFactor::Sf8);
        let gateways = [Position::new(400.0, 0.0, 0.0), Position::new(0.0, 400.0, 0.0)];
        let mut attack = FrameDelayAttack::near_gateway(
            Position::new(0.0, 500_000.0, 0.0), // eavesdropper out of range
            &gateways,
            0,
            2.0,
            30.0,
            phy,
            7,
        );
        let medium = RadioMedium::new(Box::new(FreeSpace { freq_hz: 868e6 }));
        let copies = attack.intercept_fleet(&uplink(1), &medium, &gateways);
        assert_eq!(copies.len(), 2);
        assert!(copies.iter().all(|c| !c.delivery.is_replay && c.delivery.jamming.is_none()));
        assert_eq!(attack.outcomes(), &[AttackOutcome::RecordingFailed]);
    }

    #[test]
    fn timestamps_shift_by_tau_end_to_end() {
        // Glue check with the LoRaWAN layer: the replayed frame decodes and
        // its reconstructed record timestamps are τ late.
        use softlora_lorawan::{ClassADevice, DeviceConfig, Gateway, RxVerdict};
        let phy = PhyConfig::uplink(SpreadingFactor::Sf8);
        let cfg = DeviceConfig::new(1, phy);
        let mut dev = ClassADevice::new(cfg.clone());
        let mut gw = Gateway::new();
        gw.provision(1, cfg.keys.clone());

        dev.sense(555, 99.0).unwrap();
        let tx = dev.try_transmit(100.0).unwrap();

        let (mut attack, medium, gw_pos) = setup();
        let frame = AirFrame {
            dev_addr: 1,
            bytes: tx.bytes.clone(),
            tx_start_global_s: 100.0,
            airtime_s: tx.airtime_s,
            tx_power_dbm: 14.0,
            tx_position: Position::default(),
            tx_bias_hz: -20e3,
            tx_phase: 0.0,
            sf: SpreadingFactor::Sf8,
        };
        let deliveries = attack.intercept(&frame, &medium, &gw_pos);
        // Original silently dropped (jammed) -> gateway only sees replay.
        let replay = deliveries.iter().find(|d| d.is_replay).unwrap();
        let RxVerdict::Accepted(up) = gw.receive(&replay.bytes, replay.arrival_global_s) else {
            panic!("replay should be accepted")
        };
        let err = up.records[0].global_time_s - 99.0;
        assert!((err - 30.0).abs() < 0.1, "timestamp error {err}, want ~30");
    }
}
