//! The paper's single-link defence (§5.3, Fig. 4) driven through a
//! one-gateway [`NetworkServer`](crate::NetworkServer): one delivery per
//! group, so the server's tail is exactly the gateway's FB check, MAC
//! verification and PHY-arrival timestamping.

#[cfg(test)]
mod tests {
    use crate::network_server::{NetworkServer, ServerVerdict, SoftLoraVerdict};
    use crate::observer::ServerObserver;
    use crate::NetworkServerBuilder;
    use softlora_lorawan::{ClassADevice, DeviceConfig};
    use softlora_phy::rn2483::ReceptionOutcome;
    use softlora_phy::{PhyConfig, SpreadingFactor};
    use softlora_sim::Delivery;
    use std::sync::{Arc, Mutex};

    fn phy() -> PhyConfig {
        PhyConfig::uplink(SpreadingFactor::Sf7)
    }

    fn quick_gateway(seed: u64) -> NetworkServerBuilder {
        NetworkServer::builder(phy()).adc_quantisation(false).gateway(seed)
    }

    /// Builds a delivery from a real device transmission.
    fn delivery(
        dev: &mut ClassADevice,
        t: f64,
        bias_hz: f64,
        snr_db: f64,
        delay_s: f64,
        is_replay: bool,
    ) -> Delivery {
        dev.sense(777, t - 1.0).unwrap();
        let tx = dev.try_transmit(t).unwrap();
        Delivery {
            bytes: tx.bytes,
            dev_addr: dev.dev_addr(),
            arrival_global_s: t + delay_s + 4e-6,
            snr_db,
            carrier_bias_hz: bias_hz,
            carrier_phase: 0.7,
            sf: SpreadingFactor::Sf7,
            jamming: None,
            is_replay,
        }
    }

    fn setup() -> (ClassADevice, NetworkServer) {
        let dev_cfg = DeviceConfig::new(0x2601_0001, phy());
        let gw = quick_gateway(99).provision(dev_cfg.dev_addr, dev_cfg.keys.clone()).build();
        (ClassADevice::new(dev_cfg), gw)
    }

    /// One delivery through gateway 0, as its own group.
    fn process(gw: &mut NetworkServer, d: &Delivery) -> SoftLoraVerdict {
        gw.process_delivery(0, d).unwrap().verdict
    }

    #[test]
    fn genuine_frames_accept_and_learn() {
        let (mut dev, mut gw) = setup();
        let device_bias = -22_000.0;
        for k in 0..5 {
            let t = 100.0 + 200.0 * k as f64;
            let d = delivery(&mut dev, t, device_bias + 20.0 * (k as f64 - 2.0), 10.0, 0.0, false);
            let v = process(&mut gw, &d);
            assert!(v.is_accepted(), "frame {k}: {v:?}");
        }
        assert!(gw.fb_database().history_len(0x2601_0001) >= 5);
        // The tracked centre reflects δTx − δRx.
        let center = gw.fb_database().tracked_center_hz(0x2601_0001).unwrap();
        let expect = device_bias - gw.receiver_bias_hz(0);
        assert!((center - expect).abs() < 100.0, "center {center} expect {expect}");
    }

    #[test]
    fn replay_with_usrp_bias_is_detected_and_dropped() {
        let (mut dev, mut gw) = setup();
        let device_bias = -22_000.0;
        // Build history.
        for k in 0..5 {
            let d = delivery(&mut dev, 100.0 + 200.0 * k as f64, device_bias, 10.0, 0.0, false);
            assert!(process(&mut gw, &d).is_accepted());
        }
        // Frame-delay attack: original suppressed, replay arrives 30 s late
        // with the USRP's −600 Hz chain bias.
        let d = delivery(&mut dev, 1100.0, device_bias - 600.0, 10.0, 30.0, true);
        let v = process(&mut gw, &d);
        assert!(v.is_replay_detected(), "{v:?}");
        if let SoftLoraVerdict::ReplayDetected { deviation_hz, .. } = v {
            assert!((deviation_hz + 600.0).abs() < 250.0, "deviation {deviation_hz}");
        }
        // Counter state untouched: a later legitimate frame still accepts.
        let d = delivery(&mut dev, 1300.0, device_bias, 10.0, 0.0, false);
        assert!(process(&mut gw, &d).is_accepted());
        let stats = gw.detection_stats();
        assert_eq!(stats.true_positives, 1);
        assert_eq!(stats.false_positives, 0);
    }

    #[test]
    fn timestamps_are_millisecond_accurate() {
        let (mut dev, mut gw) = setup();
        for k in 0..3 {
            let d = delivery(&mut dev, 100.0 + 200.0 * k as f64, -20_000.0, 10.0, 0.0, false);
            let v = process(&mut gw, &d);
            if let SoftLoraVerdict::Accepted { uplink, .. } = v {
                // Record's true time of interest was t − 1.
                let t = 100.0 + 200.0 * k as f64;
                let err = (uplink.records[0].global_time_s - (t - 1.0)).abs();
                assert!(err < 2e-3, "timestamp error {err}");
            } else {
                panic!("{v:?}");
            }
        }
    }

    #[test]
    fn jammed_frame_is_silently_dropped() {
        let (mut dev, mut gw) = setup();
        let mut d = delivery(&mut dev, 100.0, -20_000.0, 10.0, 0.0, false);
        d.jamming = Some(softlora_phy::rn2483::JammingAttempt {
            onset_s: 0.02, // inside the SF7 effective window
            relative_power_db: 10.0,
        });
        let v = process(&mut gw, &d);
        match v {
            SoftLoraVerdict::NotReceived { outcome } => {
                assert_eq!(outcome, ReceptionOutcome::SilentDrop);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn below_floor_frame_not_received() {
        let (mut dev, mut gw) = setup();
        let d = delivery(&mut dev, 100.0, -20_000.0, -15.0, 0.0, false);
        let v = process(&mut gw, &d);
        assert!(matches!(v, SoftLoraVerdict::NotReceived { outcome: ReceptionOutcome::NoSignal }));
    }

    #[test]
    fn unknown_device_rejected_after_fb_stage() {
        let dev_cfg = DeviceConfig::new(0xBEEF, phy());
        let mut dev = ClassADevice::new(dev_cfg);
        let mut gw = quick_gateway(5).build();
        let d = delivery(&mut dev, 100.0, -20_000.0, 10.0, 0.0, false);
        let v = process(&mut gw, &d);
        assert!(matches!(v, SoftLoraVerdict::LorawanRejected { .. }));
    }

    #[test]
    fn preloaded_database_flags_first_replay() {
        let (mut dev, mut gw) = setup();
        // Offline-built database (paper §7.2).
        let expected_center = -22_000.0 - gw.receiver_bias_hz(0);
        gw.preload_fb(0x2601_0001, &[expected_center; 8]);
        let d = delivery(&mut dev, 100.0, -22_000.0 - 700.0, 10.0, 60.0, true);
        let v = process(&mut gw, &d);
        assert!(v.is_replay_detected(), "{v:?}");
    }

    #[test]
    fn low_snr_path_uses_ls_estimator() {
        let (mut dev, mut gw) = setup();
        // SNR −7 dB < the −5 dB threshold -> matched-filter LS path; the
        // frame still decodes (SF7 floor −7.5) and the FB must be close.
        let d = delivery(&mut dev, 100.0, -21_000.0, -7.0, 0.0, false);
        let v = process(&mut gw, &d);
        if let SoftLoraVerdict::Accepted { fb, .. } = v {
            assert_eq!(fb.method, crate::FbMethod::MatchedFilter);
            // At this SNR the onset-pick error (tens of microseconds)
            // couples into the FB estimate as chirp-slope × timing error —
            // the physical reason the paper calls µs timestamping a
            // prerequisite of FB estimation. The estimate is therefore only
            // required to stay within the oscillator search range here; the
            // controlled-onset accuracy claims are covered by the
            // fb_estimator tests and the Fig. 14 repro, which follow the
            // paper in taking the onset from the clean trace.
            assert!(fb.delta_hz.abs() < 34_000.0, "fb {}", fb.delta_hz);
        } else {
            panic!("{v:?}");
        }
    }

    #[test]
    fn onset_picker_runs_once_per_processed_frame() {
        let (mut dev, mut gw) = setup();
        for k in 0..4 {
            let d = delivery(&mut dev, 100.0 + 200.0 * k as f64, -22_000.0, 10.0, 0.0, false);
            process(&mut gw, &d);
        }
        assert_eq!(gw.pipeline(0).onset.picker_runs(), 4);
        assert_eq!(gw.frames_seen(0), 4);
    }

    #[derive(Default)]
    struct Verdicts(Vec<SoftLoraVerdict>);

    impl ServerObserver for Verdicts {
        fn on_verdict(&mut self, _uplink: u64, verdict: &ServerVerdict) {
            self.0.push(verdict.verdict.clone());
        }
    }

    #[test]
    fn observers_see_every_outcome() {
        let seen = Arc::new(Mutex::new(Verdicts::default()));
        let dev_cfg = DeviceConfig::new(0x2601_0001, phy());
        let mut gw = quick_gateway(99)
            .provision(dev_cfg.dev_addr, dev_cfg.keys.clone())
            .observer(Box::new(Arc::clone(&seen)))
            .build();
        let mut dev = ClassADevice::new(dev_cfg);
        // 5 accepted (learning + genuine), then one replay.
        for k in 0..5 {
            let d = delivery(&mut dev, 100.0 + 200.0 * k as f64, -22_000.0, 10.0, 0.0, false);
            process(&mut gw, &d);
        }
        let d = delivery(&mut dev, 1100.0, -22_700.0, 10.0, 30.0, true);
        process(&mut gw, &d);
        // And one below-floor frame.
        let d = delivery(&mut dev, 1300.0, -22_000.0, -15.0, 0.0, false);
        process(&mut gw, &d);

        let s = &seen.lock().unwrap().0;
        let count = |f: fn(&SoftLoraVerdict) -> bool| s.iter().filter(|v| f(v)).count();
        assert_eq!(count(SoftLoraVerdict::is_accepted), 5);
        assert_eq!(count(SoftLoraVerdict::is_replay_detected), 1);
        assert_eq!(count(|v| matches!(v, SoftLoraVerdict::NotReceived { .. })), 1);
        assert_eq!(s.len(), 7);
        // The onset stage ran once per frame that reached the SDR path.
        assert_eq!(gw.pipeline(0).onset.picker_runs(), 6);
        assert_eq!(gw.frames_seen(0), 7);
        // The MAC stage never ran for the flagged or dropped frames.
        assert_eq!(gw.stats().accepted + gw.stats().lorawan_rejected, 5);
    }
}
