//! Property-based tests (proptest) on the workspace's core invariants.

use proptest::prelude::*;
use softlora_repro::crypto::lorawan::{crypt_frm_payload, verify_mic, Direction};
use softlora_repro::crypto::{Aes128, Cmac};
use softlora_repro::dsp::fft::{fft_forward, ifft_in_place, next_pow2};
use softlora_repro::dsp::unwrap::{unwrap_phase, wrap_to_pi};
use softlora_repro::dsp::Complex;
use softlora_repro::lorawan::elapsed::{ElapsedCodec, SensorRecord};
use softlora_repro::lorawan::{DataFrame, DeviceKeys, FrameType};
use softlora_repro::phy::coding::{
    deinterleave_block, gray_decode, gray_encode, interleave_block, Whitener,
};
use softlora_repro::sim::queue::EventQueue;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_round_trip_is_identity(values in prop::collection::vec(-100.0f64..100.0, 2..200)) {
        let signal: Vec<Complex> = values
            .chunks(2)
            .map(|c| Complex::new(c[0], c.get(1).copied().unwrap_or(0.0)))
            .collect();
        let mut spec = fft_forward(&signal);
        ifft_in_place(&mut spec);
        for (a, b) in signal.iter().zip(spec.iter()) {
            prop_assert!((*a - *b).norm() < 1e-8);
        }
    }

    #[test]
    fn fft_preserves_energy(values in prop::collection::vec(-10.0f64..10.0, 4..128)) {
        let signal: Vec<Complex> = values.iter().map(|&v| Complex::new(v, -v * 0.5)).collect();
        let n = next_pow2(signal.len()) as f64;
        let time: f64 = signal.iter().map(|z| z.norm_sqr()).sum();
        let freq: f64 = fft_forward(&signal).iter().map(|z| z.norm_sqr()).sum::<f64>() / n;
        prop_assert!((time - freq).abs() <= 1e-9 * time.max(1.0));
    }

    #[test]
    fn phase_unwrap_recovers_any_smooth_ramp(slope in -2.0f64..2.0, n in 16usize..400) {
        let truth: Vec<f64> = (0..n).map(|k| slope * k as f64).collect();
        let wrapped: Vec<f64> = truth.iter().map(|&p| wrap_to_pi(p)).collect();
        let unwrapped = unwrap_phase(&wrapped);
        // Slopes beyond ±π per sample alias; restrict the check.
        prop_assume!(slope.abs() < 3.0);
        for (u, t) in unwrapped.iter().zip(truth.iter()) {
            prop_assert!((u - t).abs() < 1e-6);
        }
    }

    #[test]
    fn aes_decrypt_inverts_encrypt(key in prop::array::uniform16(0u8..), block in prop::array::uniform16(0u8..)) {
        let aes = Aes128::new(&key);
        prop_assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
    }

    #[test]
    fn cmac_verifies_own_tags(key in prop::array::uniform16(0u8..), msg in prop::collection::vec(any::<u8>(), 0..100)) {
        let cmac = Cmac::new(&key);
        let tag = cmac.compute(&msg);
        prop_assert!(cmac.verify(&msg, &tag));
        prop_assert!(cmac.verify(&msg, &tag[..4]));
    }

    #[test]
    fn payload_crypt_is_involution(
        key in prop::array::uniform16(0u8..),
        addr in any::<u32>(),
        fcnt in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut data = payload.clone();
        crypt_frm_payload(&key, addr, fcnt, Direction::Uplink, &mut data);
        crypt_frm_payload(&key, addr, fcnt, Direction::Uplink, &mut data);
        prop_assert_eq!(data, payload);
    }

    #[test]
    fn frame_encode_decode_round_trip(
        addr in any::<u32>(),
        fcnt in any::<u16>(),
        fport in 1u8..224,
        payload in prop::collection::vec(any::<u8>(), 0..100),
    ) {
        let keys = DeviceKeys::derive_for_tests(addr);
        let frame = DataFrame {
            frame_type: FrameType::UnconfirmedUp,
            dev_addr: addr,
            fcnt,
            fport,
            payload,
        };
        let bytes = frame.encode(&keys).unwrap();
        let decoded = DataFrame::decode(&bytes, &keys, 0).unwrap();
        prop_assert_eq!(decoded, frame);
    }

    #[test]
    fn frame_mic_rejects_any_single_bit_flip(
        addr in any::<u32>(),
        payload in prop::collection::vec(any::<u8>(), 1..40),
        flip_bit in 0usize..64,
    ) {
        let keys = DeviceKeys::derive_for_tests(addr);
        let frame = DataFrame {
            frame_type: FrameType::UnconfirmedUp,
            dev_addr: addr,
            fcnt: 1,
            fport: 1,
            payload,
        };
        let mut bytes = frame.encode(&keys).unwrap();
        let idx = flip_bit % (bytes.len() * 8);
        bytes[idx / 8] ^= 1 << (idx % 8);
        prop_assert!(DataFrame::decode(&bytes, &keys, 0).is_err());
    }

    #[test]
    fn mic_is_not_forgeable_by_field_swap(addr in any::<u32>(), fcnt in any::<u32>()) {
        let key = [7u8; 16];
        let msg = b"some frame body";
        let mic = softlora_repro::crypto::lorawan::compute_mic(
            &key, addr, fcnt, Direction::Uplink, msg,
        );
        prop_assert!(verify_mic(&key, addr, fcnt, Direction::Uplink, msg, &mic));
        prop_assert!(!verify_mic(&key, addr.wrapping_add(1), fcnt, Direction::Uplink, msg, &mic));
        prop_assert!(!verify_mic(&key, addr, fcnt.wrapping_add(1), Direction::Uplink, msg, &mic));
    }

    #[test]
    fn elapsed_codec_round_trip(
        values in prop::collection::vec(any::<u16>(), 1..12),
        offsets in prop::collection::vec(0.0f64..200.0, 1..12),
    ) {
        let n = values.len().min(offsets.len());
        let tx_time = 250.0;
        let records: Vec<SensorRecord> = (0..n)
            .map(|k| SensorRecord { value: values[k], local_time_s: tx_time - offsets[k] })
            .collect();
        let bytes = ElapsedCodec::encode(&records, tx_time).unwrap();
        let decoded = ElapsedCodec::decode(&bytes, n).unwrap();
        for (r, (v, e)) in records.iter().zip(decoded.iter()) {
            prop_assert_eq!(*v, r.value);
            prop_assert!((e - (tx_time - r.local_time_s)).abs() <= 0.5001e-3);
        }
    }

    #[test]
    fn gray_round_trip_and_unit_distance(v in 0u32..65536) {
        prop_assert_eq!(gray_decode(gray_encode(v)), v);
        if v > 0 {
            prop_assert_eq!((gray_encode(v) ^ gray_encode(v - 1)).count_ones(), 1);
        }
    }

    #[test]
    fn interleaver_round_trip(
        ppm in 4usize..13,
        cw_bits in 5usize..9,
        seed in any::<u32>(),
    ) {
        let codewords: Vec<u8> = (0..ppm)
            .map(|i| ((seed.wrapping_mul(2654435761).wrapping_add(i as u32 * 97)) % (1 << cw_bits.min(8))) as u8)
            .collect();
        let symbols = interleave_block(&codewords, ppm, cw_bits).unwrap();
        prop_assert_eq!(deinterleave_block(&symbols, ppm, cw_bits).unwrap(), codewords);
    }

    #[test]
    fn whitening_is_involution(data in prop::collection::vec(any::<u8>(), 0..200)) {
        prop_assert_eq!(Whitener::whiten(&Whitener::whiten(&data)), data);
    }

    #[test]
    fn event_queue_pops_globally_time_ordered_with_fifo_ties(
        // Coarse quantisation forces plenty of exact time ties.
        quantized in prop::collection::vec(0u8..8, 1..120),
    ) {
        // The determinism regression guard behind the fleet event model:
        // pops come out globally time-ordered, and events scheduled at the
        // same time come out in insertion order.
        let mut q = EventQueue::new();
        for (k, t) in quantized.iter().enumerate() {
            q.schedule(*t as f64 * 0.5, k);
        }
        let mut popped = Vec::new();
        while let Some(item) = q.pop() {
            popped.push(item);
        }
        prop_assert_eq!(popped.len(), quantized.len());
        for w in popped.windows(2) {
            let ((t_a, a), (t_b, b)) = (w[0], w[1]);
            prop_assert!(t_a <= t_b, "time order violated: {} after {}", t_b, t_a);
            if t_a == t_b {
                prop_assert!(a < b, "tie broken out of insertion order: {} before {}", a, b);
            }
        }
    }

    #[test]
    fn event_queue_pop_always_returns_minimum_pending(
        batch_a in prop::collection::vec(0u8..6, 1..40),
        batch_b in prop::collection::vec(0u8..6, 0..40),
    ) {
        // Even with pops interleaved between schedule batches, every pop
        // returns the minimum pending time (peek agrees), and ties within
        // the pending set resolve to the earliest-scheduled event.
        let mut q = EventQueue::new();
        let mut pending: Vec<(f64, usize)> = Vec::new();
        let mut seq = 0usize;
        let check_pop = |q: &mut EventQueue<usize>, pending: &mut Vec<(f64, usize)>| {
            let peeked = q.peek_time();
            let popped = q.pop();
            match popped {
                None => {
                    assert!(pending.is_empty());
                    assert_eq!(peeked, None);
                }
                Some((t, id)) => {
                    assert_eq!(peeked, Some(t));
                    let min_t = pending.iter().map(|(pt, _)| *pt).fold(f64::INFINITY, f64::min);
                    assert_eq!(t, min_t, "pop returned a non-minimal time");
                    let expected_id = pending
                        .iter()
                        .filter(|(pt, _)| *pt == min_t)
                        .map(|(_, pid)| *pid)
                        .min()
                        .expect("pending non-empty");
                    assert_eq!(id, expected_id, "tie not broken by insertion order");
                    pending.retain(|(_, pid)| *pid != id);
                }
            }
        };
        for t in &batch_a {
            q.schedule(*t as f64, seq);
            pending.push((*t as f64, seq));
            seq += 1;
        }
        check_pop(&mut q, &mut pending);
        for t in &batch_b {
            q.schedule(*t as f64, seq);
            pending.push((*t as f64, seq));
            seq += 1;
        }
        while !pending.is_empty() {
            check_pop(&mut q, &mut pending);
        }
        prop_assert!(q.is_empty());
    }
}
