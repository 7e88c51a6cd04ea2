//! Direct calls into single layers on the run's own inputs, timed by the
//! benchmark (traced runs only): `process_batch` at batch sizes 1 and 64,
//! MIC computation, MAC verification, and the datagram codec; and the
//! capture-abort probe on the copies the benchmark leaves out.

use crate::run::RunOut;
use crate::{fleet, stats};
use softlora::pipeline::MacStage;
use softlora_crypto::lorawan::{compute_mic, Direction};
use softlora_lorawan::DataFrame;
use softlora_net::protocol::{decode_frame, encode_frame_into};
use softlora_store::Encoder;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Microseconds per group of `process_batch` over the first `n` groups
/// in batches of `batch`, on a fresh server without persistence, and the
/// FFT plans built per call.
fn batch_cost(out: &RunOut, n: usize, batch: usize) -> (f64, f64) {
    let groups = &out.groups[..n.min(out.groups.len())];
    let mut server = fleet::server_builder(&out.scenario, out.scenario.gateways().len()).build();
    let plans = || softlora_telemetry::global().snapshot().counter_sum("dsp_fft_plans_total");
    let plans0 = plans();
    let t = Instant::now();
    let mut calls = 0u64;
    for chunk in groups.chunks(batch) {
        black_box(server.process_batch(chunk).expect("process_batch"));
        calls += 1;
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / groups.len().max(1) as f64;
    (us, (plans() - plans0) as f64 / calls.max(1) as f64)
}

/// Runs each probe group alone through `process_batch` on a fresh server
/// and returns the share of calls the front half aborts with a capture
/// error: 0 once the program handles copies at the demodulation floor.
fn capture_abort_share(out: &RunOut) -> f64 {
    let probe = &out.dropped.probe;
    let mut server = fleet::server_builder(&out.scenario, out.scenario.gateways().len()).build();
    let aborted = probe
        .iter()
        .filter(|g| {
            matches!(
                server.process_batch(std::slice::from_ref(*g)),
                Err(softlora::SoftLoraError::Capture { .. })
            )
        })
        .count();
    stats::ratio(aborted as f64, probe.len() as f64)
}

/// The run's frames: the first honest copy of every group.
fn frames(out: &RunOut) -> Vec<(&[u8], f64)> {
    out.groups
        .iter()
        .filter_map(|g| g.copies.iter().find(|c| !c.delivery.is_replay))
        .map(|c| (c.delivery.bytes.as_slice(), c.delivery.arrival_global_s))
        .collect()
}

pub fn measure(out: &RunOut, batch_groups: usize) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let (b1, _) = batch_cost(out, batch_groups, 1);
    let (b64, _) = batch_cost(out, batch_groups, 64);
    m.insert("core.batch1_us_per_group", b1);
    m.insert("core.batch64_us_per_group", b64);
    m.insert("core.capture_abort_share", capture_abort_share(out));

    let keys: HashMap<u32, [u8; 16]> = (0..out.scenario.devices())
        .map(|k| {
            let cfg = out.scenario.device_config(k);
            (cfg.dev_addr, cfg.keys.nwk_skey)
        })
        .collect();
    let frames = frames(out);
    let t = Instant::now();
    let mut mics = 0u64;
    for (bytes, _) in &frames {
        let Ok((_, dev_addr, fcnt)) = DataFrame::peek_header(bytes) else { continue };
        let Some(key) = keys.get(&dev_addr) else { continue };
        let body = &bytes[..bytes.len() - 4];
        let mic = compute_mic(key, dev_addr, u32::from(fcnt), Direction::Uplink, body);
        assert_eq!(&mic[..], &bytes[bytes.len() - 4..], "frame MIC must verify");
        mics += 1;
    }
    m.insert("crypto.mic_us", t.elapsed().as_secs_f64() * 1e6 / mics.max(1) as f64);

    let mut mac = MacStage::new();
    for k in 0..out.scenario.devices() {
        let cfg = out.scenario.device_config(k);
        mac.provision(cfg.dev_addr, cfg.keys.clone());
    }
    let t = Instant::now();
    for (bytes, arrival) in &frames {
        black_box(mac.verify(bytes, *arrival));
    }
    m.insert("lorawan.verify_us", t.elapsed().as_secs_f64() * 1e6 / frames.len().max(1) as f64);

    let (mut decode_us, mut encode_us) = (0.0, 0.0);
    if !out.datagrams.is_empty() {
        let t = Instant::now();
        let decoded: Vec<_> =
            out.datagrams.iter().map(|d| decode_frame(d).expect("own datagram decodes")).collect();
        decode_us = t.elapsed().as_secs_f64() * 1e6 / decoded.len() as f64;
        let mut enc = Encoder::new();
        let t = Instant::now();
        for f in &decoded {
            enc.clear();
            encode_frame_into(f, &mut enc);
            black_box(enc.as_bytes());
        }
        encode_us = t.elapsed().as_secs_f64() * 1e6 / decoded.len() as f64;
    }
    m.insert("net.decode_us", decode_us);
    m.insert("net.encode_us", encode_us);
    m
}
