//! Wire-protocol microbenchmarks: `PUSH_DATA` encode / decode throughput
//! at realistic batch shapes, and the full encode→decode round trip the
//! listener pays per datagram. No sockets — this isolates the codec cost
//! from kernel scheduling so regressions in the framing layer are visible.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use softlora_net::protocol::{
    decode_frame, encode_frame, encode_frame_into, Frame, PushData, WireDelivery, WireUplink,
};
use softlora_store::Encoder;

/// One realistic uplink copy: a 23-byte LoRaWAN frame with full radio
/// metadata, as the export layer emits for every fleet gateway.
fn mk_uplink(uplink: u64, copy_index: u16, copies_total: u16) -> WireUplink {
    WireUplink {
        uplink,
        dev_addr: 0x2601_5000,
        tx_start_global_s: 1500.0 + uplink as f64 * 300.0,
        airtime_s: 0.0616,
        copies_total,
        copy_index,
        delivery: Some(WireDelivery {
            bytes: vec![0x40; 23],
            dev_addr: 0x2601_5000,
            arrival_global_s: 1500.0 + uplink as f64 * 300.0 + 1.2e-3,
            snr_db: 7.5,
            carrier_bias_hz: -22_000.0,
            carrier_phase: 0.4,
            sf: 7,
            jamming: None,
            is_replay: false,
        }),
    }
}

fn mk_push_data(copies: usize) -> Frame {
    Frame::PushData(PushData {
        gateway: 17,
        seq: 42,
        watermark: 9,
        uplinks: (0..copies).map(|k| mk_uplink(10 + k as u64 / 4, (k % 4) as u16, 4)).collect(),
    })
}

fn bench_protocol(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_protocol");
    for &copies in &[1usize, 8, 64] {
        let frame = mk_push_data(copies);
        let encoded = encode_frame(&frame);

        // A gateway's send path: clear + encode into a reused buffer.
        let mut scratch = Encoder::new();
        group.bench_function(format!("encode_push_data_{copies}"), |b| {
            b.iter(|| {
                scratch.clear();
                encode_frame_into(black_box(&frame), &mut scratch);
                black_box(scratch.len())
            })
        });

        // The listener's receive path: CRC + parse into owned frames.
        group.bench_function(format!("decode_push_data_{copies}"), |b| {
            b.iter(|| decode_frame(black_box(&encoded)).expect("decode"))
        });

        group.bench_function(format!("round_trip_push_data_{copies}"), |b| {
            b.iter(|| {
                scratch.clear();
                encode_frame_into(black_box(&frame), &mut scratch);
                decode_frame(scratch.as_bytes()).expect("decode")
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_protocol);
criterion_main!(benches);
