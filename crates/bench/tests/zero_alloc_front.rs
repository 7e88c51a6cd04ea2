//! Pins the allocation-free steady state of the gateway **front half**
//! and the commit path's record-encode seam — the last two per-frame
//! allocation sources called out on the ROADMAP:
//!
//! * `Pipeline::front_half_with` used to heap-allocate a
//!   `Vec<StageTiming>` per frame; stage timings are now an inline
//!   fixed-size array (`StageTimings`), so a warm front half must be
//!   allocation-free end to end;
//! * the server tail used to allocate a fresh buffer per WAL record in
//!   `CommitRecord::encode`; commits now reuse one per-shard scratch
//!   `Encoder` — pinned here through the same clear-and-reuse `Encoder`
//!   discipline on a commit-record-shaped payload.
//!
//! One test per file: the counting allocator is process-global, so a
//! lone test keeps the measured region free of harness allocations.

use softlora::NetworkServer;
use softlora_bench::alloc_counter::CountingAllocator;
use softlora_dsp::DspScratch;
use softlora_lorawan::{ClassADevice, DeviceConfig};
use softlora_phy::{PhyConfig, SpreadingFactor};
use softlora_sim::Delivery;
use softlora_store::Encoder;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

#[test]
fn steady_state_front_half_and_record_encode_are_allocation_free() {
    // --- Setup (allocations allowed): a provisioned one-gateway server
    // and a genuine SF7 delivery off a Class A device. ---
    let phy = PhyConfig::uplink(SpreadingFactor::Sf7);
    let dev_cfg = DeviceConfig::new(0x2601_0001, phy);
    let mut dev = ClassADevice::new(dev_cfg.clone());
    let gw = NetworkServer::builder(phy)
        .adc_quantisation(false)
        .gateway(3)
        .provision(dev_cfg.dev_addr, dev_cfg.keys.clone())
        .build();
    dev.sense(1, 99.0).expect("sense");
    let tx = dev.try_transmit(100.0).expect("tx");
    let delivery = Delivery {
        bytes: tx.bytes,
        dev_addr: dev_cfg.dev_addr,
        arrival_global_s: 100.0 + 4e-6,
        snr_db: 10.0,
        carrier_bias_hz: -22_000.0,
        carrier_phase: 0.4,
        sf: phy.sf,
        jamming: None,
        is_replay: false,
    };
    let pipeline = gw.pipeline(0);
    let mut scratch = DspScratch::new();

    // A commit-record-shaped payload: version byte, sequence numbers,
    // absolute counters, per-gateway frame indices, the optional
    // mutations. Mirrors what each shard appends to its WAL per commit.
    let frames: [u64; 8] = [3, 1, 4, 1, 5, 9, 2, 6];
    let encode_record = |e: &mut Encoder| {
        e.u8(1).u64(42).u64(7);
        for _ in 0..18 {
            e.u64(123_456);
        }
        e.u32(frames.len() as u32);
        for &f in &frames {
            e.u64(f);
        }
        e.option(&Some((0x2601_0001u32, -22_000.5f64)), |e, (dev, fb)| {
            e.u32(*dev).f64(*fb);
        });
        e.option(&None::<u8>, |e, v| {
            e.u8(*v);
        });
        e.option(&Some((0x2601_0001u32, 9u16)), |e, (dev, fcnt)| {
            e.u32(*dev).u16(*fcnt);
        });
        e.option(&None::<u8>, |e, v| {
            e.u8(*v);
        });
    };
    let mut wal_buf = Encoder::new();

    let run_frame = |index: u64, scratch: &mut DspScratch, wal_buf: &mut Encoder| {
        let front = pipeline.front_half_with(&delivery, index, scratch).expect("front half");
        // The front half must have done real work: four timed stages on
        // the analysed path, stored inline.
        match &front {
            softlora::pipeline::FrontFrame::Analyzed(a) => assert_eq!(a.timings.len(), 4),
            softlora::pipeline::FrontFrame::NotReceived { .. } => {
                panic!("SNR 10 dB must pass the radio gate")
            }
        }
        wal_buf.clear();
        encode_record(wal_buf);
        assert!(wal_buf.len() > 100, "record encode must produce a real payload");
    };

    // --- Warm-up: fill the scratch pools, build FFT plans, grow the
    // reusable encoder to its steady capacity. Capture synthesis draws a
    // per-frame-index random lead (up to 200 extra samples), so warm over
    // the very indices the measured loop replays — that bounds every pool
    // at exactly the capacity the steady state needs, deterministically.
    for k in 0..16 {
        run_frame(2_000 + k, &mut scratch, &mut wal_buf);
    }

    // --- Steady state: zero allocations across many frames. ---
    let before = ALLOC.snapshot();
    for k in 0..16 {
        run_frame(2_000 + k, &mut scratch, &mut wal_buf);
    }
    let after = ALLOC.snapshot();
    let allocated = before.allocations_since(&after);
    assert_eq!(
        allocated,
        0,
        "steady-state front-half + record-encode path allocated {allocated} times over \
         16 frames ({} bytes)",
        after.bytes_allocated - before.bytes_allocated,
    );
}
