//! Pins the allocation-free steady state of the **pipelined ingest
//! path**: poll-side reassembly (`Reassembler::stash` + `drain_ready`),
//! the SPSC handoff to the off-thread commit worker
//! (`CommitPipe::offer`), the worker's batch pop + commit + watermark
//! publish, and the recycle loop that returns group shells to the
//! reassembler's pools. Once the pools are warm, moving a group from
//! wire arrival to committed-and-recycled must allocate **nothing** on
//! the poll thread.
//!
//! The commit worker runs concurrently on its own thread with its own
//! (warmed) batch buffers; the counting allocator is process-global, so
//! the measured region waits for each group's commit + recycle before
//! stashing the next — any worker-side per-group allocation is caught
//! too.
//!
//! One test per file: the counting allocator is process-global, so a
//! lone test keeps the measured region free of harness allocations.

use softlora::ServerVerdict;
use softlora_bench::alloc_counter::CountingAllocator;
use softlora_net::ingest::{
    CommitPipe, CommitSink, CommitTelemetry, CopyHeader, Reassembler, Stash,
};
use softlora_net::NetError;
use softlora_phy::SpreadingFactor;
use softlora_sim::{Delivery, FleetDelivery, UplinkDeliveries};
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator::new();

/// A sink that does nothing but count — the pipe's choreography without
/// a server tail, so the pin isolates the ingest machinery itself.
struct NullSink {
    committed: u64,
}

impl CommitSink for NullSink {
    fn commit(
        &mut self,
        groups: &[UplinkDeliveries],
        _verdicts: &mut Vec<ServerVerdict>,
    ) -> Result<(), NetError> {
        self.committed += groups.len() as u64;
        Ok(())
    }
}

fn header(uplink: u64) -> CopyHeader {
    CopyHeader {
        uplink,
        dev_addr: 0x2601_0001,
        tx_start_global_s: uplink as f64,
        airtime_s: 0.056,
        copies_total: 1,
        copy_index: 0,
    }
}

#[test]
fn steady_state_ingest_to_commit_is_allocation_free() {
    // --- Setup (allocations allowed): telemetry handles, the pipe with
    // its worker thread, a reassembler, and one real delivery whose
    // payload buffer is recycled through every measured group. ---
    let registry = softlora_telemetry::global();
    let telemetry = CommitTelemetry {
        batches: registry.counter("test_zero_alloc_batches"),
        groups_committed: registry.counter("test_zero_alloc_groups"),
        queue_depth: registry.gauge_with("test_zero_alloc_depth", &[]),
        batch_size: registry.histogram_with("test_zero_alloc_batch_size", &[]),
        stalls: registry.counter("test_zero_alloc_stalls"),
    };
    let mut pipe = CommitPipe::spawn(NullSink { committed: 0 }, false, telemetry);
    let mut reassembler = Reassembler::new(Duration::from_secs(60), 1024);
    let mut slot = Some(FleetDelivery {
        gateway: 0,
        delivery: Delivery {
            bytes: vec![0x40, 0x01, 0x00, 0x01, 0x26, 0x00, 0x09, 0x00, 0x01, 0xAA, 0xBB],
            dev_addr: 0x2601_0001,
            arrival_global_s: 100.0,
            snr_db: 8.5,
            carrier_bias_hz: -21_000.0,
            carrier_phase: 0.3,
            sf: SpreadingFactor::Sf7,
            jamming: None,
            is_replay: false,
        },
    });
    let mut batch: Vec<UplinkDeliveries> = Vec::with_capacity(4);

    // One full trip: stash the single copy, release it under the fleet
    // barrier, hand it to the commit worker, wait for the watermark,
    // then reclaim the shell *and* the delivery for the next trip.
    let run_group = |uplink: u64,
                     slot: &mut Option<FleetDelivery>,
                     reassembler: &mut Reassembler,
                     pipe: &mut CommitPipe,
                     batch: &mut Vec<UplinkDeliveries>| {
        let copy = slot.take().expect("delivery recycled from previous trip");
        assert_eq!(reassembler.stash(&header(uplink), Some(copy)), Stash::Filed);
        batch.clear();
        let tally = reassembler.drain_ready(Some(uplink + 1), false, batch);
        assert_eq!(tally.emitted, 1, "complete group below the barrier must release");
        pipe.offer(batch.pop().expect("one group released"));
        pipe.kick();
        let deadline = Instant::now() + Duration::from_secs(10);
        while pipe.committed() < uplink + 1 {
            assert!(Instant::now() < deadline, "commit worker stalled at uplink {uplink}");
            std::hint::spin_loop();
        }
        loop {
            if let Some(mut group) = pipe.pop_recycled() {
                *slot = group.copies.pop();
                assert!(slot.is_some(), "committed group must still hold its copy");
                reassembler.recycle(group);
                break;
            }
            assert!(Instant::now() < deadline, "recycle ring never returned the group");
            std::hint::spin_loop();
        }
    };

    // --- Warm-up: fill the shell/group pools, the worker's batch and
    // verdict buffers, and the handoff rings. ---
    for uplink in 0..16 {
        run_group(uplink, &mut slot, &mut reassembler, &mut pipe, &mut batch);
    }

    // --- Steady state: zero allocations across many groups. ---
    let before = ALLOC.snapshot();
    for uplink in 16..48 {
        run_group(uplink, &mut slot, &mut reassembler, &mut pipe, &mut batch);
    }
    let after = ALLOC.snapshot();
    let allocated = before.allocations_since(&after);
    assert_eq!(
        allocated,
        0,
        "steady-state stash → drain → offer → commit → recycle path allocated \
         {allocated} times over 32 groups ({} bytes)",
        after.bytes_allocated - before.bytes_allocated,
    );

    let log = pipe.finish().expect("commit worker exits cleanly");
    assert!(log.verdicts.is_empty(), "verdict recording was disabled");
}
