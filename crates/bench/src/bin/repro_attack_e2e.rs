//! Reproduces paper §8.1.1: the full frame-delay attack in the building,
//! against both a commodity gateway and the SoftLoRa gateway.
//!
//! Exits nonzero unless the SoftLoRa gateway flags every attacked frame's
//! replay and accepts every genuine (warm-up) frame.
use softlora_bench::experiments::attack_e2e;

/// Genuine frames sent before the attack starts.
const WARMUP: usize = 5;
/// Frames sent under the frame-delay attack.
const ATTACKED: usize = 8;

fn main() {
    println!("§8.1.1 — full frame-delay attack in the six-floor building\n");
    let r = attack_e2e::run(WARMUP, ATTACKED, 30.0);
    println!("Cross-building link (A1/3F -> C3/6F):");
    println!("  SF7 margin over demod floor : {:.1} dB (paper: SF7 unusable)", r.sf7_margin_db);
    println!("  SF8 margin over demod floor : {:.1} dB (paper: SF8 reliable)", r.sf8_margin_db);
    println!();
    println!("Attack (τ = {} s) over {} frames ({} attacked):", r.tau_s, r.frames, ATTACKED);
    println!("  originals silently suppressed : {}", r.originals_suppressed);
    println!(
        "  commodity gateway: accepted replays with mean timestamp error {:.2} s",
        r.commodity_timestamp_error_s
    );
    println!(
        "  SoftLoRa gateway : {} replays flagged, {} genuine frames accepted",
        r.softlora_detections, r.softlora_accepted
    );
    let mut failed = false;
    if r.softlora_detections != ATTACKED {
        eprintln!("FAIL: {} of {ATTACKED} replays flagged", r.softlora_detections);
        failed = true;
    }
    if r.softlora_accepted != WARMUP {
        eprintln!("FAIL: {} accepted, want the {WARMUP} genuine frames", r.softlora_accepted);
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
