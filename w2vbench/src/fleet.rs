//! The three workloads' fleets and group streams, their pinned server
//! configuration, and the checks run on the verdicts they produce.

use softlora::{FbMethod, NetworkServer, NetworkServerBuilder, ServerVerdict, SoftLoraConfig};
use softlora_attack::FrameDelayAttack;
use softlora_phy::{PhyConfig, SpreadingFactor};
use softlora_sim::{FleetDeployment, HonestChannel, Position, Scenario, UplinkDeliveries};
use std::time::Instant;

/// The default site noise floor, dBm (thermal floor over 125 kHz plus
/// a 6 dB noise figure).
const QUIET_FLOOR_DBM: f64 = -117.0;
/// +40 dB: a far site, median copy SNR near 4 dB, so nearly every copy
/// takes the matched-filter FB estimator.
const FAR_FLOOR_DBM: f64 = -77.0;
/// +30 dB: a mid-range site, whose nearer devices stay on linear
/// regression while its farther ones take the matched filter.
const MID_FLOOR_DBM: f64 = -86.0;
/// +60 dB: a deaf site, whose copies fail the radio front end cheaply.
const DEAF_FLOOR_DBM: f64 = -57.0;

/// Copy SNRs (dB) at the SF7 demodulation floor. Such copies pass the
/// radio gate, but now and then the onset pick lands too late for two
/// chirps to follow it; the front half then fails with
/// `SoftLoraError::Capture`, `process_batch` aborts its whole batch, and
/// on the wire the listener's commit worker stops. That is a program
/// defect (README.md, "Finding at the seed commit"). The benchmark leaves
/// these copies out so its runs complete, reports the share it left out,
/// and a traced run probes whether the program still aborts on them.
const FRAGILE_SNR_DB: (f64, f64) = (-9.5, -4.5);
/// Unfiltered groups kept for the capture-abort probe.
const PROBE_GROUPS: usize = 256;

/// Seed of the fixed device layout.
const LAYOUT_SEED: u64 = 0x5EED_1A70;

/// Reporting period of every meter, seconds of simulated time.
const PERIOD_S: f64 = 300.0;
/// The attack starts once every device is past FB warm-up.
const ATTACK_FROM_S: f64 = 3.5 * PERIOD_S;
/// Frame-delay τ, seconds.
const TAU_S: f64 = 40.0;

/// Tail shards and scheduler workers, pinned rather than taken from the
/// machine so figures do not move with the core count.
pub const SHARDS: usize = 2;
pub const WORKERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StreamFar,
    WirePaced,
    WireFlood,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::StreamFar, Workload::WirePaced, Workload::WireFlood];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StreamFar => "stream_far",
            Workload::WirePaced => "wire_paced",
            Workload::WireFlood => "wire_flood",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Per-site noise floors, dBm; the fleet width is their count.
    fn floors(self) -> Vec<f64> {
        match self {
            Workload::StreamFar => vec![FAR_FLOOR_DBM; 2],
            // Three loud sites (one mid-range, so near and far devices mix
            // and some copies take the matched filter) and five deaf ones.
            Workload::WirePaced => {
                let mut f = vec![QUIET_FLOOR_DBM, QUIET_FLOOR_DBM, MID_FLOOR_DBM];
                f.extend([DEAF_FLOOR_DBM; 5]);
                f
            }
            // One loud site keeps the MAC tail busy; fifteen deaf ones.
            Workload::WireFlood => {
                let mut f = vec![QUIET_FLOOR_DBM];
                f.extend([DEAF_FLOOR_DBM; 15]);
                f
            }
        }
    }

    pub fn gateways(self) -> usize {
        self.floors().len()
    }

    /// Metering devices in the fleet.
    fn devices(self) -> usize {
        match self {
            Workload::StreamFar => 48,
            Workload::WirePaced => 96,
            Workload::WireFlood => 64,
        }
    }
}

pub fn phy() -> PhyConfig {
    PhyConfig::uplink(SpreadingFactor::Sf7)
}

/// The pinned gateway configuration: fast DSP kernels set explicitly (the
/// `SOFTLORA_DSP_KERNEL` default is ignored), no ADC quantisation, a
/// two-frame FB warm-up.
pub fn config() -> SoftLoraConfig {
    let mut c = SoftLoraConfig::new(phy());
    c.fast_dsp = true;
    c.adc_quantisation = false;
    c.warmup_frames = 2;
    c
}

/// The workload's fleet under a frame-delay attack, derived from `seed`.
pub fn scenario(w: Workload, seed: u64) -> Scenario {
    let fleet = FleetDeployment::with_gateways(w.gateways()).with_site_noise_floors_dbm(w.floors());
    let gateways = fleet.gateway_positions();
    let mut scenario = Scenario::new_fleet_sites(
        phy(),
        fleet.medium(),
        fleet.gateway_sites(),
        Box::new(HonestChannel),
    );
    // Every fourth meter sits in one building around the first meter's
    // spot, where the jam-and-replay chain's eavesdropper (parked next to
    // it, with the jammer and replayer next to gateway 0) records clean
    // waveforms; the rest are scattered over the area.
    // The layout is part of the workload, not of the seed: the seed draws
    // the meters' crystals and oscillators, the attack chain's hardware
    // and the traffic schedule, so every seed exercises the same mix of
    // near and far copies.
    let mut positions = fleet.device_positions(w.devices(), LAYOUT_SEED);
    let site = positions[0];
    for (k, pos) in positions.iter_mut().enumerate().step_by(4) {
        let j = (k / 4) as f64;
        *pos = Position::new(site.x + (j % 5.0) - 2.0, site.y + (j / 5.0).floor() - 2.0, site.z);
    }
    let base = 0x2610_0000u32;
    for (k, pos) in positions.iter().enumerate() {
        scenario.add_device(base + k as u32, *pos, PERIOD_S, seed.wrapping_mul(1009) ^ k as u64);
    }
    let targets: Vec<u32> = (0..w.devices()).step_by(4).map(|k| base + k as u32).collect();
    let attack = FrameDelayAttack::near_gateway(
        Position::new(site.x + 2.0, site.y + 1.0, site.z),
        &gateways,
        0,
        2.0,
        TAU_S,
        phy(),
        seed ^ 0x00A7_7AC4,
    )
    .with_targets(targets);
    scenario.schedule_interceptor(ATTACK_FROM_S, Box::new(attack));
    scenario
}

/// What the benchmark left out of the simulated group stream.
#[derive(Debug, Clone, Default)]
pub struct Dropped {
    /// Copies simulated.
    pub copies: u64,
    /// Copies left out for their SNR (see [`FRAGILE_SNR_DB`]).
    pub fragile: u64,
    /// Groups left with no copy, and so left out whole.
    pub groups: u64,
    /// The first [`PROBE_GROUPS`] groups that held a fragile copy, as
    /// simulated, renumbered `0..`, for the capture-abort probe.
    pub probe: Vec<UplinkDeliveries>,
}

impl Dropped {
    /// Dropped ÷ simulated copies.
    pub fn copy_share(&self) -> f64 {
        crate::stats::ratio(self.fragile as f64, self.copies as f64)
    }
}

/// The workload's uplink groups as the simulator makes them, one
/// reporting period at a time. Fragile copies are left out (and counted),
/// and kept groups are renumbered `0..`: dense ids let every per-group
/// table be indexed by uplink id.
pub struct GroupStream {
    pub scenario: Scenario,
    until: f64,
    next: u64,
    pub dropped: Dropped,
    /// Simulator time spent so far, scenario build included, seconds.
    pub sim_s: f64,
}

impl GroupStream {
    pub fn new(w: Workload, seed: u64) -> Self {
        let t = Instant::now();
        let scenario = scenario(w, seed);
        let sim_s = t.elapsed().as_secs_f64();
        GroupStream { scenario, until: 0.0, next: 0, dropped: Dropped::default(), sim_s }
    }

    /// Simulates one more reporting period; returns its kept groups.
    pub fn period(&mut self) -> Vec<UplinkDeliveries> {
        let t = Instant::now();
        self.until += PERIOD_S;
        let (next, dropped) = (&mut self.next, &mut self.dropped);
        let mut out = Vec::new();
        self.scenario.run(self.until, |g| {
            let mut kept = g.clone();
            kept.copies
                .retain(|c| !(FRAGILE_SNR_DB.0..=FRAGILE_SNR_DB.1).contains(&c.delivery.snr_db));
            let fragile = (g.copies.len() - kept.copies.len()) as u64;
            dropped.copies += g.copies.len() as u64;
            dropped.fragile += fragile;
            if fragile > 0 && dropped.probe.len() < PROBE_GROUPS {
                let mut whole = g.clone();
                whole.uplink = dropped.probe.len() as u64;
                dropped.probe.push(whole);
            }
            if kept.copies.is_empty() {
                dropped.groups += 1;
                return;
            }
            kept.uplink = *next;
            *next += 1;
            out.push(kept);
        });
        self.sim_s += t.elapsed().as_secs_f64();
        out
    }

    /// Hands the first `n` groups of a fresh stream to `sink`, a period
    /// at a time (the rest of the last period is discarded).
    pub fn for_each(&mut self, n: usize, mut sink: impl FnMut(UplinkDeliveries)) {
        let mut left = n;
        while left > 0 {
            for g in self.period().into_iter().take(left) {
                left -= 1;
                sink(g);
            }
        }
    }

    /// The first `n` groups of a fresh stream.
    pub fn take(&mut self, n: usize) -> Vec<UplinkDeliveries> {
        let mut out = Vec::with_capacity(n);
        self.for_each(n, |g| out.push(g));
        out
    }
}

/// A server over the scenario's gateways and devices with the pinned
/// configuration (persistence and hooks are the caller's).
pub fn server_builder(scenario: &Scenario, gateways: usize) -> NetworkServerBuilder {
    let mut b = NetworkServerBuilder::from_config(config()).shards(SHARDS);
    for g in 0..gateways {
        b = b.gateway(g as u64 + 1);
    }
    for k in 0..scenario.devices() {
        let cfg = scenario.device_config(k).clone();
        b = b.provision(cfg.dev_addr, cfg.keys);
    }
    b
}

/// Input properties of a group stream: how many copies the radio front
/// end passes on to the DSP front half, and how many of those the SNR
/// policy sends to the matched filter.
#[derive(Debug, Clone, Copy, Default)]
pub struct InputMix {
    pub copies: u64,
    pub analysed: u64,
    pub matched_filter: u64,
}

impl InputMix {
    pub fn add(&mut self, g: &UplinkDeliveries) {
        let cfg = config();
        let radio = softlora::pipeline::RadioFrontEnd::new();
        for c in &g.copies {
            self.copies += 1;
            if radio.evaluate(&cfg, &c.delivery).host_received {
                self.analysed += 1;
                let mf = cfg.ls_method == FbMethod::MatchedFilter
                    && c.delivery.snr_db < cfg.ls_below_snr_db;
                self.matched_filter += u64::from(mf);
            }
        }
    }
}

/// Detection and timestamping quality of a verdict stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quality {
    pub replayed: u64,
    pub detected: u64,
    pub honest: u64,
    pub false_alarms: u64,
    /// |PHY timestamp − true arrival| of every accepted uplink, µs.
    ts_err_us: Vec<f64>,
}

fn flagged(v: &ServerVerdict) -> bool {
    v.is_replay_flagged() || matches!(v.verdict, softlora::SoftLoraVerdict::ReplayDetected { .. })
}

impl Quality {
    pub fn add(&mut self, g: &UplinkDeliveries, v: &ServerVerdict) {
        if g.copies.iter().any(|c| c.delivery.is_replay) {
            self.replayed += 1;
            self.detected += u64::from(flagged(v));
        } else {
            self.honest += 1;
            self.false_alarms += u64::from(flagged(v));
        }
        if let softlora::SoftLoraVerdict::Accepted { phy_arrival_s, .. } = &v.verdict {
            let truth = g
                .copies
                .iter()
                .find(|c| Some(c.gateway) == v.gateway && !c.delivery.is_replay)
                .map(|c| c.delivery.arrival_global_s);
            if let Some(t) = truth {
                self.ts_err_us.push((phy_arrival_s - t).abs() * 1e6);
            }
        }
    }

    pub fn ts_err_p99_us(&self) -> f64 {
        crate::stats::quantile(&crate::stats::sorted(self.ts_err_us.clone()), 0.99)
    }
}

/// Groups per reference `process_batch` call: batch boundaries do not
/// change verdicts, and small calls keep the check's memory flat.
const REFERENCE_CHUNK: usize = 512;

/// The reference verdicts: groups fed in uplink order through in-process
/// `NetworkServer::process_batch` on a fresh server, a chunk at a time.
/// Each group reaches `each`, with its reference verdict, once its chunk
/// has run, so the check never holds more than one chunk.
pub struct Reference<F: FnMut(&UplinkDeliveries, &ServerVerdict)> {
    server: NetworkServer,
    chunk: Vec<UplinkDeliveries>,
    each: F,
}

impl<F: FnMut(&UplinkDeliveries, &ServerVerdict)> Reference<F> {
    pub fn new(scenario: &Scenario, gateways: usize, each: F) -> Self {
        let server = server_builder(scenario, gateways).build();
        Reference { server, chunk: Vec::with_capacity(REFERENCE_CHUNK), each }
    }

    pub fn push(&mut self, g: UplinkDeliveries) {
        self.chunk.push(g);
        if self.chunk.len() == REFERENCE_CHUNK {
            self.run_chunk();
        }
    }

    fn run_chunk(&mut self) {
        if self.chunk.is_empty() {
            return;
        }
        let want = self.server.process_batch(&self.chunk).expect("reference process_batch");
        for (g, v) in self.chunk.iter().zip(&want) {
            (self.each)(g, v);
        }
        self.chunk.clear();
    }

    pub fn finish(mut self) {
        self.run_chunk();
    }
}
