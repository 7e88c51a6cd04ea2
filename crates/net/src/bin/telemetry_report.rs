//! End-to-end telemetry dashboard harness: run the attacked-fleet
//! loadgen scenario against an in-process [`NetServer`], scrape the full
//! registry over `METRICS_REQ` mid-run and again at shutdown, and emit
//! `BENCH_telemetry.json` — per-stage latency quantiles, server commit
//! latency, WAL counters and detection accuracy side by side.
//!
//! ```text
//! telemetry_report [--gateways N] [--devices N] [--sim-duration-s S]
//!                  [--no-attack] [--persist DIR] [--out FILE] [--quiet]
//! ```
//!
//! Besides producing the artifact, the harness is its own smoke test: it
//! exits nonzero when the rendered text exposition is empty, when an
//! expected series family is missing from the final snapshot, or when
//! any counter moved backwards between the two scrapes.

use softlora::NetworkServer;
use softlora_attack::FrameDelayAttack;
use softlora_net::listener::{NetServer, NetServerConfig};
use softlora_net::loadgen::{replay_fleet, LoadgenConfig};
use softlora_net::protocol::{decode_frame, encode_frame, Frame};
use softlora_net::NetError;
use softlora_phy::{PhyConfig, SpreadingFactor};
use softlora_sim::{FleetDeployment, Position, Scenario, UplinkDeliveries};
use softlora_telemetry::{HistogramSnapshot, RegistrySnapshot};
use std::net::UdpSocket;
use std::time::Duration;

struct Args {
    gateways: usize,
    devices: usize,
    sim_duration_s: f64,
    attack_at_s: Option<f64>,
    loud_gateways: usize,
    persist: Option<String>,
    out: Option<String>,
    quiet: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            gateways: 8,
            devices: 4,
            sim_duration_s: 1800.0,
            attack_at_s: Some(900.0),
            loud_gateways: 3,
            persist: None,
            out: None,
            quiet: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: telemetry_report [--gateways N] [--devices N] [--sim-duration-s S] \
         [--attack-at S | --no-attack] [--loud-gateways K] [--persist DIR] \
         [--out FILE] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--gateways" => args.gateways = value().parse().unwrap_or_else(|_| usage()),
            "--devices" => args.devices = value().parse().unwrap_or_else(|_| usage()),
            "--sim-duration-s" => {
                args.sim_duration_s = value().parse().unwrap_or_else(|_| usage());
            }
            "--attack-at" => {
                args.attack_at_s = Some(value().parse().unwrap_or_else(|_| usage()));
            }
            "--no-attack" => args.attack_at_s = None,
            "--loud-gateways" => args.loud_gateways = value().parse().unwrap_or_else(|_| usage()),
            "--persist" => args.persist = Some(value()),
            "--out" => args.out = Some(value()),
            "--quiet" => args.quiet = true,
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    args
}

fn phy() -> PhyConfig {
    PhyConfig::uplink(SpreadingFactor::Sf7)
}

/// The same deterministic attacked-fleet scenario the loadgen harness
/// runs: a gateway ring with a few loud sites, metered devices, and the
/// frame-delay attack against meter 0 from `attack_at_s` on.
fn build_scenario(args: &Args) -> Scenario {
    let default_floor_dbm = -117.0;
    let floors: Vec<f64> = (0..args.gateways)
        .map(|g| if g < args.loud_gateways { default_floor_dbm } else { default_floor_dbm + 60.0 })
        .collect();
    let fleet = FleetDeployment::with_gateways(args.gateways).with_site_noise_floors_dbm(floors);
    let gateways = fleet.gateway_positions();
    let mut scenario = Scenario::new_fleet_sites(
        phy(),
        fleet.medium(),
        fleet.gateway_sites(),
        Box::new(softlora_sim::HonestChannel),
    );
    let positions = fleet.device_positions(args.devices, 21);
    for (k, pos) in positions.iter().enumerate() {
        scenario.add_device(0x2601_5000 + k as u32, *pos, 300.0, k as u64);
    }
    if let Some(at_s) = args.attack_at_s {
        let target = positions[0];
        let attack = FrameDelayAttack::near_gateway(
            Position::new(target.x + 2.0, target.y + 1.0, target.z),
            &gateways,
            0,
            2.0,
            40.0,
            phy(),
            7,
        )
        .with_targets(vec![0x2601_5000]);
        scenario.schedule_interceptor(at_s, Box::new(attack));
    }
    scenario
}

fn build_server(scenario: &Scenario, args: &Args) -> NetworkServer {
    let mut builder = NetworkServer::builder(phy()).adc_quantisation(false).warmup_frames(2);
    for g in 0..args.gateways {
        builder = builder.gateway(g as u64 + 1);
    }
    for k in 0..scenario.devices() {
        let cfg = scenario.device_config(k).clone();
        builder = builder.provision(cfg.dev_addr, cfg.keys);
    }
    if let Some(dir) = &args.persist {
        builder = builder.with_persistence(dir);
    }
    match builder.try_build() {
        Ok(server) => server,
        Err(e) => {
            eprintln!("telemetry_report: failed to build server: {e}");
            std::process::exit(1);
        }
    }
}

/// One `METRICS_REQ` round trip over the ctrl socket.
fn scrape(ctrl: &UdpSocket, buf: &mut [u8], token: u64) -> Result<RegistrySnapshot, NetError> {
    ctrl.send(&encode_frame(&Frame::MetricsReq { token }))?;
    let len = ctrl.recv(buf)?;
    match decode_frame(&buf[..len])? {
        Frame::MetricsResp { snapshot, .. } => Ok(snapshot),
        _ => Err(NetError::BadFrameType { found: 0xFF }),
    }
}

/// Every counter in `mid` must still exist in `fin` with a value at
/// least as large — counters only ever go up. Returns the violations.
fn monotonicity_violations(mid: &RegistrySnapshot, fin: &RegistrySnapshot) -> Vec<String> {
    let mut bad = Vec::new();
    for s in &mid.series {
        let Some(before) = s.value.as_counter() else { continue };
        let labels: Vec<(&str, &str)> =
            s.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        match fin.find_with(&s.name, &labels).and_then(|f| f.value.as_counter()) {
            Some(after) if after >= before => {}
            Some(after) => bad.push(format!("{} went {before} -> {after}", s.key())),
            None => bad.push(format!("{} vanished from the final scrape", s.key())),
        }
    }
    bad
}

/// Pulls one histogram's quantile summary as a JSON object.
fn histogram_json(histogram: Option<HistogramSnapshot>) -> String {
    match histogram {
        Some(h) => format!(
            "{{\"count\":{},\"mean\":{:.1},\"p50\":{:.1},\"p90\":{:.1},\"p99\":{:.1},\"p999\":{:.1}}}",
            h.count,
            h.mean(),
            h.p50(),
            h.p90(),
            h.p99(),
            h.p999()
        ),
        None => "null".to_string(),
    }
}

fn main() {
    let args = parse_args();
    if let Err(e) = run(&args) {
        eprintln!("telemetry_report: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), NetError> {
    // 1. Simulate the attacked fleet once.
    let mut scenario = build_scenario(args);
    let mut groups: Vec<UplinkDeliveries> = Vec::new();
    scenario.run(args.sim_duration_s, |u| groups.push(u.clone()));
    if !args.quiet {
        eprintln!(
            "telemetry_report: simulated {} uplink groups across {} gateways",
            groups.len(),
            args.gateways
        );
    }

    // 2. Listener on loopback; replay the fleet on a worker thread while
    //    the main thread scrapes the registry mid-flight.
    let server = build_server(&scenario, args);
    let net = NetServer::bind(server, NetServerConfig::default())?;
    let data_addr = net.data_addr()?;
    let ctrl_addr = net.ctrl_addr()?;
    let listener = std::thread::spawn(move || net.run());

    let ctrl = UdpSocket::bind("127.0.0.1:0")?;
    ctrl.connect(ctrl_addr)?;
    ctrl.set_read_timeout(Some(Duration::from_secs(5)))?;
    let mut buf = vec![0u8; 65_535];

    let config = LoadgenConfig::default();
    let (mid_snapshot, load_report) = std::thread::scope(|scope| {
        let replay = scope.spawn(|| replay_fleet(&groups, args.gateways, data_addr, &config));
        // Let traffic start flowing before the mid-run scrape.
        std::thread::sleep(Duration::from_millis(50));
        let mid = scrape(&ctrl, &mut buf, 1);
        (mid, replay.join().expect("replay thread panicked"))
    });
    let mid_snapshot = mid_snapshot?;
    let load_report = load_report?;

    // 3. Final scrape + stats, then shut the listener down.
    let fin_snapshot = scrape(&ctrl, &mut buf, 2)?;
    ctrl.send(&encode_frame(&Frame::StatsReq { token: 3 }))?;
    let len = ctrl.recv(&mut buf)?;
    let Frame::StatsResp { stats, .. } = decode_frame(&buf[..len])? else {
        return Err(NetError::BadFrameType { found: 0xFF });
    };
    ctrl.send(&encode_frame(&Frame::Shutdown { token: 4 }))?;
    let _ = ctrl.recv(&mut buf)?;
    let run_report = listener.join().expect("listener thread panicked")?;
    if args.persist.is_some() {
        run_report.server.sync_persistence().map_err(NetError::Server)?;
    }

    // 4. Self-checks: the artifact is only worth uploading if the
    //    exposition renders and the counters behaved.
    let mut failures = Vec::new();
    let text = fin_snapshot.render_text();
    if text.trim().is_empty() {
        failures.push("rendered text exposition is empty".to_string());
    }
    for family in ["gateway_stage_ns", "server_commit_ns", "net_datagrams_total"] {
        if !fin_snapshot.series.iter().any(|s| s.name == family) {
            failures.push(format!("series family {family} missing from the final scrape"));
        }
    }
    if args.persist.is_some() && fin_snapshot.histogram_sum("store_wal_append_ns").is_none() {
        failures.push("store_wal_append_ns missing despite persistence".to_string());
    }
    failures.extend(monotonicity_violations(&mid_snapshot, &fin_snapshot));

    // 5. The dashboard artifact: latency quantiles per pipeline stage,
    //    commit latency, WAL counters and detection accuracy, plus both
    //    raw scrapes for offline drill-down.
    let stages = ["radio", "capture", "onset", "fb", "detect", "mac"];
    let stage_json: Vec<String> = stages
        .iter()
        .map(|stage| {
            format!(
                "\"{stage}\":{}",
                histogram_json(
                    fin_snapshot
                        .find_with("gateway_stage_ns", &[("stage", stage)])
                        .and_then(|s| s.value.as_histogram())
                        .copied()
                )
            )
        })
        .collect();
    let d = &stats.detection;
    let accuracy_denom =
        d.true_positives + d.false_positives + d.false_negatives + d.true_negatives;
    let accuracy = if accuracy_denom > 0 {
        (d.true_positives + d.true_negatives) as f64 / accuracy_denom as f64
    } else {
        0.0
    };
    let json = format!(
        concat!(
            "{{\"scenario\":{{\"gateways\":{},\"devices\":{},\"sim_duration_s\":{},",
            "\"attacked\":{}}},",
            "\"ingest\":{{\"uplinks_per_s\":{:.1},\"p50_us\":{},\"p99_us\":{}}},",
            "\"stage_latency_ns\":{{{}}},",
            "\"commit_latency_ns\":{},",
            "\"verdicts\":{{\"accept\":{},\"replay\":{},\"reject\":{}}},",
            "\"detection\":{{\"true_positives\":{},\"false_positives\":{},",
            "\"false_negatives\":{},\"true_negatives\":{},\"accuracy\":{:.4}}},",
            "\"store\":{{\"wal_appends\":{},\"fsyncs\":{},\"segment_rotations\":{}}},",
            "\"net\":{{\"datagrams\":{},\"groups_committed\":{}}},",
            "\"checks\":{{\"failures\":[{}]}},",
            "\"scrapes\":{{\"mid\":{},\"final\":{}}}}}"
        ),
        args.gateways,
        args.devices,
        args.sim_duration_s,
        args.attack_at_s.is_some(),
        load_report.uplinks_per_s,
        load_report.ack_latency.p50_us,
        load_report.ack_latency.p99_us,
        stage_json.join(","),
        histogram_json(fin_snapshot.histogram_sum("server_commit_ns")),
        fin_snapshot
            .find_with("server_verdicts_total", &[("verdict", "accept")])
            .and_then(|s| s.value.as_counter())
            .unwrap_or(0),
        fin_snapshot
            .find_with("server_verdicts_total", &[("verdict", "replay")])
            .and_then(|s| s.value.as_counter())
            .unwrap_or(0),
        fin_snapshot
            .find_with("server_verdicts_total", &[("verdict", "reject")])
            .and_then(|s| s.value.as_counter())
            .unwrap_or(0),
        d.true_positives,
        d.false_positives,
        d.false_negatives,
        d.true_negatives,
        accuracy,
        fin_snapshot.histogram_sum("store_wal_append_ns").map_or(0, |h| h.count),
        fin_snapshot.counter_sum("store_fsyncs_total"),
        fin_snapshot.counter_sum("store_segment_rotations_total"),
        fin_snapshot.counter_sum("net_datagrams_total"),
        fin_snapshot.counter_sum("net_groups_committed_total"),
        failures.iter().map(|f| format!("\"{f}\"")).collect::<Vec<_>>().join(","),
        mid_snapshot.to_json(),
        fin_snapshot.to_json(),
    );
    if let Some(path) = &args.out {
        std::fs::write(path, &json)?;
    }
    if !args.quiet {
        eprintln!(
            "telemetry_report: {} series in final scrape, {} exposition lines, {} check failures",
            fin_snapshot.series.len(),
            text.lines().count(),
            failures.len()
        );
    }
    println!("{json}");
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("telemetry_report: CHECK FAILED: {f}");
        }
        std::process::exit(1);
    }
    Ok(())
}
