//! What one measured run hands back, independent of how the workload
//! drove the system, and how a run's set-ups are timed.

use crate::fleet::{Quality, Workload};
use crate::probe::Usage;
use crate::trace::Tracer;
use softlora_sim::{Scenario, UplinkDeliveries};
use softlora_telemetry::RegistrySnapshot;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Settings shared by every workload.
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Where stores and trace files go (inside the checkout).
    pub data_dir: PathBuf,
    pub tracer: Option<Arc<Tracer>>,
}

impl Ctx {
    /// A fresh directory for one server's store.
    pub fn store_dir(&self, label: &str) -> PathBuf {
        let dir = self.data_dir.join(format!("{}-{label}", self.workload.name()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store dir");
        dir
    }
}

/// Set-ups per run. Half run before the measured phase and half after
/// it, each after a pause: the host's speed drifts over seconds, so
/// set-ups spread across the run sample that drift as the measured phase
/// does, instead of the single moment before it.
pub const SETUPS: usize = 10;
const SETUP_PAUSE: Duration = Duration::from_millis(200);

/// Times a run's set-ups; `setup_s` is their median.
#[derive(Default)]
pub struct SetupClock {
    times: Vec<f64>,
}

impl SetupClock {
    /// Times one set-up, after a pause unless it is the run's first.
    pub fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        if !self.times.is_empty() {
            std::thread::sleep(SETUP_PAUSE);
        }
        let t = Instant::now();
        let out = setup();
        self.times.push(t.elapsed().as_secs_f64());
        out
    }

    pub fn median(&self) -> f64 {
        crate::stats::median(&self.times)
    }
}

/// One measured run.
pub struct RunOut {
    /// Median time of the run's set-ups, seconds.
    pub setup_s: f64,
    /// Simulator time that made the measured run's groups, seconds.
    pub scenario_s: f64,
    /// What the benchmark left out of the simulated groups.
    pub dropped: crate::fleet::Dropped,
    pub offered: u64,
    /// Groups that got a verdict.
    pub verdicted: u64,
    /// Groups with no verdict, more than one, committed incomplete, or
    /// mismatching the reference.
    pub failed: u64,
    /// The reference comparison ran and matched.
    pub reference_ok: bool,
    pub wall_s: f64,
    /// Groups verdicted per second: the median over one-second windows
    /// in a closed loop, the delivered rate over the run in an open loop.
    pub groups_per_s: f64,
    /// CPU ms per group, the median over one-second windows.
    pub cpu_ms_per_group: f64,
    pub usage: Usage,
    /// `VmHWM` over the measured phase, MiB.
    pub peak_rss_mb: f64,
    pub allocs: u64,
    /// Creation/due → verdict/commit-ack, ms, one per verdicted group.
    pub w2v_ms: Vec<f64>,
    pub quality: Quality,
    pub before: RegistrySnapshot,
    pub after: RegistrySnapshot,
    /// Copy mix of the offered groups.
    pub mix: crate::fleet::InputMix,
    /// A prefix of the offered groups, for the direct layer calls.
    pub groups: Vec<UplinkDeliveries>,
    pub scenario: Scenario,
    /// Encoded datagrams the generator sent (wire workloads only).
    pub datagrams: Vec<Vec<u8>>,
    /// Workload-specific per-layer figures.
    pub layer: BTreeMap<&'static str, f64>,
}
