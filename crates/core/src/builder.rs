//! Typed construction of [`NetworkServer`]: gateways, configuration,
//! device provisioning, FB preloads, observers and persistence in one
//! fluent chain.
//!
//! A one-gateway server is the paper's single-link SoftLoRa gateway.
//! Fields the builder has no setter for are set on a [`SoftLoraConfig`]
//! passed to [`NetworkServerBuilder::from_config`]:
//!
//! ```
//! use softlora::{FbMethod, NetworkServerBuilder, OnsetMethod, SoftLoraConfig};
//! use softlora_phy::{PhyConfig, SpreadingFactor};
//!
//! let mut config = SoftLoraConfig::new(PhyConfig::uplink(SpreadingFactor::Sf7));
//! config.onset_method = OnsetMethod::PowerAic;
//! config.ls_method = FbMethod::MatchedFilter;
//! let server = NetworkServerBuilder::from_config(config)
//!     .gateway(42)
//!     .adc_quantisation(false)
//!     .warmup_frames(3)
//!     .build();
//! assert_eq!(server.gateway_count(), 1);
//! assert_eq!(server.pipeline(0).config().warmup_frames, 3);
//! ```

use crate::config::SoftLoraConfig;
use crate::fan_out::{host_arenas, host_width};
use crate::fb_db::FbDatabase;
use crate::network_server::{
    GatewayFront, NetworkServer, ServerStats, ServerTail, ShardCore, ShardMetrics,
};
use crate::observer::ServerObserver;
use crate::persist::{DedupRecord, ShardSnapshot};
use crate::pipeline::{MacStage, Pipeline};
use crate::replay_detect::{DetectionStats, ReplayDetector};
use crate::replication::{CommitHook, SnapshotInstaller};
use softlora_lorawan::{DedupCache, DeviceKeys};
use softlora_phy::PhyConfig;
use softlora_store::{shard_of, Encoder, GroupCommitter, ShardedStore, StoreError, WalOptions};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Fluent builder for [`NetworkServer`].
pub struct NetworkServerBuilder {
    config: SoftLoraConfig,
    gateway_seeds: Vec<u64>,
    devices: Vec<(u32, DeviceKeys)>,
    preloads: Vec<(u32, Vec<f64>)>,
    arrival_tolerance_s: f64,
    fb_spread_tolerance_hz: f64,
    dedup_capacity: usize,
    observers: Vec<Box<dyn ServerObserver>>,
    shards: Option<usize>,
    persist_dir: Option<PathBuf>,
    snapshot_every: u64,
    wal_segment_bytes: u64,
    durability_window: Option<Duration>,
    commit_hook: Option<Arc<dyn CommitHook>>,
}

impl NetworkServerBuilder {
    /// Starts from the paper-faithful defaults for `phy`. Add gateways
    /// with [`NetworkServerBuilder::gateway`]; with none, `build` creates
    /// a single gateway seeded 0.
    pub fn new(phy: PhyConfig) -> Self {
        NetworkServerBuilder {
            config: SoftLoraConfig::new(phy),
            gateway_seeds: Vec::new(),
            devices: Vec::new(),
            preloads: Vec::new(),
            // Fleet copies of one frame differ by propagation (µs); a
            // millisecond already dwarfs any honest geometry.
            arrival_tolerance_s: 1e-3,
            // Normalised FBs of honest simultaneous copies differ by
            // per-gateway estimation noise (tens to low hundreds of Hz at
            // workable SNR); a replay chain adds ≥ 543 Hz.
            fb_spread_tolerance_hz: 450.0,
            dedup_capacity: 4096,
            observers: Vec::new(),
            shards: None,
            persist_dir: None,
            snapshot_every: 1024,
            wal_segment_bytes: WalOptions::default().segment_bytes,
            durability_window: None,
            commit_hook: None,
        }
    }

    /// Starts from an existing configuration.
    pub fn from_config(config: SoftLoraConfig) -> Self {
        let phy = config.phy;
        let mut b = Self::new(phy);
        b.config = config;
        b
    }

    /// Adds a gateway whose SDR oscillator and per-delivery randomness are
    /// drawn from `seed` (deterministic runs).
    pub fn gateway(mut self, seed: u64) -> Self {
        self.gateway_seeds.push(seed);
        self
    }

    /// Provisions a device's LoRaWAN session keys.
    pub fn provision(mut self, dev_addr: u32, keys: DeviceKeys) -> Self {
        self.devices.push((dev_addr, keys));
        self
    }

    /// Pre-loads a device's FB history in gateway-0 reference frame
    /// (offline database construction, paper §7.2).
    pub fn preload_fb(mut self, dev_addr: u32, fbs_hz: &[f64]) -> Self {
        self.preloads.push((dev_addr, fbs_hz.to_vec()));
        self
    }

    /// Frames required before the shared FB database gives verdicts.
    pub fn warmup_frames(mut self, frames: usize) -> Self {
        self.config.warmup_frames = frames;
        self
    }

    /// Device-capacity bound of the shared FB database (split across
    /// shards; each shard holds `⌈bound / shards⌉` devices).
    pub fn max_tracked_devices(mut self, devices: usize) -> Self {
        self.config.max_tracked_devices = devices;
        self
    }

    /// Whether to model ADC quantisation in the SDR captures.
    pub fn adc_quantisation(mut self, enabled: bool) -> Self {
        self.config.adc_quantisation = enabled;
        self
    }

    /// Arrival window within which copies of one uplink are mutually
    /// consistent, seconds.
    pub fn arrival_tolerance_s(mut self, tolerance_s: f64) -> Self {
        self.arrival_tolerance_s = tolerance_s;
        self
    }

    /// Cross-gateway normalised-FB agreement tolerance, Hz.
    pub fn fb_spread_tolerance_hz(mut self, tolerance_hz: f64) -> Self {
        self.fb_spread_tolerance_hz = tolerance_hz;
        self
    }

    /// Capacity of the recent-uplink dedup cache (per shard).
    pub fn dedup_capacity(mut self, uplinks: usize) -> Self {
        self.dedup_capacity = uplinks;
        self
    }

    /// Attaches a [`ServerObserver`] receiving every committed verdict
    /// and the running statistics.
    pub fn observer(mut self, observer: Box<dyn ServerObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Number of device-hashed tail shards (floored at 1). Defaults to
    /// [`std::thread::available_parallelism`]. `shards(1)` reduces the
    /// tail to exactly the sequential commit loop; any other count is
    /// verdict-identical because all tail state is per-device.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards.max(1));
        self
    }

    /// Makes the tail durable under `dir`: every committed uplink group
    /// appends a WAL record to its shard's log, snapshots are installed
    /// every [`NetworkServerBuilder::snapshot_every`] records, and
    /// [`NetworkServerBuilder::try_build`] recovers the tail (snapshot +
    /// WAL replay) before serving. Rebuild with the same gateways,
    /// devices, shard count and tuning — shard- and gateway-count changes
    /// are refused.
    pub fn with_persistence(mut self, dir: impl Into<PathBuf>) -> Self {
        self.persist_dir = Some(dir.into());
        self
    }

    /// WAL records a shard accumulates before installing a snapshot and
    /// compacting (floored at 1; default 1024).
    pub fn snapshot_every(mut self, records: u64) -> Self {
        self.snapshot_every = records.max(1);
        self
    }

    /// WAL segment rotation threshold, bytes (default 1 MiB).
    pub fn wal_segment_bytes(mut self, bytes: u64) -> Self {
        self.wal_segment_bytes = bytes.max(1);
        self
    }

    /// Enables interval-based group-commit fsync: a background thread
    /// fsyncs every dirty shard WAL once per `window`, so a crash loses
    /// at most the records committed inside the current window. Without
    /// this, appends are flushed per batch but fsync only happens at
    /// explicit [`NetworkServer::sync_persistence`] calls and snapshot
    /// installs. Requires [`NetworkServerBuilder::with_persistence`].
    pub fn durability_window(mut self, window: Duration) -> Self {
        self.durability_window = Some(window);
        self
    }

    /// Attaches a [`CommitHook`] receiving every sealed WAL frame and
    /// snapshot marker — the feed a WAL-shipping replicator (the
    /// `softlora-ha` crate) subscribes to. Only called when persistence
    /// is enabled.
    pub fn commit_hook(mut self, hook: Arc<dyn CommitHook>) -> Self {
        self.commit_hook = Some(hook);
        self
    }

    /// Assembles the server, recovering persisted state when
    /// [`NetworkServerBuilder::with_persistence`] was set.
    ///
    /// # Errors
    ///
    /// Every [`StoreError`] is a persistence failure: the directory is
    /// unusable, was created with a different gateway count, or holds
    /// corrupt data beyond the recoverable torn tail. An explicit
    /// `shards(n)` against a store pinned at a different count is **not**
    /// an error: the store is migrated online (see
    /// [`NetworkServerBuilder::shards`]).
    pub fn try_build(self) -> Result<NetworkServer, StoreError> {
        // Online resharding: when the caller explicitly asks for a shard
        // count different from the pinned one, re-key the device state
        // through a migration pass instead of refusing to open.
        if let (Some(requested), Some(dir)) = (self.shards, self.persist_dir.clone()) {
            if let Some(on_disk) = softlora_store::peek_shard_count(&dir)? {
                if on_disk != requested {
                    self.reshard(&dir, on_disk, requested)?;
                }
            }
        }
        let seeds = if self.gateway_seeds.is_empty() { vec![0] } else { self.gateway_seeds };
        let fronts: Vec<GatewayFront> = seeds
            .into_iter()
            .map(|seed| GatewayFront {
                pipeline: Pipeline::new(self.config.clone(), seed),
                frames_seen: 0,
            })
            .collect();
        let receiver_bias_hz: Arc<Vec<f64>> =
            Arc::new(fronts.iter().map(|f| f.pipeline.capture.receiver_bias_hz()).collect());

        // Explicit `shards(n)` wins; otherwise an existing store's pinned
        // count wins over `available_parallelism()`, so an unchanged
        // deployment reopens its own data after a core-count change.
        let shard_count = match (self.shards, &self.persist_dir) {
            (Some(n), _) => n,
            (None, Some(dir)) => softlora_store::peek_shard_count(dir)?.unwrap_or_else(host_width),
            (None, None) => host_width(),
        }
        .max(1);
        // The device-capacity bound splits across shards; `shards(1)`
        // keeps the exact single-store semantics.
        let per_shard_devices = self.config.max_tracked_devices.div_ceil(shard_count).max(1);

        let mut shards: Vec<ShardCore> = (0..shard_count)
            .map(|index| ShardCore {
                detector: ReplayDetector::new(
                    FbDatabase::new(
                        32,
                        self.config.warmup_frames,
                        self.config.band_floor_hz,
                        self.config.band_sigma,
                    )
                    .with_max_devices(per_shard_devices),
                ),
                mac: MacStage::new(),
                dedup: DedupCache::new(self.dedup_capacity),
                arrival_tolerance_s: self.arrival_tolerance_s,
                fb_spread_tolerance_hz: self.fb_spread_tolerance_hz,
                stats: ServerStats::default(),
                receiver_bias_hz: Arc::clone(&receiver_bias_hz),
                index,
                store: None,
                snapshot_every: self.snapshot_every,
                wal_buf: Encoder::new(),
                pending_count: 0,
                since_snapshot: 0,
                last_global_seq: 0,
                last_frames: Vec::new(),
                installer: None,
                hook: None,
                metrics: ShardMetrics::new(index),
            })
            .collect();
        // Per-device state — MAC sessions included — lives only in the
        // shard owning the device, keeping key storage O(devices)
        // instead of O(devices × shards).
        for (dev_addr, keys) in self.devices {
            shards[shard_of(u64::from(dev_addr), shard_count)].mac.provision(dev_addr, keys);
        }
        for (dev_addr, fbs) in &self.preloads {
            shards[shard_of(u64::from(*dev_addr), shard_count)].detector.preload(*dev_addr, fbs);
        }

        let frames_cumulative = vec![0; fronts.len()];
        let mut server = NetworkServer {
            fronts,
            tail: ServerTail {
                shards,
                observers: self.observers,
                observed_stats: ServerStats::default(),
                committed_groups: 0,
                global_seq: 0,
                frames_cumulative,
                store: None,
            },
            installer: None,
            committer: None,
            arenas: host_arenas(),
        };

        if let Some(dir) = self.persist_dir {
            let store = Arc::new(ShardedStore::open(
                dir,
                shard_count,
                WalOptions { segment_bytes: self.wal_segment_bytes, ..WalOptions::default() },
            )?);
            server.recover_from(&store)?;
            let installer = Arc::new(SnapshotInstaller::spawn(Arc::clone(&store)));
            server.tail.store = Some(Arc::clone(&store));
            for shard in &mut server.tail.shards {
                shard.store = Some(Arc::clone(&store));
                shard.installer = Some(Arc::clone(&installer));
                shard.hook = self.commit_hook.clone();
            }
            server.installer = Some(installer);
            if let Some(window) = self.durability_window {
                server.committer = Some(GroupCommitter::spawn(Arc::clone(&store), window));
            }
        }
        Ok(server)
    }

    /// Migrates a store pinned at `on_disk` shards to `new_n`: recover
    /// the tail with the pinned count, decompose the per-device state
    /// (FB histories, dedup entries, MAC counters), re-key everything
    /// under the new placement, and write a fresh store — one snapshot
    /// per new shard, no WAL tail — that atomically replaces the old
    /// directory. Aggregate statistics are indivisible, so they ride on
    /// the new shard 0; per-device state lands exactly where
    /// [`shard_of`] now routes its device, keeping verdicts identical
    /// (the sharded tail is verdict-invariant in the shard count).
    fn reshard(&self, dir: &Path, on_disk: usize, new_n: usize) -> Result<(), StoreError> {
        let mut recovery_builder = NetworkServerBuilder::from_config(self.config.clone());
        recovery_builder.gateway_seeds = self.gateway_seeds.clone();
        recovery_builder.devices = self.devices.clone();
        recovery_builder.preloads = self.preloads.clone();
        recovery_builder.arrival_tolerance_s = self.arrival_tolerance_s;
        recovery_builder.fb_spread_tolerance_hz = self.fb_spread_tolerance_hz;
        recovery_builder.dedup_capacity = self.dedup_capacity;
        recovery_builder.shards = Some(on_disk);
        recovery_builder.persist_dir = Some(dir.to_path_buf());
        recovery_builder.snapshot_every = self.snapshot_every;
        recovery_builder.wal_segment_bytes = self.wal_segment_bytes;
        // Counts now match, so this recursion terminates at depth one.
        let old = recovery_builder.try_build()?;
        let epoch = old.tail.store.as_ref().expect("recovery server has a store").epoch()?;
        let global_seq = old.tail.global_seq;
        let frames = old.tail.frames_cumulative.clone();

        // Decompose: pool every shard's per-device state, plus the
        // indivisible aggregates.
        let mut histories: Vec<(u32, u64, Vec<f64>)> = Vec::new();
        let mut dedups: Vec<DedupRecord> = Vec::new();
        let mut fcnts: Vec<(u32, u16)> = Vec::new();
        let mut stats = ServerStats::default();
        let mut det = DetectionStats::default();
        let (mut mac_accepted, mut mac_rejected) = (0u64, 0u64);
        for shard in &old.tail.shards {
            let db = shard.detector.db();
            histories.extend(db.export_histories());
            dedups.extend(shard.dedup.entries_in_order().map(
                |(dev_addr, fcnt, payload_hash, arrival_global_s, gateway)| DedupRecord {
                    dev_addr,
                    fcnt,
                    payload_hash,
                    arrival_global_s,
                    gateway: gateway as u32,
                },
            ));
            fcnts.extend(shard.mac.session_fcnts());
            stats += shard.stats;
            det += shard.detector.stats();
            let (a, r) = shard.mac.frame_counts();
            mac_accepted += a;
            mac_rejected += r;
        }
        drop(old);
        // Deterministic re-keying: sort by stable keys so the migrated
        // store is identical however the old shards interleaved.
        histories.sort_by_key(|a| (a.1, a.0));
        dedups.sort_by(|a, b| {
            a.arrival_global_s
                .total_cmp(&b.arrival_global_s)
                .then((a.dev_addr, a.fcnt).cmp(&(b.dev_addr, b.fcnt)))
        });
        fcnts.sort_unstable();

        let mut tmp_name = dir.as_os_str().to_owned();
        tmp_name.push(".reshard-tmp");
        let tmp = PathBuf::from(tmp_name);
        let mut old_name = dir.as_os_str().to_owned();
        old_name.push(".reshard-old");
        let retired = PathBuf::from(old_name);
        if tmp.exists() {
            std::fs::remove_dir_all(&tmp)?;
        }
        if retired.exists() {
            std::fs::remove_dir_all(&retired)?;
        }
        {
            let options =
                WalOptions { segment_bytes: self.wal_segment_bytes, ..WalOptions::default() };
            let store = ShardedStore::open(&tmp, new_n, options)?;
            let _ = store.take_recovery();
            store.set_epoch(epoch)?;
            for j in 0..new_n {
                let owned = |dev: u32| shard_of(u64::from(dev), new_n) == j;
                let shard_histories: Vec<(u32, u64, Vec<f64>)> = histories
                    .iter()
                    .filter(|(dev, _, _)| owned(*dev))
                    .enumerate()
                    .map(|(tick, (dev, _, fbs))| (*dev, tick as u64, fbs.clone()))
                    .collect();
                let db_clock = shard_histories.len() as u64;
                let snapshot = ShardSnapshot {
                    global_seq,
                    frames_cumulative: frames.clone(),
                    stats: if j == 0 { stats } else { ServerStats::default() },
                    det: if j == 0 { det } else { DetectionStats::default() },
                    mac_accepted: if j == 0 { mac_accepted } else { 0 },
                    mac_rejected: if j == 0 { mac_rejected } else { 0 },
                    mac_fcnts: fcnts.iter().copied().filter(|(dev, _)| owned(*dev)).collect(),
                    db_clock,
                    db_histories: shard_histories,
                    dedup: dedups.iter().filter(|e| owned(e.dev_addr)).cloned().collect(),
                };
                store
                    .shard(j)
                    .lock()
                    .expect("shard wal poisoned")
                    .install_snapshot(&snapshot.encode())?;
            }
            store.sync()?;
        }
        std::fs::rename(dir, &retired)?;
        std::fs::rename(&tmp, dir)?;
        std::fs::remove_dir_all(&retired)?;
        Ok(())
    }

    /// Assembles the server; panics on a persistence failure (use
    /// [`NetworkServerBuilder::try_build`] to handle recovery errors).
    pub fn build(self) -> NetworkServer {
        self.try_build().expect("network server persistence recovery failed")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fb_estimator::FbMethod;
    use crate::network_server::ServerVerdict;
    use crate::phy_timestamp::OnsetMethod;
    use softlora_phy::SpreadingFactor;
    use std::sync::Mutex;

    fn phy() -> PhyConfig {
        PhyConfig::uplink(SpreadingFactor::Sf7)
    }

    #[test]
    fn builder_round_trips_every_field() {
        let mut config = SoftLoraConfig::new(phy());
        config.capture_chirps = 3;
        config.capture_lead = 450;
        config.onset_method = OnsetMethod::Aic;
        config.ls_below_snr_db = 4.0;
        config.ls_method = FbMethod::DifferentialEvolution;
        config.band_floor_hz = 500.0;
        config.band_sigma = 2.5;
        let srv = NetworkServerBuilder::from_config(config)
            .gateway(9)
            .warmup_frames(7)
            .max_tracked_devices(5000)
            .adc_quantisation(false)
            .build();
        let c = srv.pipeline(0).config();
        assert_eq!(c.capture_chirps, 3);
        assert_eq!(c.capture_lead, 450);
        assert_eq!(c.onset_method, OnsetMethod::Aic);
        assert_eq!(c.ls_below_snr_db, 4.0);
        assert_eq!(c.ls_method, FbMethod::DifferentialEvolution);
        assert_eq!(c.band_floor_hz, 500.0);
        assert_eq!(c.band_sigma, 2.5);
        assert_eq!(c.warmup_frames, 7);
        assert_eq!(c.max_tracked_devices, 5000);
        assert!(!c.adc_quantisation);
    }

    #[test]
    fn builder_equals_manual_construction() {
        // A setter-made server and a config-made server with the same
        // gateway seed are observably identical (same receiver bias draw).
        let mut config = SoftLoraConfig::new(phy());
        config.adc_quantisation = false;
        config.warmup_frames = 2;
        let manual = NetworkServerBuilder::from_config(config).gateway(1234).build();
        let built = NetworkServer::builder(phy())
            .adc_quantisation(false)
            .warmup_frames(2)
            .gateway(1234)
            .build();
        assert_eq!(manual.receiver_bias_hz(0), built.receiver_bias_hz(0));
        assert_eq!(
            manual.pipeline(0).config().warmup_frames,
            built.pipeline(0).config().warmup_frames
        );
    }

    #[test]
    fn builder_provisions_and_preloads() {
        let keys = softlora_lorawan::DeviceKeys::derive_for_tests(0xAA);
        let srv = NetworkServer::builder(phy())
            .provision(0xAA, keys)
            .preload_fb(0xAA, &[-21_000.0; 5])
            .build();
        assert_eq!(srv.fb_database().history_len(0xAA), 5);
    }

    #[test]
    fn builder_attaches_observers() {
        #[derive(Default)]
        struct Verdicts(Vec<ServerVerdict>);
        impl ServerObserver for Verdicts {
            fn on_verdict(&mut self, _uplink: u64, verdict: &ServerVerdict) {
                self.0.push(verdict.clone());
            }
        }
        let seen = Arc::new(Mutex::new(Verdicts::default()));
        let srv = NetworkServer::builder(phy()).observer(Box::new(Arc::clone(&seen))).build();
        assert_eq!(seen.lock().unwrap().0.len(), 0);
        assert_eq!(srv.tail.observers.len(), 1);
    }
}
