//! The production topology, in-process: a primary `FleetNode` (two
//! workers, `DurabilityPolicy::Always`, file journal) shipping to a
//! warm-standby `FleetNode`, both reachable only over loopback sockets.
//!
//! The journals are real files and every fsync is real, but the
//! primary's disk is made slower by a constant: [`FSYNC_EXTRA`] is slept
//! after every fsync. The box the ledger runs on shares its disk, and
//! its fsync takes 0.2 ms in one quarter of an hour and 0.3 ms in the
//! next; on the bare disk that alone moved the fsync-bound workloads by
//! a third on identical code, more than the widest bound a metric may
//! have. A constant on top halves the share of that drift in a commit
//! round and hides nothing: whatever a change saves on the device, or in
//! the number of rounds, still shows, millisecond for millisecond.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ada_fleet::FleetNode;
use ada_kdb::storage::StorageFile;
use ada_kdb::{DurabilityPolicy, FileStorage, KdbError, SharedKdb, Storage, StoreOptions};
use ada_net::{NetConfig, NetMetricsSnapshot};
use ada_service::ServiceConfig;

/// What the primary's disk is slower by than the device under it, per
/// fsync (see the module comment; the README has the measurements).
pub const FSYNC_EXTRA: Duration = Duration::from_micros(300);

/// The filesystem, with [`FSYNC_EXTRA`] slept after every `sync`; keeps
/// what the device took for each, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct SlowerDisk {
    device_us: Arc<Mutex<Vec<f64>>>,
}

impl SlowerDisk {
    /// Device time of every fsync so far, oldest first.
    pub fn device_us(&self) -> Vec<f64> {
        self.device_us.lock().expect("fsync log lock").clone()
    }

    fn slow(&self, file: Box<dyn StorageFile>) -> Box<dyn StorageFile> {
        Box::new(SlowerFile {
            file,
            device_us: Arc::clone(&self.device_us),
        })
    }
}

impl Storage for SlowerDisk {
    fn exists(&self, path: &Path) -> bool {
        FileStorage.exists(path)
    }

    fn read(&self, path: &Path) -> Result<Vec<u8>, KdbError> {
        FileStorage.read(path)
    }

    fn open_append(
        &self,
        path: &Path,
        truncate_to: Option<u64>,
    ) -> Result<Box<dyn StorageFile>, KdbError> {
        FileStorage
            .open_append(path, truncate_to)
            .map(|file| self.slow(file))
    }

    fn create(&self, path: &Path) -> Result<Box<dyn StorageFile>, KdbError> {
        FileStorage.create(path).map(|file| self.slow(file))
    }

    fn rename(&self, from: &Path, to: &Path) -> Result<(), KdbError> {
        FileStorage.rename(from, to)
    }

    fn sync_dir(&self, path: &Path) -> Result<(), KdbError> {
        FileStorage.sync_dir(path)
    }
}

#[derive(Debug)]
struct SlowerFile {
    file: Box<dyn StorageFile>,
    device_us: Arc<Mutex<Vec<f64>>>,
}

impl StorageFile for SlowerFile {
    fn append(&mut self, buf: &[u8]) -> Result<(), KdbError> {
        self.file.append(buf)
    }

    fn flush(&mut self) -> Result<(), KdbError> {
        self.file.flush()
    }

    fn sync(&mut self) -> Result<(), KdbError> {
        let started = Instant::now();
        self.file.sync()?;
        let device = started.elapsed();
        self.device_us
            .lock()
            .expect("fsync log lock")
            .push(device.as_secs_f64() * 1e6);
        std::thread::sleep(FSYNC_EXTRA);
        Ok(())
    }
}

/// Worker threads of the primary's analysis service (sized for the
/// 2-core box the workloads are sized for).
pub const WORKERS: usize = 2;

/// How long attaching or catch-up may take before the run is declared
/// failed.
const CATCHUP_DEADLINE: Duration = Duration::from_secs(30);

/// A running primary + warm standby pair over one scratch directory.
pub struct Fleet {
    pub primary: FleetNode,
    pub standby: FleetNode,
    /// The primary's disk (its log of device fsync times).
    pub primary_disk: SlowerDisk,
    dir: PathBuf,
}

/// The wire front-end's counters the ledger takes window deltas of.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCounters {
    pub requests: u64,
    pub bytes_in: u64,
    pub bytes_out: u64,
}

fn open_store(path: &Path, storage: Arc<dyn Storage>) -> Result<SharedKdb, String> {
    let options = StoreOptions::with_storage(storage).durability(DurabilityPolicy::Always);
    SharedKdb::open_with(path, options)
        .map_err(|e| format!("cannot open journal {}: {e}", path.display()))
}

impl Fleet {
    /// Starts both nodes over fresh journals in `dir`. `traced` runs
    /// the node at its existing `sample_rate = 1.0`.
    pub fn start(dir: &Path, traced: bool) -> Result<Self, String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        let config = ServiceConfig {
            workers: WORKERS,
            durability: Some(DurabilityPolicy::Always),
            sample_rate: if traced { 1.0 } else { 0.0 },
            ..ServiceConfig::default()
        };
        let primary_disk = SlowerDisk::default();
        let primary = FleetNode::start_primary(
            "primary",
            config.clone(),
            open_store(&dir.join("primary.journal"), Arc::new(primary_disk.clone()))?,
            NetConfig::default(),
        )
        .map_err(|e| format!("primary failed to start: {e}"))?;
        let repl_addr = primary
            .repl_addr()
            .ok_or("primary has no replication endpoint")?;
        let standby = FleetNode::start_follower(
            "standby",
            config,
            // The follower applies one op per fsync: on the slower disk
            // it trails the primary by a quarter of a minute.
            open_store(&dir.join("standby.journal"), Arc::new(FileStorage))?,
            NetConfig::default(),
            repl_addr,
        )
        .map_err(|e| format!("standby failed to start: {e}"))?;
        Ok(Self {
            primary,
            standby,
            primary_disk,
            dir: dir.to_owned(),
        })
    }

    /// Waits until the standby has attached: the primary has served it
    /// its bootstrap image. (The primary polls for a follower every
    /// 25 ms, so this takes 1 ms or 26 ms by a race; no metric is
    /// charged for it.)
    pub fn await_standby(&self) -> Result<(), String> {
        let started = Instant::now();
        while self.primary.repl_metrics().snapshot().snapshots == 0 {
            if let Some(halt) = self.standby.repl_halted() {
                return Err(format!("replication halted: {halt}"));
            }
            if started.elapsed() > CATCHUP_DEADLINE {
                return Err(format!("standby not attached within {CATCHUP_DEADLINE:?}"));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
        Ok(())
    }

    /// The primary's wire counters right now, read from the node's own
    /// Prometheus exposition (the live `NetMetricsSnapshot` is only
    /// handed out at shutdown).
    pub fn net_counters(&self) -> NetCounters {
        let text = self.primary.exposition();
        let series = |prefix: &str| -> u64 {
            text.lines()
                .filter_map(|line| line.strip_prefix(prefix))
                .filter_map(|rest| rest.rsplit(' ').next()?.parse::<u64>().ok())
                .sum()
        };
        NetCounters {
            // Every request, whatever its kind (the per-kind series
            // leaves the stream requests out).
            requests: series("ada_net_request_latency_ns_count "),
            bytes_in: series("ada_net_bytes_total{dir=\"in\"}"),
            bytes_out: series("ada_net_bytes_total{dir=\"out\"}"),
        }
    }

    /// The primary's journal file.
    pub fn primary_journal(&self) -> PathBuf {
        self.dir.join("primary.journal")
    }

    /// The standby's journal file.
    pub fn standby_journal(&self) -> PathBuf {
        self.dir.join("standby.journal")
    }

    /// Primary durable ops minus follower acked ops, right now.
    pub fn ack_lag(&self) -> u64 {
        self.primary
            .service()
            .kdb()
            .journal_durable_ops()
            .saturating_sub(self.standby.acked_ops())
    }

    /// Forces a final primary fsync and waits until the follower has
    /// acked everything durable. Returns the wait in milliseconds.
    pub fn catch_up(&self) -> Result<f64, String> {
        let started = Instant::now();
        let kdb = self.primary.service().kdb();
        kdb.sync()
            .map_err(|e| format!("primary fsync failed: {e}"))?;
        let want = kdb.journal_durable_ops();
        while self.standby.acked_ops() < want {
            if let Some(halt) = self.standby.repl_halted() {
                return Err(format!("replication halted: {halt}"));
            }
            if started.elapsed() > CATCHUP_DEADLINE {
                return Err(format!(
                    "follower acked {} of {want} ops within {CATCHUP_DEADLINE:?}",
                    self.standby.acked_ops()
                ));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(started.elapsed().as_secs_f64() * 1e3)
    }

    /// Stops both nodes (the journals stay on disk for the reopen
    /// oracle) and returns the primary's final net counters.
    pub fn shutdown(self) -> NetMetricsSnapshot {
        self.standby.shutdown();
        self.primary.shutdown()
    }
}
