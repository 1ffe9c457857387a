//! Helpers shared by the data-path workloads: building a board, a Device
//! Manager and a native twin on the same board model, and reading the
//! manager's work counters around a measured phase.

use std::sync::Arc;

use bf_cache::CacheStats;
use bf_devmgr::{DeviceManager, DeviceManagerConfig};
use bf_fpga::{Board, BoardSpec};
use bf_metrics::CopyCounters;
use bf_model::{node_b, VirtualClock, VirtualDuration};
use bf_ocl::{BitstreamCatalog, Device, NativeBackend};
use parking_lot::Mutex;

/// Device id of every benchmark manager.
pub const DEVICE_ID: &str = "fpga-b";

/// A fresh DE5a-Net board on node B's PCIe link.
pub fn board() -> Arc<Mutex<Board>> {
    Arc::new(Mutex::new(Board::new(
        BoardSpec::de5a_net(),
        *node_b().pcie(),
    )))
}

/// A Device Manager for node B, payload cache of `cache_bytes` (0 = off).
pub fn manager(catalog: BitstreamCatalog, cache_bytes: u64) -> DeviceManager {
    let mut config = DeviceManagerConfig::standalone(DEVICE_ID);
    if cache_bytes > 0 {
        config = config.with_payload_cache(cache_bytes);
    }
    DeviceManager::new(config, node_b(), board(), catalog)
}

/// A direct-PCIe device on a board of the same model: the native floor.
pub fn native_device(board: Arc<Mutex<Board>>, catalog: BitstreamCatalog, owner: &str) -> Device {
    Device::new(Arc::new(NativeBackend::new(
        node_b(),
        board,
        catalog,
        VirtualClock::new(),
        owner,
    )))
}

/// Nanoseconds of a virtual duration.
pub fn virtual_ns(d: VirtualDuration) -> u64 {
    (d.as_secs_f64() * 1e9) as u64
}

/// The manager's and process's work counters at one instant.
#[derive(Debug, Clone, Copy)]
pub struct Snapshot {
    copies: CopyCounters,
    ops: f64,
    tasks: f64,
    cache: CacheStats,
    reconfigurations: u64,
}

/// Work done between two snapshots.
#[derive(Debug, Clone, Copy)]
pub struct Delta {
    /// Host payload memcpy bytes and operations.
    pub copies: CopyCounters,
    /// Operations the manager executed.
    pub ops: f64,
    /// Tasks the manager executed.
    pub tasks: f64,
    /// Payload-cache hits.
    pub hits: u64,
    /// Payload-cache misses (digest lookups answered with `CacheMiss`).
    pub misses: u64,
    /// Payload-cache evictions.
    pub evictions: u64,
    /// Payload bytes digest hits kept off the wire.
    pub bytes_saved: u64,
    /// Board reprograms.
    pub reconfigurations: u64,
}

/// Reads `manager`'s counters now.
pub fn snapshot(manager: &DeviceManager) -> Snapshot {
    let labels = [("device", DEVICE_ID)];
    let metrics = manager.metrics();
    Snapshot {
        copies: bf_metrics::copy_counters(),
        ops: metrics
            .counter_value("bf_manager_ops_total", &labels)
            .unwrap_or(0.0),
        tasks: metrics
            .counter_value("bf_manager_tasks_total", &labels)
            .unwrap_or(0.0),
        cache: manager.cache_stats().unwrap_or_default(),
        reconfigurations: manager.board().lock().reconfigurations(),
    }
}

impl Snapshot {
    /// Work done from `earlier` to `self`.
    pub fn since(&self, earlier: &Snapshot) -> Delta {
        Delta {
            copies: self.copies.since(earlier.copies),
            ops: self.ops - earlier.ops,
            tasks: self.tasks - earlier.tasks,
            hits: self.cache.hits - earlier.cache.hits,
            misses: self.cache.misses - earlier.cache.misses,
            evictions: self.cache.evictions - earlier.cache.evictions,
            bytes_saved: self.cache.bytes_saved - earlier.cache.bytes_saved,
            reconfigurations: self.reconfigurations - earlier.reconfigurations,
        }
    }
}
