//! The Accelerators Registry (paper §III-C): the master component that
//! registers functions and devices, aggregates performance metrics,
//! allocates devices to function instances and validates reconfigurations.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::error::Error;
use std::fmt;
use std::sync::Arc;

use bf_cluster::Cluster;
use bf_devmgr::DeviceManager;
use bf_metrics::MetricsRegistry;
use bf_model::NodeId;
use bf_race::sync::Mutex;

use crate::allocation::{allocate, AllocateError, Allocation, AllocationPolicy, DeviceView};
use crate::device::RegistryDevice;
use crate::gatherer::{gauge_for_device, parse_scrape};
use crate::query::DeviceQuery;
use crate::service::{ContentionReport, PlacementOutcomes, PlacementService, ShardLoadSummary};

/// Environment variable the registry injects with the allocated manager's
/// address.
pub const ENV_DEVICE_MANAGER: &str = "DEVICE_MANAGER_ADDRESS";
/// Volume name injected for the shared-memory data path.
pub const SHM_VOLUME_PREFIX: &str = "/dev/shm/blastfunction-";

/// A function known to the Functions Service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionRecord {
    /// Function (deployment) name.
    pub name: String,
    /// Its device requirements.
    pub query: DeviceQuery,
    /// Live instance names.
    pub instances: Vec<String>,
}

struct ManagedDevice {
    /// The handle the allocator reads board state from and programs
    /// through — a [`DeviceManager`] in production, a lightweight
    /// stand-in in simulation harnesses.
    device: Arc<dyn RegistryDevice>,
    /// The concrete manager, when the device was registered with one
    /// (what function instances dial after reading
    /// `DEVICE_MANAGER_ADDRESS`).
    manager: Option<DeviceManager>,
    utilization: f64,
    mean_op_latency_ms: f64,
    pending_reconfiguration: Option<String>,
}

/// Work performed under single acquisitions of the registry lock.
///
/// `span` is the number of device/binding entries walked while the lock
/// was held — the unit the federated ladder compares across shard counts
/// ("max per-lock contention").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ContentionStats {
    /// Lock acquisitions recorded.
    pub acquisitions: u64,
    /// Largest single-acquisition span.
    pub max_span: u64,
    /// Sum of all spans.
    pub total_span: u64,
}

impl ContentionStats {
    fn note(&mut self, span: u64) {
        self.acquisitions += 1;
        self.total_span += span;
        if span > self.max_span {
            self.max_span = span;
        }
    }
}

struct RegistryInner {
    devices: BTreeMap<String, ManagedDevice>,
    functions: BTreeMap<String, FunctionRecord>,
    /// instance name → (function name, device id)
    bindings: BTreeMap<String, (String, String)>,
    policy: AllocationPolicy,
    contention: ContentionStats,
}

impl RegistryInner {
    /// Records one lock acquisition spanning the whole device + binding
    /// tables (the view-materialization paths).
    fn note_full_span(&mut self) {
        let span = (self.devices.len() + self.bindings.len()) as u64;
        self.contention.note(span);
    }
}

/// A device's bindings detached for a shard-map rebalance: everything the
/// receiving shard needs to re-home the device without re-placement.
pub(crate) struct DeviceExport {
    pub(crate) device: Arc<dyn RegistryDevice>,
    pub(crate) manager: Option<DeviceManager>,
    pub(crate) utilization: f64,
    pub(crate) mean_op_latency_ms: f64,
    pub(crate) pending_reconfiguration: Option<String>,
    /// `(instance, function)` bindings that move with the device.
    pub(crate) bindings: Vec<(String, String)>,
}

/// Errors surfaced by registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// The function was never registered.
    UnknownFunction(String),
    /// The device was never registered.
    UnknownDevice(String),
    /// Allocation failed.
    Allocate(AllocateError),
    /// A cluster operation failed during migration.
    Cluster(String),
    /// Reprogramming failed (bitstream missing from the catalog).
    Program(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownFunction(n) => write!(f, "function {n:?} is not registered"),
            RegistryError::UnknownDevice(d) => write!(f, "device {d:?} is not registered"),
            RegistryError::Allocate(e) => write!(f, "{e}"),
            RegistryError::Cluster(m) => write!(f, "cluster operation failed: {m}"),
            RegistryError::Program(m) => write!(f, "reprogramming failed: {m}"),
        }
    }
}

impl Error for RegistryError {}

impl From<AllocateError> for RegistryError {
    fn from(e: AllocateError) -> Self {
        RegistryError::Allocate(e)
    }
}

/// The central controller. Its operations are its [`PlacementService`]
/// impl. Cloning yields another handle to the same registry.
#[derive(Clone)]
pub struct Registry {
    registry: Arc<Mutex<RegistryInner>>,
    cluster: Arc<Mutex<Option<Cluster>>>,
    metrics: MetricsRegistry,
}

impl Registry {
    /// Creates a registry with the given allocation policy.
    pub fn new(policy: AllocationPolicy) -> Self {
        Registry {
            registry: Arc::new(Mutex::new(RegistryInner {
                devices: BTreeMap::new(),
                functions: BTreeMap::new(),
                bindings: BTreeMap::new(),
                policy,
                contention: ContentionStats::default(),
            })),
            cluster: Arc::new(Mutex::new(None)),
            metrics: MetricsRegistry::default(),
        }
    }

    /// The registry's own metrics (placement outcome counters).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Registers a device fronted by a live manager (Devices Service).
    pub fn register_device(&self, manager: DeviceManager) {
        self.insert_device(Arc::new(manager.clone()), Some(manager));
    }

    fn insert_device(&self, device: Arc<dyn RegistryDevice>, manager: Option<DeviceManager>) {
        let id = device.device_id().to_string();
        self.registry.lock().devices.insert(
            id,
            ManagedDevice {
                device,
                manager,
                utilization: 0.0,
                mean_op_latency_ms: 0.0,
                pending_reconfiguration: None,
            },
        );
    }

    /// Pre-sized snapshot of `(device id, handle)` pairs — the only thing
    /// the gather path reads under the registry lock. Scrapes happen
    /// against the returned handles with no registry lock held.
    // bf-flow: entry(gatherer)
    fn device_handles(&self) -> Vec<(String, Arc<dyn RegistryDevice>)> {
        let mut inner = self.registry.lock();
        let span = inner.devices.len() as u64;
        inner.contention.note(span);
        let mut handles = Vec::with_capacity(inner.devices.len());
        for (id, d) in &inner.devices {
            handles.push((id.clone(), d.device.clone()));
        }
        handles
    }

    /// Materializes the allocator's device views in one pass over the
    /// binding table and one over the devices — O(devices + bindings),
    /// where the old per-device binding scan was O(devices × bindings)
    /// and dominated every placement at federated-ladder scale.
    fn views(inner: &RegistryInner) -> Vec<DeviceView> {
        let mut connected: BTreeMap<&str, HashMap<String, Option<String>>> = BTreeMap::new();
        for (instance, (function, device)) in &inner.bindings {
            let needs = inner
                .functions
                .get(function)
                .and_then(|f| f.query.accelerator.clone());
            connected
                .entry(device.as_str())
                .or_default()
                .insert(instance.clone(), needs);
        }
        let mut views = Vec::with_capacity(inner.devices.len());
        for (id, d) in &inner.devices {
            let state = d.device.board_state();
            let pending = d.pending_reconfiguration.is_some();
            let effective_bitstream = d.pending_reconfiguration.clone().or(state.configured);
            views.push(DeviceView {
                id: id.clone(),
                node: d.device.node().id().clone(),
                vendor: "Intel".to_string(),
                platform: "Intel(R) FPGA SDK for OpenCL(TM)".to_string(),
                bitstream: effective_bitstream,
                warm_bitstreams: state.warm,
                connected: connected.remove(id.as_str()).unwrap_or_default(),
                utilization: d.utilization,
                mean_op_latency_ms: d.mean_op_latency_ms,
                pending_reconfiguration: pending,
            });
        }
        views
    }

    /// The aggregate load summary a federated router sees for this shard:
    /// counts, mean utilization, and the configured/warm bitstream hint
    /// sets — never per-device state.
    pub fn load_summary(&self, shard: usize) -> ShardLoadSummary {
        let mut inner = self.registry.lock();
        inner.note_full_span();
        let mut configured = BTreeSet::new();
        let mut warm = BTreeSet::new();
        let mut pending = 0usize;
        let mut utilization_sum = 0.0f64;
        for d in inner.devices.values() {
            let state = d.device.board_state();
            if let Some(b) = state.configured {
                configured.insert(b);
            }
            for w in state.warm {
                warm.insert(w);
            }
            if let Some(p) = &d.pending_reconfiguration {
                // The device's future bitstream counts as configured for
                // routing purposes — concurrent placements should chase it.
                configured.insert(p.clone());
                pending += 1;
            }
            utilization_sum += d.utilization;
        }
        let devices = inner.devices.len();
        ShardLoadSummary {
            shard,
            devices,
            bindings: inner.bindings.len(),
            pending_reconfigurations: pending,
            mean_utilization: if devices == 0 {
                0.0
            } else {
                utilization_sum / devices as f64
            },
            configured,
            warm,
        }
    }

    /// Lock-contention accounting for this registry's lock.
    pub fn contention(&self, shard: usize) -> ContentionReport {
        let stats = self.registry.lock().contention;
        ContentionReport { shard, stats }
    }

    /// Detaches `device_id` and its bindings for a shard-map rebalance.
    /// Unlike [`handle_device_failure`](Self::handle_device_failure) the
    /// bindings survive — the importing shard re-homes them unchanged.
    pub(crate) fn export_device(&self, device_id: &str) -> Option<DeviceExport> {
        let mut inner = self.registry.lock();
        let d = inner.devices.remove(device_id)?;
        let moved: Vec<(String, String)> = inner
            .bindings
            .iter()
            .filter(|(_, (_, dev))| dev == device_id)
            .map(|(i, (f, _))| (i.clone(), f.clone()))
            .collect();
        for (instance, function) in &moved {
            inner.bindings.remove(instance);
            if let Some(rec) = inner.functions.get_mut(function) {
                rec.instances.retain(|i| i != instance);
            }
        }
        Some(DeviceExport {
            device: d.device,
            manager: d.manager,
            utilization: d.utilization,
            mean_op_latency_ms: d.mean_op_latency_ms,
            pending_reconfiguration: d.pending_reconfiguration,
            bindings: moved,
        })
    }

    /// Re-homes a device exported from another shard, bindings included.
    pub(crate) fn import_device(&self, export: DeviceExport) {
        let mut inner = self.registry.lock();
        let id = export.device.device_id().to_string();
        for (instance, function) in &export.bindings {
            inner
                .bindings
                .insert(instance.clone(), (function.clone(), id.clone()));
            if let Some(rec) = inner.functions.get_mut(function) {
                rec.instances.push(instance.clone());
            }
        }
        inner.devices.insert(
            id,
            ManagedDevice {
                device: export.device,
                manager: export.manager,
                utilization: export.utilization,
                mean_op_latency_ms: export.mean_op_latency_ms,
                pending_reconfiguration: export.pending_reconfiguration,
            },
        );
    }
}

/// A single registry, one shard: the paper's Algorithm 1 under one lock.
impl PlacementService for Registry {
    /// Registers a device through a bare [`RegistryDevice`] handle — the
    /// simulation/model path, where no manager event loop exists.
    fn register_device_handle(&self, device: Arc<dyn RegistryDevice>) {
        self.insert_device(device, None);
    }

    /// Registers a function and its device query (Functions Service).
    fn register_function(&self, name: &str, query: DeviceQuery) {
        let name = name.to_string();
        self.registry.lock().functions.insert(
            name.clone(),
            FunctionRecord {
                name,
                query,
                instances: Vec::new(),
            },
        );
    }

    /// Fetches a function record.
    fn function(&self, name: &str) -> Option<FunctionRecord> {
        self.registry.lock().functions.get(name).cloned()
    }

    /// The manager handle for a device id (what a function instance dials
    /// after reading `DEVICE_MANAGER_ADDRESS`). `None` for devices
    /// registered through a bare handle.
    fn manager(&self, device_id: &str) -> Option<DeviceManager> {
        self.registry
            .lock()
            .devices
            .get(device_id)
            .and_then(|d| d.manager.clone())
    }

    /// All registered device ids, pre-sized off the device table.
    fn device_ids(&self) -> Vec<String> {
        let inner = self.registry.lock();
        let mut ids = Vec::with_capacity(inner.devices.len());
        ids.extend(inner.devices.keys().cloned());
        ids
    }

    /// Snapshot of the allocator's device views (diagnostics, tests).
    fn device_views(&self) -> Vec<DeviceView> {
        let mut inner = self.registry.lock();
        inner.note_full_span();
        Self::views(&inner)
    }

    /// Nodes currently hosting at least one registered device.
    fn device_nodes(&self) -> Vec<NodeId> {
        let inner = self.registry.lock();
        let mut nodes = Vec::with_capacity(inner.devices.len());
        nodes.extend(inner.devices.values().map(|d| d.device.node().id().clone()));
        nodes
    }

    /// The device an instance is bound to.
    fn binding(&self, instance: &str) -> Option<String> {
        self.registry
            .lock()
            .bindings
            .get(instance)
            .map(|(_, d)| d.clone())
    }

    /// Runs Algorithm 1 for a new instance of `function` and applies the
    /// decision: binds the instance, and — when the chosen device needs a
    /// different bitstream — migrates the displaced tenants (through the
    /// cluster when attached) and reprograms the board.
    ///
    /// Returns the applied allocation.
    ///
    /// # Errors
    ///
    /// Fails when the function is unknown, no device survives Algorithm 1,
    /// or the reprogramming/migration fails.
    fn place_instance(&self, instance: &str, function: &str) -> Result<Allocation, RegistryError> {
        let (decision, device) = {
            let mut inner = self.registry.lock();
            inner.note_full_span();
            let query = inner
                .functions
                .get(function)
                .ok_or_else(|| RegistryError::UnknownFunction(function.to_string()))?
                .query
                .clone();
            let views = Self::views(&inner);
            let decision = allocate(&query, &views, &inner.policy)?;
            // Placement warmth accounting: did Algorithm 1 land on a
            // configured board, a warm-staged one, or a cold reprogram?
            let outcome = match &decision.reconfigure {
                None => "configured",
                Some(bitstream) => {
                    let warm = views.iter().any(|v| {
                        v.id == decision.device_id
                            && v.warm_bitstreams.iter().any(|w| w == bitstream)
                    });
                    if warm {
                        "warm"
                    } else {
                        "cold"
                    }
                }
            };
            self.metrics
                .counter("bf_registry_placements_total", &[("outcome", outcome)])
                .inc();
            // Bookkeeping: bind the new instance, unbind the displaced,
            // mark the pending reconfiguration so concurrent allocations
            // see the device's future bitstream.
            inner.bindings.insert(
                instance.to_string(),
                (function.to_string(), decision.device_id.clone()),
            );
            if let Some(rec) = inner.functions.get_mut(function) {
                rec.instances.push(instance.to_string());
            }
            for displaced in &decision.displaced {
                if let Some((func, _)) = inner.bindings.remove(displaced) {
                    if let Some(rec) = inner.functions.get_mut(&func) {
                        rec.instances.retain(|i| i != displaced);
                    }
                }
            }
            if let Some(bitstream) = &decision.reconfigure {
                if let Some(dev) = inner.devices.get_mut(&decision.device_id) {
                    dev.pending_reconfiguration = Some(bitstream.clone());
                }
            }
            // bf-taint: sanitized(decision.device_id was selected by the allocator from this very map's views under the same lock)
            let device = inner.devices[&decision.device_id].device.clone();
            (decision, device)
        };

        if let Some(bitstream) = &decision.reconfigure {
            // Migrate displaced tenants with create-before-delete (§III-C).
            let cluster = self.cluster.lock().clone();
            if let Some(cluster) = cluster {
                for displaced in &decision.displaced {
                    if let Some(id) = parse_pod_id(displaced) {
                        cluster
                            .replace_instance(bf_cluster::InstanceId(id))
                            .map_err(|e| RegistryError::Cluster(e.to_string()))?;
                    }
                }
            }
            device.program(bitstream).map_err(RegistryError::Program)?;
            if let Some(device) = self.registry.lock().devices.get_mut(&decision.device_id) {
                device.pending_reconfiguration = None;
            }
        }
        Ok(decision)
    }

    /// Removes an instance's binding (called when its pod is deleted).
    fn release_instance(&self, instance: &str) {
        let mut inner = self.registry.lock();
        if let Some((function, _)) = inner.bindings.remove(instance) {
            if let Some(rec) = inner.functions.get_mut(&function) {
                rec.instances.retain(|i| i != instance);
            }
        }
    }

    /// Registry-driven reconfiguration of a whole device: migrates every
    /// bound tenant away (create-before-delete through the cluster when
    /// attached), then reprograms the board.
    ///
    /// # Errors
    ///
    /// Fails on unknown devices or when reprogramming fails.
    fn reconfigure_device(&self, device_id: &str, bitstream: &str) -> Result<(), RegistryError> {
        let (device, tenants) = {
            let mut inner = self.registry.lock();
            let dev = inner
                .devices
                .get_mut(device_id)
                .ok_or_else(|| RegistryError::UnknownDevice(device_id.to_string()))?;
            dev.pending_reconfiguration = Some(bitstream.to_string());
            let device = dev.device.clone();
            let tenants: Vec<String> = inner
                .bindings
                .iter()
                .filter(|(_, (_, d))| d == device_id)
                .map(|(i, _)| i.clone())
                .collect();
            for t in &tenants {
                if let Some((func, _)) = inner.bindings.remove(t) {
                    if let Some(rec) = inner.functions.get_mut(&func) {
                        rec.instances.retain(|i| i != t);
                    }
                }
            }
            (device, tenants)
        };
        let cluster = self.cluster.lock().clone();
        if let Some(cluster) = cluster {
            for t in &tenants {
                if let Some(id) = parse_pod_id(t) {
                    cluster
                        .replace_instance(bf_cluster::InstanceId(id))
                        .map_err(|e| RegistryError::Cluster(e.to_string()))?;
                }
            }
        }
        device.program(bitstream).map_err(RegistryError::Program)?;
        if let Some(device) = self.registry.lock().devices.get_mut(device_id) {
            device.pending_reconfiguration = None;
        }
        Ok(())
    }

    /// Handles a device failure (node crash, board fault): the device is
    /// removed from the Devices Service and every bound instance is
    /// migrated with create-before-delete semantics — re-admission places
    /// the replacements on the surviving devices.
    ///
    /// Returns the names of the instances that were migrated.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::UnknownDevice`] for unregistered ids, or a
    /// cluster/allocation failure when a tenant cannot be rehomed (the
    /// device stays deregistered either way — it is gone).
    fn handle_device_failure(&self, device_id: &str) -> Result<Vec<String>, RegistryError> {
        let tenants = {
            let mut inner = self.registry.lock();
            if inner.devices.remove(device_id).is_none() {
                return Err(RegistryError::UnknownDevice(device_id.to_string()));
            }
            let tenants: Vec<String> = inner
                .bindings
                .iter()
                .filter(|(_, (_, d))| d == device_id)
                .map(|(i, _)| i.clone())
                .collect();
            for t in &tenants {
                if let Some((func, _)) = inner.bindings.remove(t) {
                    if let Some(rec) = inner.functions.get_mut(&func) {
                        rec.instances.retain(|i| i != t);
                    }
                }
            }
            tenants
        };
        let cluster = self.cluster.lock().clone();
        if let Some(cluster) = cluster {
            for t in &tenants {
                if let Some(id) = parse_pod_id(t) {
                    cluster
                        .replace_instance(bf_cluster::InstanceId(id))
                        .map_err(|e| RegistryError::Cluster(e.to_string()))?;
                }
            }
        }
        Ok(tenants)
    }

    /// Metrics Gatherer: scrapes every manager's Prometheus text and
    /// refreshes the utilization the allocator orders by.
    ///
    /// Scrapes run outside the registry lock (they take each manager's
    /// own locks): the lock is held twice for pre-sized point work — the
    /// handle snapshot and the gauge write-back — never across a device
    /// round-trip.
    fn gather_metrics(&self) {
        let handles = self.device_handles();
        let mut scrapes = Vec::with_capacity(handles.len());
        for (id, device) in handles {
            scrapes.push((id, device.scrape()));
        }
        let mut inner = self.registry.lock();
        for (id, text) in scrapes {
            let samples = parse_scrape(&text);
            if let Some(util) = gauge_for_device(&samples, "bf_fpga_utilization", &id) {
                if let Some(dev) = inner.devices.get_mut(&id) {
                    dev.utilization = util;
                }
            }
            // Mean op latency from the histogram's _sum/_count pair.
            let sum = gauge_for_device(&samples, "bf_manager_op_latency_ms_sum", &id);
            let count = gauge_for_device(&samples, "bf_manager_op_latency_ms_count", &id);
            if let (Some(sum), Some(count)) = (sum, count) {
                if count > 0.0 {
                    if let Some(dev) = inner.devices.get_mut(&id) {
                        dev.mean_op_latency_ms = sum / count;
                    }
                }
            }
        }
    }

    fn load_summaries(&self) -> Vec<ShardLoadSummary> {
        vec![self.load_summary(0)]
    }

    /// Placement outcome totals from this registry's metrics.
    fn placement_outcomes(&self) -> PlacementOutcomes {
        let read = |outcome: &str| {
            self.metrics
                .counter_value("bf_registry_placements_total", &[("outcome", outcome)])
                .unwrap_or(0.0) as u64
        };
        PlacementOutcomes {
            configured: read("configured"),
            warm: read("warm"),
            cold: read("cold"),
        }
    }

    fn contention(&self) -> Vec<ContentionReport> {
        vec![Registry::contention(self, 0)]
    }

    /// Stores the cluster handle used for displaced-tenant migration.
    fn bind_cluster(&self, cluster: &Cluster) {
        *self.cluster.lock() = Some(cluster.clone());
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.registry.lock();
        f.debug_struct("Registry")
            .field("devices", &inner.devices.len())
            .field("functions", &inner.functions.len())
            .field("bindings", &inner.bindings.len())
            .finish()
    }
}

/// Instance names produced by the cluster integration are pod ids
/// (`pod-N`); parse the numeric part back.
pub(crate) fn parse_pod_id(instance: &str) -> Option<u64> {
    instance.strip_prefix("pod-").and_then(|s| s.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_id_round_trip() {
        assert_eq!(parse_pod_id("pod-17"), Some(17));
        assert_eq!(parse_pod_id("sobel-1"), None);
        assert_eq!(
            parse_pod_id(&bf_cluster::InstanceId(3).to_string()),
            Some(3)
        );
    }
}
