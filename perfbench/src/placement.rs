//! `placement-churn`: the control plane alone. A `Cluster` of 1000
//! synthetic nodes, one FPGA each, wired by `attach_placement` to a
//! 16-shard `ShardedRegistry` behind a timing `PlacementService`
//! decorator. Set-up registers 2000 functions over a Zipf-popular
//! accelerator catalog and creates the resident instances. Each request
//! is one `create_instance` (admission → Algorithm 1, including any
//! reprogram); the loop then deletes a seeded resident instance and waits
//! until the registry's watcher has released its binding, so every
//! decision is a pure function of the seed.
//!
//! The resident count is [`RESIDENT_HEADROOM`] less than the smallest
//! shard's device count, so every shard keeps an empty device at every
//! placement and Algorithm 1 never displaces a tenant. Displacement cannot
//! be measured yet: its create-before-delete migration re-enters
//! `ShardedRegistry::place_instance` through cluster admission while the
//! outer call still holds the shard map, which deadlocks (300 residents
//! hit it within a 30 s run at some seeds).

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bf_cluster::{Cluster, InstanceId, InstanceSpec, InstanceTemplate};
use bf_devmgr::DeviceManager;
use bf_model::{MemcpyModel, NodeId, NodeSpec, PcieGeneration, PcieLink, VirtualDuration};
use bf_registry::{
    attach_placement, Allocation, AllocationPolicy, ContentionReport, DeviceQuery, DeviceView,
    FunctionRecord, PlacementOutcomes, PlacementService, RegistryDevice, RegistryError,
    ShardLoadSummary, ShardedRegistry, ENV_DEVICE_MANAGER,
};
use bf_sim::SimFpgaDevice;
use bf_simkit::{SimRng, ZipfSampler};
use parking_lot::Mutex;

use crate::gen::fnv;
use crate::harness::{heartbeat, nanos, pct_us, ratio, Budget, ClientLog, Opts, Window, Workload};
use crate::trace::{self, Span};

const NODES: usize = 1000;
const SHARDS: usize = 16;
const FUNCTIONS: usize = 2000;
/// Accelerator bitstreams in the catalog.
const ACCELERATORS: usize = 64;
const ZIPF_EXPONENT: f64 = 1.1;
/// Warm bitstream-cache slots per board.
const WARM_SLOTS: usize = 4;
/// Resident instances are this many fewer than the smallest shard's
/// devices. With at most `smallest - 1` instances alive during a create,
/// every shard has an empty device, and Algorithm 1 orders empty devices
/// first.
const RESIDENT_HEADROOM: usize = 2;

/// One `place_instance` the decorator saw.
struct Placed {
    instance: String,
    displaced: Vec<String>,
    nested: bool,
}

/// The timing decorator: spans around placement and release, a log of
/// every allocation so the loop can track displaced tenants, and a
/// notice of every finished release so the loop can block until the
/// watcher is done instead of polling the registry's locks.
struct TimedPlacement {
    inner: Arc<dyn PlacementService>,
    log: Mutex<Vec<Placed>>,
    released: Sender<String>,
}

thread_local! {
    static DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
}

impl PlacementService for TimedPlacement {
    fn register_device_handle(&self, device: Arc<dyn RegistryDevice>) {
        self.inner.register_device_handle(device);
    }

    fn register_function(&self, name: &str, query: DeviceQuery) {
        self.inner.register_function(name, query);
    }

    fn function(&self, name: &str) -> Option<FunctionRecord> {
        self.inner.function(name)
    }

    fn manager(&self, device_id: &str) -> Option<DeviceManager> {
        self.inner.manager(device_id)
    }

    fn device_ids(&self) -> Vec<String> {
        self.inner.device_ids()
    }

    fn device_views(&self) -> Vec<DeviceView> {
        self.inner.device_views()
    }

    fn device_nodes(&self) -> Vec<NodeId> {
        self.inner.device_nodes()
    }

    fn binding(&self, instance: &str) -> Option<String> {
        self.inner.binding(instance)
    }

    fn place_instance(&self, instance: &str, function: &str) -> Result<Allocation, RegistryError> {
        let depth = DEPTH.with(|d| {
            let depth = d.get();
            d.set(depth + 1);
            depth
        });
        let placed = {
            let _s = trace::span("registry.place");
            self.inner.place_instance(instance, function)
        };
        DEPTH.with(|d| d.set(depth));
        heartbeat();
        if let Ok(a) = &placed {
            self.log.lock().push(Placed {
                instance: instance.to_string(),
                displaced: a.displaced.clone(),
                nested: depth > 0,
            });
        }
        placed
    }

    fn release_instance(&self, instance: &str) {
        {
            let _s = trace::span("registry.release");
            self.inner.release_instance(instance);
        }
        // The loop may be gone (its rig is being torn down).
        let _ = self.released.send(instance.to_string());
    }

    fn reconfigure_device(&self, device_id: &str, bitstream: &str) -> Result<(), RegistryError> {
        self.inner.reconfigure_device(device_id, bitstream)
    }

    fn handle_device_failure(&self, device_id: &str) -> Result<Vec<String>, RegistryError> {
        self.inner.handle_device_failure(device_id)
    }

    fn gather_metrics(&self) {
        self.inner.gather_metrics();
    }

    fn load_summaries(&self) -> Vec<ShardLoadSummary> {
        self.inner.load_summaries()
    }

    fn placement_outcomes(&self) -> PlacementOutcomes {
        self.inner.placement_outcomes()
    }

    fn contention(&self) -> Vec<ContentionReport> {
        self.inner.contention()
    }

    fn bind_cluster(&self, cluster: &Cluster) {
        self.inner.bind_cluster(cluster);
    }
}

/// The `placement-churn` rig.
pub struct PlacementChurn {
    cluster: Cluster,
    service: Arc<TimedPlacement>,
    functions: Vec<(String, String)>,
    resident: Vec<InstanceId>,
    rng: SimRng,
    seed: u64,
    /// Nested (migration) placements and displaced tenants per top-level
    /// placement, over the last measured phase.
    displaced: (u64, u64),
    lag_ns: Vec<u64>,
    released: Receiver<String>,
}

fn pod_id(instance: &str) -> Option<InstanceId> {
    instance
        .strip_prefix("pod-")
        .and_then(|n| n.parse().ok())
        .map(InstanceId)
}

impl PlacementChurn {
    fn bindings(&self) -> usize {
        self.service
            .load_summaries()
            .iter()
            .map(|s| s.bindings)
            .sum()
    }

    /// Creates one instance of a seeded function and folds the placement
    /// log into the resident set. Returns whether the pod's injected
    /// device matches the registry's binding.
    fn create(&mut self) -> Result<bool, String> {
        let f = self.rng.index(self.functions.len());
        let template = InstanceTemplate::new(self.functions[f].0.clone());
        let spec: InstanceSpec = {
            let _s = trace::span("cluster.create");
            self.cluster.create_instance(template)
        }
        .map_err(|e| e.to_string())?;
        let mut top = 0u64;
        for placed in self.service.log.lock().drain(..) {
            top += u64::from(!placed.nested);
            self.displaced.0 += placed.displaced.len() as u64;
            for d in &placed.displaced {
                if let Some(id) = pod_id(d) {
                    self.resident.retain(|r| *r != id);
                }
            }
            if placed.nested {
                self.resident.extend(pod_id(&placed.instance));
            }
        }
        self.displaced.1 += top;
        self.resident.push(spec.id);
        let bound = self.service.binding(&spec.id.to_string());
        Ok(bound.is_some() && spec.env.get(ENV_DEVICE_MANAGER) == bound.as_ref())
    }

    /// Deletes a seeded resident instance and waits until the watcher has
    /// released its binding. Returns whether the binding is gone and the
    /// binding count is back at the resident count.
    fn delete(&mut self) -> Result<bool, String> {
        let victim = self
            .resident
            .swap_remove(self.rng.index(self.resident.len()));
        let name = victim.to_string();
        let t0 = Instant::now();
        {
            let _s = trace::span("cluster.delete");
            self.cluster.delete_instance(victim)
        }
        .map_err(|e| e.to_string())?;
        // Releases arrive in deletion order; earlier ones belong to
        // displaced tenants' replaced pods.
        loop {
            let released = self
                .released
                .recv()
                .map_err(|_| "registry watcher is gone".to_string())?;
            if released == name {
                break;
            }
        }
        self.lag_ns.push(nanos(t0.elapsed()));
        heartbeat();
        Ok(self.service.binding(&name).is_none() && self.bindings() == self.resident.len())
    }
}

impl Workload for PlacementChurn {
    const SETUPS: usize = 2;
    const WARMUP: u64 = 300;

    fn setup(opts: &Opts) -> Result<Self, String> {
        let nodes: Vec<NodeSpec> = (0..NODES)
            .map(|i| {
                NodeSpec::new(
                    NodeId::new(format!("n{i:04}")),
                    PcieLink::new(PcieGeneration::Gen3, 8),
                    MemcpyModel::paper(),
                    1.0,
                    VirtualDuration::from_millis_f64(3.5),
                )
            })
            .collect();
        let sharded = ShardedRegistry::new(AllocationPolicy::paper(), SHARDS);
        for (i, node) in nodes.iter().enumerate() {
            sharded.register_device_handle(SimFpgaDevice::new(
                format!("fpga-{i:04}"),
                node.clone(),
                WARM_SLOTS,
            ));
        }
        let root = SimRng::seed_from_u64(opts.seed);
        let mut accel_rng = root.split(11);
        let zipf = ZipfSampler::new(ACCELERATORS, ZIPF_EXPONENT);
        let functions: Vec<(String, String)> = (0..FUNCTIONS)
            .map(|i| {
                let accel = format!("acc-{:03}", zipf.sample(&mut accel_rng));
                (format!("fn-{i:04}"), accel)
            })
            .collect();
        for (name, accel) in &functions {
            sharded.register_function(name, DeviceQuery::for_accelerator(accel));
        }
        let cluster = Cluster::new(nodes);
        // Unbounded, but one message per deletion and drained every cycle.
        let (released_tx, released) = channel();
        let service = Arc::new(TimedPlacement {
            inner: Arc::new(sharded),
            log: Mutex::new(Vec::new()),
            released: released_tx,
        });
        attach_placement(&cluster, service.clone());
        let mut rig = PlacementChurn {
            cluster,
            service,
            functions,
            resident: Vec::new(),
            rng: root.split(12),
            seed: opts.seed,
            displaced: (0, 0),
            lag_ns: Vec::new(),
            released,
        };
        let smallest = rig
            .service
            .load_summaries()
            .iter()
            .map(|s| s.devices)
            .min()
            .unwrap_or(0);
        for _ in 0..smallest.saturating_sub(RESIDENT_HEADROOM) {
            if !rig.create()? {
                return Err(
                    "placement-churn: a resident pod's device differs from its binding".into(),
                );
            }
        }
        Ok(rig)
    }

    fn run(&mut self, budget: Budget) -> Result<Window, String> {
        let outcomes_before = self.service.placement_outcomes();
        let deliveries_before = self.cluster.watch_stats().deliveries;
        self.displaced = (0, 0);
        self.lag_ns.clear();
        let mut log = ClientLog::default();
        let mut requests = 0u64;
        let began = Instant::now();
        let mut cursor = budget.start();
        while cursor.next() {
            requests += 1;
            trace::set_request(requests);
            let t0 = Instant::now();
            let created = self.create();
            let lat = t0.elapsed();
            let deleted = self.delete();
            match (created, deleted) {
                (Ok(true), Ok(true)) => {
                    log.done(lat);
                }
                _ => log.failed += 1,
            }
        }
        let elapsed = began.elapsed();
        let o = self.service.placement_outcomes();
        let (configured, warm, cold) = (
            (o.configured - outcomes_before.configured) as f64,
            (o.warm - outcomes_before.warm) as f64,
            (o.cold - outcomes_before.cold) as f64,
        );
        let placements = configured + warm + cold;
        let n = requests as f64;
        let deliveries = (self.cluster.watch_stats().deliveries - deliveries_before) as f64;
        Ok(Window {
            clients: vec![log],
            modelled_ns: Vec::new(),
            elapsed,
            counters: vec![
                ("registry.outcome.configured", ratio(configured, placements)),
                ("registry.outcome.warm", ratio(warm, placements)),
                ("registry.outcome.cold", ratio(cold, placements)),
                (
                    "registry.displaced_per_placement",
                    ratio(self.displaced.0 as f64, self.displaced.1 as f64),
                ),
                ("cluster.watch_deliveries_per_request", ratio(deliveries, n)),
            ],
            warm_share: ratio(configured + warm, placements),
        })
    }

    fn layers(
        &mut self,
        _traced: &Window,
        spans: &[Span],
        _opts: &Opts,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        // Top-level placements only: a nested one is a migration inside
        // its parent's span.
        let creates: BTreeMap<u64, ()> = spans
            .iter()
            .filter(|s| s.name == "cluster.create")
            .map(|s| (s.id, ()))
            .collect();
        let place: Vec<u64> = spans
            .iter()
            .filter(|s| s.name == "registry.place" && creates.contains_key(&s.parent))
            .map(Span::dur_ns)
            .collect();
        let max_lock_span = self
            .service
            .contention()
            .iter()
            .map(|c| c.stats.max_span)
            .max()
            .unwrap_or(0);
        Ok(vec![
            ("registry.place_us.p50", pct_us(&place, 0.5)),
            ("registry.place_us.p99", pct_us(&place, 0.99)),
            (
                "registry.release_us.p50",
                pct_us(&trace::durations(spans, "registry.release"), 0.5),
            ),
            ("registry.max_lock_span", max_lock_span as f64),
            (
                "cluster.admission_self_us.p50",
                pct_us(&trace::self_times(spans, "cluster.create"), 0.5),
            ),
            ("cluster.release_lag_us.p50", pct_us(&self.lag_ns, 0.5)),
            (
                "rpc.transport_rtt_us.p50",
                crate::probes::transport_rtt_ns(Duration::from_millis(500))? as f64 / 1e3,
            ),
        ])
    }

    fn inputs_digest(&self) -> u64 {
        let mut h = 0;
        for (name, accel) in &self.functions {
            h = fnv(h, name.as_bytes());
            h = fnv(h, accel.as_bytes());
        }
        // The head of the seeded request stream.
        let mut rng = SimRng::seed_from_u64(self.seed).split(12);
        for _ in 0..64 {
            h = fnv(h, &(rng.index(self.functions.len()) as u64).to_le_bytes());
        }
        h
    }
}
