#![forbid(unsafe_code)]

//! # bf-registry — the BlastFunction Accelerators Registry
//!
//! The master component of the system (paper §III-C):
//!
//! * the **Devices Service** and **Functions Service** register boards and
//!   serverless functions;
//! * the **Metrics Gatherer** scrapes each Device Manager's
//!   Prometheus-format metrics and feeds FPGA time utilization into
//!   allocation;
//! * the **online allocation algorithm** (Algorithm 1 — [`allocate`])
//!   filters devices by compatibility and metrics, orders them by the
//!   SLA-chosen metric priority and accelerator compatibility, and falls
//!   back to reconfiguration when the required accelerator is missing but
//!   the displaced workloads can be redistributed;
//! * **reconfiguration + migration**: tenants are moved with Kubernetes'
//!   create-before-delete semantics before the board is reprogrammed.
//!
//! ```
//! use bf_registry::{AllocationPolicy, DeviceQuery, PlacementService, Registry};
//!
//! let registry = Registry::new(AllocationPolicy::paper());
//! registry.register_function("sobel-1", DeviceQuery::for_accelerator("spector-sobel"));
//! assert!(registry.function("sobel-1").is_some());
//! ```

mod allocation;
mod device;
mod gatherer;
mod query;
mod registry;
mod service;
mod shard;

pub use allocation::{
    allocate, AllocateError, Allocation, AllocationPolicy, DeviceView, MetricFilter, MetricKey,
};
pub use device::{BoardState, RegistryDevice, StaticDevice};
pub use gatherer::{gauge_for_device, parse_scrape, ScrapeSample};
pub use query::DeviceQuery;
pub use registry::{
    ContentionStats, FunctionRecord, Registry, RegistryError, ENV_DEVICE_MANAGER, SHM_VOLUME_PREFIX,
};
pub use service::{
    attach_placement, reconfig_validator, ContentionReport, PlacementOutcomes, PlacementService,
    ShardLoadSummary,
};
pub use shard::{hrw_owner, FederatedAllocator, ShardedRegistry};

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use bf_cluster::{Cluster, InstanceTemplate};
    use bf_devmgr::{DeviceManager, DeviceManagerConfig, ReconfigPolicy};
    use bf_fpga::{Bitstream, Board, BoardSpec};
    use bf_model::{node_a, node_b, node_c, paper_cluster, NodeSpec};
    use bf_ocl::BitstreamCatalog;
    use parking_lot::Mutex;

    use super::*;

    fn catalog() -> BitstreamCatalog {
        let mut cat = BitstreamCatalog::new();
        cat.register(Arc::new(Bitstream::new("sobel", vec![])));
        cat.register(Arc::new(Bitstream::new("mm", vec![])));
        cat
    }

    fn manager(id: &str, node: NodeSpec) -> DeviceManager {
        let board = Arc::new(Mutex::new(Board::new(BoardSpec::de5a_net(), *node.pcie())));
        DeviceManager::new(
            DeviceManagerConfig::standalone(id).with_policy(ReconfigPolicy::Deny),
            node,
            board,
            catalog(),
        )
    }

    fn registry_with_three_devices() -> Registry {
        let registry = Registry::new(AllocationPolicy::paper());
        registry.register_device(manager("fpga-a", node_a()));
        registry.register_device(manager("fpga-b", node_b()));
        registry.register_device(manager("fpga-c", node_c()));
        registry
    }

    #[test]
    fn placement_balances_and_programs_blank_boards() {
        let registry = registry_with_three_devices();
        for i in 1..=5 {
            registry
                .register_function(&format!("sobel-{i}"), DeviceQuery::for_accelerator("sobel"));
        }
        let mut nodes = Vec::new();
        for i in 1..=5 {
            let placement = registry
                .place_instance(&format!("inst-{i}"), &format!("sobel-{i}"))
                .expect("placement");
            nodes.push(placement.node.as_str().to_string());
        }
        // Table II's distribution: two on B, two on A, one on C.
        let count = |n: &str| nodes.iter().filter(|x| x.as_str() == n).count();
        assert_eq!(count("B"), 2, "placement was {nodes:?}");
        assert_eq!(count("A"), 2, "placement was {nodes:?}");
        assert_eq!(count("C"), 1, "placement was {nodes:?}");
        // Blank boards were programmed with the sobel bitstream on demand.
        for id in registry.device_ids() {
            let mgr = registry.manager(&id).expect("manager");
            assert_eq!(mgr.bitstream_id().as_deref(), Some("sobel"));
        }
    }

    #[test]
    fn unknown_function_is_rejected() {
        let registry = registry_with_three_devices();
        assert!(matches!(
            registry.place_instance("inst-1", "ghost"),
            Err(RegistryError::UnknownFunction(_))
        ));
    }

    #[test]
    fn gather_metrics_updates_views() {
        let registry = registry_with_three_devices();
        registry.gather_metrics();
        let views = registry.device_views();
        assert_eq!(views.len(), 3);
        assert!(views.iter().all(|v| v.utilization == 0.0), "idle boards");
    }

    #[test]
    fn gatherer_extracts_op_latency_from_the_histogram() {
        use bf_rpc::{DataRef, PathCosts, Request, RequestEnvelope, Response};

        let registry = registry_with_three_devices();
        let manager = registry.manager("fpga-b").expect("manager");
        manager.program("sobel").expect("program");
        // Drive one write through the manager so the histogram has a sample.
        let endpoint = manager.connect("latency-probe", PathCosts::local_grpc());
        let ctx_req = |tag, body| RequestEnvelope {
            tag,
            client: endpoint.client,
            sent_at: bf_model::VirtualTime::ZERO,
            body,
        };
        endpoint
            .channel
            .send(&ctx_req(1, Request::CreateContext))
            .expect("send");
        let ctx = loop {
            let resp = endpoint
                .channel
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("resp");
            if resp.tag == 1 {
                if let Response::Handle { id } = resp.body {
                    break id;
                }
            }
        };
        endpoint
            .channel
            .send(&ctx_req(
                2,
                Request::CreateBuffer {
                    context: ctx,
                    len: 1 << 20,
                },
            ))
            .expect("send");
        let buf = loop {
            let resp = endpoint
                .channel
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("resp");
            if resp.tag == 2 {
                if let Response::Handle { id } = resp.body {
                    break id;
                }
            }
        };
        endpoint
            .channel
            .send(&ctx_req(3, Request::CreateQueue { context: ctx }))
            .expect("send");
        let queue = loop {
            let resp = endpoint
                .channel
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("resp");
            if resp.tag == 3 {
                if let Response::Handle { id } = resp.body {
                    break id;
                }
            }
        };
        endpoint
            .channel
            .send(&ctx_req(
                4,
                Request::EnqueueWrite {
                    queue,
                    buffer: buf,
                    offset: 0,
                    data: DataRef::Synthetic(1 << 20),
                },
            ))
            .expect("send");
        endpoint
            .channel
            .send(&ctx_req(5, Request::Finish { queue }))
            .expect("send");
        loop {
            let resp = endpoint
                .channel
                .recv_timeout(std::time::Duration::from_secs(5))
                .expect("resp");
            if resp.tag == 5 && matches!(resp.body, Response::Completed { .. }) {
                break;
            }
        }
        registry.gather_metrics();
        let view = registry
            .device_views()
            .into_iter()
            .find(|v| v.id == "fpga-b")
            .expect("fpga-b view");
        assert!(
            view.mean_op_latency_ms > 0.0,
            "mean op latency should be gathered, got {}",
            view.mean_op_latency_ms
        );
    }

    #[test]
    fn validator_approves_only_bound_instances() {
        let registry = registry_with_three_devices();
        registry.register_function("sobel-1", DeviceQuery::for_accelerator("sobel"));
        let placement = registry.place_instance("inst-1", "sobel-1").expect("place");
        let validator = reconfig_validator(Arc::new(registry.clone()));
        let ok = bf_devmgr::ReconfigRequest {
            client_name: "inst-1".to_string(),
            bitstream: "mm".to_string(),
            device_id: placement.device_id.clone(),
        };
        assert!(validator(&ok));
        let spoofed = bf_devmgr::ReconfigRequest {
            client_name: "someone-else".to_string(),
            bitstream: "mm".to_string(),
            device_id: placement.device_id,
        };
        assert!(!validator(&spoofed));
    }

    #[test]
    fn cluster_admission_patches_instances() {
        let cluster = Cluster::new(paper_cluster());
        let registry = registry_with_three_devices();
        attach_placement(&cluster, Arc::new(registry.clone()));
        registry.register_function("sobel-1", DeviceQuery::for_accelerator("sobel"));
        let inst = cluster
            .create_instance(InstanceTemplate::new("sobel-1"))
            .expect("create");
        let device = inst.env.get(ENV_DEVICE_MANAGER).expect("device injected");
        assert!(device.starts_with("fpga-"));
        assert!(inst
            .volumes
            .iter()
            .any(|v| v.starts_with(SHM_VOLUME_PREFIX)));
        let bound = registry.binding(&inst.id.to_string()).expect("bound");
        assert_eq!(&bound, device);
        // Forced co-location with the device's node:
        let mgr = registry.manager(device).expect("manager");
        assert_eq!(inst.node.as_ref(), Some(mgr.node().id()));
    }

    #[test]
    fn deletion_releases_the_binding() {
        let cluster = Cluster::new(paper_cluster());
        let registry = registry_with_three_devices();
        attach_placement(&cluster, Arc::new(registry.clone()));
        registry.register_function("sobel-1", DeviceQuery::for_accelerator("sobel"));
        let inst = cluster
            .create_instance(InstanceTemplate::new("sobel-1"))
            .expect("create");
        let name = inst.id.to_string();
        assert!(registry.binding(&name).is_some());
        cluster.delete_instance(inst.id).expect("delete");
        for _ in 0..100 {
            if registry.binding(&name).is_none() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        panic!("binding not released after deletion");
    }

    #[test]
    fn reconfiguration_migrates_tenants_before_programming() {
        let cluster = Cluster::new(paper_cluster());
        let registry = Registry::new(AllocationPolicy::paper());
        // Two devices so the displaced mm tenant has somewhere to go.
        registry.register_device(manager("fpga-b", node_b()));
        registry.register_device(manager("fpga-c", node_c()));
        attach_placement(&cluster, Arc::new(registry.clone()));
        registry.register_function("mm-1", DeviceQuery::for_accelerator("mm"));

        let inst = cluster
            .create_instance(InstanceTemplate::new("mm-1"))
            .expect("create mm");
        let mm_device = registry.binding(&inst.id.to_string()).expect("bound");

        registry
            .reconfigure_device(&mm_device, "sobel")
            .expect("reconfigure");
        let mgr = registry.manager(&mm_device).expect("manager");
        assert_eq!(mgr.bitstream_id().as_deref(), Some("sobel"));

        // The mm tenant survived as a replacement pod bound elsewhere.
        let instances = cluster.instances();
        assert_eq!(instances.len(), 1);
        let replacement = &instances[0];
        assert_ne!(
            replacement.id, inst.id,
            "create-before-delete produced a new pod"
        );
        let new_device = registry
            .binding(&replacement.id.to_string())
            .expect("rebound");
        assert_ne!(
            new_device, mm_device,
            "the tenant moved off the reconfigured board"
        );
    }

    #[test]
    fn device_failure_migrates_tenants_to_survivors() {
        let cluster = Cluster::new(paper_cluster());
        let registry = registry_with_three_devices();
        attach_placement(&cluster, Arc::new(registry.clone()));
        for i in 1..=3 {
            registry
                .register_function(&format!("sobel-{i}"), DeviceQuery::for_accelerator("sobel"));
            cluster
                .create_instance(InstanceTemplate::new(format!("sobel-{i}")))
                .expect("create");
        }
        // Pick the device of sobel-1's pod and fail it.
        let victim_pod = cluster.instances()[0].clone();
        let failed_device = registry.binding(&victim_pod.id.to_string()).expect("bound");
        let migrated = registry
            .handle_device_failure(&failed_device)
            .expect("failure handled");
        assert_eq!(migrated, vec![victim_pod.id.to_string()]);
        // The device is gone from the service…
        assert!(registry.manager(&failed_device).is_none());
        assert_eq!(registry.device_ids().len(), 2);
        // …and the tenant survived on another device.
        let replacement = cluster
            .instances()
            .into_iter()
            .find(|i| i.function == victim_pod.function)
            .expect("replacement pod exists");
        assert_ne!(replacement.id, victim_pod.id, "create-before-delete");
        let new_device = registry
            .binding(&replacement.id.to_string())
            .expect("rebound");
        assert_ne!(new_device, failed_device);
        // Failing an unknown device errors.
        assert!(matches!(
            registry.handle_device_failure("fpga-ghost"),
            Err(RegistryError::UnknownDevice(_))
        ));
    }

    #[test]
    fn scale_out_registers_new_devices_at_runtime() {
        // The paper's future work: nodes autoscaling. The Devices Service
        // already supports it — a board registered mid-run immediately
        // participates in allocation (and, being empty, wins the next
        // placement under the connected-functions ordering).
        let cluster = Cluster::new(paper_cluster());
        let registry = Registry::new(AllocationPolicy::paper());
        registry.register_device(manager("fpga-b", node_b()));
        attach_placement(&cluster, Arc::new(registry.clone()));
        for i in 1..=2 {
            registry
                .register_function(&format!("sobel-{i}"), DeviceQuery::for_accelerator("sobel"));
        }
        let first = cluster
            .create_instance(InstanceTemplate::new("sobel-1"))
            .expect("create");
        assert_eq!(first.env[ENV_DEVICE_MANAGER], "fpga-b");

        // A new node joins the cluster with a fresh board.
        registry.register_device(manager("fpga-c", node_c()));
        let second = cluster
            .create_instance(InstanceTemplate::new("sobel-2"))
            .expect("create");
        assert_eq!(
            second.env[ENV_DEVICE_MANAGER], "fpga-c",
            "the empty newcomer wins the balanced ordering"
        );
        assert_eq!(second.node, Some(bf_model::NodeId::new("C")));
    }

    #[test]
    fn admission_failure_propagates_to_create() {
        let cluster = Cluster::new(paper_cluster());
        let registry = Registry::new(AllocationPolicy::paper());
        attach_placement(&cluster, Arc::new(registry.clone())); // no devices registered
        registry.register_function("sobel-1", DeviceQuery::for_accelerator("sobel"));
        let err = cluster
            .create_instance(InstanceTemplate::new("sobel-1"))
            .expect_err("no devices");
        assert!(matches!(err, bf_cluster::ClusterError::AdmissionDenied(_)));
    }
}
