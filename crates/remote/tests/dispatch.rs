//! Who dispatches a connection's completions: the caller blocked on them,
//! or the shared reactor. Pins the per-op frame counts of the synchronous
//! path, and checks concurrent callers and a manager dying under a driving
//! caller.

use std::sync::Arc;
use std::time::Duration;

use bf_devmgr::{DeviceManager, DeviceManagerConfig, ReconfigPolicy};
use bf_fpga::{Bitstream, Board, BoardSpec};
use bf_model::{node_b, PcieGeneration, PcieLink, VirtualClock, VirtualTime};
use bf_ocl::{BitstreamCatalog, ClError, Device};
use bf_remote::{Connection, RemoteBackend};
use bf_rpc::{PathCosts, Request};
use parking_lot::Mutex;

/// Blocking round trips per pinned run.
const ROUND_TRIPS: u64 = 64;

/// Completion frames one blocking write or read produces: the `Enqueued`
/// ack, the `Flush` ack and the `Completed` response.
const FRAMES_PER_BLOCKING_OP: u64 = 3;

fn board() -> Arc<Mutex<Board>> {
    Arc::new(Mutex::new(Board::new(
        BoardSpec::de5a_net(),
        PcieLink::new(PcieGeneration::Gen3, 8),
    )))
}

fn manager() -> DeviceManager {
    DeviceManager::new(
        DeviceManagerConfig::standalone("fpga-dispatch"),
        node_b(),
        board(),
        BitstreamCatalog::new(),
    )
}

fn remote(manager: &DeviceManager, costs: PathCosts) -> (Arc<RemoteBackend>, Device) {
    let backend = Arc::new(
        RemoteBackend::connect(manager.connect("dispatch", costs), VirtualClock::new())
            .expect("connect"),
    );
    let device = Device::new(backend.clone());
    (backend, device)
}

fn seeded(i: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|j| (i as usize).wrapping_mul(31).wrapping_add(j) as u8)
        .collect()
}

#[test]
fn blocking_ops_are_dispatched_by_their_caller_alone() {
    for (path, costs) in [
        ("grpc", PathCosts::local_grpc()),
        ("shm", PathCosts::local_shm()),
    ] {
        let manager = manager();
        let (backend, device) = remote(&manager, costs);
        let ctx = device.create_context().expect("ctx");
        let buf = ctx.create_buffer(1 << 10).expect("buffer");
        let queue = ctx.create_queue().expect("queue");
        let conn = backend.connection();
        let before = conn.dispatch_stats();
        for i in 0..ROUND_TRIPS {
            let bytes = seeded(i, 1 << 10);
            queue.write(&buf, bytes.clone()).expect("write");
            assert_eq!(queue.read_vec(&buf).expect("read"), bytes, "{path}");
        }
        let after = conn.dispatch_stats();
        // Two handoffs per blocking op (client → event loop → client):
        // the reactor never touches the synchronous path.
        assert_eq!(after.reactor, before.reactor, "{path}: {after:?}");
        assert_eq!(
            after.direct - before.direct,
            2 * ROUND_TRIPS * FRAMES_PER_BLOCKING_OP,
            "{path}: {after:?}"
        );
    }
}

#[test]
fn a_fencing_caller_and_a_round_tripping_caller_share_one_connection() {
    const ITERS: u64 = 200;
    let manager = manager();
    let (backend, device) = remote(&manager, PathCosts::local_grpc());
    let ctx = device.create_context().expect("ctx");
    let fenced = ctx.create_queue().expect("fence queue");
    let queue = ctx.create_queue().expect("data queue");
    let buf = ctx.create_buffer(256).expect("buffer");
    let before = backend.connection().dispatch_stats();
    std::thread::scope(|s| {
        s.spawn(|| {
            for _ in 0..ITERS {
                fenced.finish().expect("finish");
            }
        });
        s.spawn(|| {
            for i in 0..ITERS {
                let bytes = seeded(i, 256);
                queue.write(&buf, bytes.clone()).expect("write");
                assert_eq!(queue.read_vec(&buf).expect("read"), bytes);
            }
        });
    });
    let after = backend.connection().dispatch_stats();
    // Whoever held the role, every frame was dispatched exactly once: a
    // fence answers twice (Enqueued, Completed), a round trip six times.
    let dispatched = (after.direct + after.reactor) - (before.direct + before.reactor);
    assert_eq!(dispatched, ITERS * (2 + 6), "{after:?}");
}

#[test]
fn a_manager_dying_under_a_driving_caller_fails_the_call() {
    // The validator runs on the manager's event loop while it serves the
    // reconfigure request; panicking there kills the loop and closes every
    // session's completion stream with the request still unanswered.
    let policy = ReconfigPolicy::Validate(Arc::new(|_: &bf_devmgr::ReconfigRequest| -> bool {
        panic!("device manager dies mid-request")
    }));
    let mut catalog = BitstreamCatalog::new();
    catalog.register(Arc::new(Bitstream::new("other", Vec::new())));
    let (manager, event_loop) = DeviceManager::new_detached(
        DeviceManagerConfig::standalone("fpga-doomed").with_policy(policy),
        node_b(),
        board(),
        catalog,
    );
    let looper = std::thread::spawn(event_loop);
    let conn = Connection::new(manager.connect("doomed", PathCosts::local_grpc()));
    drop(manager);

    // Nothing else is in flight, so the caller takes the dispatch role and
    // is the only thread that can observe the close.
    let (done_tx, done_rx) = crossbeam::channel::bounded(1);
    let caller = {
        let conn = conn.clone();
        std::thread::spawn(move || {
            let result = conn.call(
                Request::Reconfigure {
                    bitstream: "other".to_string(),
                },
                VirtualTime::ZERO,
            );
            done_tx.send(result).expect("report");
        })
    };
    let result = done_rx
        .recv_timeout(Duration::from_secs(30))
        .expect("a closed stream must not leave the driving caller hanging");
    assert!(
        matches!(result, Err(ClError::TransportFailure(_))),
        "{result:?}"
    );
    caller.join().expect("caller");
    assert!(looper.join().is_err(), "the event loop died");
    assert_eq!(conn.dispatch_stats().reactor, 0);
}
