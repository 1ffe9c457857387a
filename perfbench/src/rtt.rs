//! `rtt-small`: one client thread, two connections to one Device Manager
//! (one gRPC, one shared-memory), payload cache off. Each request is a
//! blocking 1 KB `write` followed by a blocking `read_vec` of the same
//! buffer, alternating connection; the read-back bytes must equal the
//! seeded bytes written.
//!
//! No kernel, no cache, no registry: the cost of a request is the fixed
//! chain of thread handoffs (client → `bf-devmgr-events` →
//! `bf-remote-reactor` → waiter) plus codec and copies.

use std::time::{Duration, Instant};

use bf_devmgr::DeviceManager;
use bf_fpga::Payload;
use bf_model::VirtualClock;
use bf_ocl::{BitstreamCatalog, Buffer, ClResult, Context, Device, Queue};
use bf_remote::Router;
use bf_rpc::PathCosts;

use crate::gen::{fnv, Gen};
use crate::harness::{pct_us, ratio, Budget, ClientLog, Opts, Window, Workload};
use crate::stack::{self, virtual_ns};
use crate::trace::{self, Span};

/// Bytes written and read back per request.
const PAYLOAD: usize = 1 << 10;
/// Distinct seeded payloads, cycled.
const POOL: usize = 256;

struct Conn {
    span: &'static str,
    clock: VirtualClock,
    buf: Buffer,
    queue: Queue,
    _ctx: Context,
}

impl Conn {
    fn open(device: &Device, clock: VirtualClock, span: &'static str) -> ClResult<Conn> {
        let ctx = device.create_context()?;
        Ok(Conn {
            span,
            clock,
            buf: ctx.create_buffer(PAYLOAD as u64)?,
            queue: ctx.create_queue()?,
            _ctx: ctx,
        })
    }
}

/// The `rtt-small` rig.
pub struct RttSmall {
    // Connections close before the manager handle goes away.
    conns: [Conn; 2],
    manager: DeviceManager,
    payloads: Vec<(Payload, Vec<u8>)>,
    next: u64,
    /// Request indices of the last measured phase.
    last: (u64, u64),
}

/// One blocking write + read round trip; `Ok(false)` on wrong bytes.
fn round_trip(queue: &Queue, buf: &Buffer, payload: &Payload, expected: &[u8]) -> ClResult<bool> {
    {
        let _s = trace::span("ocl.write");
        queue.write(buf, payload.clone())?;
    }
    let got = {
        let _s = trace::span("ocl.read");
        queue.read_vec(buf)?
    };
    Ok(got == expected)
}

impl Workload for RttSmall {
    const SETUPS: usize = 5;
    const WARMUP: u64 = 2_000;

    fn setup(opts: &Opts) -> Result<Self, String> {
        let mut gen = Gen::new(opts.seed, 1);
        let payloads = (0..POOL)
            .map(|_| {
                let bytes = gen.bytes(PAYLOAD);
                (Payload::from(bytes.clone()), bytes)
            })
            .collect();
        let manager = stack::manager(BitstreamCatalog::new(), 0);
        let mut router = Router::new();
        router.add_manager(manager.clone());
        let open = |costs: PathCosts, name: &str, span| -> ClResult<Conn> {
            let clock = VirtualClock::new();
            let device = router.connect(0, name, costs, clock.clone())?;
            Conn::open(&device, clock, span)
        };
        let conns = [
            open(PathCosts::local_grpc(), "rtt-grpc", "rtt.grpc"),
            open(PathCosts::local_shm(), "rtt-shm", "rtt.shm"),
        ];
        let [Ok(grpc), Ok(shm)] = conns else {
            return Err("rtt-small: connecting to the manager failed".to_string());
        };
        Ok(RttSmall {
            conns: [grpc, shm],
            manager,
            payloads,
            next: 0,
            last: (0, 0),
        })
    }

    fn run(&mut self, budget: Budget) -> Result<Window, String> {
        let before = stack::snapshot(&self.manager);
        let mut log = ClientLog::default();
        let mut modelled = Vec::new();
        let first = self.next;
        let began = Instant::now();
        let mut cursor = budget.start();
        while cursor.next() {
            let i = self.next;
            self.next += 1;
            let conn = &self.conns[(i % 2) as usize];
            let (payload, expected) = &self.payloads[(i as usize) % POOL];
            trace::set_request(i + 1);
            let v0 = conn.clock.now();
            let t0 = Instant::now();
            let ok = {
                let _s = trace::span(conn.span);
                round_trip(&conn.queue, &conn.buf, payload, expected)
            };
            let lat = t0.elapsed();
            match ok {
                Ok(true) => {
                    log.done(lat);
                    modelled.push(virtual_ns(conn.clock.now() - v0));
                }
                Ok(false) | Err(_) => log.failed += 1,
            }
        }
        let elapsed = began.elapsed();
        self.last = (first, self.next);
        let d = stack::snapshot(&self.manager).since(&before);
        let n = (self.next - first) as f64;
        Ok(Window {
            clients: vec![log],
            modelled_ns: modelled,
            elapsed,
            counters: vec![
                (
                    "rpc.copied_bytes_per_request",
                    ratio(d.copies.bytes as f64, n),
                ),
                ("rpc.copy_ops_per_request", ratio(d.copies.ops as f64, n)),
                ("devmgr.ops_per_request", ratio(d.ops, n)),
                ("devmgr.tasks_per_request", ratio(d.tasks, n)),
            ],
            warm_share: 1.0 - ratio(d.reconfigurations as f64, n),
        })
    }

    fn layers(
        &mut self,
        _traced: &Window,
        spans: &[Span],
        opts: &Opts,
    ) -> Result<Vec<(&'static str, f64)>, String> {
        let grpc = trace::durations(spans, "rtt.grpc");
        let shm = trace::durations(spans, "rtt.shm");
        let remote: Vec<u64> = grpc.iter().chain(&shm).copied().collect();
        let native = self.native_replay(opts)?;
        let native_us = pct_us(&native, 0.5);
        let writes = trace::durations(spans, "ocl.write");
        let reads = trace::durations(spans, "ocl.read");
        Ok(vec![
            ("ocl.write_us.p50", pct_us(&writes, 0.5)),
            ("ocl.write_us.p99", pct_us(&writes, 0.99)),
            ("ocl.read_us.p50", pct_us(&reads, 0.5)),
            ("ocl.read_us.p99", pct_us(&reads, 0.99)),
            ("remote.rtt_grpc_us.p50", pct_us(&grpc, 0.5)),
            ("remote.rtt_shm_us.p50", pct_us(&shm, 0.5)),
            ("native.rtt_us.p50", native_us),
            ("remote.overhead_us.p50", pct_us(&remote, 0.5) - native_us),
            (
                "rpc.transport_rtt_us.p50",
                crate::probes::transport_rtt_ns(Duration::from_millis(500))? as f64 / 1e3,
            ),
            (
                "cache.digest_us.p50",
                crate::probes::digest_ns(PAYLOAD, Duration::from_millis(200)) as f64 / 1e3,
            ),
            ("devmgr.fpga_utilization", self.manager.utilization()),
        ])
    }

    fn inputs_digest(&self) -> u64 {
        self.payloads.iter().fold(0, |h, (_, b)| fnv(h, b))
    }
}

impl RttSmall {
    /// Replays the traced phase's request sequence (same payloads, same
    /// order) against `NativeBackend` on a board of the same model, for at
    /// most two seconds; returns each round trip's wall time.
    fn native_replay(&self, opts: &Opts) -> Result<Vec<u64>, String> {
        let device = stack::native_device(stack::board(), BitstreamCatalog::new(), "rtt-native");
        let ctx = device.create_context().map_err(|e| e.to_string())?;
        let buf = ctx
            .create_buffer(PAYLOAD as u64)
            .map_err(|e| e.to_string())?;
        let queue = ctx.create_queue().map_err(|e| e.to_string())?;
        let (first, end) = self.last;
        let cap = match opts.requests {
            Some(_) => Duration::MAX,
            None => Duration::from_secs(2),
        };
        let began = Instant::now();
        let mut samples = Vec::new();
        for i in first..end {
            if began.elapsed() >= cap {
                break;
            }
            let (payload, expected) = &self.payloads[(i as usize) % POOL];
            let t0 = Instant::now();
            let ok = round_trip(&queue, &buf, payload, expected).map_err(|e| e.to_string())?;
            samples.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
            if !ok {
                return Err(format!(
                    "native replay of request {i} read back wrong bytes"
                ));
            }
        }
        if samples.is_empty() {
            return Err("native replay ran no request".to_string());
        }
        Ok(samples)
    }
}
