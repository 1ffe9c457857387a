//! `invoke-shared`: two tenant threads share one board through one Device
//! Manager with the payload cache on. Each tenant invokes its own
//! function through `serverless::Gateway::invoke` (unbatched deployment,
//! benchmark-owned `BatchHandler`):
//!
//! * `sobel` (shared-memory path): a seeded 320×240 frame — blocking
//!   write, four `set_arg`s, launch, `finish`, read;
//! * `mm` (gRPC path, n = 64): `A` drawn Zipf(1.2) from a seeded catalog
//!   of "weight" matrices, `B` fresh — `write_async` A and B, args,
//!   launch, `finish`, read C.
//!
//! At 640×480 and n = 128 the slower tenant completes too few requests in
//! a run for a steady per-tenant p99.
//!
//! The cache budget is below catalog plus churn, so hits, misses,
//! evictions and `CacheMiss` NACK resends all occur. Inputs and expected
//! outputs (`sobel::reference`, `mm::reference`) are generated during
//! set-up, so checking a result is a compare.

use std::sync::Arc;
use std::time::{Duration, Instant};

use bf_devmgr::DeviceManager;
use bf_fpga::{Bitstream, Payload};
use bf_model::{node_b, VirtualClock, VirtualDuration, VirtualTime};
use bf_ocl::{
    ArgValue, BitstreamCatalog, Buffer, ClError, ClResult, Context, Device, Kernel, NdRange,
    Program, Queue,
};
use bf_remote::Router;
use bf_rpc::PathCosts;
use bf_serverless::{BatchHandler, Batcher, Completion, Gateway, HandlerError, Invocation};
use bf_simkit::{SimRng, ZipfSampler};
use bf_workloads::{mm, sobel};
use parking_lot::Mutex;

use crate::gen::{fnv, Gen};
use crate::harness::{pct_us, ratio, Budget, ClientLog, Opts, Window, Workload};
use crate::stack::{self, virtual_ns};
use crate::trace::{self, Span};

/// One bitstream carrying both tenants' kernels, so sharing the board
/// never forces a reprogram.
const BITSTREAM: &str = "perfbench-sobel-mm";
const WIDTH: u32 = 320;
const HEIGHT: u32 = 240;
/// Distinct seeded frames the Sobel tenant cycles through.
const FRAMES: usize = 16;
const N: u32 = 64;
/// Weight matrices `A` is drawn from.
const CATALOG: usize = 32;
const ZIPF_EXPONENT: f64 = 1.2;
/// Period of the MM request sequence: each slot has its own `B`. The
/// period exceeds the client's digest tracker (1024 entries) plus the
/// catalog, so a `B` has aged out of the tracker and the manager's cache
/// before it repeats, and goes out inline like fresh content: it never
/// draws a `CacheMiss` NACK, however many requests a run completes.
const MM_PERIOD: usize = 2048;
/// Host-tier cache budget in matrices: below the 32-matrix catalog alone,
/// let alone catalog plus churning `B`s.
const CACHE_MATRICES: u64 = 24;
/// Gateway forwarding latency (virtual time only).
const FORWARD_US: u64 = 300;

struct SobelInput {
    frame: Payload,
    expected: Vec<u8>,
}

struct MmInput {
    a: usize,
    b: Payload,
    expected: Vec<u8>,
}

/// Every generated input, shared by the remote tenants and the native
/// replay.
struct Inputs {
    frames: Vec<SobelInput>,
    weights: Vec<Payload>,
    mm: Vec<MmInput>,
}

/// One tenant's OpenCL objects on one device.
struct Rig {
    kernel: Kernel,
    bufs: Vec<Buffer>,
    queue: Queue,
    _program: Program,
    _ctx: Context,
}

impl Rig {
    fn new(device: &Device, kernel: &str, lens: &[u64]) -> ClResult<Rig> {
        let ctx = device.create_context()?;
        let program = ctx.build_program(BITSTREAM)?;
        let kernel = program.create_kernel(kernel)?;
        let bufs = lens
            .iter()
            .map(|len| ctx.create_buffer(*len))
            .collect::<ClResult<Vec<_>>>()?;
        Ok(Rig {
            kernel,
            bufs,
            queue: ctx.create_queue()?,
            _program: program,
            _ctx: ctx,
        })
    }

    fn set_arg_buffer(&self, index: u32, buf: usize) -> ClResult<()> {
        let _s = trace::span("ocl.enqueue");
        self.kernel.set_arg_buffer(index, &self.bufs[buf])
    }

    fn set_arg(&self, index: u32, value: ArgValue) -> ClResult<()> {
        let _s = trace::span("ocl.enqueue");
        self.kernel.set_arg(index, value)
    }

    fn launch(&self, work: NdRange) -> ClResult<()> {
        let _s = trace::span("ocl.enqueue");
        self.queue.launch(&self.kernel, work).map(drop)
    }

    fn finish(&self) -> ClResult<()> {
        let _s = trace::span("ocl.finish");
        self.queue.finish()
    }

    fn read(&self, buf: usize) -> ClResult<Vec<u8>> {
        let _s = trace::span("ocl.read");
        self.queue.read_vec(&self.bufs[buf])
    }
}

/// One Sobel request; `Ok(false)` when the frame comes back wrong.
fn sobel_request(rig: &Rig, input: &SobelInput) -> ClResult<bool> {
    {
        let _s = trace::span("ocl.write");
        rig.queue.write(&rig.bufs[0], input.frame.clone())?;
    }
    rig.set_arg_buffer(0, 0)?;
    rig.set_arg_buffer(1, 1)?;
    rig.set_arg(2, ArgValue::U32(WIDTH))?;
    rig.set_arg(3, ArgValue::U32(HEIGHT))?;
    rig.launch(NdRange::d2(u64::from(WIDTH), u64::from(HEIGHT)))?;
    rig.finish()?;
    Ok(rig.read(1)? == input.expected)
}

/// One MM request; `Ok(false)` when C comes back wrong.
fn mm_request(rig: &Rig, inputs: &Inputs, input: &MmInput) -> ClResult<bool> {
    for (buf, payload) in [(0, &inputs.weights[input.a]), (1, &input.b)] {
        let _s = trace::span("ocl.enqueue");
        rig.queue.write_async(&rig.bufs[buf], 0, payload.clone())?;
    }
    rig.set_arg_buffer(0, 0)?;
    rig.set_arg_buffer(1, 1)?;
    rig.set_arg_buffer(2, 2)?;
    rig.set_arg(3, ArgValue::U32(N))?;
    rig.launch(NdRange::d2(u64::from(N), u64::from(N)))?;
    rig.finish()?;
    Ok(rig.read(2)? == input.expected)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Function {
    Sobel,
    Mm,
}

impl Function {
    fn name(self) -> &'static str {
        match self {
            Function::Sobel => "sobel",
            Function::Mm => "mm",
        }
    }

    fn handler_span(self) -> &'static str {
        match self {
            Function::Sobel => "handler.sobel",
            Function::Mm => "handler.mm",
        }
    }

    fn rig(self, device: &Device) -> ClResult<Rig> {
        match self {
            Function::Sobel => {
                let frame = sobel::frame_bytes(WIDTH, HEIGHT);
                Rig::new(device, sobel::SOBEL_KERNEL, &[frame, frame])
            }
            Function::Mm => {
                let m = mm::matrix_bytes(N);
                Rig::new(device, mm::MM_KERNEL, &[m, m, m])
            }
        }
    }

    /// Runs request `i` of this function's seeded sequence on `rig`.
    fn request(self, rig: &Rig, inputs: &Inputs, i: u64) -> ClResult<bool> {
        match self {
            Function::Sobel => sobel_request(rig, &inputs.frames[(i as usize) % FRAMES]),
            Function::Mm => mm_request(rig, inputs, &inputs.mm[(i as usize) % MM_PERIOD]),
        }
    }
}

/// The benchmark-owned function body behind the gateway: OpenCL host
/// code on the Remote OpenCL Library, one request per invocation.
struct TenantHandler {
    function: Function,
    inputs: Arc<Inputs>,
    clock: VirtualClock,
    host_overhead: VirtualDuration,
    // Only the tenant's own thread invokes, so the lock is uncontended;
    // it makes the handler `Sync` as the gateway requires.
    state: Mutex<(Rig, u64)>,
}

impl BatchHandler for TenantHandler {
    fn handle_batch(
        &self,
        start: VirtualTime,
        batch: &[Invocation],
    ) -> Vec<Result<Completion, HandlerError>> {
        let mut state = self.state.lock();
        batch
            .iter()
            .map(|_| {
                let _s = trace::span(self.function.handler_span());
                self.clock.advance_to(start + self.host_overhead);
                let i = state.1;
                state.1 += 1;
                match self.function.request(&state.0, &self.inputs, i) {
                    Ok(true) => Ok(Completion::at(self.clock.now())),
                    Ok(false) => Err(HandlerError::new(format!(
                        "{} request {i}: wrong output",
                        self.function.name()
                    ))),
                    Err(e) => Err(HandlerError::new(e.to_string())),
                }
            })
            .collect()
    }
}

struct Tenant {
    function: Function,
    clock: VirtualClock,
    handler: Arc<TenantHandler>,
}

/// The `invoke-shared` rig.
pub struct InvokeShared {
    gateway: Gateway,
    tenants: [Tenant; 2],
    manager: DeviceManager,
    inputs: Arc<Inputs>,
    /// Per-tenant request indices of the last measured phase.
    last: [(u64, u64); 2],
}

fn catalog() -> Result<BitstreamCatalog, String> {
    let sobel_kernel = sobel::bitstream()
        .kernel(sobel::SOBEL_KERNEL)
        .cloned()
        .ok_or("sobel bitstream lacks its kernel")?;
    let mm_kernel = mm::bitstream()
        .kernel(mm::MM_KERNEL)
        .cloned()
        .ok_or("mm bitstream lacks its kernel")?;
    let mut catalog = BitstreamCatalog::new();
    catalog.register(Arc::new(Bitstream::new(
        BITSTREAM,
        vec![sobel_kernel, mm_kernel],
    )));
    Ok(catalog)
}

fn generate(seed: u64) -> Inputs {
    let mut gen = Gen::new(seed, 2);
    let pixels = (WIDTH * HEIGHT) as usize;
    let frames = (0..FRAMES)
        .map(|_| {
            let input = gen.pixels(pixels);
            let expected = sobel::pack_pixels(&sobel::reference(&input, WIDTH, HEIGHT));
            SobelInput {
                frame: Payload::from(sobel::pack_pixels(&input)),
                expected,
            }
        })
        .collect();
    let cells = (N * N) as usize;
    let weights: Vec<Vec<f32>> = (0..CATALOG).map(|_| gen.small_f32s(cells)).collect();
    let mut rng = SimRng::seed_from_u64(seed).split(3);
    let zipf = ZipfSampler::new(CATALOG, ZIPF_EXPONENT);
    let mm = (0..MM_PERIOD)
        .map(|_| {
            let a = zipf.sample(&mut rng);
            let b = gen.small_f32s(cells);
            MmInput {
                a,
                expected: mm::pack_f32(&mm::reference(&weights[a], &b, N)),
                b: Payload::from(mm::pack_f32(&b)),
            }
        })
        .collect();
    Inputs {
        frames,
        weights: weights
            .iter()
            .map(|w| Payload::from(mm::pack_f32(w)))
            .collect(),
        mm,
    }
}

impl Workload for InvokeShared {
    const SETUPS: usize = 1;
    const WARMUP: u64 = 40;

    fn setup(opts: &Opts) -> Result<Self, String> {
        let inputs = Arc::new(generate(opts.seed));
        let manager = stack::manager(catalog()?, CACHE_MATRICES * mm::matrix_bytes(N));
        manager.program(BITSTREAM)?;
        let mut router = Router::new();
        router.add_manager(manager.clone());
        let gateway = Gateway::new().with_forward_latency(VirtualDuration::from_micros(FORWARD_US));
        let tenant = |function: Function, costs: PathCosts| -> Result<Tenant, String> {
            let clock = VirtualClock::new();
            let device = router
                .connect(0, function.name(), costs, clock.clone())
                .map_err(|e| e.to_string())?;
            let handler = Arc::new(TenantHandler {
                function,
                inputs: inputs.clone(),
                clock: clock.clone(),
                host_overhead: node_b().host_overhead(),
                state: Mutex::new((function.rig(&device).map_err(|e| e.to_string())?, 0)),
            });
            gateway.deploy(function.name(), Batcher::unbatched(), handler.clone());
            Ok(Tenant {
                function,
                clock,
                handler,
            })
        };
        let sobel = tenant(Function::Sobel, PathCosts::local_shm())?;
        let mm = tenant(Function::Mm, PathCosts::local_grpc())?;
        Ok(InvokeShared {
            gateway,
            tenants: [sobel, mm],
            manager,
            inputs,
            last: [(0, 0); 2],
        })
    }

    fn run(&mut self, budget: Budget) -> Result<Window, String> {
        let before = stack::snapshot(&self.manager);
        let shed_before = self.shed();
        let first = self.tenants.each_ref().map(|t| t.handler.state.lock().1);
        let began = Instant::now();
        let gateway = &self.gateway;
        let results: Vec<(ClientLog, Vec<u64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .tenants
                .iter()
                .enumerate()
                .map(|(k, tenant)| {
                    s.spawn(move || {
                        let mut log = ClientLog::default();
                        let mut modelled = Vec::new();
                        let mut cursor = budget.start();
                        let mut n = 0u64;
                        while cursor.next() {
                            n += 1;
                            trace::set_request(2 * n + k as u64);
                            let at = tenant.clock.now();
                            let t0 = Instant::now();
                            let done = {
                                let _s = trace::span("serverless.invoke");
                                gateway.invoke(tenant.function.name(), at)
                            };
                            let lat = t0.elapsed();
                            match done {
                                Ok(done) => {
                                    log.done(lat);
                                    modelled.push(virtual_ns(done - at));
                                }
                                Err(_) => log.failed += 1,
                            }
                        }
                        (log, modelled)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "tenant thread panicked".to_string()))
                .collect::<Result<Vec<_>, String>>()
        })?;
        let elapsed = began.elapsed();
        let end = self.tenants.each_ref().map(|t| t.handler.state.lock().1);
        self.last = [(first[0], end[0]), (first[1], end[1])];
        let d = stack::snapshot(&self.manager).since(&before);
        let mm_requests = (end[1] - first[1]) as f64;
        let n = mm_requests + (end[0] - first[0]) as f64;
        let matrix = mm::matrix_bytes(N) as f64;
        // Derived, not counted: the stack exposes no transport byte
        // counter. Only the gRPC tenant moves payload bytes on the wire:
        // A and B inline unless a digest hit elided them (a NACKed digest
        // is resent inline once), C inline on the way back.
        let wire = mm_requests * 3.0 * matrix - d.bytes_saved as f64;
        let mut clients = Vec::new();
        let mut modelled = Vec::new();
        for (log, m) in results {
            clients.push(log);
            modelled.extend(m);
        }
        Ok(Window {
            clients,
            modelled_ns: modelled,
            elapsed,
            counters: vec![
                ("serverless.shed", (self.shed() - shed_before) as f64),
                (
                    "rpc.copied_bytes_per_request",
                    ratio(d.copies.bytes as f64, n),
                ),
                ("rpc.copy_ops_per_request", ratio(d.copies.ops as f64, n)),
                ("rpc.wire_payload_bytes_per_request", ratio(wire, n)),
                ("cache.hit_ratio", ratio(d.hits as f64, 2.0 * mm_requests)),
                ("cache.evictions_per_request", ratio(d.evictions as f64, n)),
                ("cache.nack_resends_per_request", ratio(d.misses as f64, n)),
                (
                    "cache.bytes_saved_per_request",
                    ratio(d.bytes_saved as f64, n),
                ),
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
        let (native_sobel, native_mm) = self.native_replay(opts)?;
        let remote_sobel = trace::durations(spans, Function::Sobel.handler_span());
        let remote_mm = trace::durations(spans, Function::Mm.handler_span());
        let overhead = ((pct_us(&remote_sobel, 0.5) - pct_us(&native_sobel, 0.5))
            + (pct_us(&remote_mm, 0.5) - pct_us(&native_mm, 0.5)))
            / 2.0;
        let writes = trace::durations(spans, "ocl.write");
        let reads = trace::durations(spans, "ocl.read");
        let finishes = trace::durations(spans, "ocl.finish");
        Ok(vec![
            (
                "serverless.invoke_self_us.p50",
                pct_us(&trace::self_times(spans, "serverless.invoke"), 0.5),
            ),
            ("ocl.write_us.p50", pct_us(&writes, 0.5)),
            ("ocl.write_us.p99", pct_us(&writes, 0.99)),
            ("ocl.read_us.p50", pct_us(&reads, 0.5)),
            ("ocl.read_us.p99", pct_us(&reads, 0.99)),
            (
                "ocl.enqueue_us.p50",
                pct_us(&trace::durations(spans, "ocl.enqueue"), 0.5),
            ),
            ("ocl.finish_us.p50", pct_us(&finishes, 0.5)),
            ("ocl.finish_us.p99", pct_us(&finishes, 0.99)),
            ("remote.rtt_grpc_us.p50", pct_us(&remote_mm, 0.5)),
            ("remote.rtt_shm_us.p50", pct_us(&remote_sobel, 0.5)),
            ("native.sobel_invoke_us.p50", pct_us(&native_sobel, 0.5)),
            ("native.mm_invoke_us.p50", pct_us(&native_mm, 0.5)),
            ("remote.overhead_us.p50", overhead),
            (
                "rpc.transport_rtt_us.p50",
                crate::probes::transport_rtt_ns(Duration::from_millis(500))? as f64 / 1e3,
            ),
            (
                "cache.digest_us.p50",
                crate::probes::digest_ns(mm::matrix_bytes(N) as usize, Duration::from_millis(200))
                    as f64
                    / 1e3,
            ),
            ("devmgr.fpga_utilization", self.manager.utilization()),
        ])
    }

    fn inputs_digest(&self) -> u64 {
        let mut h = 0;
        for f in &self.inputs.frames {
            h = fnv(h, f.frame.as_data().unwrap_or_default());
        }
        for w in &self.inputs.weights {
            h = fnv(h, w.as_data().unwrap_or_default());
        }
        for m in &self.inputs.mm {
            h = fnv(h, &(m.a as u64).to_le_bytes());
            h = fnv(h, m.b.as_data().unwrap_or_default());
        }
        h
    }
}

impl InvokeShared {
    fn shed(&self) -> u64 {
        self.tenants
            .iter()
            .filter_map(|t| self.gateway.stats(t.function.name()))
            .map(|s| s.shed)
            .sum()
    }

    /// Replays each tenant's traced request sequence (same inputs, same
    /// order, tenants alternating) against `NativeBackend` on one board of
    /// the same model, for at most three seconds. Returns each function's
    /// per-request wall times.
    fn native_replay(&self, opts: &Opts) -> Result<(Vec<u64>, Vec<u64>), String> {
        let board = stack::board();
        let err = |e: ClError| e.to_string();
        let rigs = [Function::Sobel, Function::Mm].map(|f| {
            let device = stack::native_device(board.clone(), catalog()?, f.name());
            f.rig(&device).map_err(err)
        });
        let [Ok(sobel_rig), Ok(mm_rig)] = rigs else {
            return Err("invoke-shared: native rig set-up failed".to_string());
        };
        let cap = match opts.requests {
            Some(_) => Duration::MAX,
            None => Duration::from_secs(3),
        };
        let began = Instant::now();
        let mut times = (Vec::new(), Vec::new());
        let [(s0, s1), (m0, m1)] = self.last;
        let (mut i, mut j) = (s0, m0);
        while (i < s1 || j < m1) && began.elapsed() < cap {
            for (function, rig, k, end, out) in [
                (Function::Sobel, &sobel_rig, &mut i, s1, &mut times.0),
                (Function::Mm, &mm_rig, &mut j, m1, &mut times.1),
            ] {
                if *k >= end {
                    continue;
                }
                let t0 = Instant::now();
                let ok = function.request(rig, &self.inputs, *k).map_err(err)?;
                out.push(u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX));
                if !ok {
                    return Err(format!(
                        "native replay of {} request {k} returned a wrong result",
                        function.name()
                    ));
                }
                *k += 1;
            }
        }
        Ok(times)
    }
}
