//! The workload-independent half of the benchmark: run budgets, the
//! closed-loop measurement window, percentiles, the metric catalogue and
//! the set-up → warm-up → measure sequence every workload goes through.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use crate::trace::{self, Span};

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds one run measures.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Fixed request count per client, trial and phase instead of a time
    /// budget (the determinism test uses it).
    pub requests: Option<u64>,
}

impl Opts {
    /// The budget of one measured phase that gets `share` of the run.
    pub fn budget(&self, share: f64) -> Budget {
        match self.requests {
            Some(n) => Budget::Count(n),
            None => Budget::Time(Duration::from_secs_f64(self.seconds * share)),
        }
    }
}

/// How long one closed-loop client keeps issuing requests.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Until this much wall time has passed.
    Time(Duration),
    /// Exactly this many requests.
    Count(u64),
}

impl Budget {
    /// A client-side cursor over this budget.
    pub fn start(self) -> Cursor {
        Cursor {
            budget: self,
            began: Instant::now(),
            done: 0,
        }
    }
}

/// Tracks one client's progress through its budget.
pub struct Cursor {
    budget: Budget,
    began: Instant,
    done: u64,
}

impl Cursor {
    /// Whether the client should issue another request; counts it.
    pub fn next(&mut self) -> bool {
        let more = match self.budget {
            Budget::Time(t) => self.began.elapsed() < t,
            Budget::Count(n) => self.done < n,
        };
        if more {
            self.done += 1;
            heartbeat();
        }
        more
    }
}

/// One closed-loop client's record of a measured phase.
#[derive(Debug, Clone, Default)]
pub struct ClientLog {
    /// Wall latency of every completed request, ns.
    pub lat_ns: Vec<u64>,
    /// Requests that failed, were refused or returned a wrong output.
    pub failed: u64,
}

impl ClientLog {
    /// Records a request that completed after `lat`.
    pub fn done(&mut self, lat: Duration) {
        self.lat_ns.push(nanos(lat));
    }
}

/// Whole nanoseconds of `d`, saturating.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The `q` quantile of `values`, interpolated (0 for an empty set).
pub fn quantile_f64(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Everything one measured phase produced.
#[derive(Debug, Default)]
pub struct Window {
    /// One log per closed-loop client.
    pub clients: Vec<ClientLog>,
    /// Virtual-clock latency per request, ns (empty when the workload
    /// has no virtual-time model).
    pub modelled_ns: Vec<u64>,
    /// Wall time of the phase.
    pub elapsed: Duration,
    /// Per-request work counters over the phase, by per-layer metric name.
    pub counters: Vec<(&'static str, f64)>,
    /// Share of requests that needed no cold board reprogram.
    pub warm_share: f64,
}

impl Window {
    /// Requests attempted across all clients.
    pub fn attempted(&self) -> u64 {
        self.clients
            .iter()
            .map(|c| c.lat_ns.len() as u64 + c.failed)
            .sum()
    }

    /// Requests failed across all clients.
    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    /// All clients' latencies, merged.
    pub fn all_lat_ns(&self) -> Vec<u64> {
        self.clients
            .iter()
            .flat_map(|c| c.lat_ns.iter().copied())
            .collect()
    }
}

/// A benchmark workload: a seeded system set-up plus a closed loop.
pub trait Workload: Sized {
    /// Set-ups per trial, the last of which is measured; the median over
    /// all of a run's set-ups is reported as `setup_s`.
    const SETUPS: usize;
    /// Unmeasured requests per client before the first measured phase.
    const WARMUP: u64;

    /// Builds the system and generates every input from `opts.seed`.
    ///
    /// # Errors
    ///
    /// Fails when the system under test cannot be brought up.
    fn setup(opts: &Opts) -> Result<Self, String>;

    /// Runs every client's closed loop for `budget`.
    ///
    /// # Errors
    ///
    /// Fails on a broken harness; request failures go into the window.
    fn run(&mut self, budget: Budget) -> Result<Window, String>;

    /// Per-layer metrics of the traced phase, called right after it:
    /// span-derived times, the window's counters, and the workload's
    /// probes.
    ///
    /// # Errors
    ///
    /// Fails when a probe cannot run.
    fn layers(
        &mut self,
        traced: &Window,
        spans: &[Span],
        opts: &Opts,
    ) -> Result<Vec<(&'static str, f64)>, String>;

    /// Fingerprint of the generated inputs (differs between seeds).
    fn inputs_digest(&self) -> u64;
}

/// What one run reports.
pub struct Outcome {
    /// Requests attempted in measured phases and warm-up.
    pub attempted: u64,
    /// Of those, failed, refused or wrong.
    pub failed: u64,
    /// Metric name → value, in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Fingerprint of the generated inputs.
    pub inputs_digest: u64,
    /// Spans of the traced phase (empty for untraced runs).
    pub spans: Vec<Span>,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
}

/// End-to-end metrics, printed by untraced runs: (name, unit).
pub const END_TO_END: [(&str, &str); 8] = [
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("throughput_rps", "req/s"),
    ("success_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("worst_tenant_p99_us", "us"),
    ("warm_placement_share", "ratio"),
];

/// Per-layer metrics, printed by traced runs: (name, unit). A workload
/// that never calls into a layer reports 0 for that layer's metrics.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("serverless.invoke_self_us.p50", "us"),
    ("serverless.shed", "count"),
    ("ocl.write_us.p50", "us"),
    ("ocl.write_us.p99", "us"),
    ("ocl.read_us.p50", "us"),
    ("ocl.read_us.p99", "us"),
    ("ocl.enqueue_us.p50", "us"),
    ("ocl.finish_us.p50", "us"),
    ("ocl.finish_us.p99", "us"),
    ("remote.rtt_grpc_us.p50", "us"),
    ("remote.rtt_shm_us.p50", "us"),
    ("native.rtt_us.p50", "us"),
    ("remote.overhead_us.p50", "us"),
    ("native.sobel_invoke_us.p50", "us"),
    ("native.mm_invoke_us.p50", "us"),
    ("rpc.transport_rtt_us.p50", "us"),
    ("rpc.copied_bytes_per_request", "bytes"),
    ("rpc.copy_ops_per_request", "count"),
    ("rpc.wire_payload_bytes_per_request", "bytes"),
    ("cache.digest_us.p50", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions_per_request", "count"),
    ("cache.nack_resends_per_request", "count"),
    ("cache.bytes_saved_per_request", "bytes"),
    ("devmgr.ops_per_request", "count"),
    ("devmgr.tasks_per_request", "count"),
    ("devmgr.fpga_utilization", "ratio"),
    ("registry.place_us.p50", "us"),
    ("registry.place_us.p99", "us"),
    ("registry.release_us.p50", "us"),
    ("registry.outcome.configured", "ratio"),
    ("registry.outcome.warm", "ratio"),
    ("registry.outcome.cold", "ratio"),
    ("registry.displaced_per_placement", "count"),
    ("registry.max_lock_span", "count"),
    ("cluster.admission_self_us.p50", "us"),
    ("cluster.release_lag_us.p50", "us"),
    ("cluster.watch_deliveries_per_request", "count"),
    ("modelled_latency_p50", "virtual-ms"),
    ("trace.overhead_pct", "%"),
    ("trace.spans_per_request", "count"),
];

/// Nearest-rank percentile of `values` (0 for an empty set).
pub fn percentile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Percentile in microseconds of nanosecond samples.
pub fn pct_us(values_ns: &[u64], q: f64) -> f64 {
    percentile(values_ns, q) as f64 / 1e3
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

static PROGRESS: AtomicU64 = AtomicU64::new(0);
static FINISHED: AtomicBool = AtomicBool::new(false);

/// Records forward progress for the watchdog.
pub fn heartbeat() {
    PROGRESS.fetch_add(1, Ordering::Relaxed);
}

/// Runs `body` while a watchdog thread checks that it keeps making
/// progress. A run that stalls for `limit` (a deadlock in the system under
/// test) is reported and the process exits with code 3 instead of hanging.
pub fn with_watchdog<T>(limit: Duration, body: impl FnOnce() -> T) -> T {
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut seen = PROGRESS.load(Ordering::Relaxed);
            let mut since = Instant::now();
            while !FINISHED.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                let now = PROGRESS.load(Ordering::Relaxed);
                if now != seen {
                    seen = now;
                    since = Instant::now();
                } else if since.elapsed() >= limit {
                    eprintln!(
                        "perfbench: no progress for {:.0} s; the system under test is stuck",
                        limit.as_secs_f64()
                    );
                    std::process::exit(3);
                }
            }
        });
        let out = body();
        FINISHED.store(true, Ordering::SeqCst);
        out
    })
}

/// Pause between tearing one set-up down and timing the next.
const SETTLE: Duration = Duration::from_millis(20);

/// Independent set-ups an untraced run measures, each for an equal share
/// of `--seconds`; a run reports the median over them. Other tenants of a
/// shared host slow it down in bursts of 10–20 s that can double
/// invoke-shared's p99: the median moves only when a burst covers more
/// than half the trials, where a mean moves with every trial a burst
/// touches.
const TRIALS: usize = 8;

/// Sets a workload up `W::SETUPS` times, keeping the last instance, and
/// returns it with every set-up time in seconds.
fn timed_setups<W: Workload>(opts: &Opts) -> Result<(W, Vec<f64>), String> {
    let mut times = Vec::with_capacity(W::SETUPS);
    let mut kept = None;
    for _ in 0..W::SETUPS.max(1) {
        // Tear the previous instance down before timing the next one. Its
        // event-loop and watcher threads exit on their own once their
        // handles are gone; give them time to, so they do not run inside
        // the next timed set-up.
        if kept.take().is_some() {
            std::thread::sleep(SETTLE);
        }
        let t0 = Instant::now();
        let w = W::setup(opts)?;
        times.push(t0.elapsed().as_secs_f64());
        heartbeat();
        kept = Some(w);
    }
    let w = kept.ok_or("no set-up ran")?;
    Ok((w, times))
}

/// The set-up → warm-up → measure sequence of one run.
///
/// An untraced run does it [`TRIALS`] times on fresh instances. A trial's
/// latency percentiles are taken over all of its requests and its
/// throughput is its completions over its wall time; the run reports each
/// end-to-end metric's median over the trials (`setup_s`: the median of
/// every set-up). A traced run uses one instance and measures untraced,
/// traced, untraced phases (¼, ½, ¼ of the time), so drift over the run
/// cancels out of the tracing overhead.
///
/// # Errors
///
/// Fails when set-up or a probe fails.
pub fn drive<W: Workload>(opts: &Opts) -> Result<Outcome, String> {
    let mut attempted = 0;
    let mut failed = 0;
    let mut notes = Vec::new();
    let mut spans = Vec::new();
    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut inputs_digest = 0;

    if !opts.trace {
        let mut trials: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut setup_times = Vec::new();
        let mut rss_mb = 0.0;
        for trial in 0..TRIALS {
            if trial > 0 {
                std::thread::sleep(SETTLE);
            }
            let (mut w, times) = timed_setups::<W>(opts)?;
            setup_times.extend(times);
            let warm = w.run(Budget::Count(W::WARMUP))?;
            if trial == 0 {
                // Taken before any timed phase: the board's busy-interval
                // history grows with every operation, so a high-water mark
                // taken after a time-bounded phase would track throughput
                // instead of footprint.
                rss_mb = crate::meta::peak_rss_mb();
            }
            let win = w.run(opts.budget(1.0 / TRIALS as f64))?;
            attempted += warm.attempted() + win.attempted();
            failed += warm.failed() + win.failed();
            inputs_digest = w.inputs_digest();
            let all = win.all_lat_ns();
            let (p50, p99) = (pct_us(&all, 0.50), pct_us(&all, 0.99));
            let worst = win
                .clients
                .iter()
                .map(|c| pct_us(&c.lat_ns, 0.99))
                .fold(0.0, f64::max);
            notes.push(format!(
                "trial {trial}: {} requests over {:.2} s; \
                 p50 {p50:.2} us, p99 {p99:.2} us, worst client p99 {worst:.2} us",
                win.attempted(),
                win.elapsed.as_secs_f64(),
            ));
            for (name, v) in [
                ("latency_p50_us", p50),
                ("latency_p99_us", p99),
                (
                    "throughput_rps",
                    ratio(all.len() as f64, win.elapsed.as_secs_f64()),
                ),
                (
                    "success_ratio",
                    1.0 - ratio(win.failed() as f64, win.attempted() as f64),
                ),
                ("worst_tenant_p99_us", worst),
                ("warm_placement_share", win.warm_share),
            ] {
                trials.entry(name).or_default().push(v);
            }
        }
        for (name, v) in &trials {
            values.insert(name, quantile_f64(v, 0.5));
        }
        values.insert("setup_s", quantile_f64(&setup_times, 0.5));
        values.insert("peak_rss_mb", rss_mb);
    } else {
        let (mut w, _) = timed_setups::<W>(opts)?;
        let warm = w.run(Budget::Count(W::WARMUP))?;
        attempted += warm.attempted();
        failed += warm.failed();
        inputs_digest = w.inputs_digest();
        let before = w.run(opts.budget(0.25))?;
        trace::enable();
        let traced = w.run(opts.budget(0.5));
        trace::disable();
        let traced = traced?;
        spans = trace::take();
        // Before the next phase, which replaces the workload's record of
        // the last phase (request range, release lags) that these read.
        for (name, v) in w.layers(&traced, &spans, opts)? {
            values.insert(name, v);
        }
        let after = w.run(opts.budget(0.25))?;
        for phase in [&before, &traced, &after] {
            attempted += phase.attempted();
            failed += phase.failed();
        }
        for (name, v) in &traced.counters {
            values.insert(name, *v);
        }
        let plain: Vec<u64> = before
            .all_lat_ns()
            .into_iter()
            .chain(after.all_lat_ns())
            .collect();
        let (p_plain, p_traced) = (pct_us(&plain, 0.5), pct_us(&traced.all_lat_ns(), 0.5));
        values.insert(
            "trace.overhead_pct",
            100.0 * (ratio(p_traced, p_plain) - 1.0),
        );
        values.insert(
            "trace.spans_per_request",
            ratio(spans.len() as f64, traced.attempted() as f64),
        );
        values.insert(
            "modelled_latency_p50",
            percentile(&traced.modelled_ns, 0.5) as f64 / 1e6,
        );
        notes.push(format!(
            "untraced p50 {p_plain:.2} us, traced p50 {p_traced:.2} us, {} spans",
            spans.len()
        ));
    }

    let catalogue: &[(&'static str, &'static str)] =
        if opts.trace { &PER_LAYER } else { &END_TO_END };
    if let Some(extra) = values
        .keys()
        .find(|k| !catalogue.iter().any(|(n, _)| n == *k))
    {
        return Err(format!("metric {extra:?} is not in the catalogue"));
    }
    let metrics = catalogue
        .iter()
        .map(|(name, unit)| (*name, values.get(name).copied().unwrap_or(0.0), *unit))
        .collect();
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        inputs_digest,
        spans,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(quantile_f64(&[3.0, 1.0, 2.0, 10.0], 0.5), 2.5);
        assert_eq!(quantile_f64(&[4.0, 1.0, 2.0, 3.0, 5.0], 0.25), 2.0);
    }
}
