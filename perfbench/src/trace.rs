//! Outside-in span recorder.
//!
//! The benchmark wraps each call it makes into a layer's public API in a
//! span: name, start, end, the enclosing span and the request it serves.
//! Spans stay in memory while a traced phase runs and are written once,
//! when the benchmark exits. A layer's self time is its span's duration
//! minus the durations of the spans it encloses.
//!
//! While tracing is off, [`span`] costs one relaxed atomic load.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Unique id (1-based).
    pub id: u64,
    /// Id of the span open on the same thread when this one began, or 0.
    pub parent: u64,
    /// Request the span belongs to.
    pub req: u64,
    /// Layer call the span wraps, e.g. `"ocl.write"`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

static ON: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
// Request of the most recent `set_request` on any thread: spans opened on
// threads the benchmark does not own (the registry's watcher) take it.
static LAST_REQ: AtomicU64 = AtomicU64::new(0);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQ: Cell<u64> = const { Cell::new(0) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Starts recording spans.
pub fn enable() {
    epoch();
    ON.store(true, Ordering::SeqCst);
}

/// Stops recording spans; already-open guards still close normally.
pub fn disable() {
    ON.store(false, Ordering::SeqCst);
}

/// Tags the calling thread's next spans with request `req`.
pub fn set_request(req: u64) {
    REQ.with(|r| r.set(req));
    LAST_REQ.store(req, Ordering::Relaxed);
}

/// An open span; closes when dropped.
pub struct Guard {
    open: Option<(u64, u64, u64, &'static str, u64)>,
}

/// Opens a span named `name` on the calling thread.
pub fn span(name: &'static str) -> Guard {
    if !ON.load(Ordering::Relaxed) {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or(0);
        s.push(id);
        parent
    });
    let req = match REQ.with(Cell::get) {
        0 => LAST_REQ.load(Ordering::Relaxed),
        r => r,
    };
    Guard {
        open: Some((id, parent, req, name, now_ns())),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, req, name, start_ns)) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        };
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Takes every span recorded so far, ordered by id.
pub fn take() -> Vec<Span> {
    let mut spans = SPANS
        .lock()
        .map(|mut s| std::mem::take(&mut *s))
        .unwrap_or_default();
    spans.sort_unstable_by_key(|s| s.id);
    spans
}

/// Durations (ns) of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Self times (ns) of the spans named `name`: duration minus the time
/// covered by their direct children. Children of one span run on the
/// span's own thread, one after another, so their durations never overlap.
pub fn self_times(spans: &[Span], name: &str) -> Vec<u64> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| {
            s.dur_ns()
                .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Writes `spans` as CSV (`id,parent,req,name,start_ns,end_ns`).
///
/// # Errors
///
/// Returns the I/O error of the first failed write.
pub fn write_csv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,parent,req,name,start_ns,end_ns")?;
    for s in spans {
        writeln!(
            out,
            "{},{},{},{},{},{}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            at(1, 0, "invoke", 0, 100),
            at(2, 1, "handler", 10, 90),
            at(3, 2, "ocl.write", 20, 50),
            at(4, 2, "ocl.read", 50, 80),
        ];
        assert_eq!(self_times(&spans, "invoke"), vec![20]);
        assert_eq!(self_times(&spans, "handler"), vec![20]);
        assert_eq!(self_times(&spans, "ocl.write"), vec![30]);
        assert_eq!(durations(&spans, "handler"), vec![80]);
    }
}
