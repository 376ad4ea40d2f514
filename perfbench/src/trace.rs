//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around calls the benchmark makes into the
//! workspace's public API; nothing inside the program is instrumented.
//! Each span has a name, an id, the id of the span open when it started
//! (its parent), a start and an end, and optionally the id of the work
//! item it belongs to. Spans stay in memory until [`finish`] hands them
//! back at the end of the run.

use std::cell::RefCell;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub item: Option<u64>,
    pub start_ns: u128,
    pub end_ns: u128,
}

struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Starts recording spans on this thread.
pub fn start() {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Stops recording and returns every span, ordered by id (start order).
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| {
        r.borrow_mut()
            .take()
            .map(|rec| rec.spans)
            .unwrap_or_default()
    })
}

/// Spans recorded so far (0 when recording is off).
pub fn count() -> usize {
    RECORDER.with(|r| r.borrow().as_ref().map_or(0, |rec| rec.spans.len()))
}

fn open(name: &'static str, item: Option<u64>) -> Option<usize> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let rec = r.as_mut()?;
        let id = rec.spans.len();
        let start_ns = rec.origin.elapsed().as_nanos();
        rec.spans.push(Span {
            id,
            parent: rec.open.last().copied(),
            name,
            item,
            start_ns,
            end_ns: start_ns,
        });
        rec.open.push(id);
        Some(id)
    })
}

fn close(id: Option<usize>) {
    let Some(id) = id else { return };
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.spans[id].end_ns = rec.origin.elapsed().as_nanos();
            rec.open.pop();
        }
    });
}

/// Runs `f` inside a span named `name` (when recording) and returns its
/// result with the wall seconds it took, measured whether or not spans
/// are being recorded.
pub fn timed<R>(name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
    timed_item(name, None, f)
}

/// [`timed`] for a span that belongs to one work item.
pub fn timed_item<R>(name: &'static str, item: Option<u64>, f: impl FnOnce() -> R) -> (R, f64) {
    let id = open(name, item);
    let t = Instant::now();
    let out = f();
    let secs = t.elapsed().as_secs_f64();
    close(id);
    (out, secs)
}

/// Self time per span name, in seconds, largest first: each span's
/// duration minus the part of it its direct children cover. Spans are
/// recorded on one thread and nest properly, so the children of a span
/// are disjoint and their durations add up to the covered part.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut child_ns = vec![0u128; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: Vec<(&'static str, f64)> = Vec::new();
    for s in spans {
        let own = (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id]) as f64 * 1e-9;
        match by_name.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, total)) => *total += own,
            None => by_name.push((s.name, own)),
        }
    }
    by_name.sort_by(|a, b| b.1.total_cmp(&a.1));
    by_name
}

/// Mean wall cost of recording one span on this host, in seconds,
/// measured by recording `n` empty spans into a scratch recorder.
pub fn span_cost(n: usize) -> f64 {
    let saved = RECORDER.with(|r| r.borrow_mut().take());
    start();
    let t = Instant::now();
    for _ in 0..n {
        let _ = timed("trace.calibrate", || std::hint::black_box(0));
    }
    let secs = t.elapsed().as_secs_f64();
    RECORDER.with(|r| *r.borrow_mut() = saved);
    secs / n as f64
}
