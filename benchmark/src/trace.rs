//! In-memory spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from this package's own files, around the public
//! functions of the crates under test; nothing inside the program is
//! instrumented. They stay in memory until the workload ends and are
//! then written as Chrome-trace JSON (`chrome://tracing`, Perfetto).
//! With tracing off — the end-to-end run — [`span`] is one relaxed
//! atomic load.

use crate::json::Value;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that was open on the same thread when this one began.
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Small per-thread number (Chrome-trace `tid`).
    pub tid: u32,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

// A statistic-style flag: it publishes no other data (spans go through
// the mutex), so relaxed ordering is enough.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_TID: AtomicU32 = AtomicU32::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn now_us() -> f64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_secs_f64() * 1e6
}

/// Turns span recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(true, Ordering::Relaxed);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// An open span; recorded when dropped.
pub struct Guard(Option<(u32, Option<u32>, &'static str, f64)>);

/// Opens a span named `name` (a no-op guard when tracing is off).
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    Guard(Some((id, parent, name, now_us())))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, parent, name, start_us)) = self.0.take() else {
            return;
        };
        let end_us = now_us();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&id) {
                open.pop();
            }
        });
        let span = Span {
            id,
            parent,
            name,
            tid: TID.with(|t| *t),
            start_us,
            end_us,
        };
        // Drop must not panic: a poisoned buffer loses this span only.
        if let Ok(mut spans) = SPANS.lock() {
            spans.push(span);
        }
    }
}

/// Runs `f` inside a span.
pub fn in_span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = span(name);
    f()
}

/// Takes every span recorded so far, ordered by start time.
pub fn drain() -> Vec<Span> {
    let mut spans = std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"));
    spans.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
    spans
}

/// Self time of every span, in the order given: its duration minus the
/// part of its interval that its direct children cover (overlapping
/// children are counted once).
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: BTreeMap<u32, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_us, s.end_us));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut reach = s.start_us;
                for &(a, b) in kids.iter() {
                    let a = a.max(reach);
                    let b = b.min(s.end_us);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
            }
            s.dur_us() - covered
        })
        .collect()
}

/// Per-name totals of a span set.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times_us(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_us) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_us += s.dur_us();
        t.self_us += self_us;
    }
    out
}

/// Writes `spans` as a Chrome-trace file. `run_id` is shared by every
/// span of one workload run.
pub fn write_chrome_trace(path: &Path, run_id: &str, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times_us(spans);
    let events: Vec<Value> = spans
        .iter()
        .zip(selfs)
        .map(|(s, self_us)| {
            Value::obj()
                .with("name", s.name)
                .with("cat", "perf")
                .with("ph", "X")
                .with("ts", s.start_us)
                .with("dur", s.dur_us())
                .with("pid", 1usize)
                .with("tid", s.tid as usize)
                .with(
                    "args",
                    Value::obj()
                        .with("run", run_id)
                        .with("id", s.id as usize)
                        .with("parent", s.parent.map(|p| p as usize))
                        .with("self_us", self_us),
                )
        })
        .collect();
    let doc = Value::obj()
        .with("displayTimeUnit", "ms")
        .with("otherData", Value::obj().with("run", run_id))
        .with("traceEvents", events);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.compact())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, name: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name,
            tid: 1,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_once() {
        let spans = [
            sp(1, None, "root", 0.0, 100.0),
            sp(2, Some(1), "a", 10.0, 40.0),
            sp(3, Some(1), "b", 50.0, 70.0),
            sp(4, Some(2), "leaf", 15.0, 25.0),
        ];
        // root: 100 − (30 + 20); a: 30 − 10; grandchildren do not count
        // against the root twice.
        assert_eq!(self_times_us(&spans), vec![50.0, 20.0, 20.0, 10.0]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = [
            sp(1, None, "root", 0.0, 100.0),
            // Two children on other threads overlapping each other…
            sp(2, Some(1), "x", 10.0, 60.0),
            sp(3, Some(1), "y", 40.0, 80.0),
            // …and one that outlives its parent.
            sp(4, Some(1), "z", 90.0, 130.0),
        ];
        // Covered: [10,80] ∪ [90,100] = 80.
        assert_eq!(self_times_us(&spans)[0], 20.0);
    }

    #[test]
    fn totals_group_by_name() {
        let spans = [
            sp(1, None, "step", 0.0, 10.0),
            sp(2, None, "step", 10.0, 30.0),
            sp(3, Some(2), "inner", 12.0, 20.0),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(
            t["step"],
            NameTotals {
                count: 2,
                total_us: 30.0,
                self_us: 22.0
            }
        );
        assert_eq!(t["inner"].self_us, 8.0);
    }

    #[test]
    fn guards_nest_and_record_parents() {
        enable();
        {
            let _outer = span("test.outer");
            in_span("test.inner", || std::hint::black_box(1 + 1));
        }
        // Other tests may record spans concurrently: look only at ours.
        let spans: Vec<Span> = drain()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        let outer = spans.iter().find(|s| s.name == "test.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "test.inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert!(outer.start_us <= inner.start_us && inner.end_us <= outer.end_us);
    }
}
