//! # moss-obs
//!
//! Dependency-free observability for the MOSS pipeline: scoped span timers
//! (with nesting), monotonic counters, and lightweight log2 histograms,
//! behind a near-zero-cost disabled path.
//!
//! Observability is off by default. It is enabled by the environment:
//!
//! - `MOSS_OBS=1` — collect, and print a run report (human summary to
//!   stderr plus the JSON document) when the [`ObsSession`] ends;
//! - `MOSS_OBS_JSON=path` — collect, and write the JSON run-report to
//!   `path` when the session ends.
//!
//! When disabled, [`span`] returns an inert guard and [`counter`] is a
//! single relaxed atomic load — no allocation, no locking, no clock read —
//! so instrumentation can stay in hot paths permanently.
//!
//! Spans nest: a span recorded while another span on the same thread is
//! open is reported under a slash-joined path (`pretrain/pretrain_epoch`).
//! Guards must be dropped in LIFO order (the natural scoping order). Work
//! handed to another thread keeps its path when the handing thread
//! captures it ([`current_path`]) and the running thread enters it
//! ([`SpanPath::enter`]); otherwise spans on a worker thread start a
//! fresh path there.
//!
//! ## Example
//!
//! ```
//! let _session = moss_obs::session();
//! {
//!     let mut span = moss_obs::span("stage");
//!     // ... do work ...
//!     span.add_items(128); // 128 work units -> items/sec in the report
//! }
//! moss_obs::counter("cells", 42);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Number of log2 duration buckets (bucket `b` covers `[2^b, 2^(b+1))` ns;
/// 40 buckets reach ~18 minutes).
const HIST_BUCKETS: usize = 40;

#[derive(Clone)]
struct SpanStat {
    calls: u64,
    total_ns: u128,
    items: u64,
    hist: [u64; HIST_BUCKETS],
}

impl Default for SpanStat {
    fn default() -> Self {
        SpanStat {
            calls: 0,
            total_ns: 0,
            items: 0,
            hist: [0; HIST_BUCKETS],
        }
    }
}

struct Collector {
    spans: Mutex<HashMap<String, SpanStat>>,
    counters: Mutex<HashMap<&'static str, u64>>,
    gauges: Mutex<HashMap<&'static str, u64>>,
    start: Mutex<Instant>,
}

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);
const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static COLLECTOR: OnceLock<Collector> = OnceLock::new();

thread_local! {
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(|| Collector {
        spans: Mutex::new(HashMap::new()),
        counters: Mutex::new(HashMap::new()),
        gauges: Mutex::new(HashMap::new()),
        start: Mutex::new(Instant::now()),
    })
}

/// Whether collection is enabled. The first call reads the environment
/// (`MOSS_OBS`, `MOSS_OBS_JSON`); every later call is one relaxed atomic
/// load.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => {
            let on = std::env::var_os("MOSS_OBS_JSON").is_some()
                || std::env::var("MOSS_OBS").is_ok_and(|v| v == "1");
            STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
            on
        }
    }
}

/// Overrides the environment-derived enabled state (tests, embedding).
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    if on {
        // Make sure the wall clock starts now, not at first span.
        *collector().start.lock().unwrap() = Instant::now();
    }
}

/// Clears all collected spans and counters and restarts the wall clock.
pub fn reset() {
    let c = collector();
    c.spans.lock().unwrap().clear();
    c.counters.lock().unwrap().clear();
    c.gauges.lock().unwrap().clear();
    *c.start.lock().unwrap() = Instant::now();
}

/// An RAII timer for one span. Created by [`span`] / [`span_items`]; the
/// elapsed time is recorded when the guard drops.
#[derive(Debug)]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

#[derive(Debug)]
struct ActiveSpan {
    start: Instant,
    items: u64,
}

/// Starts a scoped span named `name` (a leaf name; nesting builds the
/// reported path). Returns an inert guard when collection is disabled.
pub fn span(name: &'static str) -> SpanGuard {
    span_items(name, 0)
}

/// Starts a scoped span that already knows it will process `items` work
/// units (for items/sec in the report).
pub fn span_items(name: &'static str, items: u64) -> SpanGuard {
    if !enabled() {
        return SpanGuard { active: None };
    }
    STACK.with(|s| s.borrow_mut().push(name));
    SpanGuard {
        active: Some(ActiveSpan {
            start: Instant::now(),
            items,
        }),
    }
}

impl SpanGuard {
    /// Adds `n` processed work units to this span (no-op when disabled).
    pub fn add_items(&mut self, n: u64) {
        if let Some(a) = &mut self.active {
            a.items += n;
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(a) = self.active.take() else { return };
        let elapsed_ns = a.start.elapsed().as_nanos();
        let path = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        let mut spans = collector().spans.lock().unwrap();
        let stat = spans.entry(path).or_default();
        stat.calls += 1;
        stat.total_ns += elapsed_ns;
        stat.items += a.items;
        let bucket = (128 - elapsed_ns.max(1).leading_zeros() - 1) as usize;
        stat.hist[bucket.min(HIST_BUCKETS - 1)] += 1;
    }
}

/// A captured span path: the names of the spans a thread had open,
/// outermost first. Empty when captured with collection disabled.
#[derive(Debug, Default)]
pub struct SpanPath(Vec<&'static str>);

/// Captures the calling thread's open span path, so work handed to another
/// thread can record its spans under it. With collection disabled this is
/// one relaxed load and no allocation.
pub fn current_path() -> SpanPath {
    if !enabled() {
        return SpanPath::default();
    }
    SpanPath(STACK.with(|s| s.borrow().clone()))
}

impl SpanPath {
    /// Makes this the calling thread's span path until the returned guard
    /// drops, which restores the thread's own path. Inert when collection
    /// is disabled.
    pub fn enter(&self) -> PathGuard {
        if !enabled() {
            return PathGuard { saved: None };
        }
        let saved = STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), self.0.clone()));
        PathGuard { saved: Some(saved) }
    }
}

/// Restores a thread's own span path when dropped; see [`SpanPath::enter`].
#[derive(Debug)]
pub struct PathGuard {
    saved: Option<Vec<&'static str>>,
}

impl Drop for PathGuard {
    fn drop(&mut self) {
        if let Some(saved) = self.saved.take() {
            STACK.with(|s| *s.borrow_mut() = saved);
        }
    }
}

/// Adds `delta` to the monotonic counter `name` (no-op when disabled).
pub fn counter(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    *collector()
        .counters
        .lock()
        .unwrap()
        .entry(name)
        .or_insert(0) += delta;
}

/// Records `value` into the max-keeping gauge `name` — the report shows
/// the high-water mark across the run (no-op when disabled). Used for
/// instantaneous quantities like the serve cache's size, where a
/// monotonic counter would be meaningless.
pub fn gauge_max(name: &'static str, value: u64) {
    if !enabled() {
        return;
    }
    let mut gauges = collector().gauges.lock().unwrap();
    let slot = gauges.entry(name).or_insert(0);
    *slot = (*slot).max(value);
}

/// Serializes everything collected so far as a JSON run-report
/// (hand-rolled, matching the `moss-benchkit` report style).
pub fn report_json() -> String {
    let c = collector();
    let wall_ms = c.start.lock().unwrap().elapsed().as_secs_f64() * 1e3;
    let spans = c.spans.lock().unwrap();
    let mut names: Vec<&String> = spans.keys().collect();
    names.sort();
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\n  \"report\": \"moss-obs\",\n  \"wall_ms\": {wall_ms:.1},\n  \"spans\": ["
    );
    for (i, name) in names.iter().enumerate() {
        let s = &spans[*name];
        if i > 0 {
            out.push(',');
        }
        let total_ms = s.total_ns as f64 / 1e6;
        let mean_us = s.total_ns as f64 / 1e3 / s.calls.max(1) as f64;
        let _ = write!(
            out,
            "\n    {{\"name\": {name:?}, \"calls\": {}, \"total_ms\": {total_ms:.3}, \"mean_us\": {mean_us:.3}",
            s.calls
        );
        if s.items > 0 {
            let rate = s.items as f64 * 1e9 / (s.total_ns as f64).max(1.0);
            let _ = write!(
                out,
                ", \"items\": {}, \"items_per_sec\": {rate:.1}",
                s.items
            );
        }
        out.push_str(", \"hist_log2_ns\": [");
        let mut first = true;
        for (b, &count) in s.hist.iter().enumerate() {
            if count > 0 {
                if !first {
                    out.push_str(", ");
                }
                let _ = write!(out, "[{b}, {count}]");
                first = false;
            }
        }
        out.push_str("]}");
    }
    out.push_str("\n  ],\n  \"counters\": [");
    let counters = c.counters.lock().unwrap();
    let mut cnames: Vec<&&'static str> = counters.keys().collect();
    cnames.sort();
    for (i, name) in cnames.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": {name:?}, \"value\": {}}}",
            counters[*name]
        );
    }
    out.push_str("\n  ],\n  \"gauges\": [");
    let gauges = c.gauges.lock().unwrap();
    let mut gnames: Vec<&&'static str> = gauges.keys().collect();
    gnames.sort();
    for (i, name) in gnames.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"name\": {name:?}, \"max\": {}}}",
            gauges[*name]
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

/// A run-report session: when dropped (end of a run) and collection is
/// enabled, emits the report — to the `MOSS_OBS_JSON` path if set,
/// otherwise (plain `MOSS_OBS=1`) as JSON on stderr — plus a human
/// summary on stderr.
#[derive(Debug)]
pub struct ObsSession {
    _private: (),
}

/// Starts a run-report session (call once at the top of `main`). Reads the
/// environment to decide whether collection is on.
pub fn session() -> ObsSession {
    if enabled() {
        reset();
    }
    ObsSession { _private: () }
}

impl Drop for ObsSession {
    fn drop(&mut self) {
        if !enabled() {
            return;
        }
        eprint!("{}", human_summary());
        let json = report_json();
        match std::env::var_os("MOSS_OBS_JSON") {
            Some(path) => match std::fs::write(&path, &json) {
                Ok(()) => eprintln!("moss-obs: wrote {}", path.to_string_lossy()),
                Err(e) => eprintln!("moss-obs: failed to write report: {e}"),
            },
            None => eprint!("{json}"),
        }
    }
}

/// A human-readable span/counter table (what `MOSS_OBS=1` prints).
pub fn human_summary() -> String {
    let c = collector();
    let wall_ms = c.start.lock().unwrap().elapsed().as_secs_f64() * 1e3;
    let spans = c.spans.lock().unwrap();
    let mut rows: Vec<(&String, &SpanStat)> = spans.iter().collect();
    rows.sort_by(|a, b| b.1.total_ns.cmp(&a.1.total_ns).then(a.0.cmp(b.0)));
    let mut out = String::new();
    let _ = writeln!(out, "moss-obs run report ({wall_ms:.0} ms wall)");
    let _ = writeln!(
        out,
        "{:<44} {:>8} {:>12} {:>12} {:>14}",
        "span", "calls", "total ms", "mean us", "items/s"
    );
    for (name, s) in rows {
        let rate = if s.items > 0 {
            format!(
                "{:.3e}",
                s.items as f64 * 1e9 / (s.total_ns as f64).max(1.0)
            )
        } else {
            "-".to_string()
        };
        let _ = writeln!(
            out,
            "{:<44} {:>8} {:>12.1} {:>12.1} {:>14}",
            name,
            s.calls,
            s.total_ns as f64 / 1e6,
            s.total_ns as f64 / 1e3 / s.calls.max(1) as f64,
            rate
        );
    }
    let counters = c.counters.lock().unwrap();
    let mut cnames: Vec<&&'static str> = counters.keys().collect();
    cnames.sort();
    for name in cnames {
        let _ = writeln!(out, "counter {:<36} {:>16}", name, counters[name]);
    }
    let gauges = c.gauges.lock().unwrap();
    let mut gnames: Vec<&&'static str> = gauges.keys().collect();
    gnames.sort();
    for name in gnames {
        let _ = writeln!(out, "gauge   {:<36} {:>12} max", name, gauges[name]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // Unit tests share the process-global collector (and the enabled
    // flag), so they serialize on a lock and use distinct span/counter
    // names, asserting only on their own entries.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_spans_are_inert() {
        let _l = locked();
        set_enabled(false);
        let mut g = span_items("unit_disabled", 10);
        g.add_items(5);
        drop(g);
        counter("unit_disabled_counter", 3);
        set_enabled(true);
        let json = report_json();
        assert!(!json.contains("unit_disabled"));
    }

    #[test]
    fn nested_spans_report_slash_paths() {
        let _l = locked();
        set_enabled(true);
        {
            let _outer = span("unit_outer");
            let _inner = span("unit_inner");
        }
        let json = report_json();
        assert!(json.contains("\"unit_outer/unit_inner\""), "{json}");
        assert!(json.contains("\"unit_outer\""));
    }

    #[test]
    fn items_produce_throughput() {
        let _l = locked();
        set_enabled(true);
        {
            let mut g = span_items("unit_items", 64);
            g.add_items(36);
            std::hint::black_box(0);
        }
        let json = report_json();
        let entry = json
            .lines()
            .find(|l| l.contains("\"unit_items\""))
            .expect("span recorded");
        assert!(entry.contains("\"items\": 100"), "{entry}");
        assert!(entry.contains("items_per_sec"));
    }

    #[test]
    fn counters_accumulate() {
        let _l = locked();
        set_enabled(true);
        counter("unit_counter", 2);
        counter("unit_counter", 3);
        let json = report_json();
        assert!(
            json.contains("{\"name\": \"unit_counter\", \"value\": 5}"),
            "{json}"
        );
    }

    #[test]
    fn gauges_keep_the_maximum() {
        let _l = locked();
        set_enabled(true);
        gauge_max("unit_gauge", 4);
        gauge_max("unit_gauge", 9);
        gauge_max("unit_gauge", 2);
        let json = report_json();
        assert!(
            json.contains("{\"name\": \"unit_gauge\", \"max\": 9}"),
            "{json}"
        );
        assert!(human_summary().contains("unit_gauge"));
        set_enabled(false);
        gauge_max("unit_gauge_disabled", 1);
        set_enabled(true);
        assert!(!report_json().contains("unit_gauge_disabled"));
    }

    #[test]
    fn entered_path_nests_spans_of_another_thread() {
        let _l = locked();
        set_enabled(true);
        let path = {
            let _outer = span("unit_handoff");
            current_path()
        };
        std::thread::spawn(move || {
            let _own = span("unit_worker_own");
            {
                let _entered = path.enter();
                let _g = span("unit_handed");
            }
            let _after = span("unit_after");
        })
        .join()
        .unwrap();
        let json = report_json();
        assert!(json.contains("\"unit_handoff/unit_handed\""), "{json}");
        assert!(json.contains("\"unit_worker_own/unit_after\""), "{json}");
        assert!(!json.contains("\"unit_handed\""), "{json}");
    }

    #[test]
    fn json_is_balanced() {
        let _l = locked();
        set_enabled(true);
        {
            let _g = span("unit_json");
        }
        let json = report_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
