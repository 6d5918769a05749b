//! Benchmark-side spans around the calls into each layer.
//!
//! Each thread owns a [`Tracer`]; spans stay in memory and are merged and
//! written out once, when the run ends. A disabled tracer runs the
//! wrapped call and records nothing, so one code path serves the timed
//! and the traced runs.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use voltron_core::report::Json;

/// One recorded call: layer name, the request it served, its parent span
/// (the span open on the same thread when it started), and its interval
/// in nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub thread: usize,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for the calling thread; each gets its own track id.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        static TRACKS: AtomicUsize = AtomicUsize::new(0);
        Tracer {
            enabled,
            epoch,
            thread: TRACKS.fetch_add(1, Ordering::Relaxed),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` on behalf of request `req`.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            req,
            thread: self.thread,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-layer totals over a set of spans: call count and self time
/// (duration minus the time covered by child spans), in seconds.
pub fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64)> {
    // A parent index is an offset into its own tracer's spans, so
    // resolve parents per track.
    let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    let mut by_thread: BTreeMap<usize, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_thread.entry(s.thread).or_default().push(s);
    }
    for list in by_thread.values() {
        let mut child_ns = vec![0u64; list.len()];
        for s in list {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, child) in list.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(child) as f64 * 1e-9;
        }
    }
    out
}

/// Write spans as a Chrome trace-event document next to the benchmark
/// executable (inside the build directory).
pub fn write_spans(file_stem: &str, spans: &[Span]) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(std::path::Path::to_path_buf))
    else {
        return;
    };
    let events = spans
        .iter()
        .map(|s| {
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("ph".into(), Json::Str("X".into())),
                ("pid".into(), Json::UInt(1)),
                ("tid".into(), Json::UInt(s.thread as u64)),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("req".into(), Json::UInt(s.req)),
                        (
                            "parent".into(),
                            s.parent
                                .map_or(Json::Str(String::new()), |p| Json::UInt(p as u64)),
                        ),
                    ]),
                ),
            ])
        })
        .collect();
    let doc = Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]);
    let path = dir.join(format!("perfbench-spans-{file_stem}.json"));
    if let Err(e) = std::fs::write(&path, doc.render()) {
        eprintln!("[perfbench] cannot write {}: {e}", path.display());
    }
}
