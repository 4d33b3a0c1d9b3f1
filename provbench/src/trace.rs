//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span records its name, start, end, parent span and request id. Spans
//! live in memory until the run ends; then [`Tracer::write_artifact`]
//! dumps them with each name's total and self time (duration minus the
//! part covered by child spans). A disabled tracer reads no clock and
//! records nothing, so the untraced run measures the bare calls.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    req: u64,
}

thread_local! {
    /// Open spans of the current thread (innermost last).
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

pub struct Tracer {
    enabled: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled: AtomicBool::new(enabled),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switch recording on or off between phases (used to interleave
    /// traced and untraced passes for `trace.overhead_frac`).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name` tagged with request id `req`.
    pub fn span<T>(&self, name: &str, req: u64, f: impl FnOnce() -> T) -> T {
        if !self.enabled() {
            return f();
        }
        let parent = STACK.with(|s| s.borrow().last().copied());
        let id = {
            let mut spans = self.spans.lock().expect("trace buffer poisoned");
            spans.push(Span {
                name: name.to_owned(),
                start_ns: 0,
                end_ns: 0,
                parent,
                req,
            });
            spans.len() - 1
        };
        STACK.with(|s| s.borrow_mut().push(id));
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        let mut spans = self.spans.lock().expect("trace buffer poisoned");
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// The innermost open span of the calling thread, to parent spans
    /// recorded on other threads.
    pub fn current(&self) -> Option<usize> {
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Record an already-measured interval under an explicit parent (for
    /// requests timed on client threads, where the call and its reply are
    /// separate events).
    pub fn record(
        &self,
        name: &str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled() {
            return;
        }
        let rel = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans
            .lock()
            .expect("trace buffer poisoned")
            .push(Span {
                name: name.to_owned(),
                start_ns: rel(start),
                end_ns: rel(end),
                parent,
                req,
            });
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("trace buffer poisoned");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// Share of root-span time covered by their direct children: how much
    /// of each timed end-to-end operation the layer spans account for.
    pub fn accounted_frac(&self) -> f64 {
        let spans = self.spans.lock().expect("trace buffer poisoned");
        let dur = |s: &Span| (s.end_ns - s.start_ns) as f64;
        let roots: f64 = spans.iter().filter(|s| s.parent.is_none()).map(dur).sum();
        let covered: f64 = spans
            .iter()
            .filter(|s| s.parent.is_some_and(|p| spans[p].parent.is_none()))
            .map(dur)
            .sum();
        if roots > 0.0 {
            covered / roots
        } else {
            0.0
        }
    }

    /// Write every span plus a per-name total/self-time summary as JSON.
    pub fn write_artifact(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("trace buffer poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut summary: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = summary.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child_ns[i]);
        }
        let mut out = String::from("{\"schema\":\"provbench_trace_v1\",\"summary\":{");
        for (i, (name, (n, total, own))) in summary.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{n},\"total_ms\":{:.6},\"self_ms\":{:.6}}}",
                *total as f64 * 1e-6,
                *own as f64 * 1e-6
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
