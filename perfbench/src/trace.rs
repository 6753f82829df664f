//! The traced run's span recorder.
//!
//! Spans are recorded by the benchmark's own code around the calls it
//! makes into a layer's public functions — the app handler (through the
//! [`TracedApp`] adapter), the isolation layer's delivery entry points, the
//! client's requests, and the per-layer probes. Each span holds a name,
//! start, end, parent and request id; spans stay in memory and are written
//! out when the run ends, together with a table of self time per layer.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sdnshield_controller::api::FlowOp;
use sdnshield_controller::app::{App, AppCtx};
use sdnshield_controller::events::Event;
use sdnshield_core::token::PermissionToken;

use crate::report::{json_str, RESULTS_DIR};

/// Spans kept in memory per span name; later ones are counted, not stored.
const SPANS_PER_NAME: usize = 50_000;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub id: u64,
    /// Id of the span that caused this one (0 for a root).
    pub parent: u64,
    /// Request id shared by the spans of one request.
    pub req: u64,
    /// Work items the span covered (burst length, probe iterations).
    pub n: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span sink shared by every recording thread.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<(Vec<Span>, HashMap<&'static str, usize>)>,
    dropped: AtomicU64,
    /// The innermost open span that nested work should name as its parent
    /// (the in-process loads keep one request outstanding, so one slot
    /// suffices).
    pub current: AtomicU64,
}

impl Tracer {
    pub fn new(on: bool) -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            on: AtomicBool::new(on),
            next_id: AtomicU64::new(1),
            spans: Mutex::new((Vec::new(), HashMap::new())),
            dropped: AtomicU64::new(0),
            current: AtomicU64::new(0),
        })
    }

    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn now(&self) -> u64 {
        self.ns(Instant::now())
    }

    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        self.record_all(std::iter::once(span));
    }

    pub fn record_all(&self, spans: impl IntoIterator<Item = Span>) {
        let mut guard = self.spans.lock().expect("span store poisoned");
        let (store, per_name) = &mut *guard;
        for s in spans {
            let count = per_name.entry(s.name).or_insert(0);
            if *count < SPANS_PER_NAME {
                *count += 1;
                store.push(s);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// A copy of every stored span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").0.clone()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Per-span self time: duration minus the part of it that direct children
/// cover (children clipped to the parent's interval, overlaps merged).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// The layer a span belongs to: its name without the last component
/// (`apps.l2.handler` → `apps.l2`).
fn layer_of(name: &str) -> &str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Self time per layer: (layer, spans, total ms, self ms), by layer name.
pub fn layer_table(spans: &[Span]) -> Vec<(String, u64, f64, f64)> {
    let selfs = self_times(spans);
    let mut rows: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let row = rows.entry(layer_of(s.name)).or_default();
        row.0 += 1;
        row.1 += s.dur_ns();
        row.2 += self_ns;
    }
    rows.into_iter()
        .map(|(l, (n, total, own))| (l.to_owned(), n, total as f64 / 1e6, own as f64 / 1e6))
        .collect()
}

/// Prints the self-time table to stderr and writes the span dump plus the
/// table to `perfbench/results/<workload>-seed<seed>.trace.json`.
pub fn write_dump(tracer: &Tracer, workload: &str, seed: u64, overhead_pct: f64) {
    let spans = tracer.spans();
    let table = layer_table(&spans);
    eprintln!("self time per layer ({workload}, seed {seed}):");
    eprintln!(
        "  {:<34} {:>9} {:>12} {:>12}",
        "layer", "spans", "total_ms", "self_ms"
    );
    for (layer, n, total, own) in &table {
        eprintln!("  {layer:<34} {n:>9} {total:>12.3} {own:>12.3}");
    }
    eprintln!("  trace.overhead_pct = {overhead_pct:.3}");
    let mut s = String::with_capacity(spans.len() * 96 + 4096);
    let _ = writeln!(
        s,
        "{{\n  \"workload\": {},\n  \"seed\": {seed},\n  \"overhead_pct\": {overhead_pct},\n  \"spans_dropped\": {},",
        json_str(workload),
        tracer.dropped()
    );
    s.push_str("  \"layers\": [\n");
    for (i, (layer, n, total, own)) in table.iter().enumerate() {
        let _ = writeln!(
            s,
            "    {{\"layer\": {}, \"spans\": {n}, \"total_ms\": {total}, \"self_ms\": {own}}}{}",
            json_str(layer),
            if i + 1 < table.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"spans\": [\n");
    for (i, sp) in spans.iter().enumerate() {
        let _ = writeln!(
            s,
            "    [{}, {}, {}, {}, {}, {}, {}]{}",
            json_str(sp.name),
            sp.start,
            sp.end,
            sp.id,
            sp.parent,
            sp.req,
            sp.n,
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    s.push_str("  ],\n  \"span_fields\": [\"name\", \"start_ns\", \"end_ns\", \"id\", \"parent\", \"req\", \"n\"]\n}\n");
    let path = format!("{RESULTS_DIR}/{workload}-seed{seed}.trace.json");
    if let Err(e) = std::fs::create_dir_all(RESULTS_DIR).and_then(|()| std::fs::write(&path, s)) {
        eprintln!("perfbench: could not write {path}: {e}");
    }
}

/// A bench-owned [`App`] adapter that delegates to the real app and, while
/// the tracer is on, records a span around each handler invocation (named
/// `span`, burst length in `n`) plus a child span around the batch
/// submission the app runtime would otherwise make for it.
pub struct TracedApp {
    inner: Box<dyn App>,
    tracer: Arc<Tracer>,
    span: &'static str,
}

impl TracedApp {
    pub fn new(inner: Box<dyn App>, tracer: Arc<Tracer>, span: &'static str) -> Self {
        TracedApp {
            inner,
            tracer,
            span,
        }
    }
}

impl App for TracedApp {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn required_tokens(&self) -> Vec<PermissionToken> {
        self.inner.required_tokens()
    }

    fn on_start(&mut self, ctx: &AppCtx) {
        self.inner.on_start(ctx);
    }

    fn on_event(&mut self, ctx: &AppCtx, event: &Event) {
        self.inner.on_event(ctx, event);
    }

    fn on_events(&mut self, ctx: &AppCtx, events: &[&Event]) -> Vec<FlowOp> {
        let t = &self.tracer;
        if !t.on() {
            return self.inner.on_events(ctx, events);
        }
        let id = t.id();
        let parent = t.current.swap(id, Ordering::AcqRel);
        let req = if parent != 0 { parent } else { id };
        let start = t.now();
        let ops = self.inner.on_events(ctx, events);
        // The runtime submits returned ops right after the handler; doing
        // it here (same call, same order) puts the crossing inside a span.
        if !ops.is_empty() {
            let s = t.now();
            let n = ops.len() as u32;
            let _ = ctx.submit_batch(ops);
            let e = t.now();
            t.record(Span {
                name: "controller.isolation.submit_batch",
                start: s,
                end: e,
                id: t.id(),
                parent: id,
                req,
                n,
            });
        }
        let end = t.now();
        t.current.store(parent, Ordering::Release);
        t.record(Span {
            name: self.span,
            start,
            end,
            id,
            parent,
            req,
            n: events.len() as u32,
        });
        Vec::new()
    }
}
