//! The span recorder and the self-time report built from it.
//!
//! A span is one call the benchmark makes into a layer's public function
//! (or one benchmark-level operation that groups such calls): its name,
//! start and end, the span that caused it, and the request it belongs
//! to. Spans are kept in memory and written out when the run ends.
//!
//! The layer of a span is the part of its name before the first `.`:
//! `compiler`, `machine`, `fleet` and `serve` are the program's layers;
//! `bench` (operations the generator issues) and `client` (socket round
//! trips) are the benchmark's own.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Index of a recorded span, used as the parent of its children.
pub type SpanId = usize;

/// The layers that belong to the program under test (everything else is
/// benchmark overhead).
pub const PROGRAM_LAYERS: [&str; 4] = ["compiler", "machine", "fleet", "serve"];

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// A cheap, cloneable handle; the disabled recorder does nothing but run
/// the closures it is handed.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    pub fn on() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::with_capacity(1 << 16)),
            })),
        }
    }

    /// Nanoseconds since the recorder started (0 when disabled).
    pub fn now_ns(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.epoch.elapsed().as_nanos() as u64)
    }

    fn ns_of(&self, at: Instant) -> u64 {
        self.inner.as_ref().map_or(0, |i| {
            at.saturating_duration_since(i.epoch).as_nanos() as u64
        })
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// the calls it makes can record children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let Some(inner) = &self.inner else {
            return f(None);
        };
        let id = {
            let mut spans = inner.spans.lock().expect("span lock poisoned");
            spans.push(Span {
                name,
                start_ns: inner.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end = inner.epoch.elapsed().as_nanos() as u64;
        inner.spans.lock().expect("span lock poisoned")[id].end_ns = end;
        out
    }

    /// Records a span whose ends were timed elsewhere (a socket round
    /// trip that starts on a write and ends on a later read).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if let Some(inner) = &self.inner {
            let span = Span {
                name,
                start_ns: self.ns_of(start),
                end_ns: self.ns_of(end),
                parent,
                request,
            };
            inner.spans.lock().expect("span lock poisoned").push(span);
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.spans.lock().expect("span lock poisoned").clone()
        })
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.retain_mut(|(s, e)| {
        *s = (*s).max(lo);
        *e = (*e).min(hi);
        s < e
    });
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in intervals {
        match &mut cur {
            Some((_, ce)) if s <= *ce => *ce = (*ce).max(e),
            _ => {
                if let Some((cs, ce)) = cur {
                    total += ce - cs;
                }
                cur = Some((s, e));
            }
        }
    }
    if let Some((cs, ce)) = cur {
        total += ce - cs;
    }
    total
}

/// What a window of spans says about where the time went.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Per layer: summed self time (span duration minus the part of it
    /// its children cover), in ns.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Per layer: the share of the window's wall time its spans cover.
    pub wall_share: BTreeMap<&'static str, f64>,
    /// The share of the window the program's layers cover together.
    pub coverage: f64,
    /// Spans that started inside the window.
    pub spans: u64,
}

/// Self time and coverage for the spans that start in `[lo, hi)`.
pub fn breakdown(spans: &[Span], lo: u64, hi: u64) -> Breakdown {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut out = Breakdown::default();
    let mut by_layer: BTreeMap<&'static str, Vec<(u64, u64)>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.start_ns < lo || s.start_ns >= hi || s.end_ns < s.start_ns {
            continue;
        }
        out.spans += 1;
        let covered = union_len(std::mem::take(&mut children[i]), s.start_ns, s.end_ns);
        *out.self_ns.entry(s.layer()).or_default() += s.end_ns - s.start_ns - covered;
        by_layer
            .entry(s.layer())
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let wall = (hi - lo).max(1) as f64;
    let mut program = Vec::new();
    for (layer, intervals) in by_layer {
        if PROGRAM_LAYERS.contains(&layer) {
            program.extend(intervals.iter().copied());
        }
        out.wall_share
            .insert(layer, union_len(intervals, lo, hi) as f64 / wall);
    }
    out.coverage = union_len(program, lo, hi) as f64 / wall;
    out
}

/// Writes every span as one JSON array (names, times in ns since the
/// recorder started, parent index, request id).
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(w, "[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            w,
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}{sep}",
            s.name, s.start_ns, s.end_ns, s.request
        )?;
    }
    writeln!(w, "]")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(union_len(vec![(0, 10), (5, 15), (20, 30)], 0, 100), 25);
        assert_eq!(union_len(vec![(0, 10), (5, 15)], 8, 12), 4);
        assert_eq!(union_len(Vec::new(), 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            Span {
                name: "bench.op",
                start_ns: 0,
                end_ns: 100,
                parent: None,
                request: 0,
            },
            Span {
                name: "compiler.compile",
                start_ns: 10,
                end_ns: 60,
                parent: Some(0),
                request: 0,
            },
            Span {
                name: "machine.load",
                start_ns: 60,
                end_ns: 90,
                parent: Some(0),
                request: 0,
            },
        ];
        let b = breakdown(&spans, 0, 100);
        assert_eq!(b.self_ns["bench"], 20);
        assert_eq!(b.self_ns["compiler"], 50);
        assert_eq!(b.self_ns["machine"], 30);
        assert!((b.coverage - 0.8).abs() < 1e-9);
    }
}
