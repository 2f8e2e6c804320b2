//! What a run reports, and the small statistics it is computed with.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::trace::{self, Span};

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (measured with tracing off).
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics (measured in the traced run).
    pub layer: BTreeMap<String, f64>,
    /// Operations attempted in the measured window(s).
    pub attempted: u64,
    /// Operations whose output did not match its reference, or that
    /// failed outright.
    pub failed: u64,
    /// Counts that must repeat exactly, with whether they depend on the
    /// seed.
    pub exact: BTreeMap<String, (u64, bool)>,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
    /// Spans of the traced window, written out when the run ends.
    pub spans: Vec<Span>,
}

impl Report {
    /// Counts one operation; a failed one is counted and described.
    pub fn op(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.fail(describe());
        }
    }

    /// Records a failure that is not tied to a counted operation (a
    /// reference check after the window, a determinism drift).
    pub fn fail(&mut self, what: String) {
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: impl Into<String>, value: f64) {
        self.layer.insert(name.into(), value);
    }

    /// A count that must repeat exactly across runs; `seeded` marks one
    /// whose value depends on the seed.
    pub fn exact(&mut self, name: impl Into<String>, value: u64, seeded: bool) {
        let name = name.into();
        if let Some((old, _)) = self.exact.get(&name) {
            if *old != value {
                self.fail(format!(
                    "exact count `{name}` changed within the run: {old} then {value}"
                ));
            }
        }
        self.exact.insert(name, (value, seeded));
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The per-layer trace summary of a traced window `[lo, hi)`: self
    /// time and wall share per layer, coverage, span count.
    pub fn trace_summary(&mut self, spans: Vec<Span>, lo: u64, hi: u64) {
        let b = trace::breakdown(&spans, lo, hi);
        for layer in trace::PROGRAM_LAYERS.iter().chain(&["bench", "client"]) {
            let self_ns = b.self_ns.get(layer).copied().unwrap_or(0);
            self.layer(format!("trace.{layer}.self_ms"), self_ns as f64 / 1e6);
            let share = b.wall_share.get(layer).copied().unwrap_or(0.0);
            self.layer(format!("trace.{layer}.wall_share"), share);
        }
        self.layer("trace.coverage", b.coverage);
        self.layer("trace.spans", b.spans as f64);
        self.note(format!(
            "trace: program layers cover {:.1}% of the traced window ({} spans)",
            b.coverage * 100.0,
            b.spans
        ));
        self.spans = spans;
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Median (mean of the middle two for an even count); 0 for no samples.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` in (0, 100]; 0 for no samples.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// How many times each run sets up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// Runs `setup` [`SETUPS`] times and keeps the last state (references
/// are computed afterwards, outside the timed set-up). Returns the
/// state, every set-up's state-independent record, and the median set-up
/// seconds.
pub fn repeated_setup<S, R>(mut setup: impl FnMut() -> (S, R)) -> (S, Vec<R>, f64) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut records = Vec::with_capacity(SETUPS);
    let mut state = None;
    for _ in 0..SETUPS {
        // Drop the previous state first, so set-ups do not overlap.
        drop(state.take());
        let t = Instant::now();
        let (s, r) = setup();
        secs.push(t.elapsed().as_secs_f64());
        state = Some(s);
        records.push(r);
    }
    (state.expect("at least one set-up"), records, median(&secs))
}

/// Fisher-Yates shuffle driven by the benchmark's seeded generator.
pub fn shuffle<T>(items: &mut [T], rng: &mut manticore::util::SmallRng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// Peak resident set (`VmHWM`) of process `pid` (`self` for this one), in
/// MiB.
pub fn peak_rss_mb(pid: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
