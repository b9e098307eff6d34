//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; the program itself carries no spans. A span
//! has a name, a start, an end and a parent; the spans of one node-day
//! share a node id. Everything stays in memory until [`Spans::write_jsonl`]
//! writes it out at the end, and self time is derived from the parent
//! links afterwards.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.execute`.
    pub name: &'static str,
    /// Unique within one [`Tracer`].
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// Node-day identity shared by every span of one node-day.
    pub node: Option<u64>,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Thread-safe span sink shared by the campaign's worker threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one node-day: a root span `name` over `[start, end]` and its
    /// children, all tagged with `node`.
    pub fn node_day(
        &self,
        node: u64,
        name: &'static str,
        start: u64,
        end: u64,
        children: &[(&'static str, u64, u64)],
    ) {
        let mut spans = self.spans.lock().expect("a tracer user panicked");
        let root = spans.len() as u64;
        spans.push(Span {
            name,
            id: root,
            parent: None,
            node: Some(node),
            start_ns: start,
            end_ns: end,
        });
        for &(child, s, e) in children {
            let id = spans.len() as u64;
            spans.push(Span {
                name: child,
                id,
                parent: Some(root),
                node: Some(node),
                start_ns: s,
                end_ns: e,
            });
        }
    }

    /// Times `f` as a top-level span `name`.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        let mut spans = self.spans.lock().expect("a tracer user panicked");
        let id = spans.len() as u64;
        spans.push(Span {
            name,
            id,
            parent: None,
            node: None,
            start_ns: start,
            end_ns: end,
        });
        out
    }

    /// Everything recorded so far.
    pub fn finish(self) -> Spans {
        Spans(self.spans.into_inner().expect("a tracer user panicked"))
    }
}

/// A finished trace, queried by span name.
#[derive(Debug, Clone, Default)]
pub struct Spans(pub Vec<Span>);

impl Spans {
    /// Durations (ns) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Number of spans called `name`.
    #[cfg(test)]
    pub fn count(&self, name: &str) -> usize {
        self.0.iter().filter(|s| s.name == name).count()
    }

    /// Total duration (ns) of spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.durations(name).iter().sum()
    }

    /// Total self time (ns) of spans called `name`: each span's duration
    /// minus the part its children cover. Children of one span never
    /// overlap (a node-day runs on one thread), so the covered part is the
    /// sum of their durations.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut covered: HashMap<u64, u64> = HashMap::new();
        for s in &self.0 {
            if let Some(p) = s.parent {
                *covered.entry(p).or_default() += s.dur_ns();
            }
        }
        self.0
            .iter()
            .filter(|s| s.name == name)
            .map(|s| {
                s.dur_ns()
                    .saturating_sub(covered.get(&s.id).copied().unwrap_or(0))
            })
            .sum()
    }

    /// Writes one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.0 {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"node\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent),
                opt(s.node),
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Nearest-rank quantile of `values` (any order); 0 when empty.
pub fn quantile(values: &[u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (any order); 0 when empty.
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new();
        t.node_day(7, "node_day", 0, 100, &[("a", 10, 30), ("b", 40, 90)]);
        t.node_day(8, "node_day", 100, 150, &[("a", 100, 150)]);
        let spans = t.finish();
        assert_eq!(spans.self_ns("node_day"), 30);
        assert_eq!(spans.total_ns("a"), 70);
        assert_eq!(spans.count("node_day"), 2);
        assert!(spans.0.iter().filter(|s| s.node == Some(7)).count() == 3);
    }

    #[test]
    fn quantiles_are_nearest_rank() {
        let v = [5, 1, 4, 2, 3];
        assert_eq!(quantile(&v, 0.5), 3);
        assert_eq!(quantile(&v, 0.9), 5);
        assert_eq!(quantile(&v, 1.0), 5);
        assert_eq!(quantile(&[], 0.5), 0);
        assert!((median_f64(&[3.0, 1.0, 2.0, 10.0]) - 2.5).abs() < 1e-12);
    }
}
