//! In-memory spans recorded from the benchmark's own code around each
//! call into a layer, written out once when the benchmark ends.
//!
//! A span's layer is its name up to the last `.` (`core.router` for
//! `core.router.table_build`). Self time is a span's duration minus the
//! part its direct children cover; spans on one thread nest, so the
//! children never overlap.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span name's layer: the name up to its last `.`.
fn layer_of(name: &'static str) -> &'static str {
    name.rsplit_once('.').map_or(name, |(layer, _)| layer)
}

/// Span recorder. A disabled tracer records nothing and costs one
/// branch per span.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Record an interval timed elsewhere (a callback the program made
    /// into benchmark code) as a child of the innermost open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let ns = |at: Instant| at.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: self.open.last().copied(),
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Index of the last span named `name`, if any.
    pub fn last(&self, name: &str) -> Option<usize> {
        self.spans.iter().rposition(|s| s.name == name)
    }

    /// Duration in seconds of the last span named `name`; `0` if no
    /// such span was recorded.
    pub fn seconds(&self, name: &str) -> f64 {
        self.last(name)
            .map_or(0.0, |id| self.spans[id].duration_ns() as f64 * 1e-9)
    }

    /// Self time in seconds per span name, over the subtree rooted at
    /// span `root` (inclusive).
    pub fn self_seconds_by_name(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut in_tree = vec![false; self.spans.len()];
        in_tree[root] = true;
        // Parents precede children, so one forward pass settles
        // membership and one reverse pass settles child coverage.
        for id in root + 1..self.spans.len() {
            if let Some(parent) = self.spans[id].parent {
                in_tree[id] = in_tree[parent];
            }
        }
        for id in (root + 1..self.spans.len()).rev() {
            if let (true, Some(parent)) = (in_tree[id], self.spans[id].parent) {
                child_ns[parent] += self.spans[id].duration_ns();
            }
        }
        let mut by_name = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if in_tree[id] {
                let own = span.duration_ns().saturating_sub(child_ns[id]);
                *by_name.entry(span.name).or_insert(0.0) += own as f64 * 1e-9;
            }
        }
        by_name
    }

    /// [`Tracer::self_seconds_by_name`] summed per layer.
    pub fn self_seconds_by_layer(&self, root: usize) -> BTreeMap<&'static str, f64> {
        let mut by_layer = BTreeMap::new();
        for (name, seconds) in self.self_seconds_by_name(root) {
            *by_layer.entry(layer_of(name)).or_insert(0.0) += seconds;
        }
        by_layer
    }

    /// The spans as a JSON array.
    pub fn spans_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {}}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".to_string(), |p| p.to_string())
                )
            })
            .collect();
        format!("[\n  {}\n]", rows.join(",\n  "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.span("bench.pass", |t| {
            t.span("layout.a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("layout.b", |_| {});
        });
        let root = t.last("bench.pass").expect("recorded");
        let by_name = t.self_seconds_by_name(root);
        let total = t.spans()[root].duration_ns() as f64 * 1e-9;
        let sum: f64 = by_name.values().sum();
        assert!((sum - total).abs() < 1e-9, "self times partition the root");
        assert!(by_name["layout.a"] >= 0.002);
        assert_eq!(t.spans()[1].parent, Some(root));
        let by_layer = t.self_seconds_by_layer(root);
        assert!(by_layer.contains_key("bench") && by_layer.contains_key("layout"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x.y", |_| 7), 7);
        assert!(t.spans().is_empty());
        assert_eq!(t.seconds("x.y"), 0.0);
    }
}
