//! Spans recorded from the benchmark's own code around each call into a
//! layer's public functions.
//!
//! A [`Tracer`] that is off runs the wrapped call and records nothing, so
//! the traced and untraced phases of a workload execute the same code.
//! Spans stay in memory; [`Tracer::summary`] writes them out, aggregated
//! by name with self time, when the run ends.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One timed call: its name, interval (from the tracer's origin), the
/// span that caused it and the request it belongs to (0 = none).
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `nn.forward`.
    pub name: &'static str,
    /// Start, relative to the tracer's origin.
    pub start: Duration,
    /// End, relative to the tracer's origin.
    pub end: Duration,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Request id shared by all spans of one request (0 = none).
    pub request: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end - self.start).as_secs_f64() * 1e3
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    requests: u64,
}

impl Tracer {
    /// A tracer that records spans relative to `origin` when `on`.
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            requests: 0,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A recorder for another thread sharing this tracer's origin and
    /// setting; fold it back with [`merge`](Tracer::merge).
    pub fn child(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    /// Tags the spans that follow with `request`.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    /// Tags the spans that follow with a fresh request id, unique within
    /// this tracer.
    pub fn next_request(&mut self) {
        self.requests += 1;
        self.request = self.requests;
    }

    /// Runs `f`, recording a span named `name` around it when on.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start: self.origin.elapsed(),
            end: Duration::ZERO,
            parent: self.open.last().copied(),
            request: self.request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.origin.elapsed();
        out
    }

    /// Appends another recorder's spans, keeping their parent links.
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ms) of the spans named `name`, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Total duration (ms) of the spans named `name` per request id, in
    /// request order: one value per step or request that recorded any.
    pub fn per_request_ms(&self, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.request).or_default() += s.ms();
        }
        sums.into_values().collect()
    }

    /// Per name: span count, total ms and self ms (total minus the time
    /// covered by direct child spans).
    pub fn totals(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_ms = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += s.ms();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ms) {
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += s.ms();
            entry.2 += s.ms() - child;
        }
        out
    }

    /// The span table, one line per name: count, total and self time.
    pub fn summary(&self) -> String {
        let mut out = String::from("span                       count     total_ms      self_ms\n");
        for (name, (count, total, own)) in self.totals() {
            out.push_str(&format!(
                "{name:<24} {count:>8} {total:>12.3} {own:>12.3}\n"
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_records_nesting() {
        let mut off = Tracer::off();
        assert_eq!(off.span("a", |t| t.span("b", |_| 7)), 7);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true, Instant::now());
        on.set_request(3);
        on.span("outer", |t| t.span("inner", |_| ()));
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 3 && s.end >= s.start));
        let totals = on.totals();
        let (count, total, own) = totals["outer"];
        assert_eq!(count, 1);
        assert!(own <= total);
    }

    #[test]
    fn merge_keeps_parent_links() {
        let origin = Instant::now();
        let mut a = Tracer::new(true, origin);
        a.span("x", |_| ());
        let mut b = a.child();
        b.span("p", |t| t.span("c", |_| ()));
        a.merge(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
