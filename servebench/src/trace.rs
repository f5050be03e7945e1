//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the layers (from the
//! benchmark's side of the API), kept in a flat vector and written out as
//! JSON lines once the run ends, so recording costs two clock reads and a
//! push per span.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: `parent` indexes the enclosing span, if any.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
}

/// Span store with one shared clock origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent });
        (self.spans.len() - 1) as u32
    }

    /// Closes span `id`.
    pub fn end(&mut self, id: u32) {
        let now = self.now_ns();
        self.spans[id as usize].end_ns = now;
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Inclusive seconds per span name.
    pub fn inclusive_s(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_insert(0.0) += (s.end_ns - s.start_ns) as f64 * 1e-9;
        }
        out
    }

    /// Self seconds per span name: each span's duration minus the part its
    /// child spans cover.
    pub fn self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(covered);
            *out.entry(s.name).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines (`episode`, `id`, `name`, `start_ns`,
    /// `end_ns`, `parent`).
    pub fn to_jsonl(&self, episode: usize) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"episode\":{episode},\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.spans.push(Span { name: "a", start_ns: 0, end_ns: 100, parent: None });
        t.spans.push(Span { name: "b", start_ns: 10, end_ns: 40, parent: Some(0) });
        t.spans.push(Span { name: "b", start_ns: 50, end_ns: 60, parent: Some(0) });
        let own = t.self_s();
        assert!((own["a"] - 60e-9).abs() < 1e-15);
        assert!((own["b"] - 40e-9).abs() < 1e-15);
        assert!((t.inclusive_s()["a"] - 100e-9).abs() < 1e-15);
        assert_eq!(t.to_jsonl(0).lines().count(), 3);
    }
}
