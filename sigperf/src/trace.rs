//! In-memory spans for the traced run.
//!
//! Every call the benchmark makes into a layer can be wrapped in a span
//! (name, start, end, parent, unit id).  Spans stay in memory and are written
//! out when the run ends; a layer's self time is its span's duration minus
//! the time its child spans cover.  With tracing off a span is just the call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.  Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub unit: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans while enabled; a pass-through otherwise.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    unit: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            unit: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags every span opened from now on with unit id `unit`.
    pub fn begin_unit(&mut self, unit: u64) {
        self.unit = unit;
    }

    /// Runs `f` inside a span called `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            unit: self.unit,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in seconds.
    pub fn self_seconds_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            *out.entry(span.name).or_insert(0.0) += self_ns as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"unit\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.unit, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the durations of its direct
/// children.  Spans on one thread nest, so the children of one parent never
/// overlap and their durations add up to the part of the parent they cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            covered[p] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            unit: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("run", 10, 60, Some(0)),
            span("solve", 20, 50, Some(1)),
            span("render", 60, 90, Some(0)),
        ];
        // unit: 100 - (50 + 30); run: 50 - 30; solve: 30; render: 30.
        assert_eq!(self_times_ns(&spans), vec![20, 20, 30, 30]);
    }

    #[test]
    fn a_span_without_children_keeps_its_whole_duration() {
        assert_eq!(self_times_ns(&[span("leaf", 5, 9, None)]), vec![4]);
    }

    #[test]
    fn recorded_spans_nest_and_share_the_unit_id() {
        let mut tr = Tracer::new();
        tr.set_enabled(true);
        tr.begin_unit(7);
        tr.span("outer", |tr| tr.span("inner", |_| ()));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.unit == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let by_name = tr.self_seconds_by_name();
        assert!(by_name["outer"] >= 0.0 && by_name["inner"] >= 0.0);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_call() {
        let mut tr = Tracer::new();
        assert_eq!(tr.span("x", |_| 42), 42);
        assert!(tr.spans().is_empty());
    }
}
