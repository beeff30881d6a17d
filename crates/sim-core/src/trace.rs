//! Optional event tracing.
//!
//! Traces are used by the examples (to show a message-by-message narrative of
//! a signaling session) and by tests that assert on the exact sequence of
//! protocol actions.  Tracing is off by default and costs a branch per call:
//! [`Trace::record`] takes its detail as `impl Display` and renders it only
//! when the trace is enabled, so a disabled trace never formats or allocates,
//! whether or not the optimiser inlines the call.

use crate::time::SimTime;
use std::fmt;

/// One trace record.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Virtual time at which the event happened.
    pub time: SimTime,
    /// Short category tag (e.g. `"send"`, `"recv"`, `"timer"`, `"drop"`).
    pub tag: &'static str,
    /// Free-form description.
    pub detail: String,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{:>12}] {:<8} {}", self.time, self.tag, self.detail)
    }
}

/// A bounded in-memory trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    enabled: bool,
    entries: Vec<TraceEntry>,
    capacity: usize,
    dropped: u64,
}

impl Trace {
    /// A disabled trace: all records are discarded.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            entries: Vec::new(),
            capacity: 0,
            dropped: 0,
        }
    }

    /// An enabled trace keeping at most `capacity` entries (older entries are
    /// retained; newer ones beyond the capacity are counted as dropped).
    pub fn enabled(capacity: usize) -> Self {
        Self {
            enabled: true,
            entries: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Whether recording is active.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an entry (no-op when disabled).  The detail is rendered with
    /// its `Display` impl, and only when the entry is kept.
    pub fn record(&mut self, time: SimTime, tag: &'static str, detail: impl fmt::Display) {
        if !self.enabled {
            return;
        }
        if self.entries.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.entries.push(TraceEntry {
            time,
            tag,
            detail: detail.to_string(),
        });
    }

    /// Recorded entries.
    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }

    /// Number of entries discarded because the capacity was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Entries with a given tag.
    pub fn with_tag(&self, tag: &str) -> Vec<&TraceEntry> {
        self.entries.iter().filter(|e| e.tag == tag).collect()
    }

    /// Renders the whole trace as text, one entry per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            out.push_str(&format!("{e}\n"));
        }
        if self.dropped > 0 {
            out.push_str(&format!("... ({} entries dropped)\n", self.dropped));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::disabled();
        t.record(SimTime::ZERO, "send", "trigger");
        assert!(t.entries().is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_up_to_capacity() {
        let mut t = Trace::enabled(2);
        t.record(SimTime::from_secs(1.0), "send", "a");
        t.record(SimTime::from_secs(2.0), "recv", "b");
        t.record(SimTime::from_secs(3.0), "drop", "c");
        assert_eq!(t.entries().len(), 2);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.with_tag("send").len(), 1);
        assert_eq!(t.with_tag("timer").len(), 0);
    }

    #[test]
    fn render_contains_entries_and_drop_note() {
        let mut t = Trace::enabled(1);
        t.record(SimTime::from_secs(1.0), "send", "trigger v=1");
        t.record(SimTime::from_secs(2.0), "recv", "trigger v=1");
        let s = t.render();
        assert!(s.contains("trigger v=1"));
        assert!(s.contains("dropped"));
    }
}
