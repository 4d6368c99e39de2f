//! In-memory spans recorded by the benchmark around each public call it
//! makes, written out at exit as Chrome trace JSON through
//! `dwi_trace::chrome`. A disabled log records nothing, so the untraced
//! run pays one branch per call site.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use dwi_trace::{EventKind, ProcessKind, TraceEvent, TrackId};

/// Spans beyond this many are kept for self-time accounting but not
/// exported, so a long traced run still writes a file a viewer can load.
const MAX_EXPORTED: usize = 100_000;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same log.
    pub parent: Option<usize>,
    /// Request id: the job or operation index the span belongs to.
    pub req: u64,
}

pub struct SpanLog {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh log on the same clock and with the same switch, for another
    /// thread.
    pub fn fork(&self) -> Self {
        Self::new(self.epoch, self.enabled)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its index for children to name as
    /// their parent (`None` when disabled).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            req,
        });
        Some(self.spans.len() - 1)
    }

    /// Open a span whose end is not known yet (a parent recorded before
    /// its children); close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, start: Instant, req: u64) -> Option<usize> {
        self.record(name, start, start, None, req)
    }

    pub fn close(&mut self, idx: Option<usize>, end: Instant) {
        if let Some(i) = idx {
            self.spans[i].end_ns = self.ns(end);
        }
    }

    /// Append another thread's log, re-basing its parent indices.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Per span name: (span count, total duration ns, self time ns). Self
    /// time is a span's duration minus the part its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur;
            e.2 += dur.saturating_sub(child);
        }
        out
    }

    /// Write the spans as Chrome trace JSON, one track per request id (a
    /// span's parent is the enclosing span on its track).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<usize> {
        let events: Vec<TraceEvent> = self
            .spans
            .iter()
            .take(MAX_EXPORTED)
            .map(|s| TraceEvent {
                track: TrackId::new(s.req as u32, ProcessKind::Job),
                name: s.name.into(),
                ts_ns: s.start_ns,
                kind: EventKind::Span {
                    dur_ns: s.end_ns.saturating_sub(s.start_ns),
                },
            })
            .collect();
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, dwi_trace::chrome::to_chrome_json(&events))?;
        Ok(events.len())
    }
}
