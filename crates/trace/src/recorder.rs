//! The recorder: a shared event store + metrics registry, handed to the
//! engines as cheap [`TraceSink`] / [`Track`] handles.
//!
//! Threading model: the decoupled engine runs 2·N OS threads. Each thread
//! gets its own [`Track`], which buffers events in a thread-local `Vec`
//! and flushes them into the shared store when dropped (or on
//! [`Track::flush`]), so the hot paths never contend on the event mutex.
//! Counters are shared atomics (see [`crate::metrics`]).
//!
//! Disabled handles ([`TraceSink::disabled`], [`Track::disabled`]) carry
//! `None` and every recording method returns after one branch — the
//! zero-cost-when-off contract the engine APIs rely on.

use crate::event::{EventKind, ProcessKind, TraceEvent, TrackId};
use crate::metrics::{Counter, Registry};
use std::borrow::Cow;
use std::cell::RefCell;
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub(crate) struct Shared {
    epoch: Instant,
    events: Mutex<Vec<TraceEvent>>,
    /// False for a metrics-only recorder: flushed span batches are dropped.
    keep_events: bool,
    pub(crate) metrics: Registry,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push_events(&self, batch: &mut Vec<TraceEvent>) {
        if !self.keep_events {
            batch.clear();
        }
        if batch.is_empty() {
            return;
        }
        self.events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .append(batch);
    }
}

/// Owns one tracing session: create it, hand [`TraceSink`]s to the
/// engines, then export with [`Recorder::chrome_trace`] /
/// [`Recorder::prometheus`].
pub struct Recorder {
    shared: Arc<Shared>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// Start a recording session; timestamps are nanoseconds since this
    /// call.
    pub fn new() -> Self {
        Self::with_events(true)
    }

    /// A recorder that keeps metrics only: span and instant events are
    /// dropped when a track flushes, so [`Recorder::events`] stays empty
    /// and memory stays flat however long the session runs. For
    /// long-lived services that read [`Recorder::metrics`] and never
    /// export a timeline.
    pub fn metrics_only() -> Self {
        Self::with_events(false)
    }

    fn with_events(keep_events: bool) -> Self {
        Self {
            shared: Arc::new(Shared {
                epoch: Instant::now(),
                events: Mutex::new(Vec::new()),
                keep_events,
                metrics: Registry::new(),
            }),
        }
    }

    /// An enabled sink feeding this recorder.
    pub fn sink(&self) -> TraceSink {
        TraceSink(Some(self.shared.clone()))
    }

    /// A live track on this recorder.
    pub fn track(&self, wid: u32, kind: ProcessKind) -> Track {
        self.sink().track(wid, kind)
    }

    /// The metrics registry (counters / gauges / summaries).
    pub fn metrics(&self) -> &Registry {
        &self.shared.metrics
    }

    /// Snapshot of all flushed events (unordered).
    pub fn events(&self) -> Vec<TraceEvent> {
        self.shared
            .events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The Chrome trace-event JSON document for this session.
    pub fn chrome_trace(&self) -> String {
        crate::chrome::to_chrome_json(&self.events())
    }

    /// Write the Chrome trace to `path`.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.chrome_trace())
    }

    /// The Prometheus text exposition of the metrics registry.
    pub fn prometheus(&self) -> String {
        self.shared.metrics.render_prometheus()
    }

    /// Write the Prometheus snapshot to `path`.
    pub fn write_prometheus(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.prometheus())
    }
}

/// A cheap, cloneable handle to a recorder — or a disabled no-op. This is
/// what the engine builders accept; `TraceSink::disabled()` is the
/// default everywhere.
#[derive(Clone, Default)]
pub struct TraceSink(Option<Arc<Shared>>);

impl TraceSink {
    /// The no-op sink (every operation is a single `None` branch).
    pub fn disabled() -> Self {
        Self(None)
    }

    /// True when connected to a live recorder.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// A track handle for (wid, kind); disabled if the sink is.
    pub fn track(&self, wid: u32, kind: ProcessKind) -> Track {
        Track {
            shared: self.0.clone(),
            id: TrackId::new(wid, kind),
            buf: RefCell::new(Vec::new()),
        }
    }

    /// A counter handle (disabled handles ignore increments).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.0 {
            Some(s) => s.metrics.counter(name, labels),
            None => Counter::disabled(),
        }
    }

    /// Set a gauge, if enabled.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if let Some(s) = &self.0 {
            s.metrics.set_gauge(name, labels, value);
        }
    }

    /// Observe into a summary, if enabled.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if let Some(s) = &self.0 {
            s.metrics.observe(name, labels, value);
        }
    }

    /// Observe into a log-scale histogram, if enabled.
    pub fn observe_histogram(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if let Some(s) = &self.0 {
            s.metrics.observe_histogram(name, labels, value);
        }
    }

    /// Convert a wall-clock [`Instant`] into nanoseconds since the
    /// recorder epoch (0 when disabled, or for instants predating the
    /// epoch) — how externally-timestamped records (e.g. a completed job
    /// timeline) land on the same time axis as live spans.
    pub fn instant_ns(&self, at: Instant) -> u64 {
        self.0.as_ref().map_or(0, |s| {
            at.saturating_duration_since(s.epoch).as_nanos() as u64
        })
    }
}

/// One thread's handle onto one timeline track. Buffers locally; flushes
/// on drop. `!Sync` by design — move it into the owning thread.
pub struct Track {
    shared: Option<Arc<Shared>>,
    id: TrackId,
    buf: RefCell<Vec<TraceEvent>>,
}

impl Default for Track {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Track {
    /// A no-op track.
    pub fn disabled() -> Self {
        Self {
            shared: None,
            id: TrackId::new(0, ProcessKind::Host),
            buf: RefCell::new(Vec::new()),
        }
    }

    /// True when recording.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// True when the recorder keeps timeline events. A track on a
    /// metrics-only recorder buffers none: a long-lived thread's track
    /// would otherwise hold one event per span until it is dropped.
    #[inline]
    pub fn keeps_events(&self) -> bool {
        self.event_store().is_some()
    }

    fn event_store(&self) -> Option<&Shared> {
        self.shared.as_deref().filter(|s| s.keep_events)
    }

    /// The track's id.
    pub fn id(&self) -> TrackId {
        self.id
    }

    /// Nanoseconds since the recorder epoch (0 when disabled).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.shared.as_ref().map_or(0, |s| s.now_ns())
    }

    /// Record a complete span from `start_ns` (a prior [`Track::now_ns`])
    /// to now.
    #[inline]
    pub fn span_since(&self, name: impl Into<Cow<'static, str>>, start_ns: u64) {
        if let Some(s) = self.event_store() {
            let end = s.now_ns();
            self.buf.borrow_mut().push(TraceEvent {
                track: self.id,
                name: name.into(),
                ts_ns: start_ns,
                kind: EventKind::Span {
                    dur_ns: end.saturating_sub(start_ns),
                },
            });
        }
    }

    /// Record a complete span at an explicit start timestamp and
    /// duration (both nanoseconds on the recorder epoch axis, e.g. from
    /// [`TraceSink::instant_ns`]) — the retro-emission path used when a
    /// timeline is reconstructed after the fact.
    #[inline]
    pub fn span_at(&self, name: impl Into<Cow<'static, str>>, ts_ns: u64, dur_ns: u64) {
        if self.keeps_events() {
            self.buf.borrow_mut().push(TraceEvent {
                track: self.id,
                name: name.into(),
                ts_ns,
                kind: EventKind::Span { dur_ns },
            });
        }
    }

    /// Record a zero-duration marker at now.
    #[inline]
    pub fn instant(&self, name: impl Into<Cow<'static, str>>) {
        if let Some(s) = self.event_store() {
            self.buf.borrow_mut().push(TraceEvent {
                track: self.id,
                name: name.into(),
                ts_ns: s.now_ns(),
                kind: EventKind::Instant,
            });
        }
    }

    /// A metrics counter handle from the same recorder (disabled if the
    /// track is).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.shared {
            Some(s) => s.metrics.counter(name, labels),
            None => Counter::disabled(),
        }
    }

    /// Observe into a metrics summary, if enabled.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        if let Some(s) = &self.shared {
            s.metrics.observe(name, labels, value);
        }
    }

    /// Push buffered events into the shared store now.
    pub fn flush(&self) {
        if let Some(s) = &self.shared {
            s.push_events(&mut self.buf.borrow_mut());
        }
    }
}

impl Drop for Track {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_record_nothing() {
        let sink = TraceSink::disabled();
        assert!(!sink.is_enabled());
        let t = sink.track(0, ProcessKind::Compute);
        assert!(!t.is_enabled());
        let t0 = t.now_ns();
        t.span_since("x", t0);
        t.instant("y");
        t.counter("c_total", &[]).inc();
        // Nothing to assert against — the contract is "no panic, no effect".
        assert_eq!(t.now_ns(), 0);
    }

    #[test]
    fn tracks_flush_on_drop() {
        let rec = Recorder::new();
        {
            let t = rec.track(2, ProcessKind::Transfer);
            let t0 = t.now_ns();
            t.instant("marker");
            t.span_since("burst", t0);
            assert_eq!(rec.events().len(), 0, "buffered until flush");
        }
        let events = rec.events();
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .all(|e| e.track == TrackId::new(2, ProcessKind::Transfer)));
    }

    #[test]
    fn metrics_only_recorder_drops_events_and_keeps_metrics() {
        let rec = Recorder::metrics_only();
        {
            let t = rec.track(1, ProcessKind::Job);
            t.span_at("execute", 0, 10);
            t.instant("marker");
            t.span_since("shard", t.now_ns());
            assert!(!t.keeps_events());
            assert!(t.buf.borrow().is_empty(), "nothing buffered until flush");
            t.counter("jobs_total", &[]).inc();
        }
        assert!(rec.events().is_empty());
        assert_eq!(rec.metrics().counter_value("jobs_total"), Some(1));
    }

    #[test]
    fn timestamps_are_monotonic_per_track() {
        let rec = Recorder::new();
        let t = rec.track(0, ProcessKind::Compute);
        let mut last = 0;
        for _ in 0..100 {
            let now = t.now_ns();
            assert!(now >= last);
            last = now;
            t.instant("tick");
        }
        t.flush();
        let ts: Vec<u64> = rec.events().iter().map(|e| e.ts_ns).collect();
        assert!(ts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn sink_metrics_reach_the_recorder() {
        let rec = Recorder::new();
        let sink = rec.sink();
        sink.counter("events_total", &[("wid", "0")]).add(5);
        sink.set_gauge("depth", &[], 8.0);
        sink.observe("lat_seconds", &[], 0.25);
        assert_eq!(
            rec.metrics().counter_value("events_total{wid=\"0\"}"),
            Some(5)
        );
        let prom = rec.prometheus();
        assert!(prom.contains("depth 8"));
        assert!(prom.contains("lat_seconds_count 1"));
    }

    #[test]
    fn concurrent_tracks_merge() {
        let rec = Recorder::new();
        let sink = rec.sink();
        std::thread::scope(|s| {
            for wid in 0..4u32 {
                let sink = sink.clone();
                s.spawn(move || {
                    let t = sink.track(wid, ProcessKind::Compute);
                    for _ in 0..50 {
                        t.instant("tick");
                    }
                });
            }
        });
        assert_eq!(rec.events().len(), 200);
    }
}
