//! # dwi-trace — timeline tracing + metrics for the decoupled engine
//!
//! The paper's central evidence is *behavioral*: decoupled work-items
//! shift in time and interleave their memory bursts over the single
//! 512-bit channel (Fig. 3), and never stall each other on divergent
//! rejection branches. This crate makes that behaviour observable on the
//! functional engine:
//!
//! * [`Recorder`] — one tracing session: per-thread [`Track`] handles
//!   buffer span/instant events locally (no hot-path lock contention) and
//!   a shared [`metrics::Registry`] accumulates counters, gauges and
//!   streaming quantile summaries.
//! * [`chrome`] — Chrome trace-event JSON export: load the file in
//!   [Perfetto](https://ui.perfetto.dev) or `chrome://tracing` and Fig. 3's
//!   compute/transfer interleaving becomes a rendered timeline, one track
//!   per dataflow process.
//! * [`metrics`] — Prometheus text exposition: rejection retries, stream
//!   write/read stalls, burst counts/bytes, per-work-item iterations, and
//!   sector-latency quantiles (via `dwi_stats::P2Quantile`).
//!
//! Everything is **zero-cost when disabled**: engines accept a
//! [`TraceSink`] (default [`TraceSink::disabled`]) and every recording
//! call on a disabled handle is a single `None` branch.
//!
//! ```
//! use dwi_trace::{ProcessKind, Recorder};
//!
//! let rec = Recorder::new();
//! let track = rec.track(0, ProcessKind::Compute);
//! let t0 = track.now_ns();
//! // ... do the sector's work ...
//! track.span_since("sector 0", t0);
//! track.counter("dwi_iterations_total", &[("wid", "0")]).add(128);
//! drop(track); // flush
//! let json = rec.chrome_trace();
//! assert!(json.contains("wi0/compute"));
//! assert!(rec.prometheus().contains("dwi_iterations_total"));
//! ```

pub mod chrome;
pub mod event;
pub mod flight;
pub mod histogram;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod runtime_metrics;
pub mod server_metrics;

pub use event::{EventKind, ProcessKind, TraceEvent, TrackId};
pub use flight::FlightRecorder;
pub use histogram::Histogram;
pub use metrics::{parse_prometheus, Counter, Registry};
pub use recorder::{Recorder, TraceSink, Track};
