//! Chrome trace-event JSON export (and parse-back, for tests).
//!
//! The output loads directly in [Perfetto](https://ui.perfetto.dev) or
//! `chrome://tracing`: one `pid` per session, one `tid` per dataflow
//! process (compute above its transfer partner, see
//! [`TrackId::tid`](crate::TrackId::tid)), `ph:"X"` complete events for
//! spans, `ph:"i"` instants, and `ph:"M"` metadata
//! naming every track. Timestamps are microseconds (fractional — the
//! recorder keeps nanosecond resolution).

use crate::event::{EventKind, TraceEvent};
use crate::json::{self, escape_str, Json};
use std::fmt::Write as _;

/// Sort events for export: by track, then start time, then duration
/// (longest first so nested spans render inside their parents).
fn export_order(events: &mut [TraceEvent]) {
    events.sort_by(|a, b| {
        a.track
            .tid()
            .cmp(&b.track.tid())
            .then(a.ts_ns.cmp(&b.ts_ns))
            .then_with(|| {
                let da = span_dur(a);
                let db = span_dur(b);
                db.cmp(&da)
            })
    });
}

fn span_dur(e: &TraceEvent) -> u64 {
    match e.kind {
        EventKind::Span { dur_ns } => dur_ns,
        _ => 0,
    }
}

/// Render `events` as a complete Chrome trace-event JSON document.
pub fn to_chrome_json(events: &[TraceEvent]) -> String {
    let mut events = events.to_vec();
    export_order(&mut events);

    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    let mut first = true;
    let mut push = |out: &mut String, line: &str| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
        out.push_str("\n  ");
        out.push_str(line);
    };

    // Metadata: name every track once.
    let mut named: Vec<u64> = Vec::new();
    for e in &events {
        let tid = e.track.tid();
        if named.contains(&tid) {
            continue;
        }
        named.push(tid);
        push(
            &mut out,
            &format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"name\":\"thread_name\",\"args\":{{\"name\":{}}}}}",
                escape_str(&e.track.name())
            ),
        );
    }

    for e in &events {
        let tid = e.track.tid();
        let ts_us = e.ts_ns as f64 / 1000.0;
        let name = escape_str(&e.name);
        let mut line = String::new();
        match e.kind {
            EventKind::Span { dur_ns } => {
                let _ = write!(
                    line,
                    "{{\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"name\":{name},\"ts\":{ts_us},\"dur\":{}}}",
                    dur_ns as f64 / 1000.0
                );
            }
            EventKind::Instant => {
                let _ = write!(
                    line,
                    "{{\"ph\":\"i\",\"pid\":1,\"tid\":{tid},\"name\":{name},\"ts\":{ts_us},\"s\":\"t\"}}"
                );
            }
        }
        push(&mut out, &line);
    }
    out.push_str("\n]}\n");
    out
}

/// One event parsed back from a Chrome trace document.
#[derive(Debug, Clone, PartialEq)]
pub struct ChromeEvent {
    /// The `ph` phase tag (`"X"`, `"i"`, `"M"`, …).
    pub ph: String,
    /// Thread (track) id.
    pub tid: u64,
    /// Event name.
    pub name: String,
    /// Start microseconds (0 for metadata).
    pub ts_us: f64,
    /// Duration microseconds (`ph:"X"` only).
    pub dur_us: f64,
    /// Track name (`ph:"M"` thread_name metadata only).
    pub thread_name: Option<String>,
}

impl ChromeEvent {
    /// Span end in microseconds.
    pub fn end_us(&self) -> f64 {
        self.ts_us + self.dur_us
    }

    /// True when this span overlaps `other` in time (open intervals).
    pub fn overlaps(&self, other: &ChromeEvent) -> bool {
        self.ts_us < other.end_us() && other.ts_us < self.end_us()
    }
}

/// Parse a Chrome trace-event JSON document back into events.
///
/// Accepts the object form (`{"traceEvents": […]}`) this exporter writes
/// as well as the bare-array form.
pub fn parse_chrome_trace(doc: &str) -> Result<Vec<ChromeEvent>, String> {
    let parsed = json::parse(doc)?;
    let arr = match &parsed {
        Json::Arr(_) => &parsed,
        Json::Obj(_) => parsed
            .get("traceEvents")
            .ok_or("missing \"traceEvents\" array")?,
        _ => return Err("trace document must be an object or array".into()),
    };
    let events = arr.as_arr().ok_or("\"traceEvents\" is not an array")?;
    events
        .iter()
        .map(|e| {
            let field = |k: &str| e.get(k);
            let ph = field("ph")
                .and_then(Json::as_str)
                .ok_or("event missing \"ph\"")?
                .to_string();
            let tid = field("tid").and_then(Json::as_f64).unwrap_or(0.0) as u64;
            let name = field("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            let ts_us = field("ts").and_then(Json::as_f64).unwrap_or(0.0);
            let dur_us = field("dur").and_then(Json::as_f64).unwrap_or(0.0);
            let thread_name = field("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                .map(str::to_string);
            Ok(ChromeEvent {
                ph,
                tid,
                name,
                ts_us,
                dur_us,
                thread_name,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ProcessKind, TrackId};
    use std::borrow::Cow;

    fn ev(
        wid: u32,
        kind: ProcessKind,
        name: &'static str,
        ts: u64,
        dur: Option<u64>,
    ) -> TraceEvent {
        TraceEvent {
            track: TrackId::new(wid, kind),
            name: Cow::Borrowed(name),
            ts_ns: ts,
            kind: match dur {
                Some(d) => EventKind::Span { dur_ns: d },
                None => EventKind::Instant,
            },
        }
    }

    #[test]
    fn export_parses_back() {
        let events = vec![
            ev(0, ProcessKind::Compute, "sector 0", 100, Some(5_000)),
            ev(0, ProcessKind::Transfer, "burst", 2_000, Some(1_000)),
            ev(1, ProcessKind::Compute, "reject", 1_500, None),
        ];
        let doc = to_chrome_json(&events);
        let parsed = parse_chrome_trace(&doc).unwrap();
        // 2 distinct metadata records (tids 0,1) + wait: three tracks (wi0
        // compute, wi0 transfer, wi1 compute) + 3 events.
        let meta: Vec<_> = parsed.iter().filter(|e| e.ph == "M").collect();
        assert_eq!(meta.len(), 3);
        assert!(meta
            .iter()
            .any(|m| m.thread_name.as_deref() == Some("wi0/transfer")));
        let spans: Vec<_> = parsed.iter().filter(|e| e.ph == "X").collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "sector 0");
        assert!((spans[0].ts_us - 0.1).abs() < 1e-9);
        assert!((spans[0].dur_us - 5.0).abs() < 1e-9);
    }

    #[test]
    fn export_is_ts_sorted_per_track() {
        let events = vec![
            ev(0, ProcessKind::Compute, "b", 500, Some(10)),
            ev(0, ProcessKind::Compute, "a", 100, Some(10)),
            ev(1, ProcessKind::Compute, "c", 50, Some(10)),
        ];
        let parsed = parse_chrome_trace(&to_chrome_json(&events)).unwrap();
        let mut last: std::collections::BTreeMap<u64, f64> = Default::default();
        for e in parsed.iter().filter(|e| e.ph == "X" || e.ph == "i") {
            let prev = last.insert(e.tid, e.ts_us).unwrap_or(f64::MIN);
            assert!(e.ts_us >= prev, "tid {} went backwards", e.tid);
        }
    }

    #[test]
    fn overlap_predicate() {
        let a = ChromeEvent {
            ph: "X".into(),
            tid: 0,
            name: "a".into(),
            ts_us: 0.0,
            dur_us: 10.0,
            thread_name: None,
        };
        let b = ChromeEvent {
            ts_us: 5.0,
            ..a.clone()
        };
        let c = ChromeEvent {
            ts_us: 10.0,
            ..a.clone()
        };
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c), "touching intervals do not overlap");
    }

    #[test]
    fn empty_session_is_valid_json() {
        let doc = to_chrome_json(&[]);
        assert_eq!(parse_chrome_trace(&doc).unwrap().len(), 0);
    }
}
