//! Prometheus-style metrics: counters, gauges, streaming summaries, and
//! fixed-bucket histograms.
//!
//! Counters hand out [`Counter`] handles backed by a shared `AtomicU64`,
//! so hot-path increments cost one relaxed atomic add and no lock;
//! summaries track p50/p90/p99 in O(1) memory via
//! [`dwi_stats::P2Quantile`]; histograms use the shared log-scale bucket
//! ladder of [`crate::histogram`] and render as the Prometheus
//! `histogram` type (`_bucket{le=…}`/`_sum`/`_count`). The disabled
//! handles compile to a branch on `None` and nothing else.

use crate::histogram::Histogram;
use dwi_stats::P2Quantile;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Build the registry key for a metric name plus label pairs, in
/// Prometheus exposition syntax (`name{k="v",…}`).
pub fn metric_key(name: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    format!("{name}{{{}}}", body.join(","))
}

/// The base metric name of a registry key (`name{…}` → `name`).
pub fn base_name(key: &str) -> &str {
    key.split('{').next().unwrap_or(key)
}

/// Insert `suffix` into a registry key before its label braces
/// (`name{a="1"}` + `_sum` → `name_sum{a="1"}`), per Prometheus naming.
fn suffixed_key(key: &str, suffix: &str) -> String {
    match key.find('{') {
        Some(brace) => format!("{}{}{}", &key[..brace], suffix, &key[brace..]),
        None => format!("{key}{suffix}"),
    }
}

struct SummaryState {
    count: u64,
    sum: f64,
    quantiles: Vec<(f64, P2Quantile)>,
}

impl SummaryState {
    fn new() -> Self {
        Self {
            count: 0,
            sum: 0.0,
            quantiles: [0.5, 0.9, 0.99]
                .iter()
                .map(|&p| (p, P2Quantile::new(p)))
                .collect(),
        }
    }

    fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        for (_, q) in &mut self.quantiles {
            q.add(v);
        }
    }
}

/// The metrics registry: one per [`crate::Recorder`].
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, f64>>,
    summaries: Mutex<BTreeMap<String, SummaryState>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A live counter handle for `name{labels}` (registered on first use).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let key = metric_key(name, labels);
        let cell = lock(&self.counters)
            .entry(key)
            .or_insert_with(|| Arc::new(AtomicU64::new(0)))
            .clone();
        Counter(Some(cell))
    }

    /// Set a gauge to `value`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        lock(&self.gauges).insert(metric_key(name, labels), value);
    }

    /// Observe `value` into the summary `name{labels}`.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        lock(&self.summaries)
            .entry(metric_key(name, labels))
            .or_insert_with(SummaryState::new)
            .observe(value);
    }

    /// Observe `value` (seconds) into the log-scale histogram
    /// `name{labels}`.
    pub fn observe_histogram(&self, name: &str, labels: &[(&str, &str)], value: f64) {
        lock(&self.histograms)
            .entry(metric_key(name, labels))
            .or_default()
            .observe(value);
    }

    /// Snapshot of one histogram series by full key (labels included).
    pub fn histogram(&self, key: &str) -> Option<Histogram> {
        lock(&self.histograms).get(key).cloned()
    }

    /// The current value of counter `key` (full key, labels included).
    pub fn counter_value(&self, key: &str) -> Option<u64> {
        lock(&self.counters)
            .get(key)
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// Snapshot of all counters as (key, value), sorted by key.
    pub fn counters(&self) -> Vec<(String, u64)> {
        lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Render the registry in the Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_base = String::new();
        for (key, value) in self.counters() {
            let base = base_name(&key);
            if base != last_base {
                out.push_str(&format!("# TYPE {base} counter\n"));
                last_base = base.to_string();
            }
            out.push_str(&format!("{key} {value}\n"));
        }
        last_base.clear();
        for (key, value) in lock(&self.gauges).iter() {
            let base = base_name(key);
            if base != last_base {
                out.push_str(&format!("# TYPE {base} gauge\n"));
                last_base = base.to_string();
            }
            out.push_str(&format!("{key} {value}\n"));
        }
        for (key, s) in lock(&self.summaries).iter() {
            let base = base_name(key);
            out.push_str(&format!("# TYPE {base} summary\n"));
            if s.count > 0 {
                for (p, q) in &s.quantiles {
                    let qkey = if key.contains('{') {
                        key.replacen('{', &format!("{{quantile=\"{p}\","), 1)
                    } else {
                        format!("{key}{{quantile=\"{p}\"}}")
                    };
                    out.push_str(&format!("{qkey} {}\n", q.quantile()));
                }
            }
            out.push_str(&format!("{} {}\n", suffixed_key(key, "_sum"), s.sum));
            out.push_str(&format!("{} {}\n", suffixed_key(key, "_count"), s.count));
        }
        last_base.clear();
        for (key, h) in lock(&self.histograms).iter() {
            let base = base_name(key);
            if base != last_base {
                out.push_str(&format!("# TYPE {base} histogram\n"));
                last_base = base.to_string();
            }
            let labels = &key[base.len()..]; // "" or "{k=\"v\",…}"
            for (bound, cum) in h.cumulative() {
                let le = if bound.is_infinite() {
                    "+Inf".to_string()
                } else {
                    format!("{bound}")
                };
                let bkey = if labels.is_empty() {
                    format!("{base}_bucket{{le=\"{le}\"}}")
                } else {
                    format!(
                        "{base}_bucket{{{},le=\"{le}\"}}",
                        &labels[1..labels.len() - 1]
                    )
                };
                out.push_str(&format!("{bkey} {cum}\n"));
            }
            out.push_str(&format!("{} {}\n", suffixed_key(key, "_sum"), h.sum()));
            out.push_str(&format!("{} {}\n", suffixed_key(key, "_count"), h.count()));
        }
        out
    }
}

/// A counter handle: `inc`/`add` are a single relaxed atomic when live and
/// a `None` branch when the owning sink is disabled.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A handle that ignores all increments.
    pub fn disabled() -> Self {
        Self(None)
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 when disabled).
    pub fn value(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// Parse a Prometheus text exposition back into (key, value) samples,
/// skipping comment lines — the round-trip half of the exporter tests.
pub fn parse_prometheus(text: &str) -> Result<Vec<(String, f64)>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // The value is everything after the last space outside braces; keys
        // may contain spaces only inside label values, which our writer
        // never emits, so rsplit on whitespace is exact.
        let (key, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value in {line:?}", i + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|e| format!("line {}: bad value {value:?}: {e}", i + 1))?;
        out.push((key.trim().to_string(), value));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_share_storage() {
        let r = Registry::new();
        let a = r.counter("hits_total", &[("wid", "0")]);
        let b = r.counter("hits_total", &[("wid", "0")]);
        a.add(3);
        b.inc();
        assert_eq!(r.counter_value("hits_total{wid=\"0\"}"), Some(4));
        assert_eq!(a.value(), 4);
    }

    #[test]
    fn disabled_counter_is_inert() {
        let c = Counter::disabled();
        c.inc();
        c.add(100);
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn render_and_parse_round_trip() {
        let r = Registry::new();
        r.counter("a_total", &[]).add(7);
        r.counter("b_total", &[("wid", "1")]).add(2);
        r.set_gauge("depth", &[], 64.0);
        for i in 0..100 {
            r.observe("lat_seconds", &[], i as f64 / 100.0);
        }
        let text = r.render_prometheus();
        let samples = parse_prometheus(&text).unwrap();
        let get = |k: &str| samples.iter().find(|(key, _)| key == k).map(|(_, v)| *v);
        assert_eq!(get("a_total"), Some(7.0));
        assert_eq!(get("b_total{wid=\"1\"}"), Some(2.0));
        assert_eq!(get("depth"), Some(64.0));
        assert_eq!(get("lat_seconds_count"), Some(100.0));
        let p50 = get("lat_seconds{quantile=\"0.5\"}").unwrap();
        assert!((p50 - 0.5).abs() < 0.1, "p50 {p50}");
    }

    #[test]
    fn histograms_render_cumulative_buckets() {
        let r = Registry::new();
        r.observe_histogram("phase_seconds", &[("phase", "queue")], 3e-6);
        r.observe_histogram("phase_seconds", &[("phase", "queue")], 3e-3);
        r.observe_histogram("phase_seconds", &[("phase", "merge")], 1e-5);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE phase_seconds histogram"));
        assert!(text.contains("phase_seconds_bucket{phase=\"queue\",le=\"+Inf\"} 2"));
        assert!(text.contains("phase_seconds_count{phase=\"queue\"} 2"));
        // The exposition parses back, and cumulative counts are monotone.
        let samples = parse_prometheus(&text).unwrap();
        let buckets: Vec<f64> = samples
            .iter()
            .filter(|(k, _)| k.starts_with("phase_seconds_bucket{phase=\"queue\""))
            .map(|(_, v)| *v)
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*buckets.last().unwrap(), 2.0);
        assert_eq!(
            r.histogram("phase_seconds{phase=\"merge\"}")
                .unwrap()
                .count(),
            1
        );
    }

    #[test]
    fn metric_key_formatting() {
        assert_eq!(metric_key("x_total", &[]), "x_total");
        assert_eq!(
            metric_key("x_total", &[("a", "1"), ("b", "2")]),
            "x_total{a=\"1\",b=\"2\"}"
        );
        assert_eq!(base_name("x_total{a=\"1\"}"), "x_total");
    }
}
