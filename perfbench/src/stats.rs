//! The one timing helper: nearest-rank quantiles that know their sample
//! count, and refuse a tail percentile the samples cannot support; plus
//! the per-window completion counter throughput is taken from, and the
//! host steal every rate and latency block is read against.

use std::time::{Duration, Instant};

/// Throughput is counted per window of this length.
pub const WINDOW_SECS: f64 = 0.5;
/// The quantile of per-window (or per-sweep) rates a run reports. Other
/// tenants of a shared host only ever slow a window down, so an upper
/// quantile is the rate the code sustains and moves far less from run to
/// run than the median.
pub const RATE_QUANTILE: f64 = 0.9;

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; with fewer, the value is one or two outliers, not a tail.
pub const MIN_BEYOND: usize = 10;

/// Sorted samples with nearest-rank quantile lookup.
pub struct Quantiles {
    sorted: Vec<f64>,
}

impl Quantiles {
    pub fn new(mut samples: Vec<f64>) -> Self {
        samples.sort_by(f64::total_cmp);
        Self { sorted: samples }
    }

    pub fn count(&self) -> usize {
        self.sorted.len()
    }

    fn rank(&self, q: f64) -> usize {
        ((q * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len())
    }

    /// Nearest-rank `q`-quantile: the smallest sample with at least
    /// `q · n` samples at or below it. `None` without samples.
    pub fn at(&self, q: f64) -> Option<f64> {
        (!self.sorted.is_empty()).then(|| self.sorted[self.rank(q) - 1])
    }

    /// As [`at`](Self::at), but `None` unless [`MIN_BEYOND`] samples lie
    /// strictly above the rank.
    pub fn tail(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() || self.sorted.len() - self.rank(q) < MIN_BEYOND {
            return None;
        }
        self.at(q)
    }

    pub fn median(&self) -> Option<f64> {
        self.at(0.5)
    }

    pub fn mean(&self) -> Option<f64> {
        (!self.sorted.is_empty())
            .then(|| self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }
}

/// The [`RATE_QUANTILE`] of a run's rates, printed with its spread.
pub fn rate_quantile(what: &str, rates: Vec<f64>) -> Option<f64> {
    let q = Quantiles::new(rates);
    println!(
        "{what}: min={:.0} median={:.0} p90={:.0} max={:.0} (n={})",
        q.at(0.0).unwrap_or(0.0),
        q.median().unwrap_or(0.0),
        q.at(0.9).unwrap_or(0.0),
        q.at(1.0).unwrap_or(0.0),
        q.count()
    );
    q.at(RATE_QUANTILE)
}

/// Latencies are cut, in completion order, into blocks of this many
/// operations, so a block's p99 has ten samples beyond it.
pub const BLOCK: usize = 1000;

/// CPU time the hypervisor gave this machine's CPUs to someone else so
/// far, seconds (the `steal` column of `/proc/stat`, at the usual 100
/// ticks/s); 0 where the counter cannot be read.
pub fn host_steal_secs() -> f64 {
    let ticks = std::fs::read_to_string("/proc/stat").ok().and_then(|stat| {
        stat.lines()
            .next()?
            .split_whitespace()
            .nth(8)?
            .parse::<f64>()
            .ok()
    });
    ticks.unwrap_or(0.0) / 100.0
}

/// Seconds of `wall` this machine's CPUs were not stolen, averaged over
/// its CPUs: `wall − steal / cpus`. A loop that keeps the CPUs busy does
/// work in proportion to it, so a rate over it does not move with the
/// share of the host other tenants take.
pub fn unstolen_secs(wall: f64, steal: f64) -> f64 {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    (wall - steal / cpus).max(0.1 * wall)
}

/// One block of [`BLOCK`] consecutive latencies and the host steal while
/// it ran.
pub struct Block {
    pub latencies: Quantiles,
    pub steal_secs: f64,
}

/// The median of `f(block)` over the half of `blocks` with the least host
/// steal (ties in completion order): a stolen vCPU stalls whatever is in
/// flight, and a run on a shared host has it in some blocks and not in
/// others, while a slower code path moves every block. `None` without
/// blocks or if a chosen block has no value.
pub fn quiet_median(blocks: &[Block], f: impl Fn(&Quantiles) -> Option<f64>) -> Option<f64> {
    let mut order: Vec<&Block> = blocks.iter().collect();
    order.sort_by(|a, b| a.steal_secs.total_cmp(&b.steal_secs));
    let values: Option<Vec<f64>> = order[..blocks.len().div_ceil(2)]
        .iter()
        .map(|b| f(&b.latencies))
        .collect();
    Quantiles::new(values?).median()
}

/// Latency samples in fixed memory, in completion order, with the host
/// steal of every [`BLOCK`]. The buffer is touched when built, so the
/// process's resident memory does not grow with the number of operations
/// a run completes; samples beyond its capacity are counted but not kept.
pub struct Samples {
    buf: Vec<f32>,
    /// Steal of each closed block, seconds.
    steal: Vec<f64>,
    /// Steal counter when the open block started.
    open_steal: f64,
    seen: u64,
    sum: f64,
}

impl Samples {
    pub fn with_capacity(cap: usize) -> Self {
        let mut buf = vec![f32::MAX; cap];
        buf.clear();
        Self {
            buf,
            steal: Vec::with_capacity(cap / BLOCK),
            open_steal: 0.0,
            seen: 0,
            sum: 0.0,
        }
    }

    pub fn push(&mut self, v: f32) {
        self.seen += 1;
        self.sum += v as f64;
        let n = self.buf.len();
        if n == self.buf.capacity() {
            return;
        }
        if n.is_multiple_of(BLOCK) {
            self.open_steal = host_steal_secs();
        }
        self.buf.push(v);
        if (n + 1).is_multiple_of(BLOCK) {
            self.steal.push(host_steal_secs() - self.open_steal);
        }
    }

    /// Samples pushed (not only those kept).
    pub fn count(&self) -> u64 {
        self.seen
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// The full blocks kept; a last, partial block is left out.
    pub fn blocks(&self) -> Vec<Block> {
        self.steal
            .iter()
            .zip(self.buf.chunks_exact(BLOCK))
            .map(|(&steal_secs, chunk)| Block {
                latencies: Quantiles::new(chunk.iter().map(|&v| v as f64).collect()),
                steal_secs,
            })
            .collect()
    }
}

/// Completions counted per [`WINDOW_SECS`] window of a timed loop, with
/// the host steal of each window. Fixed size, so the benchmark's own
/// bookkeeping does not grow with throughput.
pub struct Windows {
    start: Instant,
    counts: Vec<u64>,
    /// The steal counter at the first completion in each window and past
    /// the last one; NaN where no completion came.
    marks: Vec<f64>,
    /// Marks set so far.
    reached: usize,
}

impl Windows {
    /// The full windows of a loop starting at `start` and lasting `dur`.
    pub fn new(start: Instant, dur: Duration) -> Self {
        let n = (dur.as_secs_f64() / WINDOW_SECS).floor() as usize;
        Self {
            start,
            counts: vec![0; n],
            marks: vec![f64::NAN; n + 1],
            reached: 0,
        }
    }

    pub fn hit(&mut self, at: Instant) {
        let w = (at.saturating_duration_since(self.start).as_secs_f64() / WINDOW_SECS) as usize;
        let last = w.min(self.counts.len());
        if self.reached <= last {
            // One read of /proc/stat per window, at its first completion.
            let now = host_steal_secs();
            self.marks[self.reached..=last].fill(now);
            self.reached = last + 1;
        }
        if let Some(c) = self.counts.get_mut(w) {
            *c += 1;
        }
    }

    /// Add another counter over the same loop (another client thread).
    pub fn absorb(&mut self, other: &Windows) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        for (a, b) in self.marks.iter_mut().zip(&other.marks) {
            if a.is_nan() {
                *a = *b;
            }
        }
    }

    /// Completions per unstolen second of the [`RATE_QUANTILE`] window.
    pub fn rate(&self) -> Option<f64> {
        let steal: Vec<f64> = self
            .marks
            .windows(2)
            .map(|m| {
                if (m[1] - m[0]).is_finite() {
                    m[1] - m[0]
                } else {
                    0.0
                }
            })
            .collect();
        println!(
            "host steal over the windows: {:.2} s",
            steal.iter().sum::<f64>()
        );
        rate_quantile(
            "completions per unstolen second, per window",
            self.counts
                .iter()
                .zip(&steal)
                .map(|(&c, &s)| c as f64 / unstolen_secs(WINDOW_SECS, s))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let q = Quantiles::new((1..=100).map(f64::from).collect());
        assert_eq!(q.at(0.5), Some(50.0));
        assert_eq!(q.at(0.99), Some(99.0));
        assert_eq!(q.at(1.0), Some(100.0));
        assert_eq!(q.at(0.0), Some(1.0));
    }

    #[test]
    fn blocks_close_every_thousand() {
        let mut s = Samples::with_capacity(2 * BLOCK);
        for i in 0..2 * BLOCK + 5 {
            s.push(i as f32);
        }
        let blocks = s.blocks();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[1].latencies.at(0.0), Some(BLOCK as f64));
        assert_eq!(s.count(), 2 * BLOCK as u64 + 5);
        assert!(quiet_median(&blocks, Quantiles::median).is_some());
    }

    #[test]
    fn tail_needs_ten_beyond() {
        let q = Quantiles::new((1..=999).map(f64::from).collect());
        assert_eq!(q.tail(0.99), None);
        let q = Quantiles::new((1..=1000).map(f64::from).collect());
        assert_eq!(q.tail(0.99), Some(990.0));
        assert_eq!(Quantiles::new(Vec::new()).median(), None);
    }
}
