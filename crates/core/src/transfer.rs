//! The `Transfer` block (Listing 4): stream → 512-bit packing → fixed-length
//! bursts into the work-item's device-memory region.

use dwi_hls::stream::Consumer;
use dwi_hls::wide::{Packer, Wide512};
use dwi_trace::{Counter, Track};

/// Statistics of one transfer engine's run.
///
/// Invariant: `words == bursts_full() * burst_words + tail_words` — every
/// packed word leaves through exactly one burst, and only the *final*
/// burst of a run may be short. [`transfer`] enforces the second half by
/// panicking if a second short flush would overwrite `tail_words`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// RNs consumed from the stream.
    pub rns: u64,
    /// Complete 512-bit words written.
    pub words: u64,
    /// Bursts issued (`memcpy` calls), full and short.
    pub bursts: u64,
    /// Short (non-full) bursts issued — 0 or 1 per run.
    pub tail_bursts: u64,
    /// Words in the final, possibly short, burst (0 if exact).
    pub tail_words: u64,
}

impl TransferStats {
    /// Bursts that carried exactly `burst_words` words.
    pub fn bursts_full(&self) -> u64 {
        self.bursts - self.tail_bursts
    }
}

/// Drain `stream` into `region`, packing 16 RNs per word and bursting
/// `burst_words` words at a time (Listing 4's `transfBuf[LTRANSF]` +
/// `memcpy`). Returns the stats; panics if the region is too small —
/// the hardware would silently corrupt memory, the simulation refuses.
pub fn transfer(
    stream: &Consumer<f32>,
    region: &mut [Wide512],
    burst_words: usize,
) -> TransferStats {
    transfer_traced(stream, region, burst_words, &Track::disabled())
}

/// [`transfer`] with a timeline track: each burst renders as a `burst`
/// span (opened when the first word enters the staging buffer, closed
/// when the `memcpy` lands), a short final burst additionally drops a
/// `tail burst` marker, and the metrics registry accumulates
/// `dwi_transfer_bursts_total` / `dwi_transfer_bytes_total` /
/// `dwi_transfer_tail_bursts_total` labelled by work-item.
pub fn transfer_traced(
    stream: &Consumer<f32>,
    region: &mut [Wide512],
    burst_words: usize,
    track: &Track,
) -> TransferStats {
    let mut engine = TransferEngine::new(region, burst_words, track);
    while let Some(v) = stream.read() {
        engine.push(v);
    }
    engine.finish()
}

/// The incremental transfer engine behind [`transfer_traced`]: 16-lane
/// packing, `burst_words`-word staging buffer, `memcpy` flushes into the
/// region — Listing 4, value at a time.
pub struct TransferEngine<'a> {
    region: &'a mut [Wide512],
    burst_words: usize,
    track: &'a Track,
    c_bursts: Counter,
    c_bytes: Counter,
    c_tail: Counter,
    packer: Packer,
    burst_buf: Vec<Wide512>,
    burst_start_ns: u64, // when the staging buffer went 0 → 1
    offset: usize,       // within the region (Listing 4's `offset`)
    stats: TransferStats,
}

impl<'a> TransferEngine<'a> {
    /// Engine over one work-item's region. Panics on a zero-word burst.
    pub fn new(region: &'a mut [Wide512], burst_words: usize, track: &'a Track) -> Self {
        assert!(burst_words > 0, "burst must be at least one word");
        let (c_bursts, c_bytes, c_tail) = if track.is_enabled() {
            let wid = track.id().wid.to_string();
            (
                track.counter("dwi_transfer_bursts_total", &[("wid", &wid)]),
                track.counter("dwi_transfer_bytes_total", &[("wid", &wid)]),
                track.counter("dwi_transfer_tail_bursts_total", &[("wid", &wid)]),
            )
        } else {
            (
                Counter::disabled(),
                Counter::disabled(),
                Counter::disabled(),
            )
        };
        Self {
            region,
            burst_words,
            track,
            c_bursts,
            c_bytes,
            c_tail,
            packer: Packer::new(),
            burst_buf: Vec::with_capacity(burst_words),
            burst_start_ns: 0,
            offset: 0,
            stats: TransferStats::default(),
        }
    }

    fn flush_burst(&mut self) {
        if self.burst_buf.is_empty() {
            return;
        }
        let end = self.offset + self.burst_buf.len();
        assert!(
            end <= self.region.len(),
            "transfer overruns the work-item region ({} > {})",
            end,
            self.region.len()
        );
        self.region[self.offset..end].copy_from_slice(&self.burst_buf);
        self.offset = end;
        self.stats.bursts += 1;
        self.c_bursts.inc();
        self.c_bytes
            .add(self.burst_buf.len() as u64 * Wide512::BYTES as u64);
        if self.burst_buf.len() < self.burst_words {
            // Only the final flush of a run may be short; a second short
            // flush would silently overwrite tail_words.
            assert_eq!(
                self.stats.tail_bursts, 0,
                "tail burst may only be the final burst of a run"
            );
            self.stats.tail_bursts += 1;
            self.stats.tail_words = self.burst_buf.len() as u64;
            self.c_tail.inc();
            self.track.instant("tail burst");
        }
        self.track.span_since("burst", self.burst_start_ns);
        self.burst_buf.clear();
    }

    fn stage(&mut self, word: Wide512) {
        if self.burst_buf.is_empty() {
            self.burst_start_ns = self.track.now_ns();
        }
        self.burst_buf.push(word);
        self.stats.words += 1;
        if self.burst_buf.len() == self.burst_words {
            self.flush_burst();
        }
    }

    /// Consume one value from the upstream FIFO / slice.
    pub fn push(&mut self, v: f32) {
        self.stats.rns += 1;
        if let Some(word) = self.packer.push(v) {
            self.stage(word);
        }
    }

    /// Upstream closed: flush the partial word (zero-padded) and the
    /// last burst; return the run's stats.
    pub fn finish(mut self) -> TransferStats {
        if let Some(word) = self.packer.flush() {
            self.stage(word);
        }
        self.flush_burst();
        debug_assert_eq!(
            self.stats.words,
            self.stats.bursts_full() * self.burst_words as u64 + self.stats.tail_words,
            "transfer word conservation"
        );
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwi_hls::stream::Stream;

    fn run_transfer(
        values: Vec<f32>,
        region_words: usize,
        burst_words: usize,
    ) -> (Vec<f32>, TransferStats) {
        let (tx, rx) = Stream::with_depth(64);
        let mut region = vec![Wide512::zero(); region_words];
        let producer = std::thread::spawn(move || {
            for v in values {
                tx.write(v);
            }
        });
        let stats = transfer(&rx, &mut region, burst_words);
        producer.join().unwrap();
        let mut out = Vec::new();
        dwi_hls::wide::unpack_words(&region, &mut out);
        (out, stats)
    }

    fn assert_conservation(stats: &TransferStats, burst_words: usize) {
        assert_eq!(
            stats.words,
            stats.bursts_full() * burst_words as u64 + stats.tail_words,
            "words must equal full-burst words plus the tail"
        );
    }

    #[test]
    fn exact_multiple_of_burst() {
        let data: Vec<f32> = (0..512).map(|i| i as f32).collect();
        let (out, stats) = run_transfer(data.clone(), 32, 16);
        assert_eq!(&out[..512], &data[..]);
        assert_eq!(stats.rns, 512);
        assert_eq!(stats.words, 32);
        assert_eq!(stats.bursts, 2);
        assert_eq!(stats.tail_bursts, 0);
        assert_eq!(stats.tail_words, 0);
        assert_eq!(stats.bursts_full(), 2);
        assert_conservation(&stats, 16);
    }

    #[test]
    fn partial_word_zero_padded() {
        let data: Vec<f32> = (0..20).map(|i| i as f32 + 1.0).collect();
        let (out, stats) = run_transfer(data.clone(), 2, 16);
        assert_eq!(&out[..20], &data[..]);
        assert_eq!(out[20], 0.0, "tail lanes zero-padded");
        assert_eq!(stats.words, 2);
        assert_eq!(stats.bursts, 1);
        assert_eq!(stats.tail_bursts, 1);
        assert_eq!(stats.tail_words, 2);
        assert_conservation(&stats, 16);
    }

    #[test]
    fn short_final_burst() {
        // 3 words with 2-word bursts → one full + one tail burst.
        let data: Vec<f32> = (0..48).map(|i| i as f32).collect();
        let (_, stats) = run_transfer(data, 3, 2);
        assert_eq!(stats.bursts, 2);
        assert_eq!(stats.tail_bursts, 1);
        assert_eq!(stats.tail_words, 1);
        assert_eq!(stats.bursts_full(), 1);
        assert_conservation(&stats, 2);
    }

    #[test]
    #[should_panic(expected = "overruns the work-item region")]
    fn region_overflow_panics() {
        let data: Vec<f32> = (0..64).map(|i| i as f32).collect();
        let _ = run_transfer(data, 1, 1);
    }

    #[test]
    fn empty_stream_is_a_noop() {
        let (out, stats) = run_transfer(Vec::new(), 2, 2);
        assert!(out.iter().all(|&v| v == 0.0));
        assert_eq!(stats, TransferStats::default());
    }

    #[test]
    fn traced_transfer_records_burst_spans_and_counters() {
        use dwi_trace::{EventKind, ProcessKind, Recorder};
        let rec = Recorder::new();
        let data: Vec<f32> = (0..512).map(|i| i as f32).collect();
        let (tx, rx) = Stream::with_depth(64);
        let mut region = vec![Wide512::zero(); 32];
        let producer = std::thread::spawn(move || {
            for v in data {
                tx.write(v);
            }
        });
        let track = rec.track(3, ProcessKind::Transfer);
        let stats = transfer_traced(&rx, &mut region, 16, &track);
        producer.join().unwrap();
        track.flush();
        assert_eq!(stats.bursts, 2);
        let spans: Vec<_> = rec
            .events()
            .into_iter()
            .filter(|e| e.name == "burst" && matches!(e.kind, EventKind::Span { .. }))
            .collect();
        assert_eq!(spans.len(), 2, "one span per burst");
        assert_eq!(
            rec.metrics()
                .counter_value("dwi_transfer_bursts_total{wid=\"3\"}"),
            Some(2)
        );
        assert_eq!(
            rec.metrics()
                .counter_value("dwi_transfer_bytes_total{wid=\"3\"}"),
            Some(32 * Wide512::BYTES as u64)
        );
    }
}
