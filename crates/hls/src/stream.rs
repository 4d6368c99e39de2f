//! `hls::stream`-style bounded blocking FIFOs.
//!
//! The `DATAFLOW` pragma requires every variable to have a single
//! producer-consumer pair coupled through a stream (Section III-A); in the
//! functional simulation each decoupled work-item's `GammaRNG` process and
//! its `Transfer` process run as OS threads joined by one of these FIFOs.
//! `write` blocks when the FIFO is full (hardware back-pressure), `read`
//! blocks when it is empty — exactly the semantics that make the work-items
//! shift in time and interleave their memory transfers (Fig. 3).
//!
//! Unlike hardware streams, a simulated producer terminates: dropping the
//! last [`Producer`] closes the stream and drains readers with `None`.
//!
//! Stall telemetry: both endpoints count blocking waits (surfaced through
//! [`Producer::stalls`] / [`Consumer::stalls`]), and each endpoint can
//! carry a `dwi_trace::Track` ([`Producer::attach_track`] /
//! [`Consumer::attach_track`]) so every stall renders as a span on the
//! owning process's timeline — back-pressure becomes visible in the Fig. 3
//! trace instead of just a number.

use dwi_trace::{Counter, Track};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

struct Inner<T> {
    queue: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

impl<T> Inner<T> {
    /// Lock the state, recovering from poisoning: a panicking peer thread
    /// must not turn every subsequent stream operation into a second panic
    /// (the scoped engines join and propagate the original panic anyway).
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.queue.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn wait<'a>(&self, cv: &Condvar, guard: MutexGuard<'a, State<T>>) -> MutexGuard<'a, State<T>> {
        cv.wait(guard).unwrap_or_else(|e| e.into_inner())
    }
}

struct State<T> {
    buf: VecDeque<T>,
    producers: usize,
    /// Peak occupancy (telemetry: FIFO sizing, like HLS stream depth reports).
    high_water: usize,
    /// Total writes that had to block on a full FIFO.
    write_stalls: u64,
    /// Total reads that had to block on an empty FIFO.
    read_stalls: u64,
}

/// A bounded blocking stream (FIFO) of depth `capacity` — constructor-only
/// namespace; the endpoints are [`Producer`] and [`Consumer`].
///
/// ```
/// use dwi_hls::stream::Stream;
/// let (tx, rx) = Stream::with_depth(4);
/// tx.write(1.0f32);
/// drop(tx); // close: readers drain, then get None
/// assert_eq!(rx.read(), Some(1.0));
/// assert_eq!(rx.read(), None);
/// ```
pub struct Stream<T>(std::marker::PhantomData<T>);

/// Writing endpoint; the stream closes when all producers are dropped.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
    track: Option<Track>,
    stall_counter: Counter,
}

/// Reading endpoint.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
    track: Option<Track>,
    stall_counter: Counter,
}

impl<T> Stream<T> {
    /// Create a stream of the given depth, returning its two endpoints.
    pub fn with_depth(capacity: usize) -> (Producer<T>, Consumer<T>) {
        Self::with_depth_reserving(capacity, capacity)
    }

    /// [`Stream::with_depth`], allocating room for at most `reserve`
    /// elements up front: a producer that can emit only `reserve` values
    /// never needs more, however deep the FIFO. Depth semantics (blocking,
    /// stalls, high water) are those of `capacity`.
    pub fn with_depth_reserving(capacity: usize, reserve: usize) -> (Producer<T>, Consumer<T>) {
        assert!(capacity > 0, "stream depth must be positive");
        let inner = Arc::new(Inner {
            queue: Mutex::new(State {
                buf: VecDeque::with_capacity(capacity.min(reserve)),
                producers: 1,
                high_water: 0,
                write_stalls: 0,
                read_stalls: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        });
        (
            Producer {
                inner: inner.clone(),
                track: None,
                stall_counter: Counter::disabled(),
            },
            Consumer {
                inner,
                track: None,
                stall_counter: Counter::disabled(),
            },
        )
    }
}

impl<T> Producer<T> {
    /// Attach a timeline track: blocking writes record `stream write
    /// stall` spans on it and bump `dwi_stream_write_stalls_total`.
    pub fn attach_track(&mut self, track: Track) {
        let wid = track.id().wid.to_string();
        self.stall_counter = track.counter("dwi_stream_write_stalls_total", &[("wid", &wid)]);
        self.track = Some(track);
    }

    /// Blocking write (back-pressure when full).
    pub fn write(&self, value: T) {
        let mut st = self.inner.lock();
        if st.buf.len() >= self.inner.capacity {
            st.write_stalls += 1;
            let t0 = self.track.as_ref().map(|t| t.now_ns());
            while st.buf.len() >= self.inner.capacity {
                st = self.inner.wait(&self.inner.not_full, st);
            }
            if let (Some(track), Some(t0)) = (&self.track, t0) {
                track.span_since("stream write stall", t0);
                self.stall_counter.inc();
            }
        }
        st.buf.push_back(value);
        let len = st.buf.len();
        st.high_water = st.high_water.max(len);
        drop(st);
        self.inner.not_empty.notify_one();
    }

    /// Non-blocking write; `Err(value)` when the FIFO is full.
    pub fn try_write(&self, value: T) -> Result<(), T> {
        let mut st = self.inner.lock();
        if st.buf.len() >= self.inner.capacity {
            return Err(value);
        }
        st.buf.push_back(value);
        let len = st.buf.len();
        st.high_water = st.high_water.max(len);
        drop(st);
        self.inner.not_empty.notify_one();
        Ok(())
    }

    /// (write stalls, read stalls) so far — same counters as
    /// [`Consumer::stalls`], readable from the writing side.
    pub fn stalls(&self) -> (u64, u64) {
        let st = self.inner.lock();
        (st.write_stalls, st.read_stalls)
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        let mut st = self.inner.lock();
        st.producers -= 1;
        if st.producers == 0 {
            drop(st);
            self.inner.not_empty.notify_all();
        }
    }
}

impl<T> Consumer<T> {
    /// Attach a timeline track: blocking reads record `stream read stall`
    /// spans on it and bump `dwi_stream_read_stalls_total`.
    pub fn attach_track(&mut self, track: Track) {
        let wid = track.id().wid.to_string();
        self.stall_counter = track.counter("dwi_stream_read_stalls_total", &[("wid", &wid)]);
        self.track = Some(track);
    }

    /// Blocking read; `None` once the stream is closed *and* drained.
    pub fn read(&self) -> Option<T> {
        let mut st = self.inner.lock();
        let mut stalled_at = None;
        if st.buf.is_empty() && st.producers > 0 {
            st.read_stalls += 1;
            stalled_at = self.track.as_ref().map(|t| t.now_ns());
        }
        loop {
            if let Some(v) = st.buf.pop_front() {
                drop(st);
                self.inner.not_full.notify_one();
                if let (Some(track), Some(t0)) = (&self.track, stalled_at) {
                    track.span_since("stream read stall", t0);
                    self.stall_counter.inc();
                }
                return Some(v);
            }
            if st.producers == 0 {
                return None;
            }
            st = self.inner.wait(&self.inner.not_empty, st);
        }
    }

    /// Non-blocking read.
    pub fn try_read(&self) -> Option<T> {
        let mut st = self.inner.lock();
        let v = st.buf.pop_front();
        if v.is_some() {
            drop(st);
            self.inner.not_full.notify_one();
        }
        v
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// True when currently empty (racy, for tests/telemetry only).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Peak occupancy since creation.
    pub fn high_water(&self) -> usize {
        self.inner.lock().high_water
    }

    /// (write stalls, read stalls) so far.
    pub fn stalls(&self) -> (u64, u64) {
        let st = self.inner.lock();
        (st.write_stalls, st.read_stalls)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    #[test]
    fn fifo_order_preserved() {
        let (tx, rx) = Stream::with_depth(8);
        for i in 0..8 {
            tx.write(i);
        }
        for i in 0..8 {
            assert_eq!(rx.read(), Some(i));
        }
    }

    #[test]
    fn try_write_respects_capacity() {
        let (tx, rx) = Stream::with_depth(2);
        assert!(tx.try_write(1).is_ok());
        assert!(tx.try_write(2).is_ok());
        assert_eq!(tx.try_write(3), Err(3));
        assert_eq!(rx.try_read(), Some(1));
        assert!(tx.try_write(3).is_ok());
    }

    #[test]
    fn read_after_close_drains_then_none() {
        let (tx, rx) = Stream::with_depth(4);
        tx.write(10);
        tx.write(20);
        drop(tx);
        assert_eq!(rx.read(), Some(10));
        assert_eq!(rx.read(), Some(20));
        assert_eq!(rx.read(), None);
        assert_eq!(rx.read(), None, "stays closed");
    }

    #[test]
    fn blocking_write_applies_backpressure() {
        let (tx, rx) = Stream::with_depth(1);
        tx.write(1);
        let h = thread::spawn(move || {
            tx.write(2); // blocks until the reader drains
            tx.write(3);
        });
        thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.len(), 1, "writer must be blocked");
        assert_eq!(rx.read(), Some(1));
        assert_eq!(rx.read(), Some(2));
        assert_eq!(rx.read(), Some(3));
        h.join().unwrap();
        let (wstalls, _) = rx.stalls();
        assert!(wstalls >= 1, "the blocked write must be counted");
    }

    #[test]
    fn blocking_read_waits_for_producer() {
        let (tx, rx) = Stream::with_depth(4);
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            tx.write(99);
        });
        assert_eq!(rx.read(), Some(99)); // blocks until written
        h.join().unwrap();
        let (_, rstalls) = rx.stalls();
        assert!(rstalls >= 1);
    }

    #[test]
    fn depth1_slow_consumer_reports_write_stalls() {
        // The satellite invariant: a depth-1 stream driven faster than it
        // drains must report back-pressure from both endpoints.
        let (tx, rx) = Stream::with_depth(1);
        let producer = thread::spawn(move || {
            for i in 0..32 {
                tx.write(i);
            }
            tx.stalls().0
        });
        let mut got = 0;
        while let Some(_v) = rx.read() {
            thread::sleep(Duration::from_millis(1)); // slow consumer
            got += 1;
        }
        let producer_view = producer.join().unwrap();
        assert_eq!(got, 32);
        let (wstalls, _) = rx.stalls();
        assert!(wstalls > 0, "depth-1 + slow consumer must stall writes");
        assert_eq!(producer_view, wstalls, "both endpoints see one counter");
    }

    #[test]
    fn tracked_endpoints_record_stall_spans() {
        use dwi_trace::{ProcessKind, Recorder};
        let rec = Recorder::new();
        let (mut tx, mut rx) = Stream::with_depth(1);
        tx.attach_track(rec.track(0, ProcessKind::Compute));
        rx.attach_track(rec.track(0, ProcessKind::Transfer));
        let producer = thread::spawn(move || {
            for i in 0..16 {
                tx.write(i);
            }
        });
        let mut n = 0;
        while let Some(_v) = rx.read() {
            thread::sleep(Duration::from_millis(1));
            n += 1;
        }
        producer.join().unwrap();
        drop(rx);
        assert_eq!(n, 16);
        let events = rec.events();
        assert!(
            events.iter().any(|e| e.name == "stream write stall"),
            "write stalls must appear on the compute track"
        );
        let prom = rec.prometheus();
        assert!(prom.contains("dwi_stream_write_stalls_total"));
    }

    #[test]
    fn producer_consumer_threads_move_bulk_data() {
        let (tx, rx) = Stream::with_depth(16);
        let n = 100_000u64;
        let producer = thread::spawn(move || {
            for i in 0..n {
                tx.write(i);
            }
        });
        let mut expected = 0u64;
        while let Some(v) = rx.read() {
            assert_eq!(v, expected);
            expected += 1;
        }
        assert_eq!(expected, n);
        producer.join().unwrap();
    }

    #[test]
    fn high_water_tracks_peak() {
        let (tx, rx) = Stream::with_depth(10);
        for i in 0..7 {
            tx.write(i);
        }
        for _ in 0..7 {
            rx.read();
        }
        assert_eq!(rx.high_water(), 7);
    }

    #[test]
    #[should_panic(expected = "depth must be positive")]
    fn zero_depth_panics() {
        let _ = Stream::<u32>::with_depth(0);
    }
}
