//! OpenCL-style host API over simulated time.
//!
//! The paper's host flow (Section II, IV-F): allocate buffers, enqueue the
//! kernel *asynchronously* many times ("the host will remain idle waiting
//! for the cl_events to complete, one per kernel invocation"), enqueue
//! read-backs, and time everything with event profiling. This module
//! provides that API surface against the simulated platforms, with
//! OpenCL-like event timestamps (`queued`/`submit`/`start`/`end`) in
//! simulated nanoseconds — the measurement-session scripts (Fig. 8) and
//! the buffer-combining comparison (Section III-E) run on it.

use crate::pcie::PcieLink;
use crate::profiles::{DeviceProfile, KernelCell};

/// Simulated-time profiling info of a command (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Host enqueued the command.
    pub queued_ns: u64,
    /// Runtime submitted it to the device.
    pub submit_ns: u64,
    /// Device began execution.
    pub start_ns: u64,
    /// Device finished.
    pub end_ns: u64,
}

impl Event {
    /// Device execution time in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A device-side buffer (simulated allocation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Buffer {
    /// Size in bytes.
    pub bytes: u64,
    id: u32,
}

/// An in-order command queue on one device, advancing a simulated clock.
#[derive(Debug)]
pub struct CommandQueue {
    device: DeviceProfile,
    link: PcieLink,
    /// Device busy-until time (ns).
    device_free_ns: u64,
    /// Host-visible current time (ns).
    now_ns: u64,
    /// Fixed enqueue overhead charged to the host per command.
    enqueue_overhead_ns: u64,
    events: Vec<Event>,
    next_buffer_id: u32,
}

impl CommandQueue {
    /// Create a queue for a device behind a PCIe link.
    pub fn new(device: DeviceProfile, link: PcieLink) -> Self {
        Self {
            device,
            link,
            device_free_ns: 0,
            now_ns: 0,
            enqueue_overhead_ns: 10_000, // ~10 µs driver call
            events: Vec::new(),
            next_buffer_id: 0,
        }
    }

    /// The device this queue feeds.
    pub fn device(&self) -> &DeviceProfile {
        &self.device
    }

    /// Allocate a device buffer.
    pub fn create_buffer(&mut self, bytes: u64) -> Buffer {
        let id = self.next_buffer_id;
        self.next_buffer_id += 1;
        Buffer { bytes, id }
    }

    /// Enqueue an NDRange gamma kernel (asynchronous: returns immediately
    /// with the event; the simulated device executes in-order).
    pub fn enqueue_kernel(
        &mut self,
        cell: &KernelCell,
        total_outputs: u64,
        global_size: u64,
        local_size: u64,
    ) -> Event {
        let t = self
            .device
            .kernel_runtime_s(cell, total_outputs, global_size, local_size);
        self.enqueue((t * 1e9) as u64)
    }

    /// Enqueue a device→host read of a buffer (one request).
    pub fn enqueue_read(&mut self, buffer: &Buffer) -> Event {
        let t = self.link.transfer_s(buffer.bytes, 1);
        self.enqueue((t * 1e9) as u64)
    }

    /// Enqueue `n` reads of equal slices of a buffer (host-level combining:
    /// one request per work-item region, Section III-E-1).
    pub fn enqueue_read_split(&mut self, buffer: &Buffer, n: u32) -> Vec<Event> {
        assert!(n >= 1);
        let slice = buffer.bytes / n as u64;
        (0..n)
            .map(|_| {
                let t = self.link.transfer_s(slice, 1);
                self.enqueue((t * 1e9) as u64)
            })
            .collect()
    }

    fn enqueue(&mut self, duration_ns: u64) -> Event {
        let queued = self.now_ns;
        self.now_ns += self.enqueue_overhead_ns; // host-side cost only
        let submit = self.now_ns;
        let start = submit.max(self.device_free_ns);
        let end = start + duration_ns;
        self.device_free_ns = end;
        let ev = Event {
            queued_ns: queued,
            submit_ns: submit,
            start_ns: start,
            end_ns: end,
        };
        self.events.push(ev);
        ev
    }

    /// Block until every enqueued command completed; returns the simulated
    /// completion time (ns). The host clock advances to it (the paper's
    /// idle-host wait on cl_events).
    pub fn finish(&mut self) -> u64 {
        self.now_ns = self.now_ns.max(self.device_free_ns);
        self.now_ns
    }

    /// All recorded events.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Enqueue the kernel repeatedly until the *device* busy span reaches
    /// `window_s` seconds — the paper's ≥150 s measurement methodology.
    /// Returns the events and the (fractional) invocation count inside the
    /// window.
    pub fn run_measurement_session(
        &mut self,
        cell: &KernelCell,
        total_outputs: u64,
        global_size: u64,
        local_size: u64,
        window_s: f64,
    ) -> (Vec<Event>, f64) {
        let target_ns = (window_s * 1e9) as u64;
        let begin = self.device_free_ns;
        let mut events = Vec::new();
        while self.device_free_ns - begin < target_ns {
            events.push(self.enqueue_kernel(cell, total_outputs, global_size, local_size));
            assert!(events.len() < 1_000_000, "kernel too short for session");
        }
        let span = (self.device_free_ns - begin) as f64;
        let per = events[0].duration_ns() as f64;
        (events, span.min(target_ns as f64) / per)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{Transform, CPU, GPU};

    fn cell() -> KernelCell {
        KernelCell {
            transform: Transform::MarsagliaBray,
            big_state: true,
            reject_prob: 0.233,
        }
    }

    const N: u64 = 2_621_440 * 240;

    #[test]
    fn kernel_event_duration_matches_model() {
        let mut q = CommandQueue::new(GPU, PcieLink::gen3_x8());
        let ev = q.enqueue_kernel(&cell(), N, 65_536, 64);
        let want = GPU.kernel_runtime_s(&cell(), N, 65_536, 64) * 1e9;
        assert!((ev.duration_ns() as f64 - want).abs() < 1.0);
    }

    #[test]
    fn queue_serializes_in_order() {
        let mut q = CommandQueue::new(CPU, PcieLink::gen3_x8());
        let a = q.enqueue_kernel(&cell(), N, 65_536, 8);
        let b = q.enqueue_kernel(&cell(), N, 65_536, 8);
        assert!(b.start_ns >= a.end_ns, "in-order queue must serialize");
        // Async: host time moved only by enqueue overheads.
        assert!(q.now_ns < a.end_ns);
        let done = q.finish();
        assert_eq!(done, b.end_ns);
    }

    #[test]
    fn async_enqueue_returns_before_completion() {
        let mut q = CommandQueue::new(GPU, PcieLink::gen3_x8());
        let ev = q.enqueue_kernel(&cell(), N, 65_536, 64);
        assert!(q.now_ns < ev.end_ns, "enqueue must be asynchronous");
    }

    #[test]
    fn split_reads_cost_more_than_single_read() {
        // Section III-E: N read requests vs one.
        let mut q1 = CommandQueue::new(GPU, PcieLink::gen3_x8());
        let buf = q1.create_buffer(N * 4);
        q1.enqueue_read(&buf);
        let single = q1.finish();

        let mut q2 = CommandQueue::new(GPU, PcieLink::gen3_x8());
        let buf = q2.create_buffer(N * 4);
        q2.enqueue_read_split(&buf, 6);
        let split = q2.finish();
        assert!(split > single);
        // But well under 1% slower for 2.5 GB (the paper's observation).
        assert!((split as f64 / single as f64) < 1.01);
    }

    #[test]
    fn measurement_session_fills_window() {
        let mut q = CommandQueue::new(GPU, PcieLink::gen3_x8());
        let (events, invocations) = q.run_measurement_session(&cell(), N, 65_536, 64, 20.0);
        assert!(!events.is_empty());
        // Span covered ≥ 20 s.
        let span = events.last().unwrap().end_ns - events[0].start_ns;
        assert!(span as f64 >= 20e9);
        // Fractional invocation count ≈ window / kernel time.
        let per = events[0].duration_ns() as f64 / 1e9;
        assert!((invocations - 20.0 / per).abs() / (20.0 / per) < 0.05);
    }

    #[test]
    fn buffers_get_distinct_ids() {
        let mut q = CommandQueue::new(CPU, PcieLink::gen3_x8());
        let a = q.create_buffer(16);
        let b = q.create_buffer(16);
        assert_ne!(a, b);
    }
}
