//! Randomized case-sweep tests for the HLS substrate (deterministic
//! `dwi-testkit` generator; seeds are fixed, failures reproduce exactly).

use dwi_hls::memory::BurstChannel;
use dwi_hls::pipeline::PipelineModel;
use dwi_hls::stream::Stream;
use dwi_hls::wide::{unpack_words, Packer, Wide512};
use dwi_testkit::cases;

#[test]
fn packer_round_trips_any_length() {
    cases(64, |r| {
        let len = r.usize_range(0, 200);
        let data = r.vec_f32(len, -1e6, 1e6);
        let mut p = Packer::new();
        let mut words: Vec<Wide512> = Vec::new();
        for &v in &data {
            if let Some(w) = p.push(v) {
                words.push(w);
            }
        }
        if let Some(w) = p.flush() {
            words.push(w);
        }
        let mut out = Vec::new();
        unpack_words(&words, &mut out);
        assert_eq!(&out[..data.len()], &data[..]);
        for &pad in &out[data.len()..] {
            assert_eq!(pad, 0.0);
        }
    });
}

#[test]
fn pipeline_cycles_monotone() {
    cases(256, |r| {
        let ii = r.u64_range(1, 8);
        let depth = r.u64_range(1, 200);
        let trips = r.u64_range(0, 100_000);
        let m = PipelineModel::new(ii, depth);
        assert!(m.cycles(trips + 1) >= m.cycles(trips));
        // II dominates asymptotically.
        if trips > 0 {
            assert_eq!(m.cycles(trips + 1) - m.cycles(trips), ii);
        }
    });
}

#[test]
fn stream_preserves_order_and_content() {
    cases(32, |r| {
        let data: Vec<u64> = (0..r.usize_range(1, 500)).map(|_| r.next_u64()).collect();
        let depth = r.usize_range(1, 64);
        let (tx, rx) = Stream::with_depth(depth);
        let sent = data.clone();
        let producer = std::thread::spawn(move || {
            for v in sent {
                tx.write(v);
            }
        });
        let mut received = Vec::with_capacity(data.len());
        while let Some(v) = rx.read() {
            received.push(v);
        }
        producer.join().unwrap();
        assert_eq!(received, data);
    });
}

#[test]
fn effective_bandwidth_bounded_by_cap() {
    cases(256, |r| {
        let burst_words = r.u64_range(1, 64);
        let n = r.u64_range(1, 32);
        let arb = r.u64_range(0, 32);
        let cpb = r.u64_range(1, 8);
        let ch = BurstChannel {
            freq_hz: 200e6,
            cycles_per_beat: cpb,
            arb_cycles: arb,
            pack_cycles_per_rn: 1,
        };
        let burst = burst_words * 16;
        let bw = ch.effective_bandwidth(burst, n);
        assert!(bw <= ch.channel_cap(burst) * 1.0000001);
        assert!(bw > 0.0);
        // Monotone in work-items.
        assert!(ch.effective_bandwidth(burst, n + 1) >= bw - 1e-6);
    });
}

#[test]
fn eq1_exit_ii_inverse_of_delay() {
    cases(256, |r| {
        let lat = r.u64_range(1, 16);
        let delay = r.u64_range(0, 16);
        let ii = PipelineModel::ii_for_exit_dependency(lat, delay);
        assert!(ii >= 1);
        assert!(ii <= lat.max(1));
        if delay >= lat {
            assert_eq!(ii, 1);
        }
    });
}
