//! Cycle-level discrete simulation of the decoupled dataflow (Fig. 3).
//!
//! Each work-item is a pair of processes — a pipelined *compute* stage
//! producing (at most) one RN per cycle, and a *transfer* engine that drains
//! the coupling FIFO, packs 512-bit words, and ships fixed-length bursts
//! over the single shared memory channel. The channel is granted
//! round-robin; while a work-item is bursting it does not drain its FIFO
//! (`LOOP_FLATTEN off` ⇒ sequential within the work-item), so back-pressure
//! propagates exactly as in the hardware and the work-items *shift in time*
//! until compute and transfer fully overlap — the behaviour Fig. 3 sketches
//! and this engine lets us observe cycle by cycle.

use crate::memory::{BurstChannel, RNS_PER_BEAT};

/// What to simulate.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of decoupled work-items.
    pub n_workitems: usize,
    /// Valid RNs each work-item must deliver.
    pub rns_per_workitem: u64,
    /// Probability an iteration produces no output (rejection), in [0, 1).
    pub reject_prob: f64,
    /// Depth of the compute→transfer FIFO (hls::stream depth).
    pub fifo_depth: usize,
    /// RNs per burst (LTRANSF × 16).
    pub burst_rns: u64,
    /// The shared memory channel.
    pub channel: BurstChannel,
    /// When false, compute is bypassed and the transfer engines stream dummy
    /// data back-to-back — the paper's transfers-only experiment (Fig. 7).
    pub compute_enabled: bool,
    /// Deterministic seed for the rejection pattern.
    pub seed: u64,
    /// Record per-burst events (cheap; per-cycle detail is derived).
    pub trace: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            n_workitems: 6,
            rns_per_workitem: 4096,
            reject_prob: 0.233,
            fifo_depth: 64,
            burst_rns: 256,
            channel: BurstChannel::config12(),
            compute_enabled: true,
            seed: 1,
            trace: false,
        }
    }
}

/// A burst transfer event (for schedule rendering).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstEvent {
    /// Issuing work-item.
    pub wid: usize,
    /// Cycle the channel grant was issued.
    pub start: u64,
    /// Cycle the burst released the channel.
    pub end: u64,
}

/// Aggregate results of a simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Total cycles until every work-item delivered its data.
    pub cycles: u64,
    /// Completion cycle of each work-item's last burst.
    pub per_wi_done: Vec<u64>,
    /// Cycles the channel spent occupied.
    pub channel_busy: u64,
    /// Cycles each compute stage spent stalled on a full FIFO.
    pub compute_stalls: Vec<u64>,
    /// Peak FIFO occupancy per work-item.
    pub fifo_high_water: Vec<usize>,
    /// Burst schedule (empty unless `trace`).
    pub bursts: Vec<BurstEvent>,
}

impl SimResult {
    /// Wall-clock seconds at the channel clock.
    pub fn runtime_s(&self, freq_hz: f64) -> f64 {
        self.cycles as f64 / freq_hz
    }

    /// Channel utilization in [0, 1].
    pub fn channel_utilization(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.channel_busy as f64 / self.cycles as f64
        }
    }
}

struct WorkItem {
    produced: u64,  // RNs emitted by compute
    delivered: u64, // RNs shipped to memory
    fifo: u64,      // current FIFO occupancy
    fifo_peak: u64,
    buffered: u64,                 // RNs in the buffer currently being filled
    ready: Option<u64>,            // a full buffer waiting for a channel grant
    in_flight: Option<(u64, u64)>, // (end_cycle, rns) burst on the channel
    stalls: u64,
    lcg: u64,
    done_at: u64,
    done: bool,
}

impl WorkItem {
    fn remaining_to_buffer(&self, total: u64) -> u64 {
        total
            - self.delivered
            - self.in_flight.map_or(0, |(_, r)| r)
            - self.ready.unwrap_or(0)
            - self.buffered
    }
}

/// Where the compute stages' accept/reject decisions come from.
enum AcceptSource<'a> {
    /// The built-in LCG rejection model (legacy behaviour, bit-identical).
    Lcg { threshold: u64 },
    /// Recorded per-iteration accept flags from a real kernel execution:
    /// `traces[i][j]` is whether work-item `i`'s `j`-th non-stalled compute
    /// cycle validated an output. Stalled cycles do **not** consume trace
    /// entries — the pipeline is frozen, not advancing.
    Traces {
        traces: &'a [Vec<bool>],
        cursor: Vec<usize>,
    },
}

impl AcceptSource<'_> {
    #[inline]
    fn accept(&mut self, wi: usize, w: &mut WorkItem) -> bool {
        match self {
            AcceptSource::Lcg { threshold } => {
                w.lcg = w
                    .lcg
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (w.lcg >> 32) >= *threshold
            }
            AcceptSource::Traces { traces, cursor } => {
                let j = cursor[wi];
                assert!(
                    j < traces[wi].len(),
                    "work-item {wi}: iteration trace exhausted before quota"
                );
                cursor[wi] = j + 1;
                traces[wi][j]
            }
        }
    }
}

/// Run the cycle-level simulation with the built-in LCG rejection model.
pub fn run(cfg: &SimConfig) -> SimResult {
    assert!((0.0..1.0).contains(&cfg.reject_prob));
    let reject_threshold = (cfg.reject_prob * (1u64 << 32) as f64) as u64;
    let targets = vec![cfg.rns_per_workitem; cfg.n_workitems];
    run_inner(
        cfg,
        AcceptSource::Lcg {
            threshold: reject_threshold,
        },
        &targets,
    )
}

/// Run the cycle-level simulation driven by **recorded kernel iteration
/// traces** instead of the hard-coded rejection model: `traces[i]` is the
/// per-iteration accept flag sequence of work-item `i` (as produced by a
/// real `WorkItemKernel` execution), and each work-item's delivery target is
/// the number of accepts in its trace (`cfg.rns_per_workitem` is ignored).
/// `cfg.reject_prob`/`cfg.seed` are unused; `compute_enabled` must be true.
pub fn run_from_traces(cfg: &SimConfig, traces: &[Vec<bool>]) -> SimResult {
    assert_eq!(
        traces.len(),
        cfg.n_workitems,
        "one iteration trace per work-item"
    );
    assert!(
        cfg.compute_enabled,
        "trace-driven simulation models the compute stages"
    );
    let targets: Vec<u64> = traces
        .iter()
        .map(|t| t.iter().filter(|&&ok| ok).count() as u64)
        .collect();
    run_inner(
        cfg,
        AcceptSource::Traces {
            traces,
            cursor: vec![0; traces.len()],
        },
        &targets,
    )
}

/// Shared engine: `targets[i]` is the RN count work-item `i` must deliver.
fn run_inner(cfg: &SimConfig, mut source: AcceptSource<'_>, targets: &[u64]) -> SimResult {
    assert!(cfg.n_workitems > 0, "need at least one work-item");
    assert!(
        cfg.burst_rns > 0 && cfg.burst_rns.is_multiple_of(RNS_PER_BEAT),
        "burst must be a whole number of 512-bit words"
    );
    let mut wis: Vec<WorkItem> = (0..cfg.n_workitems)
        .map(|i| WorkItem {
            produced: 0,
            delivered: 0,
            fifo: 0,
            fifo_peak: 0,
            buffered: 0,
            ready: None,
            in_flight: None,
            stalls: 0,
            lcg: (cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((i as u64) << 32)) | 1,
            done_at: 0,
            done: false,
        })
        .collect();
    // A zero-target work-item has nothing to deliver — done before cycle 0.
    for (w, &target) in wis.iter_mut().zip(targets) {
        if target == 0 {
            w.done = true;
        }
    }
    let mut channel_free_at = 0u64;
    let mut channel_busy = 0u64;
    let mut rr = 0usize; // round-robin arbitration pointer
    let mut bursts = Vec::new();
    let mut cycle = 0u64;
    let occ = cfg.channel.burst_occupancy(cfg.burst_rns);
    let max_target = targets.iter().copied().max().unwrap_or(0);
    // Saturating: a target near `u64::MAX` must not wrap the bound small.
    let safety = (cfg.n_workitems as u64)
        .saturating_mul(max_target)
        .saturating_mul(occ + cfg.burst_rns)
        / cfg.burst_rns.max(1)
        * 8
        + 4096;

    while wis.iter().any(|w| !w.done) {
        // --- complete in-flight bursts ---
        for (w, &target) in wis.iter_mut().zip(targets) {
            if let Some((end, rns)) = w.in_flight {
                if cycle >= end {
                    w.delivered += rns;
                    w.in_flight = None;
                    if w.delivered >= target && !w.done {
                        w.done = true;
                        w.done_at = cycle;
                    }
                }
            }
        }
        // --- channel arbitration: one grant per free slot, round-robin ---
        if cycle >= channel_free_at {
            for k in 0..wis.len() {
                let idx = (rr + k) % wis.len();
                let can_go = wis[idx].ready.is_some() && wis[idx].in_flight.is_none();
                if can_go {
                    let rns = wis[idx].ready.take().expect("checked above");
                    let end = cycle + occ;
                    wis[idx].in_flight = Some((end, rns));
                    channel_free_at = end;
                    channel_busy += occ;
                    if cfg.trace {
                        bursts.push(BurstEvent {
                            wid: idx,
                            start: cycle,
                            end,
                        });
                    }
                    rr = (idx + 1) % wis.len();
                    break;
                }
            }
        }
        // --- transfer engines: pack one RN per cycle into the fill buffer
        //     (TLOOP at II = 1), double-buffered against the in-flight burst ---
        for (w, &target) in wis.iter_mut().zip(targets) {
            if w.done {
                continue;
            }
            let remaining = w.remaining_to_buffer(target);
            let target = cfg.burst_rns.min(remaining + w.buffered);
            if w.buffered < target {
                let avail = if cfg.compute_enabled { w.fifo } else { 1 };
                if avail > 0 {
                    if cfg.compute_enabled {
                        w.fifo -= 1;
                    }
                    w.buffered += 1;
                }
            }
            if w.buffered >= target && target > 0 && w.ready.is_none() {
                // Swap the filled buffer into the ready slot; filling of the
                // next buffer resumes immediately (DEPENDENCE false).
                w.ready = Some(w.buffered);
                w.buffered = 0;
            }
        }
        // --- compute stages: one iteration per cycle (II = 1) ---
        if cfg.compute_enabled {
            for (wi, (w, &target)) in wis.iter_mut().zip(targets).enumerate() {
                if w.produced >= target {
                    continue;
                }
                if w.fifo >= cfg.fifo_depth as u64 {
                    w.stalls += 1; // stream back-pressure stalls the pipeline
                    continue;
                }
                if source.accept(wi, w) {
                    w.fifo += 1;
                    w.fifo_peak = w.fifo_peak.max(w.fifo);
                    w.produced += 1;
                }
            }
        }
        cycle += 1;
        assert!(cycle < safety, "simulation failed to converge");
    }

    SimResult {
        cycles: cycle,
        per_wi_done: wis.iter().map(|w| w.done_at).collect(),
        channel_busy,
        compute_stalls: wis.iter().map(|w| w.stalls).collect(),
        fifo_high_water: wis.iter().map(|w| w.fifo_peak as usize).collect(),
        bursts,
    }
}

/// Render the burst schedule as an ASCII timeline (one row per work-item),
/// the Fig. 3 "C/T" picture. `scale` = cycles per character.
pub fn render_schedule(result: &SimResult, n_workitems: usize, scale: u64) -> String {
    assert!(scale > 0);
    let width = (result.cycles / scale + 1) as usize;
    let mut rows = vec![vec!['.'; width]; n_workitems];
    for b in &result.bursts {
        for c in (b.start / scale)..=(b.end.saturating_sub(1) / scale) {
            if let Some(cell) = rows[b.wid].get_mut(c as usize) {
                *cell = 'T';
            }
        }
    }
    let mut out = String::new();
    for (i, row) in rows.iter().enumerate() {
        out.push_str(&format!("WI{i}: "));
        out.extend(row.iter());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> SimConfig {
        SimConfig {
            n_workitems: 4,
            rns_per_workitem: 2048,
            reject_prob: 0.25,
            fifo_depth: 64,
            burst_rns: 256,
            channel: BurstChannel::config34(),
            compute_enabled: true,
            seed: 42,
            trace: true,
        }
    }

    #[test]
    fn delivers_all_data() {
        let r = run(&small_cfg());
        assert!(r.cycles > 0);
        assert_eq!(r.per_wi_done.len(), 4);
        // Every WI finished by the end.
        assert!(r.per_wi_done.iter().all(|&d| d > 0 && d <= r.cycles));
        // Total bursts = 4 WIs × 2048/256 bursts.
        assert_eq!(r.bursts.len(), 4 * 8);
    }

    #[test]
    fn bursts_never_overlap_on_the_single_channel() {
        let r = run(&small_cfg());
        let mut sorted = r.bursts.clone();
        sorted.sort_by_key(|b| b.start);
        for pair in sorted.windows(2) {
            assert!(
                pair[1].start >= pair[0].end,
                "channel granted two bursts at once: {pair:?}"
            );
        }
    }

    #[test]
    fn compute_bound_when_channel_is_fast() {
        // One work-item, generous channel: runtime ≈ iterations needed
        // = rns/(1-p) plus fill/drain slack.
        let mut cfg = small_cfg();
        cfg.n_workitems = 1;
        cfg.reject_prob = 0.25;
        let r = run(&cfg);
        let ideal = (cfg.rns_per_workitem as f64 / 0.75) as u64;
        assert!(r.cycles >= ideal);
        assert!(
            r.cycles < ideal + ideal / 3 + 512,
            "cycles {} far above compute bound {ideal}",
            r.cycles
        );
    }

    #[test]
    fn transfer_bound_when_many_workitems_share_channel() {
        // 8 WIs with no rejection: channel saturates; runtime ≈ total bursts
        // × occupancy.
        let mut cfg = small_cfg();
        cfg.n_workitems = 8;
        cfg.reject_prob = 0.0;
        let r = run(&cfg);
        let total_bursts = 8 * (cfg.rns_per_workitem / cfg.burst_rns);
        let occ = cfg.channel.burst_occupancy(cfg.burst_rns);
        let bound = total_bursts * occ;
        assert!(r.cycles >= bound);
        assert!(
            (r.cycles as f64) < bound as f64 * 1.15 + 1024.0,
            "cycles {} vs transfer bound {bound}",
            r.cycles
        );
        assert!(r.channel_utilization() > 0.85);
    }

    #[test]
    fn transfers_only_mode_matches_analytic_bandwidth() {
        // Fig. 7 cross-check: the cycle engine and the closed-form
        // effective_bandwidth must agree within a few percent.
        for n in [1u64, 2, 4, 8] {
            let cfg = SimConfig {
                n_workitems: n as usize,
                rns_per_workitem: 65_536,
                compute_enabled: false,
                reject_prob: 0.0,
                trace: false,
                ..small_cfg()
            };
            let r = run(&cfg);
            let total = cfg.rns_per_workitem * n;
            let sim_bw = (total * 4) as f64 * cfg.channel.freq_hz / r.cycles as f64;
            let analytic = cfg.channel.effective_bandwidth(cfg.burst_rns, n);
            let err = (sim_bw - analytic).abs() / analytic;
            assert!(
                err < 0.06,
                "n={n}: sim {sim_bw:.3e} vs analytic {analytic:.3e} ({err:.3})"
            );
        }
    }

    #[test]
    fn workitems_shift_in_time() {
        // Fig. 3: at steady state consecutive bursts come from different
        // work-items (round-robin interleave).
        let r = run(&small_cfg());
        let mut sorted = r.bursts.clone();
        sorted.sort_by_key(|b| b.start);
        let mid = &sorted[sorted.len() / 2..sorted.len() / 2 + 4];
        let wids: Vec<usize> = mid.iter().map(|b| b.wid).collect();
        let distinct = {
            let mut d = wids.clone();
            d.sort();
            d.dedup();
            d.len()
        };
        assert!(distinct >= 3, "expected interleaved owners, got {wids:?}");
    }

    #[test]
    fn rejection_raises_runtime() {
        let mut cfg = small_cfg();
        cfg.n_workitems = 1;
        cfg.reject_prob = 0.0;
        let fast = run(&cfg).cycles;
        cfg.reject_prob = 0.303 / 1.303; // r = 0.303 overhead
        cfg.seed = 9;
        let slow = run(&cfg).cycles;
        let ratio = slow as f64 / fast as f64;
        assert!(
            (1.2..1.45).contains(&ratio),
            "rejection should cost ≈1.3×, got {ratio}"
        );
    }

    #[test]
    fn schedule_renderer_produces_rows() {
        let r = run(&small_cfg());
        let s = render_schedule(&r, 4, 64);
        assert_eq!(s.lines().count(), 4);
        assert!(s.contains('T'));
    }

    #[test]
    fn fifo_high_water_bounded_by_depth() {
        let r = run(&small_cfg());
        for &hw in &r.fifo_high_water {
            assert!(hw <= 64);
        }
    }

    #[test]
    fn all_accept_traces_match_zero_rejection_lcg_run() {
        // A trace of pure accepts is exactly the reject_prob = 0 model:
        // cycle-for-cycle identical schedules.
        let mut cfg = small_cfg();
        cfg.reject_prob = 0.0;
        let legacy = run(&cfg);
        let traces: Vec<Vec<bool>> = (0..cfg.n_workitems)
            .map(|_| vec![true; cfg.rns_per_workitem as usize])
            .collect();
        let traced = run_from_traces(&cfg, &traces);
        assert_eq!(traced.cycles, legacy.cycles);
        assert_eq!(traced.per_wi_done, legacy.per_wi_done);
        assert_eq!(traced.channel_busy, legacy.channel_busy);
    }

    #[test]
    fn trace_accept_count_sets_the_delivery_target() {
        // rns_per_workitem is ignored: each WI delivers its trace's accepts.
        let cfg = SimConfig {
            n_workitems: 2,
            rns_per_workitem: 999_999, // ignored
            ..small_cfg()
        };
        let mut t0 = vec![true; 512];
        t0.extend(vec![false; 100]);
        let t1: Vec<bool> = (0..2048).map(|i| i % 2 == 0).collect(); // 1024 accepts
        let r = run_from_traces(&cfg, &[t0, t1]);
        // WI1 has twice the RNs of WI0 and half the acceptance — it must
        // finish last, and both must finish.
        assert!(r.per_wi_done[0] > 0 && r.per_wi_done[1] > r.per_wi_done[0]);
        assert_eq!(r.cycles, *r.per_wi_done.iter().max().unwrap() + 1);
    }

    #[test]
    fn stalled_cycles_do_not_consume_trace_entries() {
        // 8 work-items on one channel with a depth-1 FIFO force compute
        // stalls; the traces hold exactly the accepts needed, so a
        // consumed-on-stall bug would exhaust them and trip the internal
        // assertion before the run completes.
        let cfg = SimConfig {
            n_workitems: 8,
            fifo_depth: 1,
            ..small_cfg()
        };
        let traces: Vec<Vec<bool>> = (0..8).map(|_| vec![true; 2048]).collect();
        let r = run_from_traces(&cfg, &traces);
        assert!(
            r.compute_stalls.iter().any(|&s| s > 0),
            "depth-1 must stall"
        );
        assert!(r.per_wi_done.iter().all(|&d| d > 0));
    }

    #[test]
    fn rejection_in_trace_raises_runtime_like_the_model() {
        // Compute-bound single WI: a 25%-reject trace costs ~4/3 the cycles
        // of an all-accept trace, mirroring the LCG model's behaviour.
        let cfg = SimConfig {
            n_workitems: 1,
            ..small_cfg()
        };
        let accepts = vec![true; 2048];
        let mixed: Vec<bool> = (0..2048 * 4 / 3).map(|j| j % 4 != 0).collect();
        let fast = run_from_traces(&cfg, &[accepts]).cycles;
        let slow = run_from_traces(&cfg, &[mixed]).cycles;
        let ratio = slow as f64 / fast as f64;
        assert!((1.15..1.45).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn empty_trace_workitem_is_done_immediately() {
        let cfg = SimConfig {
            n_workitems: 2,
            ..small_cfg()
        };
        let r = run_from_traces(&cfg, &[vec![true; 256], Vec::new()]);
        assert_eq!(r.per_wi_done[1], 0);
        assert!(r.per_wi_done[0] > 0);
    }

    #[test]
    #[should_panic(expected = "one iteration trace per work-item")]
    fn trace_count_mismatch_panics() {
        let cfg = small_cfg();
        run_from_traces(&cfg, &[vec![true]]);
    }
}
