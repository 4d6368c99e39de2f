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
//!
//! The engine is exact to the cycle but steps from event to event.
//! Work-items share nothing but the channel, so each one advances alone,
//! on a clock of its own, until it waits for a grant (a ready burst and
//! none in flight) or has delivered everything. Between those events whole
//! phases run in closed form: while the fill buffer fills, the FIFO level
//! follows from how many iterations accepted; while a full buffer waits,
//! the FIFO fills to its depth and the remaining cycles are stalls. The
//! channel's next grant is at the later of its free cycle and the earliest
//! waiting work-item's cycle, to the first work-item in round-robin order
//! waiting by then. Cycles, stalls, FIFO peaks and the burst schedule are
//! exactly those of a loop that steps every work-item through every cycle;
//! `tests/sim_oracle.rs` keeps that loop as the reference.

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

/// Where a compute stage's per-iteration accept decisions come from.
trait Feed {
    /// Whether the compute stage runs at all; transfers-only runs
    /// (Fig. 7) bypass it and pack dummy data every cycle.
    const COMPUTES: bool;

    /// The accept flag of the compute stage's next non-stalled iteration.
    fn accept(&mut self) -> bool;

    /// Consume the next `k` iterations: how many accepted, and whether
    /// the last one did.
    fn take(&mut self, k: u64) -> (u64, bool) {
        let (mut accepted, mut last) = (0, false);
        for _ in 0..k {
            last = self.accept();
            accepted += u64::from(last);
        }
        (accepted, last)
    }

    /// Consume iterations until `want` of them accepted, or `max` ran:
    /// how many ran, and how many accepted.
    fn take_until(&mut self, max: u64, want: u64) -> (u64, u64) {
        let (mut ran, mut accepted) = (0, 0);
        while ran < max && accepted < want {
            accepted += u64::from(self.accept());
            ran += 1;
        }
        (ran, accepted)
    }
}

/// The built-in LCG rejection model.
struct Lcg {
    state: u64,
    threshold: u64,
}

impl Feed for Lcg {
    const COMPUTES: bool = true;

    #[inline]
    fn accept(&mut self) -> bool {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.state >> 32) >= self.threshold
    }
}

/// Recorded per-iteration accept flags from a real kernel execution:
/// `bits[j]` is whether the work-item's `j`-th non-stalled compute cycle
/// validated an output. Stalled cycles do **not** consume entries — the
/// pipeline is frozen, not advancing.
struct Trace<'a> {
    wi: usize,
    bits: &'a [bool],
    cursor: usize,
}

impl Trace<'_> {
    /// The next `n` entries, consumed.
    fn next_n(&mut self, n: u64) -> &[bool] {
        let rest = &self.bits[self.cursor..];
        assert!(
            n <= rest.len() as u64,
            "work-item {}: iteration trace exhausted before quota",
            self.wi
        );
        self.cursor += n as usize;
        &rest[..n as usize]
    }
}

impl Feed for Trace<'_> {
    const COMPUTES: bool = true;

    fn accept(&mut self) -> bool {
        self.next_n(1)[0]
    }

    fn take(&mut self, k: u64) -> (u64, bool) {
        let bits = self.next_n(k);
        let accepted = bits.iter().map(|&b| u64::from(b)).sum();
        (accepted, bits.last() == Some(&true))
    }

    fn take_until(&mut self, max: u64, want: u64) -> (u64, u64) {
        if want == 0 {
            return (0, 0);
        }
        let rest = &self.bits[self.cursor..];
        let window = &rest[..rest.len().min(max.try_into().unwrap_or(usize::MAX))];
        let mut accepted = 0;
        let ran = window
            .iter()
            .position(|&b| {
                accepted += u64::from(b);
                accepted == want
            })
            .map_or(window.len(), |i| i + 1);
        self.next_n(if accepted < want { max } else { ran as u64 });
        (ran as u64, accepted)
    }
}

/// Transfers-only: no compute stage.
#[derive(Clone, Copy)]
struct Bypass;

impl Feed for Bypass {
    const COMPUTES: bool = false;

    fn accept(&mut self) -> bool {
        unreachable!("transfers-only runs have no compute stage")
    }
}

/// Run parameters every work-item's advance needs.
struct Params {
    burst_rns: u64,
    fifo_depth: u64,
    safety: u64,
}

/// One work-item: its compute stage, FIFO, transfer engine and the
/// burst it has on the channel, on a clock of its own.
struct WorkItem<F> {
    /// The cycle whose transfer and compute steps run next: this cycle's
    /// burst landing and channel arbitration are already applied.
    t: u64,
    target: u64,                   // RNs to deliver
    produced: u64,                 // RNs emitted by compute
    delivered: u64,                // RNs shipped to memory
    fifo: u64,                     // current FIFO occupancy
    fifo_peak: u64,                // peak FIFO occupancy
    buffered: u64,                 // RNs in the buffer currently being filled
    ready: Option<u64>,            // a full buffer waiting for a channel grant
    in_flight: Option<(u64, u64)>, // (end_cycle, rns) burst on the channel
    stalls: u64,
    done: bool, // last burst landed, at cycle `t`
    feed: F,
}

impl<F: Feed> WorkItem<F> {
    /// Eligible for the channel: a ready burst and none in flight. Only
    /// a grant ends this state.
    fn waiting(&self) -> bool {
        self.ready.is_some() && self.in_flight.is_none()
    }

    /// The size the fill buffer hands off at: a full burst, or the tail.
    fn fill_target(&self, burst_rns: u64) -> u64 {
        let handed_off =
            self.delivered + self.in_flight.map_or(0, |(_, r)| r) + self.ready.unwrap_or(0);
        burst_rns.min(self.target - handed_off)
    }

    /// Advance alone until the channel matters again: waiting or done.
    fn advance_to_event(&mut self, p: &Params) {
        while !self.done && !self.waiting() {
            self.advance_once(u64::MAX, p);
        }
    }

    /// Advance a waiting work-item to cycle `until`, its grant.
    fn advance_to(&mut self, until: u64, p: &Params) {
        while self.t < until {
            self.advance_once(until, p);
        }
    }

    /// One bulk run of uneventful cycles, or else one single cycle; never
    /// past cycle `limit`.
    fn advance_once(&mut self, limit: u64, p: &Params) {
        let k = self.uneventful_cycles(limit, p);
        if k > 0 {
            self.bulk(k, p);
            self.t += k;
        } else {
            self.cycle(p);
            self.t += 1;
        }
        // The run lasts at least until cycle `t` completes.
        assert!(self.t + 1 < p.safety, "simulation failed to converge");
    }

    /// How many cycles from `t` on provably hand off no buffer, land no
    /// burst and keep one phase (filling, or blocked on a full buffer).
    fn uneventful_cycles(&self, limit: u64, p: &Params) -> u64 {
        let mut k = (limit - self.t).min(p.safety.saturating_sub(self.t + 1));
        if let Some((end, _)) = self.in_flight {
            k = k.min(end.saturating_sub(self.t + 1));
        }
        let fill_target = self.fill_target(p.burst_rns);
        if self.buffered < fill_target {
            k = k.min(fill_target - 1 - self.buffered);
            if F::COMPUTES && self.produced < self.target {
                k = k.min(self.target - self.produced);
            }
        } else if fill_target > 0 && self.ready.is_none() {
            k = 0; // the full buffer hands off this cycle
        }
        k
    }

    /// `k` uneventful cycles (see [`WorkItem::uneventful_cycles`]) in
    /// closed form where the phase allows it.
    fn bulk(&mut self, k: u64, p: &Params) {
        if self.buffered < self.fill_target(p.burst_rns) {
            if !F::COMPUTES {
                self.buffered += k;
                return;
            }
            if self.produced == self.target {
                // Draining: compute is finished; the FIFO empties into
                // the buffer.
                let m = k.min(self.fifo);
                self.fifo -= m;
                self.buffered += m;
                return;
            }
            if p.fifo_depth > 0 {
                // Filling: the transfer engine drains an RN on every cycle
                // that starts with one queued, so compute never stalls.
                let mut left = k;
                while left > 0 && self.fifo > 1 {
                    // The next `fifo` cycles all start non-empty, and the
                    // FIFO cannot climb above its level now (its peak).
                    let c = left.min(self.fifo);
                    let (accepted, _) = self.feed.take(c);
                    self.fifo = self.fifo - c + accepted;
                    self.buffered += c;
                    self.produced += accepted;
                    left -= c;
                }
                if left > 0 {
                    // At most one RN queued: each cycle drains the one
                    // the cycle before accepted, and the last stays queued.
                    let (accepted, last) = self.feed.take(left);
                    let last = u64::from(last);
                    self.buffered += self.fifo + accepted - last;
                    self.fifo = last;
                    self.produced += accepted;
                    self.fifo_peak = self.fifo_peak.max(u64::from(accepted > 0));
                }
                return;
            }
        }
        // Blocked: nothing drains, so compute fills the FIFO to its depth
        // and stalls for the remaining cycles.
        if F::COMPUTES && self.produced < self.target {
            let room = (p.fifo_depth - self.fifo).min(self.target - self.produced);
            let (ran, accepted) = self.feed.take_until(k, room);
            self.fifo += accepted;
            self.produced += accepted;
            self.fifo_peak = self.fifo_peak.max(self.fifo);
            if self.produced < self.target {
                self.stalls += k - ran;
            }
        }
    }

    /// The transfer and compute steps of cycle `t`, then cycle `t + 1`'s
    /// burst landing.
    fn cycle(&mut self, p: &Params) {
        // Transfer engine: pack one RN per cycle into the fill buffer
        // (TLOOP at II = 1), double-buffered against the in-flight burst.
        let fill_target = self.fill_target(p.burst_rns);
        if self.buffered < fill_target {
            if !F::COMPUTES {
                self.buffered += 1;
            } else if self.fifo > 0 {
                self.fifo -= 1;
                self.buffered += 1;
            }
        }
        if self.buffered >= fill_target && fill_target > 0 && self.ready.is_none() {
            // Swap the filled buffer into the ready slot; filling of the
            // next buffer resumes immediately (DEPENDENCE false).
            self.ready = Some(self.buffered);
            self.buffered = 0;
        }
        // Compute stage: one iteration per cycle (II = 1).
        if F::COMPUTES && self.produced < self.target {
            if self.fifo >= p.fifo_depth {
                self.stalls += 1; // stream back-pressure stalls the pipeline
            } else if self.feed.accept() {
                self.fifo += 1;
                self.fifo_peak = self.fifo_peak.max(self.fifo);
                self.produced += 1;
            }
        }
        if let Some((end, rns)) = self.in_flight {
            if self.t + 1 >= end {
                self.delivered += rns;
                self.in_flight = None;
                self.done = self.delivered >= self.target;
            }
        }
    }
}

/// Run the cycle-level simulation with the built-in LCG rejection model.
pub fn run(cfg: &SimConfig) -> SimResult {
    assert!((0.0..1.0).contains(&cfg.reject_prob));
    let targets = vec![cfg.rns_per_workitem; cfg.n_workitems];
    if !cfg.compute_enabled {
        return simulate(cfg, vec![Bypass; cfg.n_workitems], &targets, 1.0);
    }
    let threshold = (cfg.reject_prob * (1u64 << 32) as f64) as u64;
    let feeds = (0..cfg.n_workitems)
        .map(|i| Lcg {
            state: (cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((i as u64) << 32)) | 1,
            threshold,
        })
        .collect();
    // A work-item needs about 1 / (1 − reject_prob) iterations per RN.
    simulate(cfg, feeds, &targets, 1.0 - cfg.reject_prob)
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
    let feeds = traces
        .iter()
        .enumerate()
        .map(|(wi, bits)| Trace {
            wi,
            bits,
            cursor: 0,
        })
        .collect();
    simulate(cfg, feeds, &targets, 1.0)
}

/// Shared engine: `targets[i]` is the RN count work-item `i` must deliver,
/// and `accept_rate` the share of compute iterations expected to yield
/// one; the convergence bound grows with `1 / accept_rate`.
///
/// Work-items share nothing but the channel, so each advances alone until
/// it waits for a grant or is done. The channel's next grant is then at
/// the later of its free cycle and the earliest waiting work-item's cycle,
/// and goes to the first work-item in round-robin order that is waiting
/// by then — which that work-item catches up to before its grant.
fn simulate<F: Feed>(
    cfg: &SimConfig,
    feeds: Vec<F>,
    targets: &[u64],
    accept_rate: f64,
) -> SimResult {
    assert!(cfg.n_workitems > 0, "need at least one work-item");
    assert!(
        cfg.burst_rns > 0 && cfg.burst_rns.is_multiple_of(RNS_PER_BEAT),
        "burst must be a whole number of 512-bit words"
    );
    let occ = cfg.channel.burst_occupancy(cfg.burst_rns);
    let max_target = targets.iter().copied().max().unwrap_or(0);
    // Saturating: a target near `u64::MAX` must not wrap the bound small.
    let safety = (cfg.n_workitems as u64)
        .saturating_mul(max_target)
        .saturating_mul(occ + cfg.burst_rns)
        / cfg.burst_rns.max(1)
        * 8
        + 4096;
    let p = Params {
        burst_rns: cfg.burst_rns,
        fifo_depth: cfg.fifo_depth as u64,
        // The float-to-int cast saturates; an accept rate of 1 keeps the
        // bound exact.
        safety: if accept_rate < 1.0 {
            (safety as f64 / accept_rate) as u64
        } else {
            safety
        },
    };
    let mut wis: Vec<WorkItem<F>> = feeds
        .into_iter()
        .zip(targets)
        .map(|(feed, &target)| WorkItem {
            t: 0,
            target,
            produced: 0,
            delivered: 0,
            fifo: 0,
            fifo_peak: 0,
            buffered: 0,
            ready: None,
            in_flight: None,
            stalls: 0,
            // A zero-target work-item has nothing to deliver — done before
            // cycle 0.
            done: target == 0,
            feed,
        })
        .collect();
    for w in &mut wis {
        w.advance_to_event(&p);
    }
    let n = wis.len();
    let mut channel_free_at = 0u64;
    let mut channel_busy = 0u64;
    let mut rr = 0usize; // round-robin arbitration pointer
    let mut bursts = Vec::new();
    while let Some(first) = wis.iter().filter(|w| !w.done).map(|w| w.t).min() {
        let grant = first.max(channel_free_at);
        let idx = (0..n)
            .map(|k| (rr + k) % n)
            .find(|&i| !wis[i].done && wis[i].t <= grant)
            .expect("the earliest waiting work-item is eligible");
        let w = &mut wis[idx];
        w.advance_to(grant, &p);
        let rns = w
            .ready
            .take()
            .expect("waiting work-items hold a ready burst");
        let end = grant + occ;
        w.in_flight = Some((end, rns));
        channel_free_at = end;
        channel_busy += occ;
        if cfg.trace {
            bursts.push(BurstEvent {
                wid: idx,
                start: grant,
                end,
            });
        }
        rr = (idx + 1) % n;
        w.advance_to_event(&p);
    }

    SimResult {
        cycles: wis
            .iter()
            .filter(|w| w.target > 0)
            .map(|w| w.t + 1)
            .max()
            .unwrap_or(0),
        per_wi_done: wis.iter().map(|w| w.t).collect(),
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
