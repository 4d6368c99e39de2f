//! Differential and golden tests for the event-to-event simulator
//! ([`dwi_hls::sim`]).
//!
//! [`oracle`] is the straightforward per-cycle engine: every cycle it
//! lands due bursts, arbitrates the channel, and steps every work-item's
//! transfer engine and compute stage. The library's engine must give the
//! identical [`SimResult`] — every field, the burst schedule included —
//! for all three accept sources (the LCG model, recorded traces and
//! transfers-only), and must panic exactly where the oracle panics.
//!
//! The digests in [`golden_digests_are_pinned`] were recorded with the
//! per-cycle engine, so they hold the library to its historical output
//! independently of the oracle copy kept here.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dwi_hls::memory::BurstChannel;
use dwi_hls::sim::{run, run_from_traces, SimConfig, SimResult};
use dwi_testkit::{cases, Rng};

/// The per-cycle reference engine.
mod oracle {
    use dwi_hls::memory::RNS_PER_BEAT;
    use dwi_hls::sim::{BurstEvent, SimConfig, SimResult};

    struct WorkItem {
        produced: u64,
        delivered: u64,
        fifo: u64,
        fifo_peak: u64,
        buffered: u64,
        ready: Option<u64>,
        in_flight: Option<(u64, u64)>,
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

    enum AcceptSource<'a> {
        Lcg {
            threshold: u64,
        },
        Traces {
            traces: &'a [Vec<bool>],
            cursor: Vec<usize>,
        },
    }

    impl AcceptSource<'_> {
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
            1.0 - cfg.reject_prob,
        )
    }

    pub fn run_from_traces(cfg: &SimConfig, traces: &[Vec<bool>]) -> SimResult {
        assert_eq!(traces.len(), cfg.n_workitems);
        assert!(cfg.compute_enabled);
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
            1.0,
        )
    }

    fn run_inner(
        cfg: &SimConfig,
        mut source: AcceptSource<'_>,
        targets: &[u64],
        accept_rate: f64,
    ) -> SimResult {
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
        for (w, &target) in wis.iter_mut().zip(targets) {
            if target == 0 {
                w.done = true;
            }
        }
        let mut channel_free_at = 0u64;
        let mut channel_busy = 0u64;
        let mut rr = 0usize;
        let mut bursts = Vec::new();
        let mut cycle = 0u64;
        let occ = cfg.channel.burst_occupancy(cfg.burst_rns);
        let max_target = targets.iter().copied().max().unwrap_or(0);
        let safety = (cfg.n_workitems as u64)
            .saturating_mul(max_target)
            .saturating_mul(occ + cfg.burst_rns)
            / cfg.burst_rns.max(1)
            * 8
            + 4096;
        let safety = if accept_rate < 1.0 {
            (safety as f64 / accept_rate) as u64
        } else {
            safety
        };

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
                    if wis[idx].ready.is_some() && wis[idx].in_flight.is_none() {
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
            // --- transfer engines: one RN per cycle into the fill buffer ---
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
                    w.ready = Some(w.buffered);
                    w.buffered = 0;
                }
            }
            // --- compute stages: one iteration per cycle ---
            if cfg.compute_enabled {
                for (wi, (w, &target)) in wis.iter_mut().zip(targets).enumerate() {
                    if w.produced >= target {
                        continue;
                    }
                    if w.fifo >= cfg.fifo_depth as u64 {
                        w.stalls += 1;
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
}

/// FNV-1a over every field of a result, the burst schedule included.
fn digest(r: &SimResult) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(r.cycles);
    eat(r.channel_busy);
    for ((&done, &stalls), &hw) in r
        .per_wi_done
        .iter()
        .zip(&r.compute_stalls)
        .zip(&r.fifo_high_water)
    {
        eat(done);
        eat(stalls);
        eat(hw as u64);
    }
    eat(r.bursts.len() as u64);
    for b in &r.bursts {
        eat(b.wid as u64);
        eat(b.start);
        eat(b.end);
    }
    h
}

fn assert_same(got: &SimResult, want: &SimResult, case: &str) {
    assert_eq!(got.cycles, want.cycles, "cycles: {case}");
    assert_eq!(got.per_wi_done, want.per_wi_done, "per_wi_done: {case}");
    assert_eq!(got.channel_busy, want.channel_busy, "channel_busy: {case}");
    assert_eq!(
        got.compute_stalls, want.compute_stalls,
        "compute_stalls: {case}"
    );
    assert_eq!(
        got.fifo_high_water, want.fifo_high_water,
        "fifo_high_water: {case}"
    );
    assert_eq!(got.bursts, want.bursts, "bursts: {case}");
}

/// Run both engines; they must agree on the result, or both panic.
fn check(case: &str, engine: impl FnOnce() -> SimResult, reference: impl FnOnce() -> SimResult) {
    let want = catch_unwind(AssertUnwindSafe(reference));
    let got = catch_unwind(AssertUnwindSafe(engine));
    match (got, want) {
        (Ok(got), Ok(want)) => assert_same(&got, &want, case),
        (Err(_), Err(_)) => {}
        (Ok(_), Err(_)) => panic!("the oracle panics but the engine does not: {case}"),
        (Err(_), Ok(_)) => panic!("the engine panics but the oracle does not: {case}"),
    }
}

/// A random configuration covering the engine's edges: 1–16 work-items,
/// depth-1 FIFOs, 16-RN bursts, rejection up to 99% and both channels.
fn random_config(r: &mut Rng) -> SimConfig {
    let n_workitems = r.usize_range(1, 17);
    let max_rns = 4096 / n_workitems as u64 + 1;
    SimConfig {
        n_workitems,
        rns_per_workitem: match r.u32_range(0, 8) {
            0 => 0,
            1 => r.u64_range(1, 17),
            _ => r.u64_range(1, max_rns),
        },
        reject_prob: match r.u32_range(0, 6) {
            0 => 0.0,
            1 => 0.99,
            _ => r.f64_range(0.0, 0.99),
        },
        fifo_depth: match r.u32_range(0, 4) {
            0 => 1,
            _ => r.usize_range(1, 96),
        },
        burst_rns: 16 * [1, 1, 2, 4, 8, 16, 32][r.usize_range(0, 7)],
        channel: if r.bool() {
            BurstChannel::config12()
        } else {
            BurstChannel::config34()
        },
        compute_enabled: r.u32_range(0, 4) != 0,
        seed: r.next_u64(),
        trace: r.u32_range(0, 4) != 0,
    }
}

/// Recorded-style traces: per work-item a random length (sometimes
/// empty) and reject rate, with rejected iterations possibly trailing.
fn random_traces(r: &mut Rng, n: usize, max_len: usize) -> Vec<Vec<bool>> {
    (0..n)
        .map(|_| {
            let len = match r.u32_range(0, 8) {
                0 => 0,
                _ => r.usize_range(1, max_len + 1),
            };
            let reject = match r.u32_range(0, 4) {
                0 => 0.0,
                1 => 0.99,
                _ => r.f64(),
            };
            (0..len).map(|_| r.f64() >= reject).collect()
        })
        .collect()
}

fn sweep(n_cases: u64) {
    cases(n_cases, |r| {
        let cfg = random_config(r);
        check(&format!("run {cfg:?}"), || run(&cfg), || oracle::run(&cfg));
        let cfg = SimConfig {
            compute_enabled: true,
            ..cfg
        };
        let traces = random_traces(r, cfg.n_workitems, 4096 / cfg.n_workitems + 64);
        check(
            &format!("run_from_traces {cfg:?} lens {:?}", {
                traces.iter().map(Vec::len).collect::<Vec<_>>()
            }),
            || run_from_traces(&cfg, &traces),
            || oracle::run_from_traces(&cfg, &traces),
        );
    });
}

#[test]
fn event_engine_matches_the_per_cycle_oracle() {
    sweep(160);
}

/// The same sweep at CI scale; run in release:
/// `cargo test --release -p dwi-hls --test sim_oracle -- --ignored`.
#[test]
#[ignore = "large sweep, run in release"]
fn event_engine_matches_the_per_cycle_oracle_at_scale() {
    sweep(20_000);
}

#[test]
fn edge_configurations_match_the_oracle() {
    let base = SimConfig {
        n_workitems: 4,
        rns_per_workitem: 700,
        trace: true,
        ..SimConfig::default()
    };
    let mut configs = Vec::new();
    for n in 1..=16 {
        for channel in [BurstChannel::config12(), BurstChannel::config34()] {
            configs.push(SimConfig {
                n_workitems: n,
                channel,
                ..base.clone()
            });
        }
    }
    for reject_prob in [0.0, 0.25, 0.5, 0.9, 0.99] {
        for fifo_depth in [1, 2, 64] {
            for burst_rns in [16, 256] {
                configs.push(SimConfig {
                    reject_prob,
                    fifo_depth,
                    burst_rns,
                    ..base.clone()
                });
            }
        }
    }
    for cfg in configs {
        for compute_enabled in [true, false] {
            let cfg = SimConfig {
                compute_enabled,
                ..cfg.clone()
            };
            check(&format!("run {cfg:?}"), || run(&cfg), || oracle::run(&cfg));
        }
        let cfg = SimConfig {
            compute_enabled: true,
            ..cfg
        };
        let n = cfg.n_workitems;
        // Empty, all-reject, all-accept and alternating traces side by side.
        let traces: Vec<Vec<bool>> = (0..n)
            .map(|i| match i % 4 {
                0 => Vec::new(),
                1 => vec![false; 40],
                2 => vec![true; 300 + 17 * i],
                _ => (0..900).map(|j| j % 3 != 0).collect(),
            })
            .collect();
        check(
            &format!("run_from_traces {cfg:?}"),
            || run_from_traces(&cfg, &traces),
            || oracle::run_from_traces(&cfg, &traces),
        );
    }
}

#[test]
fn both_engines_stop_at_the_convergence_bound() {
    // A recorded trace accepting one iteration in a hundred needs ~100
    // cycles per RN. Unlike the LCG model's, a trace's bound does not
    // scale with its rejection rate: it allows ~10 cycles per RN.
    let cfg = SimConfig {
        n_workitems: 1,
        ..SimConfig::default()
    };
    let traces = vec![(0..200_000).map(|j| j % 100 == 99).collect::<Vec<bool>>()];
    assert!(catch_unwind(|| oracle::run_from_traces(&cfg, &traces)).is_err());
    let err = catch_unwind(|| run_from_traces(&cfg, &traces))
        .expect_err("the engine must not converge either");
    let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
    assert_eq!(msg, "simulation failed to converge");
}

#[test]
fn lcg_bound_scales_with_the_rejection_rate() {
    // The same ~100 cycles per RN from the LCG model at 99% rejection:
    // its bound grows by 1 / (1 − reject_prob), so both engines finish,
    // with one result.
    let cfg = SimConfig {
        n_workitems: 1,
        rns_per_workitem: 2_000,
        reject_prob: 0.99,
        compute_enabled: true,
        ..SimConfig::default()
    };
    let got = run(&cfg);
    assert_same(&got, &oracle::run(&cfg), "99% rejection");
    assert!(got.cycles > 100 * 2_000 * 9 / 10, "cycles {}", got.cycles);
}

#[test]
fn golden_digests_are_pinned() {
    let fig7 = |n: usize, channel: BurstChannel| SimConfig {
        n_workitems: n,
        rns_per_workitem: 262_144,
        compute_enabled: false,
        reject_prob: 0.0,
        burst_rns: 256,
        channel,
        seed: 1,
        trace: true,
        fifo_depth: 64,
    };
    let transfer_interleaving = SimConfig {
        n_workitems: 6,
        rns_per_workitem: 4096,
        reject_prob: 0.233,
        burst_rns: 256,
        channel: BurstChannel::config12(),
        trace: true,
        ..SimConfig::default()
    };
    let got: Vec<(&str, u64)> = [
        ("fig7 6 WI config12", fig7(6, BurstChannel::config12())),
        ("fig7 8 WI config34", fig7(8, BurstChannel::config34())),
        ("default", SimConfig::default()),
        ("transfer_interleaving", transfer_interleaving),
    ]
    .into_iter()
    .map(|(name, cfg)| (name, digest(&run(&cfg))))
    .collect();
    let want = [
        ("fig7 6 WI config12", 0xe14686c51287442f),
        ("fig7 8 WI config34", 0xdebe0e80c00b463f),
        ("default", 0x2d380c68bfaefa95),
        ("transfer_interleaving", 0xaa0a8157733de8f4),
    ];
    assert_eq!(got, want);
}
