//! Golden-file checks for the tracing layer: a traced Config1 run must
//! export a well-formed Chrome trace (every dataflow process on its own
//! track, time moving forward on each) whose burst spans interleave with
//! *other* work-items' compute spans — the machine-checked version of the
//! paper's Fig. 3 — and a Prometheus snapshot that round-trips the
//! engine's own counters.

use decoupled_workitems::core::{
    Backend, BackendDetail, ExecutionPlan, FunctionalDecoupled, GammaListing2, PaperConfig,
    RunReport, Workload,
};
use decoupled_workitems::trace::chrome::{parse_chrome_trace, ChromeEvent};
use decoupled_workitems::trace::{parse_prometheus, ProcessKind, Recorder, TrackId};

fn traced_config1_run() -> (Recorder, RunReport, PaperConfig) {
    let cfg = PaperConfig::config1();
    let workload = Workload {
        num_scenarios: 12_288,
        num_sectors: 2,
        sector_variance: 1.39,
    };
    let rec = Recorder::new();
    let run = FunctionalDecoupled.execute(
        &GammaListing2::for_config(&cfg, &workload, 7),
        &ExecutionPlan::for_config(&cfg).trace(rec.sink()),
    );
    (rec, run, cfg)
}

#[test]
fn chrome_trace_has_all_tracks_and_non_decreasing_timestamps() {
    let (rec, _, cfg) = traced_config1_run();
    let parsed = parse_chrome_trace(&rec.chrome_trace()).expect("export must parse");

    // Every one of the 2·N dataflow processes is a named track.
    let names: Vec<&str> = parsed
        .iter()
        .filter(|e| e.ph == "M")
        .filter_map(|e| e.thread_name.as_deref())
        .collect();
    for wid in 0..cfg.fpga_workitems {
        for kind in [ProcessKind::Compute, ProcessKind::Transfer] {
            let want = format!("wi{wid}/{}", kind.label());
            assert!(names.contains(&want.as_str()), "missing track {want}");
        }
    }

    // Within each track, exported timestamps never go backwards.
    let mut last: std::collections::BTreeMap<u64, f64> = Default::default();
    for e in parsed.iter().filter(|e| e.ph == "X" || e.ph == "i") {
        let prev = last.insert(e.tid, e.ts_us).unwrap_or(f64::MIN);
        assert!(
            e.ts_us >= prev,
            "tid {} went backwards: {} after {prev}",
            e.tid,
            e.ts_us
        );
    }
}

#[test]
fn bursts_interleave_with_other_workitems_compute() {
    let (rec, _, cfg) = traced_config1_run();
    let parsed = parse_chrome_trace(&rec.chrome_trace()).expect("export must parse");
    let spans: Vec<&ChromeEvent> = parsed.iter().filter(|e| e.ph == "X").collect();

    let tid = |wid: u32, kind| TrackId::new(wid, kind).tid();
    let mut interleaved = false;
    'outer: for a in 0..cfg.fpga_workitems {
        let bursts: Vec<&&ChromeEvent> = spans
            .iter()
            .filter(|e| e.tid == tid(a, ProcessKind::Transfer) && e.name == "burst")
            .collect();
        for b in 0..cfg.fpga_workitems {
            if a == b {
                continue;
            }
            let foreign_compute: Vec<&&ChromeEvent> = spans
                .iter()
                .filter(|e| e.tid == tid(b, ProcessKind::Compute))
                .collect();
            if bursts
                .iter()
                .any(|bu| foreign_compute.iter().any(|co| bu.overlaps(co)))
            {
                interleaved = true;
                break 'outer;
            }
        }
    }
    assert!(
        interleaved,
        "no burst span overlaps another work-item's compute span — \
         the work-items are not decoupled in time"
    );
}

#[test]
fn prometheus_round_trips_engine_counters() {
    let (rec, run, cfg) = traced_config1_run();
    let samples = parse_prometheus(&rec.prometheus()).expect("snapshot must parse");
    let get = |k: &str| {
        samples
            .iter()
            .find(|(key, _)| key == k)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("missing sample {k}"))
    };
    let BackendDetail::Decoupled { transfers, .. } = &run.detail else {
        unreachable!("FunctionalDecoupled reports Decoupled detail")
    };

    assert_eq!(transfers.len(), cfg.fpga_workitems as usize);
    for (wid, (iters, t)) in run.iterations.iter().zip(transfers).enumerate() {
        assert_eq!(
            get(&format!("dwi_workitem_iterations_total{{wid=\"{wid}\"}}")),
            *iters as f64,
            "iterations counter for wid {wid}"
        );
        assert_eq!(
            get(&format!("dwi_transfer_bursts_total{{wid=\"{wid}\"}}")),
            t.bursts as f64,
            "burst counter for wid {wid}"
        );
    }
    // The gamma kernel rejects, so retries must be visible; sector latency
    // summaries must have observed every (work-item, sector) pair.
    let retries: f64 = samples
        .iter()
        .filter(|(k, _)| k.starts_with("dwi_rejection_retries_total{"))
        .map(|(_, v)| *v)
        .sum();
    assert!(retries > 0.0, "no rejection retries recorded");
    let latency_count: f64 = samples
        .iter()
        .filter(|(k, _)| k.starts_with("dwi_sector_latency_seconds_count{"))
        .map(|(_, v)| *v)
        .sum();
    assert!(latency_count >= cfg.fpga_workitems as f64);
}
