//! Fig. 3 as a real Perfetto timeline: run the functional decoupled engine
//! on Config1 with tracing enabled and export a Chrome trace-event file
//! with one track per dataflow process — `wi{k}/compute` stacked directly
//! above its `wi{k}/transfer` partner for each of the 2·N work-item
//! processes, plus the host combining track.
//!
//! ```text
//! cargo run --release --example trace_timeline [out.json]
//! ```
//!
//! Load the output in <https://ui.perfetto.dev> (or `chrome://tracing`):
//! the sector spans on the compute tracks overlap other work-items' burst
//! spans — the decoupling the paper's Fig. 3 illustrates.

use decoupled_workitems::core::{
    Backend, ExecutionPlan, FunctionalDecoupled, GammaListing2, PaperConfig, Workload,
};
use decoupled_workitems::trace::{EventKind, ProcessKind, Recorder};
use std::collections::BTreeMap;

fn main() {
    let out = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "trace_timeline.json".into());

    let cfg = PaperConfig::config1();
    let workload = Workload {
        num_scenarios: 24_576,
        num_sectors: 4,
        sector_variance: 1.39,
    };

    let rec = Recorder::new();
    let run = FunctionalDecoupled.execute(
        &GammaListing2::for_config(&cfg, &workload, 42),
        &ExecutionPlan::for_config(&cfg).trace(rec.sink()),
    );

    // Per-track span/instant census, so the console mirrors the timeline.
    let events = rec.events();
    let mut census: BTreeMap<String, (usize, u64)> = BTreeMap::new();
    for e in &events {
        let slot = census.entry(e.track.name()).or_default();
        slot.0 += 1;
        if let EventKind::Span { dur_ns } = e.kind {
            slot.1 += dur_ns;
        }
    }
    println!(
        "Config1: {} work-items, {} scenarios, {} trace events\n",
        cfg.fpga_workitems,
        workload.num_scenarios,
        events.len()
    );
    println!("{:<14} {:>8} {:>12}", "track", "events", "busy [us]");
    for (name, (n, busy)) in &census {
        println!("{name:<14} {n:>8} {:>12.1}", *busy as f64 / 1e3);
    }

    // Every one of the paper's 2·N dataflow processes must have a track.
    for wid in 0..cfg.fpga_workitems {
        for kind in [ProcessKind::Compute, ProcessKind::Transfer] {
            let name = format!("wi{wid}/{}", kind.label());
            assert!(
                census.contains_key(&name),
                "missing dataflow process track {name}"
            );
        }
    }

    println!("\niterations per work-item: {:?}", run.iterations);
    rec.write_chrome_trace(std::path::Path::new(&out))
        .expect("write trace file");
    println!("trace written to {out} (load in https://ui.perfetto.dev)");
}
