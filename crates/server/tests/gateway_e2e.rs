//! Gateway end-to-end parity: the paper's headline artifacts computed
//! through the HTTP front door are byte-identical to the inline paths.
//!
//! Table III's driver takes a pluggable overhead measurer
//! ([`table3_with`]); here the measurer POSTs a calibration-kernel spec
//! to a live gateway and reconstructs [`RejectionStats`] from the
//! response — attempts and accepted survive JSON exactly (u64 < 2^53),
//! so the derived overhead, and every model cell downstream of it, is
//! the same `f64` bit for bit. Fig. 7's points ride the task lane the
//! same way: cycle counts and analytic `f64`s round-trip losslessly
//! through shortest-round-trip decimal rendering.

use std::time::{Duration, Instant};

use dwi_core::experiment::{measure_rejection_overhead, table3_with};
use dwi_core::Workload;
use dwi_hls::memory::BurstChannel;
use dwi_hls::sim::{run, SimConfig};
use dwi_rng::{NormalMethod, RejectionStats};
use dwi_server::client;
use dwi_server::gateway::{start, GatewayConfig, RunningGateway};
use dwi_server::spec::mt_params_json;
use dwi_trace::json::{parse, Json};

fn start_gateway(workers: usize) -> RunningGateway {
    start(GatewayConfig::new(workers), "127.0.0.1:0", None).expect("gateway binds")
}

/// Submit a spec and long-poll the job to its `result` object.
fn submit_and_wait(gw: &RunningGateway, spec: &str) -> Json {
    let r = client::post_json(gw.addr, "/v1/jobs", None, spec).expect("post");
    assert_eq!(r.status, 202, "body: {}", r.text());
    let id = parse(r.text())
        .expect("json body")
        .get("id")
        .and_then(|v| v.as_f64())
        .expect("id field") as u64;
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        let r = client::get(
            gw.addr,
            &format!("/v1/jobs/{id}/wait?timeout_ms=20000"),
            None,
        )
        .expect("wait");
        if r.status == 200 {
            let body = parse(r.text()).expect("terminal body");
            assert_eq!(
                body.get("state").and_then(|v| v.as_str()),
                Some("done"),
                "job failed: {}",
                r.text()
            );
            return body.get("result").expect("result object").clone();
        }
        assert_eq!(r.status, 204);
        assert!(Instant::now() < deadline, "job {id} never completed");
    }
}

fn u64_field(result: &Json, key: &str) -> u64 {
    result
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("missing numeric field '{key}'")) as u64
}

#[test]
fn table3_over_http_is_byte_identical_to_inline() {
    const SAMPLES: u32 = 20_000;
    let w = Workload::paper();
    let gw = start_gateway(2);

    let http_measure = |normal: NormalMethod, mt: dwi_rng::MtParams, sv: f32, samples: u32| {
        let name = match normal {
            NormalMethod::MarsagliaBray => "marsaglia-bray",
            NormalMethod::IcdfFpga => "icdf-fpga",
            NormalMethod::IcdfCuda => "icdf-cuda",
        };
        let spec = format!(
            r#"{{"kernel":{{"type":"calibration","normal":"{name}","mt":{mt},"sector_variance":{sv},"samples":{samples}}},"plan":{{"workitems":1}}}}"#,
            mt = mt_params_json(&mt),
        );
        let result = submit_and_wait(&gw, &spec);
        let stats = RejectionStats {
            attempts: u64_field(&result, "attempts"),
            accepted: u64_field(&result, "accepted"),
        };
        stats.overhead()
    };

    let over_http = table3_with(&w, SAMPLES, http_measure);
    let inline = table3_with(&w, SAMPLES, measure_rejection_overhead);

    assert_eq!(over_http.rows.len(), inline.rows.len());
    for (h, i) in over_http.rows.iter().zip(&inline.rows) {
        assert_eq!(h.label, i.label);
        for (hp, ip) in [(h.cpu, i.cpu), (h.gpu, i.gpu), (h.phi, i.phi)] {
            assert_eq!(hp.ms.to_bits(), ip.ms.to_bits(), "{}: ms differ", h.label);
            assert_eq!(
                hp.rejection_overhead.to_bits(),
                ip.rejection_overhead.to_bits(),
                "{}: overhead differs",
                h.label
            );
        }
        match (h.fpga, i.fpga) {
            (Some(hf), Some(inf)) => {
                assert_eq!(hf.ms.to_bits(), inf.ms.to_bits(), "{}: fpga ms", h.label);
                assert_eq!(
                    hf.rejection_overhead.to_bits(),
                    inf.rejection_overhead.to_bits()
                );
            }
            (None, None) => {}
            _ => panic!("{}: fpga presence differs", h.label),
        }
    }
    // The rendered tables — what the CI parity diff pins — match too.
    assert_eq!(over_http.render(), inline.render());
    gw.stop();
}

#[test]
fn fig7_points_over_http_are_exact() {
    let gw = start_gateway(2);

    // Analytic transfers-only model points, both bitstream channels.
    for (channel_name, channel) in [
        ("config12", BurstChannel::config12()),
        ("config34", BurstChannel::config34()),
    ] {
        for (burst, workitems) in [(64u64, 1u64), (256, 6), (1024, 8)] {
            let total = 629_145_600u64;
            let spec = format!(
                r#"{{"transfers":{{"channel":"{channel_name}","total":{total},"burst":{burst},"workitems":{workitems}}}}}"#
            );
            let result = submit_and_wait(&gw, &spec);
            let runtime_s = result
                .get("runtime_s")
                .and_then(Json::as_f64)
                .expect("runtime_s");
            let bandwidth = result
                .get("bandwidth_rns_per_s")
                .and_then(Json::as_f64)
                .expect("bandwidth_rns_per_s");
            assert_eq!(
                runtime_s.to_bits(),
                channel
                    .transfers_only_runtime(total, burst, workitems)
                    .to_bits(),
                "{channel_name} burst={burst} n={workitems}: runtime differs"
            );
            assert_eq!(
                bandwidth.to_bits(),
                channel.effective_bandwidth(burst, workitems).to_bits(),
                "{channel_name} burst={burst} n={workitems}: bandwidth differs"
            );
        }
    }

    // Cycle-level simulator cross-check at a scaled-down operating point.
    let cfg = SimConfig {
        n_workitems: 6,
        rns_per_workitem: 32_768,
        reject_prob: 0.0,
        fifo_depth: 64,
        burst_rns: 256,
        channel: BurstChannel::config12(),
        compute_enabled: false,
        seed: 1,
        trace: false,
    };
    let spec = r#"{"sim":{"workitems":6,"rns_per_workitem":32768,"channel":"config12","seed":1}}"#;
    let result = submit_and_wait(&gw, spec);
    let expect = run(&cfg);
    assert_eq!(u64_field(&result, "cycles"), expect.cycles);
    assert_eq!(u64_field(&result, "channel_busy"), expect.channel_busy);
    gw.stop();
}

#[test]
fn bad_specs_get_400_and_never_kill_the_only_worker() {
    let gw = start_gateway(1);
    let calibration = |mt: &str| {
        format!(
            r#"{{"kernel":{{"type":"calibration","normal":"marsaglia-bray","mt":{mt},"sector_variance":4.0,"samples":64}},"plan":{{"workitems":1}}}}"#
        )
    };
    let tn = |a: &str, quota: &str| {
        format!(
            r#"{{"kernel":{{"type":"truncated-normal","a":{a},"quota":{quota},"seed":1}},"plan":{{"workitems":1}}}}"#
        )
    };
    let mix = |w: &str, lambda1: &str, lambda2: &str| {
        format!(
            r#"{{"kernel":{{"type":"severity-exp-mix","w":{w},"lambda1":{lambda1},"lambda2":{lambda2},"quota":8,"seed":1}},"plan":{{"workitems":1}}}}"#
        )
    };
    let plan = |plan: &str| {
        format!(
            r#"{{"kernel":{{"type":"truncated-normal","a":1.5,"quota":8,"seed":1}},"plan":{{{plan}}}}}"#
        )
    };
    let bad_mt = mt_params_json(&dwi_rng::MtParams {
        n: 0,
        ..dwi_rng::MT19937
    });
    for spec in [
        calibration(&bad_mt),
        tn("-1", "8"),
        tn("1e999", "8"),
        tn("1.5", "0"),
        mix("1.5", "2", "0.5"),
        mix("0.5", "0.5", "2"),
        mix("0.5", "2", "0"),
        plan(r#""workitems":3,"local_size":2"#),
        plan(r#""workitems":4294967297"#),
        plan(r#""workitems":1.5"#),
        plan(r#""workitems":1,"local_size":1.5"#),
        plan(r#""workitems":1,"local_size":4294967297"#),
        plan(r#""workitems":1,"stream_depth":2.5"#),
        plan(r#""workitems":1,"stream_depth":4294967296"#),
        plan(r#""workitems":1,"burst_rns":4294967296"#),
        plan(r#""workitems":1,"wid_base":0.5"#),
        plan(r#""workitems":1,"wid_base":4294967296"#),
        plan(r#""workitems":2,"wid_base":4294967295"#),
        plan(r#""workitems":1,"freq_hz":0"#),
    ] {
        let r = client::post_json(gw.addr, "/v1/jobs", None, &spec).expect("post");
        assert_eq!(r.status, 400, "{spec}: {}", r.text());
    }
    // The lone worker survived every rejection: the next valid job
    // completes instead of long-polling 204 forever.
    let result = submit_and_wait(&gw, &calibration("\"mt19937\""));
    assert!(u64_field(&result, "accepted") >= 64);
    gw.stop();
}

/// `spec` must be refused with `400`, and the gateway's lone worker must
/// still complete the next valid job.
fn refused_and_worker_survives(gw: &RunningGateway, spec: &str) {
    let r = client::post_json(gw.addr, "/v1/jobs", None, spec).expect("post");
    assert_eq!(r.status, 400, "{spec}: {}", r.text());
    let result = submit_and_wait(
        gw,
        r#"{"transfers":{"channel":"config12","total":4096,"burst":256,"workitems":2}}"#,
    );
    assert!(result.get("runtime_s").is_some());
}

fn truncated_normal_with(extra: &str) -> String {
    format!(
        r#"{{"kernel":{{"type":"truncated-normal","a":1.5,"quota":8,"seed":1}},"plan":{{"workitems":2}},{extra}}}"#
    )
}

#[test]
fn shard_counts_below_one_get_400() {
    let gw = start_gateway(1);
    for shards in ["0", "-3"] {
        refused_and_worker_survives(
            &gw,
            &truncated_normal_with(&format!(r#""shards":{shards}"#)),
        );
    }
    gw.stop();
}

#[test]
fn negative_deadline_gets_400() {
    let gw = start_gateway(1);
    refused_and_worker_survives(&gw, &truncated_normal_with(r#""deadline_ms":-1"#));
    gw.stop();
}

#[test]
fn zero_burst_transfers_get_400() {
    let gw = start_gateway(1);
    refused_and_worker_survives(
        &gw,
        r#"{"transfers":{"total":100,"burst":0,"workitems":1}}"#,
    );
    gw.stop();
}

#[test]
fn invalid_sim_specs_get_400() {
    let gw = start_gateway(1);
    let sim = |fields: &str| format!(r#"{{"sim":{{"rns_per_workitem":64,{fields}}}}}"#);
    for fields in [
        r#""workitems":1,"reject_prob":1.5"#,
        r#""workitems":1,"reject_prob":-0.1"#,
        r#""workitems":0"#,
        r#""workitems":1.5"#,
        r#""workitems":1,"burst_rns":0"#,
        r#""workitems":1,"burst_rns":24"#,
        r#""workitems":1,"fifo_depth":0"#,
        r#""workitems":1,"fifo_depth":2.5"#,
        r#""workitems":1,"seed":-1"#,
    ] {
        refused_and_worker_survives(&gw, &sim(fields));
    }
    let ok = submit_and_wait(&gw, &sim(r#""workitems":1,"reject_prob":0.25"#));
    assert!(u64_field(&ok, "cycles") > 0);
    gw.stop();
}

#[test]
fn huge_fifo_depths_do_not_abort_the_server() {
    // Each depth used to reserve its whole capacity up front, so these
    // specs aborted the process on a failed allocation. A FIFO now
    // reserves at most what its producer can emit.
    let gw = start_gateway(1);
    submit_and_wait(
        &gw,
        r#"{"kernel":{"type":"truncated-normal","a":1.5,"quota":8,"seed":1},"plan":{"workitems":1,"stream_depth":4294967295}}"#,
    );
    let two_stage = |depth: &str| {
        format!(
            r#"{{"kernel":{{"type":"truncated-normal","a":1.5,"quota":8,"seed":1}},"stages":[{{"type":"window-aggregate","window":2}}],"plan":{{"workitems":1}},"edge_depth":{depth}}}"#
        )
    };
    submit_and_wait(&gw, &two_stage("4294967295"));
    for depth in ["1e18", "4294967296", "2.5", "0"] {
        refused_and_worker_survives(&gw, &two_stage(depth));
    }
    gw.stop();
}

#[test]
fn jobs_over_the_sample_budget_get_400() {
    // A job's `workitems × quota` samples are allocated before its first
    // step, so these specs used to abort the process in
    // `DeviceMemory::new` after a `202`.
    let gw = start_gateway(1);
    for spec in [
        r#"{"kernel":{"type":"truncated-normal","a":1.5,"quota":1e15,"seed":7},"plan":{"workitems":1}}"#,
        r#"{"kernel":{"type":"truncated-normal","a":1.5,"quota":1e6,"seed":7},"plan":{"workitems":1e9}}"#,
        r#"{"kernel":{"type":"severity-exp-mix","w":0.5,"lambda1":2.0,"lambda2":0.5,"quota":1e15,"seed":7},"stages":[{"type":"window-aggregate","window":8}],"plan":{"workitems":1},"edge_depth":8}"#,
        r#"{"kernel":{"type":"calibration","normal":"marsaglia-bray","mt":"mt19937","sector_variance":4.0,"samples":4294967297},"plan":{"workitems":1}}"#,
    ] {
        refused_and_worker_survives(&gw, spec);
    }
    let result = submit_and_wait(
        &gw,
        r#"{"kernel":{"type":"truncated-normal","a":1.5,"quota":8,"seed":7},"plan":{"workitems":1}}"#,
    );
    assert_eq!(u64_field(&result, "samples"), 8);
    gw.stop();
}
