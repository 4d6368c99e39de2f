//! Adversarial HTTP tests: every malformed, oversized, truncated, or
//! deliberately slow input gets a clean 4xx (or a bounded timeout) —
//! never a panic, never a wedged handler thread. Plus the admission
//! layers: auth, rate limit, quota, long-poll expiry, cancellation. And
//! the connection layer: keep-alive, pipelining, the per-connection
//! request cap, the idle timeout, the connection cap, and the client's
//! connection reuse.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use dwi_runtime::JobSpec;
use dwi_server::client;
use dwi_server::gateway::{start, GatewayConfig, RunningGateway, Tenant, MAX_CONNECTIONS};
use dwi_server::http::{MAX_REQUESTS_PER_CONNECTION, READ_TIMEOUT, WRITE_TIMEOUT};
use dwi_trace::json::parse;

fn start_anon() -> RunningGateway {
    start(GatewayConfig::new(1), "127.0.0.1:0", None).expect("gateway binds")
}

/// Write raw bytes, optionally half-close, read the full response text.
fn raw_exchange(gw: &RunningGateway, bytes: &[u8], close_write: bool) -> String {
    let mut s = TcpStream::connect(gw.addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s.write_all(bytes).expect("write");
    if close_write {
        s.shutdown(Shutdown::Write).ok();
    }
    let mut out = Vec::new();
    s.read_to_end(&mut out).ok();
    String::from_utf8_lossy(&out).into_owned()
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

const VALID_JOB: &str =
    r#"{"kernel":{"type":"truncated-normal","a":1.5,"quota":64,"seed":7},"plan":{"workitems":2}}"#;

/// Park the gateway's single worker; returns the release sender.
fn park_worker(gw: &RunningGateway) -> (dwi_runtime::JobHandle, mpsc::Sender<()>) {
    let (release_tx, release_rx) = mpsc::channel();
    let (started_tx, started_rx) = mpsc::channel();
    let handle = gw
        .gateway()
        .runtime()
        .submit(JobSpec::task(999, move || {
            started_tx.send(()).ok();
            release_rx.recv().ok();
        }))
        .expect("blocker admitted");
    started_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("worker picked up blocker");
    (handle, release_tx)
}

/// A valid job body with a caller-chosen seed — distinct seeds dodge the
/// runtime's result cache, which would otherwise complete repeat
/// submissions instantly and make in-flight assertions racy.
fn job_with_seed(seed: u32) -> String {
    format!(
        r#"{{"kernel":{{"type":"truncated-normal","a":1.5,"quota":64,"seed":{seed}}},"plan":{{"workitems":2}}}}"#
    )
}

fn submit_ok(gw: &RunningGateway, token: Option<&str>) -> u64 {
    let r = client::post_json(gw.addr, "/v1/jobs", token, VALID_JOB).expect("post");
    assert_eq!(r.status, 202, "body: {}", r.text());
    parse(r.text())
        .expect("json body")
        .get("id")
        .and_then(|v| v.as_f64())
        .expect("id field") as u64
}

#[test]
fn health_metrics_and_a_real_job_work() {
    let gw = start_anon();
    let h = client::get(gw.addr, "/healthz", None).unwrap();
    assert_eq!(h.status, 200);
    assert!(h.text().contains("\"ok\":true"));

    let id = submit_ok(&gw, None);
    // Long-poll until done.
    let r = client::get(
        gw.addr,
        &format!("/v1/jobs/{id}/wait?timeout_ms=20000"),
        None,
    )
    .unwrap();
    assert_eq!(r.status, 200, "body: {}", r.text());
    let body = parse(r.text()).unwrap();
    assert_eq!(body.get("state").and_then(|v| v.as_str()), Some("done"));
    let result = body.get("result").expect("result object");
    assert_eq!(
        result.get("kernel").and_then(|v| v.as_str()),
        Some("truncated-normal")
    );
    assert_eq!(result.get("accepted").and_then(|v| v.as_f64()), Some(128.0)); // 2 wi × 64 quota
                                                                              // A second poll re-serves the cached terminal body byte-identically.
    let again = client::get(gw.addr, &format!("/v1/jobs/{id}"), None).unwrap();
    assert_eq!(again.text(), r.text());

    let m = client::get(gw.addr, "/metrics", None).unwrap();
    assert_eq!(m.status, 200);
    assert!(m.text().contains("dwi_server_http_requests_total"));
    assert!(m.text().contains("dwi_server_jobs_submitted_total"));
    assert!(m.text().contains("dwi_runtime_jobs_completed_total"));
    gw.stop();
}

#[test]
fn malformed_request_lines_get_4xx_never_a_hang() {
    let gw = start_anon();
    for (raw, want) in [
        (&b"GARBAGE\r\n\r\n"[..], 400),
        (&b"GET\r\n\r\n"[..], 400),
        (&b"GET /healthz\r\n\r\n"[..], 400),
        (&b"GET /healthz HTTP/4.2\r\n\r\n"[..], 505),
        (&b"GET /healthz HTTP/1.1 extra\r\n\r\n"[..], 400),
        (&b" / HTTP/1.1\r\n\r\n"[..], 400),
        (&b"GET /healthz HTTP/1.1\r\nno-colon-here\r\n\r\n"[..], 400),
        (&b"GET /healthz HTTP/1.1\r\nbad name: x\r\n\r\n"[..], 400),
        (
            &b"GET /healthz HTTP/1.1\r\nContent-Length: banana\r\n\r\n"[..],
            400,
        ),
        (
            &b"POST /v1/jobs HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"[..],
            501,
        ),
        (
            &b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 9999999\r\n\r\n"[..],
            413,
        ),
        (&b"GET \xff\xfe HTTP/1.1\r\n\r\n"[..], 400),
    ] {
        let resp = raw_exchange(&gw, raw, false);
        assert_eq!(
            status_of(&resp),
            want,
            "input {:?} got {resp:?}",
            String::from_utf8_lossy(raw)
        );
    }
    // The server is still healthy after all of that.
    assert_eq!(client::get(gw.addr, "/healthz", None).unwrap().status, 200);
    gw.stop();
}

#[test]
fn oversized_header_sections_get_431() {
    let gw = start_anon();
    // One header line far over the per-line cap.
    let mut big = b"GET /healthz HTTP/1.1\r\nX-Big: ".to_vec();
    big.extend(vec![b'a'; 9 * 1024]);
    big.extend_from_slice(b"\r\n\r\n");
    assert_eq!(status_of(&raw_exchange(&gw, &big, false)), 431);

    // Too many headers.
    let mut many = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..100 {
        many.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
    }
    many.extend_from_slice(b"\r\n");
    assert_eq!(status_of(&raw_exchange(&gw, &many, false)), 431);

    // A head that never terminates blows the total cap, not the server.
    let mut endless = b"GET /healthz HTTP/1.1\r\n".to_vec();
    endless.extend(vec![b'a'; 1024 * 1024]);
    assert_eq!(status_of(&raw_exchange(&gw, &endless, false)), 431);
    gw.stop();
}

#[test]
fn truncated_bodies_get_400() {
    let gw = start_anon();
    let raw = b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"kernel\":";
    // Half-close after sending a fraction of the promised body.
    let resp = raw_exchange(&gw, raw, true);
    assert_eq!(status_of(&resp), 400, "got {resp:?}");
    gw.stop();
}

#[test]
fn slow_loris_gets_a_bounded_408() {
    let gw = start_anon();
    let start = Instant::now();
    // Send a partial request line and then nothing: the read timeout
    // must fire and answer 408 — the handler thread is bounded.
    let resp = raw_exchange(&gw, b"GET /heal", false);
    let elapsed = start.elapsed();
    assert_eq!(status_of(&resp), 408, "got {resp:?}");
    assert!(
        elapsed < Duration::from_secs(15),
        "timeout took {elapsed:?}"
    );
    // And the server still serves.
    assert_eq!(client::get(gw.addr, "/healthz", None).unwrap().status, 200);
    gw.stop();
}

#[test]
fn unknown_routes_and_methods_are_clean_errors() {
    let gw = start_anon();
    assert_eq!(client::get(gw.addr, "/nope", None).unwrap().status, 404);
    assert_eq!(
        client::get(gw.addr, "/v1/jobs/xyz", None).unwrap().status,
        400
    );
    assert_eq!(
        client::get(gw.addr, "/v1/jobs/123456", None)
            .unwrap()
            .status,
        404
    );
    let r = client::request(gw.addr, "PUT", "/v1/jobs/0", &[], b"").unwrap();
    assert_eq!(r.status, 404); // id 0 unknown → 404 before the method check
    let bad = client::post_json(gw.addr, "/v1/jobs", None, "{not json").unwrap();
    assert_eq!(bad.status, 400);
    let empty = client::post_json(gw.addr, "/v1/jobs", None, "").unwrap();
    assert_eq!(empty.status, 400);
    gw.stop();
}

#[test]
fn auth_rate_and_quota_layers_reject_with_the_right_codes() {
    let mut cfg = GatewayConfig::new(1);
    let mut fast = Tenant::new("fast-token", "fast");
    fast.rate = 1000.0;
    fast.burst = 1000.0;
    fast.quota = 1;
    let mut slow = Tenant::new("slow-token", "slow");
    slow.rate = 0.001;
    slow.burst = 1.0;
    cfg.tenants = vec![fast, slow];
    let gw = start(cfg, "127.0.0.1:0", None).expect("binds");

    // No token / wrong token → 401 (both submit and job routes).
    assert_eq!(
        client::post_json(gw.addr, "/v1/jobs", None, VALID_JOB)
            .unwrap()
            .status,
        401
    );
    assert_eq!(
        client::post_json(gw.addr, "/v1/jobs", Some("wrong"), VALID_JOB)
            .unwrap()
            .status,
        401
    );
    assert_eq!(
        client::get(gw.addr, "/v1/jobs/1", None).unwrap().status,
        401
    );

    // Rate: burst 1 at ~zero refill → second submit is 429 + Retry-After.
    assert_eq!(
        client::post_json(gw.addr, "/v1/jobs", Some("slow-token"), VALID_JOB)
            .unwrap()
            .status,
        202
    );
    let limited = client::post_json(gw.addr, "/v1/jobs", Some("slow-token"), VALID_JOB).unwrap();
    assert_eq!(limited.status, 429);
    assert!(limited.header("Retry-After").is_some());

    // Quota: park the worker so the first job stays in flight, then the
    // second submission for a quota-1 tenant is 429. Unique seeds keep
    // the result cache out of the picture.
    let (blocker, release) = park_worker(&gw);
    let first = client::post_json(
        gw.addr,
        "/v1/jobs",
        Some("fast-token"),
        &job_with_seed(1001),
    )
    .unwrap();
    assert_eq!(first.status, 202, "body: {}", first.text());
    let id = parse(first.text())
        .unwrap()
        .get("id")
        .and_then(|v| v.as_f64())
        .unwrap() as u64;
    let quota = client::post_json(
        gw.addr,
        "/v1/jobs",
        Some("fast-token"),
        &job_with_seed(1002),
    )
    .unwrap();
    assert_eq!(quota.status, 429, "body: {}", quota.text());

    // Tenant isolation: one tenant cannot see another's job.
    let foreign = client::get(gw.addr, &format!("/v1/jobs/{id}"), Some("slow-token")).unwrap();
    assert_eq!(foreign.status, 404);

    release.send(()).ok();
    blocker.detach();
    let done = client::get(
        gw.addr,
        &format!("/v1/jobs/{id}/wait?timeout_ms=20000"),
        Some("fast-token"),
    )
    .unwrap();
    assert_eq!(done.status, 200);
    gw.stop();
}

#[test]
fn longpoll_expires_with_204_and_cancel_renders_failed() {
    let gw = start_anon();
    let (blocker, release) = park_worker(&gw);

    // Long-poll on a job that cannot finish → 204 within the bound.
    let id = submit_ok(&gw, None);
    let t0 = Instant::now();
    let expired =
        client::get(gw.addr, &format!("/v1/jobs/{id}/wait?timeout_ms=300"), None).unwrap();
    assert_eq!(expired.status, 204);
    assert!(t0.elapsed() >= Duration::from_millis(300));
    assert!(t0.elapsed() < Duration::from_secs(10));

    // Plain poll reports pending.
    let pending = client::get(gw.addr, &format!("/v1/jobs/{id}"), None).unwrap();
    assert!(pending.text().contains("\"state\":\"pending\""));

    // Cancel while queued → "cancelling" (the runtime finalizes lazily,
    // at next dispatch); after the worker frees up, the job lands in
    // failed/cancelled.
    let cancelling =
        client::request(gw.addr, "DELETE", &format!("/v1/jobs/{id}"), &[], b"").unwrap();
    assert_eq!(cancelling.status, 200);
    assert!(
        cancelling.text().contains("\"state\":\"cancelling\""),
        "body: {}",
        cancelling.text()
    );

    release.send(()).ok();
    blocker.detach();
    let cancelled = client::get(
        gw.addr,
        &format!("/v1/jobs/{id}/wait?timeout_ms=20000"),
        None,
    )
    .unwrap();
    assert_eq!(cancelled.status, 200);
    assert!(
        cancelled.text().contains("\"state\":\"failed\""),
        "body: {}",
        cancelled.text()
    );
    assert!(cancelled.text().contains("cancelled"));

    // The expiry was counted.
    let m = client::get(gw.addr, "/metrics", None).unwrap();
    assert!(m.text().contains("dwi_server_longpoll_expired_total"));
    gw.stop();
}

// ---------------------------------------------------------------------
// Connection layer
// ---------------------------------------------------------------------

fn connect(gw: &RunningGateway) -> TcpStream {
    let s = TcpStream::connect(gw.addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    s
}

/// One response read off a raw stream, by its `Content-Length`.
struct Reply {
    status: u16,
    /// The `Connection` header's value.
    connection: String,
    body: String,
}

/// Read the next response; `buf` carries bytes read past the previous
/// one. `None` when the server closed the connection before any byte.
fn read_reply(s: &mut TcpStream, buf: &mut Vec<u8>) -> Option<Reply> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&buf[..end]).into_owned();
            let header = |name: &str| {
                head.split("\r\n")
                    .filter_map(|l| l.split_once(':'))
                    .find(|(k, _)| k.eq_ignore_ascii_case(name))
                    .map(|(_, v)| v.trim().to_string())
            };
            let len: usize = header("content-length")
                .expect("Content-Length")
                .parse()
                .unwrap();
            while buf.len() < end + 4 + len {
                let n = s.read(&mut chunk).expect("body read");
                assert!(n > 0, "connection closed mid-body");
                buf.extend_from_slice(&chunk[..n]);
            }
            let reply = Reply {
                status: status_of(&head),
                connection: header("connection").unwrap_or_default(),
                body: String::from_utf8_lossy(&buf[end + 4..end + 4 + len]).into_owned(),
            };
            buf.drain(..end + 4 + len);
            return Some(reply);
        }
        match s.read(&mut chunk) {
            Ok(0) => {
                assert!(buf.is_empty(), "connection closed mid-response");
                return None;
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("response read failed: {e}"),
        }
    }
}

/// Send one request on a raw kept-alive stream and read its response.
fn send(s: &mut TcpStream, buf: &mut Vec<u8>, raw: &[u8]) -> Reply {
    s.write_all(raw).expect("write");
    read_reply(s, buf).expect("a response on the kept-alive connection")
}

const HEALTHZ: &[u8] = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n";

/// A metric's value in a `/metrics` scrape.
fn scrape(gw: &RunningGateway, key: &str) -> Option<f64> {
    let m = client::get(gw.addr, "/metrics", None).expect("scrape");
    m.text()
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let gw = start_anon();
    let mut s = connect(&gw);
    // Three requests in one write; the middle one has a body, so the
    // third starts right after its Content-Length.
    s.write_all(
        b"GET /healthz HTTP/1.1\r\n\r\n\
          POST /v1/jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\n{not json\
          GET /nope HTTP/1.1\r\n\r\n",
    )
    .unwrap();
    let mut buf = Vec::new();
    let replies: Vec<Reply> = (0..3)
        .map(|_| read_reply(&mut s, &mut buf).expect("pipelined response"))
        .collect();
    let statuses: Vec<u16> = replies.iter().map(|r| r.status).collect();
    assert_eq!(statuses, [200, 400, 404]);
    assert!(replies[0].body.contains("\"ok\":true"));
    assert!(replies.iter().all(|r| r.connection == "keep-alive"));
    // The connection is still open for a fourth.
    assert_eq!(send(&mut s, &mut buf, HEALTHZ).status, 200);
    gw.stop();
}

#[test]
fn connection_close_and_http10_each_get_one_response_then_eof() {
    let gw = start_anon();
    // HTTP/1.1: kept alive until the request that says close.
    let mut s = connect(&gw);
    let mut buf = Vec::new();
    assert_eq!(send(&mut s, &mut buf, HEALTHZ).connection, "keep-alive");
    // A second request pipelined behind the close is never answered.
    s.write_all(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\nGET /healthz HTTP/1.1\r\n\r\n")
        .unwrap();
    let last = read_reply(&mut s, &mut buf).expect("one response");
    assert_eq!((last.status, last.connection.as_str()), (200, "close"));
    assert!(read_reply(&mut s, &mut buf).is_none(), "EOF after close");

    // HTTP/1.0: kept alive only while it asks for keep-alive.
    let mut s = connect(&gw);
    let mut buf = Vec::new();
    let kept = send(
        &mut s,
        &mut buf,
        b"GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    );
    assert_eq!((kept.status, kept.connection.as_str()), (200, "keep-alive"));
    let last = send(&mut s, &mut buf, b"GET /healthz HTTP/1.0\r\n\r\n");
    assert_eq!((last.status, last.connection.as_str()), (200, "close"));
    assert!(read_reply(&mut s, &mut buf).is_none(), "EOF after HTTP/1.0");
    gw.stop();
}

#[test]
fn the_request_cap_closes_the_connection_with_its_last_response() {
    let gw = start_anon();
    let mut s = connect(&gw);
    let mut buf = Vec::new();
    for i in 1..=MAX_REQUESTS_PER_CONNECTION {
        let r = send(&mut s, &mut buf, HEALTHZ);
        assert_eq!(r.status, 200);
        let want = if i < MAX_REQUESTS_PER_CONNECTION {
            "keep-alive"
        } else {
            "close"
        };
        assert_eq!(r.connection, want, "response {i}");
    }
    assert!(read_reply(&mut s, &mut buf).is_none(), "EOF after the cap");
    gw.stop();
}

#[test]
fn an_idle_kept_alive_connection_closes_silently_after_the_read_timeout() {
    let gw = start_anon();
    let mut s = connect(&gw);
    let mut buf = Vec::new();
    assert_eq!(send(&mut s, &mut buf, HEALTHZ).connection, "keep-alive");
    let idle = Instant::now();
    // No 408 for a connection that sent nothing since its last request:
    // just EOF, and not before the timeout.
    assert!(read_reply(&mut s, &mut buf).is_none(), "silent close");
    let waited = idle.elapsed();
    assert!(
        waited >= READ_TIMEOUT - Duration::from_millis(500),
        "closed after {waited:?}"
    );
    assert!(waited < READ_TIMEOUT + Duration::from_secs(10));
    gw.stop();
}

#[test]
fn connections_past_the_cap_get_503_and_service_resumes_once_they_close() {
    let gw = start_anon();
    // Fill every slot with an idle connection (each holds it until the
    // read timeout).
    let idle: Vec<TcpStream> = (0..MAX_CONNECTIONS).map(|_| connect(&gw)).collect();
    let t0 = Instant::now();
    let mut extra = connect(&gw);
    extra
        .set_read_timeout(Some(Duration::from_secs(1)))
        .unwrap();
    let mut raw = Vec::new();
    extra
        .read_to_end(&mut raw)
        .expect("503 then EOF within 1 s");
    let text = String::from_utf8_lossy(&raw);
    assert_eq!(status_of(&text), 503, "got {text:?}");
    assert!(text.contains("Retry-After: 1\r\n"), "got {text:?}");
    assert!(text.contains("Connection: close\r\n"), "got {text:?}");
    assert!(t0.elapsed() < Duration::from_secs(1));
    // A client that sends its request on connecting, as every real one
    // does, reads the 503 too (not a reset).
    let r = client::get(gw.addr, "/healthz", None).expect("503, not a reset");
    assert_eq!(r.status, 503, "got {r:?}");
    assert_eq!(r.header("retry-after"), Some("1"));

    drop(idle);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match client::get(gw.addr, "/healthz", None) {
            Ok(r) if r.status == 200 => break,
            other => assert!(
                Instant::now() < deadline,
                "service never resumed: {other:?}"
            ),
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let refused = scrape(
        &gw,
        "dwi_server_http_requests_total{route=\"refused\",code=\"503\"}",
    );
    assert!(refused >= Some(1.0), "refusals counted: {refused:?}");
    gw.stop();
}

#[test]
fn connection_slots_come_back_after_bad_requests_disconnects_and_keep_alive() {
    let gw = start_anon();
    for (raw, want) in [
        (&b"GARBAGE\r\n\r\n"[..], 400),
        (b"GET /healthz HTTP/4.2\r\n\r\n", 505),
    ] {
        assert_eq!(status_of(&raw_exchange(&gw, raw, false)), want);
    }
    // Abrupt disconnects: mid-head, mid-body, and right after connecting.
    for raw in [
        &b"GET /heal"[..],
        b"POST /v1/jobs HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"ke",
        b"",
    ] {
        let mut s = connect(&gw);
        s.write_all(raw).unwrap();
        drop(s);
    }
    // A run of kept-alive exchanges on one connection, then a close.
    let mut s = connect(&gw);
    let mut buf = Vec::new();
    for _ in 0..20 {
        assert_eq!(send(&mut s, &mut buf, HEALTHZ).connection, "keep-alive");
    }
    drop(s);
    // Only the scraping connection is left.
    await_one_connection(&gw, Duration::from_secs(10), "slots leaked");
    gw.stop();
}

/// Poll `/metrics` until only the scraping connection is left.
fn await_one_connection(gw: &RunningGateway, within: Duration, what: &str) {
    let deadline = Instant::now() + within;
    loop {
        let active = scrape(gw, "dwi_server_active_connections");
        if active == Some(1.0) {
            return;
        }
        assert!(Instant::now() < deadline, "{what}: {active:?} connections");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn a_peer_that_does_not_read_its_responses_loses_its_connection() {
    let gw = start_anon();
    // A finished job fills `/metrics` with the runtime's families.
    let id = submit_ok(&gw, None);
    let done = client::get(gw.addr, &format!("/v1/jobs/{id}/wait"), None).expect("wait");
    assert_eq!(done.status, 200);
    let mut s = connect(&gw);
    s.set_write_timeout(Some(Duration::from_secs(10))).unwrap();
    // Far more response bytes than both ends' socket buffers hold, so
    // the server's write blocks; the requests themselves stay small.
    let req = b"GET /metrics HTTP/1.1\r\n\r\n";
    let n = MAX_REQUESTS_PER_CONNECTION - 1;
    let pipelined: Vec<u8> = req.iter().copied().cycle().take(req.len() * n).collect();
    let _ = s.write_all(&pipelined);
    let body = client::get(gw.addr, "/metrics", None)
        .expect("scrape")
        .body
        .len();
    assert!(
        body * n > 16 << 20,
        "{n} scrapes of {body} bytes fit in the socket buffers"
    );
    // Never read: the slot comes back once a write misses its deadline.
    await_one_connection(
        &gw,
        WRITE_TIMEOUT + Duration::from_secs(5),
        "the stuck writer kept its slot",
    );
    drop(s);
    gw.stop();
}

#[test]
fn a_request_trickled_byte_by_byte_gets_408_one_read_timeout_after_its_first_byte() {
    let gw = start_anon();
    let mut s = connect(&gw);
    // One byte every 0.4 s: each read returns well inside the read
    // timeout, but the request as a whole never completes.
    s.set_read_timeout(Some(Duration::from_millis(400)))
        .unwrap();
    let first = Instant::now();
    let mut got = Vec::new();
    for b in b"GET /healthz HTTP/1.1\r\nX-Slow: ".iter().cycle() {
        let _ = s.write_all(&[*b]);
        let mut chunk = [0u8; 1024];
        match s.read(&mut chunk) {
            Ok(n) if n > 0 => {
                got.extend_from_slice(&chunk[..n]);
                break;
            }
            Ok(_) => panic!("closed without a response"),
            Err(_) => {}
        }
        assert!(
            first.elapsed() < READ_TIMEOUT + Duration::from_secs(5),
            "still trickling after {:?}",
            first.elapsed()
        );
    }
    let waited = first.elapsed();
    assert_eq!(status_of(&String::from_utf8_lossy(&got)), 408);
    assert!(
        waited >= READ_TIMEOUT - Duration::from_millis(500),
        "answered after {waited:?}"
    );
    drop(s);
    await_one_connection(&gw, Duration::from_secs(5), "the trickler kept its slot");
    gw.stop();
}

#[test]
fn request_seconds_leave_out_the_idle_time_between_kept_alive_requests() {
    let gw = start_anon();
    let mut s = connect(&gw);
    let mut buf = Vec::new();
    assert_eq!(send(&mut s, &mut buf, HEALTHZ).status, 200);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(send(&mut s, &mut buf, HEALTHZ).status, 200);
    let count = scrape(
        &gw,
        "dwi_server_http_request_seconds_count{route=\"/healthz\"}",
    );
    let sum = scrape(
        &gw,
        "dwi_server_http_request_seconds_sum{route=\"/healthz\"}",
    )
    .expect("histogram sum");
    assert_eq!(count, Some(2.0));
    assert!(sum < 0.1, "two /healthz requests booked {sum} s");
    gw.stop();
}

/// Serve up to `max` requests on one accepted stream, each with a
/// kept-alive `200` whose body counts the requests; returns how many came.
fn serve_bare(s: &mut TcpStream, max: usize) -> usize {
    s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
    let (mut buf, mut chunk, mut served) = (Vec::new(), [0u8; 1024], 0);
    while served < max {
        if let Some(end) = buf.windows(4).position(|w: &[u8]| w == b"\r\n\r\n") {
            buf.drain(..end + 4);
            let body = format!("reply {served}");
            let head = format!("HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n", body.len());
            s.write_all(format!("{head}{body}").as_bytes()).unwrap();
            served += 1;
            continue;
        }
        match s.read(&mut chunk) {
            Ok(n) if n > 0 => buf.extend_from_slice(&chunk[..n]),
            _ => break,
        }
    }
    served
}

#[test]
fn the_client_reuses_its_connection_and_retries_once_when_it_went_stale() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let (closed_tx, closed_rx) = mpsc::channel();
    let server = std::thread::spawn(move || {
        let (mut first, _) = listener.accept().unwrap();
        let on_first = serve_bare(&mut first, 3);
        // The server side closes the idle stream, as the gateway's read
        // timeout does.
        drop(first);
        closed_tx.send(()).unwrap();
        let (mut second, _) = listener.accept().unwrap();
        (on_first, serve_bare(&mut second, 1))
    });
    for i in 0..3 {
        let r = client::get(addr, "/x", None).expect("served");
        assert_eq!((r.status, r.text()), (200, format!("reply {i}").as_str()));
    }
    closed_rx
        .recv_timeout(Duration::from_secs(20))
        .expect("first stream closed");
    let r = client::get(addr, "/x", None).expect("resent on a new connection");
    assert_eq!((r.status, r.text()), (200, "reply 0"));
    assert_eq!(server.join().unwrap(), (3, 1));
}
