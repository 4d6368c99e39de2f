//! Minimal HTTP/1.1 on `std::net` — the gateway's transport, hand-rolled
//! the way `dwi-trace` hand-rolls its exporters (the workspace is
//! offline; no hyper, no tokio). Connections are persistent (HTTP/1.1
//! keep-alive): [`read_request`] keeps the bytes it read past one request
//! for the next, so pipelined requests are answered in order, and
//! [`respond`] tells the peer whether the connection stays open. Every
//! hard cap applies to each request on a connection. Time is bounded per
//! message, not per socket call: a request must arrive whole within
//! [`READ_TIMEOUT`] of its first byte (else `408`, so trickling bytes
//! cannot hold a connection), a kept-alive connection idle that long is
//! closed silently, and a response must be written within
//! [`WRITE_TIMEOUT`] (a peer that does not read loses its connection).
//! So no peer holds a connection, or its thread, past one bound, and none
//! ever wedges a worker.

use std::io::{self, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Request-line cap (method + path + version).
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Per-header-line cap.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Header-count cap.
pub const MAX_HEADERS: usize = 64;
/// Body cap — job specs are small; anything bigger is abuse.
pub const MAX_BODY: usize = 1024 * 1024;
/// Time a request has from its first byte to its last: a peer that
/// cannot produce a full request this fast is slow-lorising. A kept-alive
/// connection idle this long is closed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(5);
/// Time a response has to be written: a peer that reads it slower, or not
/// at all, is cut off.
pub const WRITE_TIMEOUT: Duration = Duration::from_secs(5);
/// Requests served on one connection before the server closes it (the
/// last response says `Connection: close`).
pub const MAX_REQUESTS_PER_CONNECTION: usize = 1000;
/// Cap on a message's head: the request line plus every header line.
pub(crate) const MAX_HEAD: usize = MAX_REQUEST_LINE + MAX_HEADERS * MAX_HEADER_LINE;

/// A parsed request. Headers keep their wire order; lookups are
/// case-insensitive per RFC 9110.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path including any query string, exactly as sent.
    pub target: String,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
    /// Whether the peer lets the connection stay open after the response:
    /// HTTP/1.1 unless it sent `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
    /// When the request's first byte arrived (or was found already
    /// buffered behind the previous request) — not when the connection
    /// started waiting for it.
    pub arrived: Instant,
}

impl Request {
    /// First value of a header, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The path without the query string.
    pub fn path(&self) -> &str {
        self.target.split('?').next().unwrap_or(&self.target)
    }

    /// A query parameter's (percent-decoding-free) value.
    pub fn query(&self, key: &str) -> Option<&str> {
        let q = self.target.split_once('?')?.1;
        q.split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v)
    }
}

/// A parse failure that maps to one clean HTTP error response.
#[derive(Debug)]
pub struct HttpError {
    pub status: u16,
    pub reason: &'static str,
}

impl HttpError {
    fn new(status: u16, reason: &'static str) -> Self {
        Self { status, reason }
    }
}

/// Read the next request off a connection whose read timeout the caller
/// set to [`READ_TIMEOUT`] (once per connection: reads after a request's
/// first byte narrow it to what is left of [`READ_TIMEOUT`] from that
/// byte, and a request read whole sets it back). `buf` carries the bytes
/// read past the previous request on this connection, and keeps those
/// read past this one. `Ok(None)` is a clean end before any byte of a request:
/// the peer closed or reset the connection, or it sat idle past
/// [`READ_TIMEOUT`]. Every malformed, oversized, or late partial input
/// becomes an [`HttpError`] the caller answers with [`respond_error`]
/// before closing — never a panic, never a wedged thread.
pub fn read_request(
    stream: &mut TcpStream,
    buf: &mut Vec<u8>,
) -> Result<Option<Request>, HttpError> {
    let mut conn = Deadlined {
        stream,
        arrived: (!buf.is_empty()).then(Instant::now),
        narrowed: false,
    };
    let head_end = match read_head(&mut conn, buf) {
        Ok(pos) => pos,
        Err(_) if buf.is_empty() => return Ok(None),
        Err(ReadFail::TooLarge) => {
            return Err(HttpError::new(431, "request header section too large"))
        }
        Err(ReadFail::Closed) => return Err(HttpError::new(400, "connection closed mid-request")),
        Err(ReadFail::Io(e)) if is_timeout(&e) => {
            return Err(HttpError::new(408, "request header read timed out"))
        }
        Err(ReadFail::Io(_)) => return Err(HttpError::new(400, "request read failed")),
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| HttpError::new(400, "request head is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::new(400, "empty request"))?;
    if request_line.len() > MAX_REQUEST_LINE {
        return Err(HttpError::new(414, "request line too long"));
    }
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => return Err(HttpError::new(400, "malformed request line")),
    };
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::new(505, "unsupported HTTP version"));
    }
    let (method, target, http11) = (
        method.to_string(),
        target.to_string(),
        version == "HTTP/1.1",
    );

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        if line.len() > MAX_HEADER_LINE {
            return Err(HttpError::new(431, "header line too long"));
        }
        if headers.len() >= MAX_HEADERS {
            return Err(HttpError::new(431, "too many headers"));
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| HttpError::new(400, "malformed header line"))?;
        if k.is_empty() || k.contains(' ') {
            return Err(HttpError::new(400, "malformed header name"));
        }
        headers.push((k.to_string(), v.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| HttpError::new(400, "unparseable Content-Length"))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY {
        return Err(HttpError::new(413, "request body too large"));
    }
    if headers
        .iter()
        .any(|(k, _)| k.eq_ignore_ascii_case("transfer-encoding"))
    {
        // No chunked bodies: job specs are small and length-delimited.
        return Err(HttpError::new(501, "transfer encodings are not supported"));
    }
    let connection = |token: &str| {
        headers
            .iter()
            .any(|(k, v)| k.eq_ignore_ascii_case("connection") && has_token(v, token))
    };
    let keep_alive = !connection("close") && (http11 || connection("keep-alive"));

    // The body ends at Content-Length; what follows it is the next
    // request's, and stays in `buf`.
    let end = head_end + 4 + content_length;
    match read_to(&mut conn, buf, end) {
        Ok(()) => {}
        Err(ReadFail::Io(e)) if is_timeout(&e) => {
            return Err(HttpError::new(408, "request body read timed out"))
        }
        Err(ReadFail::Io(_)) => return Err(HttpError::new(400, "request body read failed")),
        Err(_) => return Err(HttpError::new(400, "connection closed mid-body")),
    }
    let body = buf[head_end + 4..end].to_vec();
    buf.drain(..end);
    if conn.narrowed && conn.stream.set_read_timeout(Some(READ_TIMEOUT)).is_err() {
        return Err(HttpError::new(500, "socket configuration failed"));
    }

    Ok(Some(Request {
        method,
        target,
        headers,
        body,
        keep_alive,
        arrived: conn.arrived.unwrap_or_else(Instant::now),
    }))
}

/// A server-side connection read under one deadline per request: a read
/// before the request's first byte waits up to the socket's
/// [`READ_TIMEOUT`] (the idle wait), and every later read only for what
/// is left of [`READ_TIMEOUT`] counted from that byte. A request that
/// arrives in one read costs no socket call beyond the read.
struct Deadlined<'a> {
    stream: &'a mut TcpStream,
    /// When the request's first byte arrived.
    arrived: Option<Instant>,
    /// Whether the socket's read timeout was narrowed below
    /// [`READ_TIMEOUT`].
    narrowed: bool,
}

impl Read for Deadlined<'_> {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if let Some(t) = self.arrived {
            self.stream
                .set_read_timeout(Some(time_left(t + READ_TIMEOUT)?))?;
            self.narrowed = true;
        }
        let n = self.stream.read(out)?;
        if n > 0 {
            self.arrived.get_or_insert_with(Instant::now);
        }
        Ok(n)
    }
}

/// The time until `deadline`, or a `TimedOut` error once it has passed.
fn time_left(deadline: Instant) -> io::Result<Duration> {
    deadline
        .checked_duration_since(Instant::now())
        .filter(|d| !d.is_zero())
        .ok_or_else(|| ErrorKind::TimedOut.into())
}

fn is_timeout(e: &io::Error) -> bool {
    e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut
}

/// Why [`read_head`] or [`read_to`] stopped short.
pub(crate) enum ReadFail {
    /// The peer closed the connection.
    Closed,
    /// The head grew past [`MAX_HEAD`] with no blank line.
    TooLarge,
    Io(io::Error),
}

/// Read into `buf` until it holds a whole message head, and return where
/// the head's blank line starts. Request and response heads both end this
/// way; bytes read past it stay in `buf`.
pub(crate) fn read_head(r: &mut impl Read, buf: &mut Vec<u8>) -> Result<usize, ReadFail> {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some(pos) = find_terminator(buf) {
            return Ok(pos);
        }
        if buf.len() > MAX_HEAD {
            return Err(ReadFail::TooLarge);
        }
        read_more(r, buf, &mut chunk)?;
    }
}

/// Read into `buf` until it holds at least `end` bytes: a message body
/// ends at its `Content-Length`.
pub(crate) fn read_to(r: &mut impl Read, buf: &mut Vec<u8>, end: usize) -> Result<(), ReadFail> {
    let mut chunk = [0u8; 4096];
    while buf.len() < end {
        read_more(r, buf, &mut chunk)?;
    }
    Ok(())
}

fn read_more(r: &mut impl Read, buf: &mut Vec<u8>, chunk: &mut [u8]) -> Result<(), ReadFail> {
    match r.read(chunk) {
        Ok(0) => Err(ReadFail::Closed),
        Ok(n) => {
            buf.extend_from_slice(&chunk[..n]);
            Ok(())
        }
        Err(e) if e.kind() == ErrorKind::Interrupted => Ok(()),
        Err(e) => Err(ReadFail::Io(e)),
    }
}

/// Position of the `\r\n\r\n` header terminator.
fn find_terminator(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Whether a comma-separated header value (`Connection: keep-alive,
/// Upgrade`) lists `token`, case-insensitively.
pub fn has_token(value: &str, token: &str) -> bool {
    value
        .split(',')
        .any(|t| t.trim().eq_ignore_ascii_case(token))
}

/// Canonical reason phrase for the statuses the gateway emits.
pub fn reason_phrase(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        204 => "No Content",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Content Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

/// Write one complete response: head and body go out together, so
/// Nagle's algorithm cannot hold a kept-alive connection's response back
/// behind the peer's delayed ACK. With `keep_alive` the response says
/// `Connection: keep-alive` and the connection stays open for the next
/// request; otherwise it says `Connection: close` and the caller closes
/// after it. The caller sets the connection's write timeout to
/// [`WRITE_TIMEOUT`] once; a response that takes more than one write is
/// held to [`WRITE_TIMEOUT`] as a whole. An error means the peer is gone,
/// or did not take the response in time.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {}\r\n",
        reason_phrase(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    for (k, v) in extra_headers {
        head.push_str(k);
        head.push_str(": ");
        head.push_str(v);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(body);
    let deadline = Instant::now() + WRITE_TIMEOUT;
    let (mut rest, mut narrowed) = (&out[..], false);
    loop {
        match stream.write(rest) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => rest = &rest[n..],
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
        if rest.is_empty() {
            break;
        }
        stream.set_write_timeout(Some(time_left(deadline)?))?;
        narrowed = true;
    }
    if narrowed {
        stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    }
    Ok(())
}

/// Answer an [`HttpError`] with a small JSON body; the connection closes
/// after it.
pub fn respond_error(stream: &mut TcpStream, err: &HttpError) {
    let body = format!(
        "{{\"error\":{}}}\n",
        dwi_trace::json::escape_str(err.reason)
    );
    // The peer may already be gone; nothing useful to do about it.
    let _ = respond(
        stream,
        err.status,
        "application/json",
        &[],
        body.as_bytes(),
        false,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_lookup_is_case_insensitive() {
        let r = Request {
            method: "GET".into(),
            target: "/x?a=1&b=2".into(),
            headers: vec![("Authorization".into(), "Bearer t".into())],
            body: Vec::new(),
            keep_alive: true,
            arrived: Instant::now(),
        };
        assert_eq!(r.header("authorization"), Some("Bearer t"));
        assert_eq!(r.header("AUTHORIZATION"), Some("Bearer t"));
        assert_eq!(r.header("missing"), None);
        assert_eq!(r.path(), "/x");
        assert_eq!(r.query("b"), Some("2"));
        assert_eq!(r.query("c"), None);
    }

    #[test]
    fn terminator_scan_finds_the_first_blank_line() {
        assert_eq!(find_terminator(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_terminator(b"partial\r\n"), None);
    }

    #[test]
    fn connection_tokens_are_matched_whole_and_case_insensitively() {
        assert!(has_token("keep-alive, Upgrade", "upgrade"));
        assert!(has_token("Close", "close"));
        assert!(!has_token("closed", "close"));
        assert!(!has_token("", "close"));
    }
}
