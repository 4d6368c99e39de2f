//! A minimal HTTP/1.1 client for the gateway, with keep-alive: each
//! thread keeps one open connection, to the address it last talked to,
//! and sends its next request to that address over it. A closed loop of
//! exchanges (the bench front-end's `--http` modes, the benchmark's
//! clients) so pays one TCP connect, not one per exchange. Used by those,
//! the CI smoke, and the e2e tests — all of which need byte-exact bodies,
//! not convenience.

use std::cell::RefCell;
use std::io::{Error, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{has_token, read_head, read_to, ReadFail};

/// A parsed response.
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    /// First value of a header, case-insensitively.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Body as UTF-8 (gateway bodies always are).
    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

/// Connect timeout, and the longest any one read or write may block.
const EXCHANGE_TIMEOUT: Duration = Duration::from_secs(60);

thread_local! {
    /// This thread's kept-alive connection and the address it goes to.
    static CONNECTION: RefCell<Option<(SocketAddr, TcpStream)>> = const { RefCell::new(None) };
}

/// Perform one request, over this thread's open connection to `addr`
/// when it has one. The connection stays open for the next request
/// unless the response says `Connection: close` or has no
/// `Content-Length`. When a reused connection turns out closed — the
/// server's idle timeout, with not one response byte back — the request
/// is sent once more on a new connection: the server never closes a
/// kept-alive connection after reading a request, so it did not act on
/// it.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> std::io::Result<Response> {
    let mut msg = format!("{method} {path} HTTP/1.1\r\nHost: {addr}\r\n");
    for (k, v) in headers {
        msg.push_str(&format!("{k}: {v}\r\n"));
    }
    msg.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    let mut msg = msg.into_bytes();
    msg.extend_from_slice(body);

    let cached = CONNECTION.with(|c| c.borrow_mut().take());
    if let Some((_, mut stream)) = cached.filter(|(to, _)| *to == addr) {
        match exchange(&mut stream, &msg) {
            Ok((resp, reusable)) => return Ok(keep(addr, stream, resp, reusable)),
            Err(e) if !closed_unanswered(&e) => return Err(e),
            Err(_) => {}
        }
    }
    let mut stream = TcpStream::connect_timeout(&addr, EXCHANGE_TIMEOUT)?;
    stream.set_read_timeout(Some(EXCHANGE_TIMEOUT))?;
    stream.set_write_timeout(Some(EXCHANGE_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let (resp, reusable) = exchange(&mut stream, &msg)?;
    Ok(keep(addr, stream, resp, reusable))
}

/// Cache the connection for this thread's next request when it can carry
/// one.
fn keep(addr: SocketAddr, stream: TcpStream, resp: Response, reusable: bool) -> Response {
    let close = resp
        .header("connection")
        .is_some_and(|v| has_token(v, "close"));
    if reusable && !close {
        CONNECTION.with(|c| *c.borrow_mut() = Some((addr, stream)));
    }
    resp
}

/// The peer closed or reset the connection before one response byte
/// came back ([`read_response`] reports any later failure as
/// `InvalidData`).
fn closed_unanswered(e: &Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::UnexpectedEof
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::BrokenPipe
    )
}

/// Send one request and read its response. The flag says whether the
/// connection can carry another exchange.
fn exchange(stream: &mut TcpStream, msg: &[u8]) -> std::io::Result<(Response, bool)> {
    stream.write_all(msg)?;
    read_response(stream)
}

fn read_response(stream: &mut TcpStream) -> std::io::Result<(Response, bool)> {
    let bad = |msg: &str| Error::new(ErrorKind::InvalidData, msg.to_string());
    let mut raw = Vec::with_capacity(1024);
    let head_end = match read_head(stream, &mut raw) {
        Ok(pos) => pos,
        Err(ReadFail::Closed) if raw.is_empty() => return Err(ErrorKind::UnexpectedEof.into()),
        Err(ReadFail::Io(e)) if raw.is_empty() => return Err(e),
        Err(ReadFail::TooLarge) => return Err(bad("response head too large")),
        Err(ReadFail::Closed) => return Err(bad("connection closed mid-response")),
        Err(ReadFail::Io(e)) => return Err(bad(&format!("response read failed: {e}"))),
    };
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("response head not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (k, v) = line
            .split_once(':')
            .ok_or_else(|| bad("malformed header"))?;
        headers.push((k.to_string(), v.trim().to_string()));
    }
    let content_length = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| bad("malformed Content-Length"))
        })
        .transpose()?;
    let start = head_end + 4;
    let reusable = match content_length {
        Some(len) => {
            match read_to(stream, &mut raw, start + len) {
                Ok(()) => {}
                Err(ReadFail::Io(e)) => return Err(bad(&format!("response read failed: {e}"))),
                Err(_) => return Err(bad("short response body")),
            }
            // Bytes past the body mean the connection is out of step.
            let exact = raw.len() == start + len;
            raw.truncate(start + len);
            exact
        }
        None => {
            stream
                .read_to_end(&mut raw)
                .map_err(|e| bad(&format!("response read failed: {e}")))?;
            false
        }
    };
    let body = raw.split_off(start);
    Ok((
        Response {
            status,
            headers,
            body,
        },
        reusable,
    ))
}

/// Convenience: POST a JSON body.
pub fn post_json(
    addr: SocketAddr,
    path: &str,
    token: Option<&str>,
    json: &str,
) -> std::io::Result<Response> {
    let auth;
    let mut headers: Vec<(&str, &str)> = vec![("Content-Type", "application/json")];
    if let Some(t) = token {
        auth = format!("Bearer {t}");
        headers.push(("Authorization", &auth));
    }
    request(addr, "POST", path, &headers, json.as_bytes())
}

/// Convenience: GET a path.
pub fn get(addr: SocketAddr, path: &str, token: Option<&str>) -> std::io::Result<Response> {
    let auth;
    let mut headers: Vec<(&str, &str)> = Vec::new();
    if let Some(t) = token {
        auth = format!("Bearer {t}");
        headers.push(("Authorization", &auth));
    }
    request(addr, "GET", path, &headers, b"")
}
