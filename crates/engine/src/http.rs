//! A minimal, dependency-free HTTP/1.1 layer for [`crate::serve`].
//!
//! The environment vendors no HTTP crates, so the scenario service reads
//! and writes the protocol itself over `std::net` streams. The subset
//! implemented here is exactly what the service needs:
//!
//! - **Requests**: request line + headers + an optional `Content-Length`
//!   body ([`read_request`]). Chunked request bodies are rejected with
//!   `411 Length Required`; header and body sizes are bounded so a
//!   misbehaving client cannot exhaust memory.
//! - **Responses**: either a complete body with a `Content-Length`
//!   ([`Response::write_to`]) or a **close-delimited stream**
//!   ([`Response::write_streaming_head`]) — the server sends the header
//!   with `Connection: close`, then writes body bytes as they are
//!   produced and signals the end by closing the socket. This is how
//!   `POST /run` streams NDJSON rows as sweep points complete, with no
//!   chunked-encoding framing for clients to undo (`curl` shows lines
//!   as they arrive).
//!
//! Everything here is transport plumbing: no route logic, no engine
//! types. See [`crate::serve`] for the endpoints and `docs/serving.md`
//! for the wire-level reference.

use std::fmt;
use std::io::{self, BufRead, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on the request line + headers, in bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body (scenario specs are a few KiB), in bytes.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed HTTP request: method, target path, lower-cased headers, body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method, upper-case as received (`GET`, `POST`, …).
    pub method: String,
    /// Request target (path plus optional query string), as received.
    pub path: String,
    /// Headers in arrival order; names are lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (lower-case), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The path without its query string.
    pub fn route(&self) -> &str {
        self.path.split('?').next().unwrap_or(&self.path)
    }

    /// The first value of query parameter `key`, if present. Values are
    /// taken literally (no percent-decoding) — the service's parameters
    /// are plain tokens (`format=csv`, `shards=3`).
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.path.split_once('?')?.1.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=')?;
            (k == key).then_some(v)
        })
    }
}

/// Why a request could not be read. [`HttpError::status`] maps each case
/// to the response status the server should answer with.
#[derive(Debug)]
pub enum HttpError {
    /// The socket failed or closed mid-request.
    Io(io::Error),
    /// The socket's read deadline expired mid-request — a client that
    /// sent half a head (or half a body) and then stalled. Answered with
    /// `408 Request Timeout` so the worker thread is released instead of
    /// pinned forever.
    Timeout,
    /// The request line or a header is not parseable HTTP/1.x.
    Malformed(String),
    /// Headers exceed [`MAX_HEAD_BYTES`].
    HeadTooLarge,
    /// `Content-Length` exceeds [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// A body-carrying request without a usable `Content-Length`.
    LengthRequired,
}

impl HttpError {
    /// The HTTP status code this error should be answered with.
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Io(_) => 400,
            HttpError::Timeout => 408,
            HttpError::Malformed(_) => 400,
            HttpError::HeadTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::LengthRequired => 411,
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
            HttpError::Timeout => write!(f, "request read timed out"),
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::HeadTooLarge => write!(f, "request headers exceed {MAX_HEAD_BYTES} bytes"),
            HttpError::BodyTooLarge => write!(f, "request body exceeds {MAX_BODY_BYTES} bytes"),
            HttpError::LengthRequired => write!(f, "request body needs a Content-Length"),
        }
    }
}

/// Classifies a read failure: a socket whose read deadline expired
/// (`WouldBlock`/`TimedOut`, depending on platform) is a [`HttpError::Timeout`],
/// anything else is [`HttpError::Io`].
fn read_error(e: io::Error) -> HttpError {
    if matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    ) {
        HttpError::Timeout
    } else {
        HttpError::Io(e)
    }
}

impl std::error::Error for HttpError {}

/// Reads one HTTP/1.x request (head + `Content-Length` body) from a
/// buffered stream.
///
/// # Errors
///
/// Returns an [`HttpError`] describing the violation; callers should
/// answer with [`HttpError::status`] and close the connection.
pub fn read_request(stream: &mut impl BufRead) -> Result<Request, HttpError> {
    let request_line = read_head_line(stream)?;
    let mut parts = request_line.split_whitespace();
    let (Some(method), Some(path), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::Malformed(format!(
            "bad request line {request_line:?}"
        )));
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported protocol {version:?}"
        )));
    }
    let method = method.to_ascii_uppercase();
    let path = path.to_string();

    let mut headers = Vec::new();
    let mut head_bytes = request_line.len();
    loop {
        let line = read_head_line(stream)?;
        head_bytes += line.len() + 2;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed(format!("bad header line {line:?}")));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let request = Request {
        method,
        path,
        headers,
        body: Vec::new(),
    };
    if request
        .header("transfer-encoding")
        .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
    {
        // The service only accepts small spec bodies; chunked uploads are
        // not worth the framing code.
        return Err(HttpError::LengthRequired);
    }
    let length = match request.header("content-length") {
        None => 0,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed(format!("bad Content-Length {v:?}")))?,
    };
    if length > MAX_BODY_BYTES {
        return Err(HttpError::BodyTooLarge);
    }
    let mut body = vec![0u8; length];
    io::Read::read_exact(stream, &mut body).map_err(read_error)?;
    Ok(Request { body, ..request })
}

/// Reads one CRLF- (or LF-) terminated head line, bounded by
/// [`MAX_HEAD_BYTES`].
fn read_head_line(stream: &mut impl BufRead) -> Result<String, HttpError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match io::Read::read(stream, &mut byte) {
            Ok(0) => return Err(HttpError::Malformed("connection closed mid-head".into())),
            Ok(_) => {}
            Err(e) => return Err(read_error(e)),
        }
        if byte[0] == b'\n' {
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            return String::from_utf8(line)
                .map_err(|_| HttpError::Malformed("non-UTF-8 request head".into()));
        }
        line.push(byte[0]);
        if line.len() > MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
    }
}

/// The reason phrase for the status codes the service emits.
pub fn status_text(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        411 => "Length Required",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// A complete (non-streaming) HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (see [`status_text`]).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// Extra response headers (e.g. `Retry-After` on a `429`), written
    /// after the standard ones. Names must be valid header tokens;
    /// values must be single-line.
    pub headers: Vec<(&'static str, String)>,
    /// Response body.
    pub body: String,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// A JSON error response: `{"error": "<message>"}` — the one body
    /// every rejection of the service carries.
    pub(crate) fn error(status: u16, message: &str) -> Self {
        Response::json(
            status,
            format!("{{\"error\": \"{}\"}}\n", crate::json::escape(message)),
        )
    }

    /// [`Response::error`] naming the line of the request body at fault:
    /// `{"error": "<message>", "line": N}`.
    pub(crate) fn error_at_line(status: u16, message: &str, line: usize) -> Self {
        Response::json(
            status,
            format!(
                "{{\"error\": \"{}\", \"line\": {line}}}\n",
                crate::json::escape(message)
            ),
        )
    }

    /// A response with an explicit (static) content type — e.g. the
    /// Prometheus text exposition served by `GET /metrics`.
    pub fn text(status: u16, content_type: &'static str, body: impl Into<String>) -> Self {
        Response {
            status,
            content_type,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Returns the response with `name: value` appended to its headers —
    /// how a `429` carries its `Retry-After`.
    #[must_use]
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Self {
        self.headers.push((name, value.into()));
        self
    }

    /// Writes the response with a `Content-Length` and `Connection:
    /// close`.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_to(&self, stream: &mut impl Write) -> io::Result<()> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
            self.status,
            status_text(self.status),
            self.content_type,
            self.body.len()
        )?;
        for (name, value) in &self.headers {
            write!(stream, "{name}: {value}\r\n")?;
        }
        write!(stream, "\r\n")?;
        stream.write_all(self.body.as_bytes())?;
        stream.flush()
    }

    /// Writes the response as [`write_to`](Self::write_to) does, past a
    /// client that went away, and returns its status for the request log.
    pub(crate) fn send(&self, stream: &mut impl Write) -> u16 {
        let _ = self.write_to(stream);
        self.status
    }

    /// Writes only the head of a **close-delimited streaming** response:
    /// no `Content-Length`, `Connection: close`. The caller then writes
    /// body bytes as they become available (flushing after each line to
    /// defeat buffering) and ends the body by closing the socket.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn write_streaming_head(
        stream: &mut impl Write,
        status: u16,
        content_type: &str,
    ) -> io::Result<()> {
        write!(
            stream,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nConnection: close\r\nX-Accel-Buffering: no\r\n\r\n",
            status,
            status_text(status),
            content_type
        )?;
        stream.flush()
    }
}

// ---------------------------------------------------------------------------
// Client side
// ---------------------------------------------------------------------------

/// A complete response received by the client helpers.
#[derive(Debug, Clone)]
pub struct FetchResponse {
    /// Status code from the response line.
    pub status: u16,
    /// Response body (to `Content-Length`, else to connection close).
    pub body: Vec<u8>,
}

impl FetchResponse {
    /// The body as UTF-8 text (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Splits an `http://host:port/path?query` URL into `(authority, path)`.
/// The path defaults to `/`; HTTPS is out of scope for the in-cluster
/// coordinator/worker link this client exists for.
fn split_url(url: &str) -> io::Result<(&str, String)> {
    let rest = url.strip_prefix("http://").ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("unsupported URL {url:?} (only http:// is spoken here)"),
        )
    })?;
    let (authority, path) = match rest.find('/') {
        Some(i) => (&rest[..i], rest[i..].to_string()),
        None => (rest, "/".to_string()),
    };
    if authority.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("URL {url:?} has no host"),
        ));
    }
    Ok((authority, path))
}

/// How long the client waits for the TCP connect to a worker.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
/// How long a blocked request write (peer accepted but reads nothing)
/// may stall before the send fails — spec bodies are a few KiB, so any
/// healthy peer drains them immediately.
const WRITE_TIMEOUT: Duration = Duration::from_secs(60);
/// Poll interval while reading a response: each tick re-checks `abort`.
const CLIENT_POLL: Duration = Duration::from_millis(500);

/// `POST`s `body` to an `http://host:port/path` URL and reads the whole
/// response (status + body). Blocking, bounded, dependency-free — the
/// client half of the coordinator/worker link (`POST /shard`).
///
/// The authority may name a host with a port (`127.0.0.1:7901`); the
/// address is resolved once. While waiting for response bytes the
/// `abort` callback (if any) is polled about twice a second; returning
/// `true` abandons the request with [`io::ErrorKind::Interrupted`] —
/// this is how a shutting-down coordinator cancels outstanding remote
/// shards. `idle_timeout` bounds how long the response may make *no*
/// progress before the request is abandoned as timed out; pass `None`
/// when the peer legitimately computes before writing a single byte —
/// a `/shard` response arrives only once the whole slice is done, so
/// the coordinator bounds those waits by cancellation, not by a clock
/// (a killed worker closes the socket, which is an error, not idleness).
///
/// # Errors
///
/// Propagates URL, connect, write, and read failures; a malformed
/// response head is [`io::ErrorKind::InvalidData`].
pub fn http_post(
    url: &str,
    body: &[u8],
    content_type: &str,
    abort: Option<&dyn Fn() -> bool>,
    idle_timeout: Option<Duration>,
) -> io::Result<FetchResponse> {
    let (authority, path) = split_url(url)?;
    let addr = authority.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::NotFound, format!("{authority}: no address"))
    })?;
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: {authority}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body)?;
    stream.flush()?;

    let raw = read_close_delimited(&mut stream, authority, abort, idle_timeout)?;
    parse_response(&raw)
}

/// `GET`s an `http://host:port/path` URL and reads the whole response —
/// the client half of the coordinator's half-open breaker probe
/// (`GET /healthz`). Same connect/abort/idle semantics as [`http_post`].
///
/// # Errors
///
/// Propagates URL, connect, write, and read failures; a malformed
/// response head is [`io::ErrorKind::InvalidData`].
pub fn http_get(
    url: &str,
    abort: Option<&dyn Fn() -> bool>,
    idle_timeout: Option<Duration>,
) -> io::Result<FetchResponse> {
    let (authority, path) = split_url(url)?;
    let addr = authority.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(io::ErrorKind::NotFound, format!("{authority}: no address"))
    })?;
    let mut stream = TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;

    let raw = read_close_delimited(&mut stream, authority, abort, idle_timeout)?;
    parse_response(&raw)
}

/// Reads a close-delimited response body off `stream`, polling `abort`
/// between read timeouts and bounding no-progress stretches by
/// `idle_timeout`.
///
/// Responses are close-delimited or Content-Length-delimited; either
/// way the server closes after one exchange (`Connection: close`), so
/// reading to EOF captures the full response. Short read timeouts let
/// the abort callback interleave with a slow worker.
fn read_close_delimited(
    stream: &mut TcpStream,
    authority: &str,
    abort: Option<&dyn Fn() -> bool>,
    idle_timeout: Option<Duration>,
) -> io::Result<Vec<u8>> {
    stream.set_read_timeout(Some(CLIENT_POLL))?;
    let mut raw = Vec::new();
    let mut idle = Duration::ZERO;
    let mut buf = [0u8; 16 * 1024];
    loop {
        match io::Read::read(stream, &mut buf) {
            Ok(0) => break,
            Ok(n) => {
                idle = Duration::ZERO;
                raw.extend_from_slice(&buf[..n]);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if abort.is_some_and(|f| f()) {
                    return Err(io::Error::new(
                        io::ErrorKind::Interrupted,
                        "request cancelled",
                    ));
                }
                idle += CLIENT_POLL;
                if let Some(limit) = idle_timeout {
                    if idle >= limit {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            format!("no response bytes from {authority} for {limit:?}"),
                        ));
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(raw)
}

/// Parses a raw HTTP/1.x response into status + body, honoring
/// `Content-Length` when present (trailing bytes past it are ignored).
fn parse_response(raw: &[u8]) -> io::Result<FetchResponse> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response head never ended"))?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 response head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("unparseable status line"))?;
    let mut content_length: Option<usize> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            }
        }
    }
    let body_start = head_end + 4;
    let body = match content_length {
        Some(n) if raw.len() >= body_start + n => raw[body_start..body_start + n].to_vec(),
        Some(n) => {
            return Err(bad(&format!(
                "response truncated: {} of {n} body byte(s)",
                raw.len().saturating_sub(body_start)
            )))
        }
        None => raw[body_start..].to_vec(),
    };
    Ok(FetchResponse { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Request, HttpError> {
        read_request(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_request_with_body() {
        let r = parse("POST /run HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(r.method, "POST");
        assert_eq!(r.path, "/run");
        assert_eq!(r.header("host"), Some("x"));
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn parses_get_without_body_and_splits_query() {
        let r = parse("GET /healthz?verbose=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.route(), "/healthz");
        assert!(r.body.is_empty());
    }

    #[test]
    fn lf_only_lines_are_tolerated() {
        let r = parse("GET / HTTP/1.0\nA: b\n\n").unwrap();
        assert_eq!(r.header("a"), Some("b"));
    }

    #[test]
    fn rejects_malformed_heads() {
        assert!(matches!(
            parse("nonsense\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / SPDY/3\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_and_chunked_bodies() {
        let huge = format!(
            "POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(matches!(parse(&huge), Err(HttpError::BodyTooLarge)));
        assert_eq!(HttpError::BodyTooLarge.status(), 413);
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(HttpError::LengthRequired)
        ));
    }

    #[test]
    fn truncated_body_is_an_io_error() {
        assert!(matches!(
            parse("POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::Io(_))
        ));
    }

    #[test]
    fn query_params_are_found_and_route_is_clean() {
        let r = parse("POST /run?format=csv&x=1 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.route(), "/run");
        assert_eq!(r.query_param("format"), Some("csv"));
        assert_eq!(r.query_param("x"), Some("1"));
        assert_eq!(r.query_param("nope"), None);
        let r = parse("GET /healthz HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(r.query_param("format"), None);
    }

    #[test]
    fn client_posts_and_reads_content_length_and_close_delimited_responses() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            // One Content-Length exchange, then one close-delimited one.
            for response in [
                "HTTP/1.1 200 OK\r\nContent-Length: 5\r\nConnection: close\r\n\r\nhello"
                    .to_string(),
                "HTTP/1.1 418 Teapot\r\nConnection: close\r\n\r\nshort and stout".to_string(),
            ] {
                let (mut s, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(s.try_clone().unwrap());
                let req = read_request(&mut reader).unwrap();
                assert_eq!(req.method, "POST");
                assert_eq!(req.route(), "/shard");
                assert_eq!(req.query_param("shards"), Some("3"));
                s.write_all(response.as_bytes()).unwrap();
            }
        });
        let url = format!("http://{addr}/shard?shards=3&index=0");
        let a = http_post(
            &url,
            b"spec",
            "text/plain",
            None,
            Some(Duration::from_secs(10)),
        )
        .unwrap();
        assert_eq!((a.status, a.text().as_str()), (200, "hello"));
        let b = http_post(
            &url,
            b"spec",
            "text/plain",
            None,
            Some(Duration::from_secs(10)),
        )
        .unwrap();
        assert_eq!((b.status, b.text().as_str()), (418, "short and stout"));
        server.join().unwrap();
    }

    #[test]
    fn client_rejects_bad_urls_and_dead_peers() {
        assert!(http_post("ftp://x/", b"", "text/plain", None, None).is_err());
        assert!(http_post("http:///path", b"", "text/plain", None, None).is_err());
        // A port nothing listens on: connect must fail, not hang.
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        }; // listener dropped — port is free again
        assert!(http_post(&format!("http://{dead}/"), b"", "text/plain", None, None).is_err());
    }

    #[test]
    fn response_parser_handles_truncation() {
        assert!(parse_response(b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort").is_err());
        assert!(parse_response(b"no head end").is_err());
        let ok = parse_response(b"HTTP/1.1 204 No Content\r\n\r\n").unwrap();
        assert_eq!((ok.status, ok.body.len()), (204, 0));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::json(200, "{}").write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let mut head = Vec::new();
        Response::write_streaming_head(&mut head, 200, "application/x-ndjson").unwrap();
        let head = String::from_utf8(head).unwrap();
        assert!(head.contains("Connection: close"));
        assert!(!head.contains("Content-Length"));
    }

    #[test]
    fn extra_headers_render_between_standard_ones_and_the_body() {
        let mut out = Vec::new();
        Response::json(429, "{\"error\":\"shed\"}")
            .with_header("Retry-After", "5")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("\r\nRetry-After: 5\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"error\":\"shed\"}"));
        // The client parser sees the extra header like any other.
        let parsed = parse_response(text.as_bytes()).unwrap();
        assert_eq!(parsed.status, 429);
    }

    #[test]
    fn half_sent_head_times_out_as_408() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Client sends half a header line and then goes quiet.
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /run HTTP/1.1\r\nX-Half: ").unwrap();
            s.flush().unwrap();
            std::thread::sleep(Duration::from_millis(300));
        });
        let (s, _) = listener.accept().unwrap();
        s.set_read_timeout(Some(Duration::from_millis(50))).unwrap();
        let err = read_request(&mut BufReader::new(s)).unwrap_err();
        assert!(matches!(err, HttpError::Timeout));
        assert_eq!(err.status(), 408);
        client.join().unwrap();
    }

    #[test]
    fn client_gets_and_reads_responses() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(s.try_clone().unwrap());
            let req = read_request(&mut reader).unwrap();
            assert_eq!(req.method, "GET");
            assert_eq!(req.route(), "/healthz");
            assert!(req.body.is_empty());
            s.write_all(b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n{\"ok\":true}")
                .unwrap();
        });
        let got = http_get(
            &format!("http://{addr}/healthz"),
            None,
            Some(Duration::from_secs(10)),
        )
        .unwrap();
        assert_eq!((got.status, got.text().as_str()), (200, "{\"ok\":true}"));
        server.join().unwrap();
    }
}
