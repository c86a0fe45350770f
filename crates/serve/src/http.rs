//! A minimal HTTP/1.1 request reader and response writer.
//!
//! The offline build environment has no hyper/axum, and the service needs
//! only a sliver of HTTP: one request per connection (`Connection: close`
//! on every response), `POST /run` with a `Content-Length` body, and a
//! couple of diagnostic `GET`s. This module implements exactly that
//! sliver with explicit limits, so every malformed, oversized, or stalled
//! request maps to a well-formed 4xx instead of a hung thread or a panic:
//!
//! * request head (request line + headers) over [`MAX_HEAD_BYTES`] → 431;
//! * body over [`MAX_BODY_BYTES`] → 413;
//! * `POST` without `Content-Length` → 411;
//! * socket read timeout mid-request (slow-loris) → 408;
//! * anything unparsable → 400 with a one-line diagnostic.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// Maximum accepted size of the request line plus headers.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Maximum accepted `Content-Length`. Scenario specs are a few KB; a
/// megabyte is already absurd, and an explicit cap beats an OOM.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// A parsed request: method, path, and UTF-8 body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercase as received).
    pub method: String,
    /// Request target as received (query strings are not interpreted).
    pub path: String,
    /// Decoded request body (empty for bodyless requests).
    pub body: String,
}

/// Why a request could not be read. Each variant maps to one response
/// status; [`RecvError::status`] is that mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecvError {
    /// Unparsable request line, header, or non-UTF-8 body → 400.
    BadRequest(String),
    /// `POST` without a `Content-Length` header → 411.
    LengthRequired,
    /// Declared body larger than [`MAX_BODY_BYTES`] → 413.
    PayloadTooLarge,
    /// Request head larger than [`MAX_HEAD_BYTES`] → 431.
    HeadTooLarge,
    /// The socket read timed out before a full request arrived → 408.
    Timeout,
    /// The peer closed the connection before sending a full request; no
    /// response can be delivered.
    Closed,
}

impl RecvError {
    /// The response status for this error (`Closed` has none).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            RecvError::BadRequest(_) => Some((400, "Bad Request")),
            RecvError::LengthRequired => Some((411, "Length Required")),
            RecvError::PayloadTooLarge => Some((413, "Payload Too Large")),
            RecvError::HeadTooLarge => Some((431, "Request Header Fields Too Large")),
            RecvError::Timeout => Some((408, "Request Timeout")),
            RecvError::Closed => None,
        }
    }

    /// One-line diagnostic for the response body.
    pub fn message(&self) -> String {
        match self {
            RecvError::BadRequest(why) => why.clone(),
            RecvError::LengthRequired => "POST requires a Content-Length header".to_owned(),
            RecvError::PayloadTooLarge => {
                format!("request body exceeds {MAX_BODY_BYTES} bytes")
            }
            RecvError::HeadTooLarge => {
                format!("request head exceeds {MAX_HEAD_BYTES} bytes")
            }
            RecvError::Timeout => "timed out waiting for the request".to_owned(),
            RecvError::Closed => "connection closed".to_owned(),
        }
    }
}

fn io_recv_error(e: std::io::Error) -> RecvError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => RecvError::Timeout,
        _ => RecvError::Closed,
    }
}

/// Reads one request from the stream. The caller is expected to have set
/// a read timeout on the socket; a timeout mid-request surfaces as
/// [`RecvError::Timeout`].
pub fn read_request(stream: &mut TcpStream) -> Result<Request, RecvError> {
    // Accumulate until the blank line that ends the head.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            if pos > MAX_HEAD_BYTES {
                return Err(RecvError::HeadTooLarge);
            }
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(RecvError::HeadTooLarge);
        }
        let mut chunk = [0u8; 1024];
        let n = stream.read(&mut chunk).map_err(io_recv_error)?;
        if n == 0 {
            return if buf.is_empty() {
                Err(RecvError::Closed)
            } else {
                Err(RecvError::BadRequest("truncated request head".to_owned()))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = std::str::from_utf8(&buf[..head_end])
        .map_err(|_| RecvError::BadRequest("request head is not UTF-8".to_owned()))?
        .to_owned();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && !p.is_empty() => (m, p, v),
        _ => {
            return Err(RecvError::BadRequest(format!(
                "malformed request line {request_line:?}"
            )))
        }
    };
    if !version.starts_with("HTTP/1.") {
        return Err(RecvError::BadRequest(format!(
            "unsupported protocol {version:?}"
        )));
    }

    let mut content_length: Option<usize> = None;
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RecvError::BadRequest(format!("malformed header {line:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            let parsed = value
                .trim()
                .parse::<usize>()
                .map_err(|_| RecvError::BadRequest(format!("bad Content-Length {value:?}")))?;
            content_length = Some(parsed);
        }
    }

    let method = method.to_owned();
    let path = path.to_owned();
    let body_len = match content_length {
        Some(n) => n,
        None if method == "POST" => return Err(RecvError::LengthRequired),
        None => 0,
    };
    if body_len > MAX_BODY_BYTES {
        return Err(RecvError::PayloadTooLarge);
    }

    // The bytes after the head already read, then the remainder.
    let mut body = buf[head_end + 4..].to_vec();
    if body.len() > body_len {
        return Err(RecvError::BadRequest(
            "body longer than Content-Length".to_owned(),
        ));
    }
    while body.len() < body_len {
        let mut chunk = vec![0u8; (body_len - body.len()).min(16 * 1024)];
        let n = stream.read(&mut chunk).map_err(io_recv_error)?;
        if n == 0 {
            return Err(RecvError::BadRequest("truncated request body".to_owned()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(body)
        .map_err(|_| RecvError::BadRequest("request body is not UTF-8".to_owned()))?;

    Ok(Request { method, path, body })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A response about to be written. Every response closes the connection.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// Extra headers (name, value), e.g. `X-Vrecon-Outcome`.
    pub headers: Vec<(String, String)>,
    /// Response body. Shared, so a cached report goes out on the wire
    /// without being copied into each response.
    pub body: Arc<str>,
}

impl Response {
    /// A `text/plain` response with no extra headers.
    pub fn text(status: u16, reason: &'static str, body: impl Into<Arc<str>>) -> Response {
        Response {
            status,
            reason,
            content_type: "text/plain; charset=utf-8",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// An `application/json` response with no extra headers. Passing an
    /// `Arc<str>` shares the body; a `&str` or `String` is copied once.
    pub fn json(status: u16, reason: &'static str, body: impl Into<Arc<str>>) -> Response {
        Response {
            status,
            reason,
            content_type: "application/json",
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds a header.
    pub fn with_header(mut self, name: impl Into<String>, value: impl Into<String>) -> Response {
        self.headers.push((name.into(), value.into()));
        self
    }
}

/// Serialises and writes a response. Write errors are returned for the
/// caller to count; there is nobody left to report them to on the wire.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        response.reason,
        response.content_type,
        response.body.len()
    );
    for (name, value) in &response.headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(response.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Runs `read_request` against raw bytes sent over a real socket.
    fn read_raw(raw: &[u8]) -> Result<Request, RecvError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // The reader may bail (and close) before consuming everything,
            // so a write error here is expected for rejection cases.
            let _ = s.write_all(&raw);
            // Closing the stream ends the request for truncation cases.
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(2)))
            .unwrap();
        let out = read_request(&mut stream);
        writer.join().unwrap();
        out
    }

    #[test]
    fn parses_post_with_body() {
        let req = read_raw(b"POST /run HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/run");
        assert_eq!(req.body, "hello");
    }

    #[test]
    fn parses_get_without_length() {
        let req = read_raw(b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert_eq!(req.body, "");
    }

    #[test]
    fn post_without_length_is_411() {
        let err = read_raw(b"POST /run HTTP/1.1\r\n\r\n").unwrap_err();
        assert_eq!(err, RecvError::LengthRequired);
        assert_eq!(err.status(), Some((411, "Length Required")));
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let raw = format!(
            "POST /run HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            2 * 1024 * 1024
        );
        let err = read_raw(raw.as_bytes()).unwrap_err();
        assert_eq!(err, RecvError::PayloadTooLarge);
    }

    #[test]
    fn oversized_head_is_431() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend_from_slice(format!("X-Pad: {}\r\n", "a".repeat(MAX_HEAD_BYTES)).as_bytes());
        raw.extend_from_slice(b"\r\n");
        let err = read_raw(&raw).unwrap_err();
        assert_eq!(err, RecvError::HeadTooLarge);
    }

    #[test]
    fn garbage_request_line_is_400() {
        let err = read_raw(b"NONSENSE\r\n\r\n").unwrap_err();
        assert!(matches!(err, RecvError::BadRequest(_)), "{err:?}");
        let err = read_raw(b"GET / SMTP/3\r\n\r\n").unwrap_err();
        assert!(matches!(err, RecvError::BadRequest(_)), "{err:?}");
    }

    #[test]
    fn truncated_body_is_400_not_a_hang() {
        let err = read_raw(b"POST /run HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort").unwrap_err();
        assert!(matches!(err, RecvError::BadRequest(_)), "{err:?}");
    }

    #[test]
    fn slow_loris_times_out_as_408() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // One drip of a request head, then silence longer than the
            // server's read timeout.
            s.write_all(b"POST /run HTTP/1.1\r\n").unwrap();
            std::thread::sleep(std::time::Duration::from_millis(300));
            drop(s);
        });
        let (mut stream, _) = listener.accept().unwrap();
        stream
            .set_read_timeout(Some(std::time::Duration::from_millis(50)))
            .unwrap();
        let err = read_request(&mut stream).unwrap_err();
        assert_eq!(err, RecvError::Timeout);
        assert_eq!(err.status(), Some((408, "Request Timeout")));
        writer.join().unwrap();
    }

    #[test]
    fn response_wire_format_round_trips() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let mut text = String::new();
            s.read_to_string(&mut text).unwrap();
            text
        });
        let (mut stream, _) = listener.accept().unwrap();
        let resp = Response::json(200, "OK", "{\"x\":1}").with_header("X-Vrecon-Outcome", "hot");
        write_response(&mut stream, &resp).unwrap();
        drop(stream);
        let text = reader.join().unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"), "{text}");
        assert!(text.contains("Content-Length: 7\r\n"), "{text}");
        assert!(text.contains("X-Vrecon-Outcome: hot\r\n"), "{text}");
        assert!(text.contains("Connection: close\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"x\":1}"), "{text}");
    }
}
