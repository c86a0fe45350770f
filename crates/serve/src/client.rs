//! A tiny blocking HTTP/1.1 client, enough to talk to `vrecon serve`:
//! one request per connection, full-response reads, no keep-alive. Used
//! by `vrecon loadgen`, the serve integration tests, and anyone who
//! wants to query the service without reaching for curl.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A parsed response: status code, selected headers, body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// Status code from the status line.
    pub status: u16,
    /// All response headers, lowercased names, in wire order.
    pub headers: Vec<(String, String)>,
    /// Response body.
    pub body: String,
}

impl ClientResponse {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Sends one request and reads the whole response.
///
/// # Errors
///
/// Connection, write, read, or response-parse failures, as one-line
/// descriptions.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<ClientResponse, String> {
    let mut stream =
        TcpStream::connect_timeout(&addr, timeout).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| format!("set timeout: {e}"))?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: vrecon\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("write {path}: {e}"))?;
    read_response(&mut stream, path)
}

/// Most body bytes reserved up front from a `Content-Length` header; a
/// larger body still reads, growing past it.
const MAX_PREALLOC: usize = 16 * 1024 * 1024;

/// Reads and parses a whole response. The head is read in small chunks
/// up to the blank line; the body then reads straight into one buffer
/// sized from `Content-Length`, which becomes the body `String` after a
/// UTF-8 check, without being copied.
fn read_response(stream: &mut impl Read, path: &str) -> Result<ClientResponse, String> {
    let mut raw = Vec::with_capacity(4096);
    let head_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let mut chunk = [0u8; 4096];
        let n = stream
            .read(&mut chunk)
            .map_err(|e| format!("read {path}: {e}"))?;
        if n == 0 {
            return Err("response has no header/body separator".to_owned());
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    let head =
        std::str::from_utf8(&raw[..head_end]).map_err(|_| "response is not UTF-8".to_owned())?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line {status_line:?}"))?;
    let mut headers = Vec::new();
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.to_ascii_lowercase(), value.trim().to_owned()));
        }
    }
    // Content-Length is authoritative when present; `Connection: close`
    // servers may also just end the stream.
    let length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok());
    let early = &raw[head_end + 4..];
    let mut body = Vec::with_capacity(length.unwrap_or(0).min(MAX_PREALLOC).max(early.len()));
    body.extend_from_slice(early);
    stream
        .read_to_end(&mut body)
        .map_err(|e| format!("read {path}: {e}"))?;
    if let Some(n) = length {
        body.truncate(n);
    }
    let body = String::from_utf8(body).map_err(|_| "response is not UTF-8".to_owned())?;
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_response(mut raw: &[u8]) -> Result<ClientResponse, String> {
        read_response(&mut raw, "/")
    }

    #[test]
    fn parses_status_headers_and_body() {
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\nRetry-After: 1\r\nContent-Length: 5\r\n\r\nbusy\n";
        let resp = parse_response(raw).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.header("retry-after"), Some("1"));
        assert_eq!(resp.header("Retry-After"), Some("1"));
        assert_eq!(resp.body, "busy\n");
    }

    #[test]
    fn body_is_cut_at_content_length_or_runs_to_the_end() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nabcdef";
        assert_eq!(parse_response(raw).unwrap().body, "abc");
        let raw = b"HTTP/1.1 200 OK\r\n\r\nabcdef";
        assert_eq!(parse_response(raw).unwrap().body, "abcdef");
        // A body shorter than its declared length is what arrived.
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 99\r\n\r\nabc";
        assert_eq!(parse_response(raw).unwrap().body, "abc");
    }

    #[test]
    fn body_split_across_reads_is_reassembled() {
        // A reader handing out a few bytes at a time, so the separator
        // and the body straddle reads.
        struct Drip<'a>(&'a [u8]);
        impl Read for Drip<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.0.len().min(buf.len()).min(3);
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 11\r\n\r\nhello world";
        let resp = read_response(&mut Drip(raw), "/").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, "hello world");
    }

    #[test]
    fn non_utf8_responses_are_rejected() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n\xff\xfe";
        assert!(parse_response(raw).is_err());
        let raw = b"HTTP/1.1 200 \xffK\r\n\r\nok";
        assert!(parse_response(raw).is_err());
    }

    #[test]
    fn malformed_status_line_is_an_error() {
        assert!(parse_response(b"garbage\r\n\r\n").is_err());
        assert!(parse_response(b"no separator at all").is_err());
    }
}
