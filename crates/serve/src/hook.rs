//! Per-request observability, on the pattern of the engine's `EventHook`
//! seam: the server calls a [`RequestHook`] exactly once per answered
//! request with a structured [`RequestRecord`]; sinks decide what to do
//! with it. The bundled sink, [`JsonlRequestLog`], appends one JSON object
//! per line — the same greppable shape `vrecon trace` emits for simulator
//! events.

use std::io::Write;
use std::path::Path;
use std::sync::{Mutex, PoisonError};

use vr_simcore::jsonio::Json;

/// How a `/run` request was satisfied (the `X-Vrecon-Outcome` header).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered from the in-memory hot tier.
    Hot,
    /// Answered from the on-disk result cache.
    Disk,
    /// Ran a fresh simulation.
    Miss,
    /// Joined a simulation another request had in flight.
    Coalesced,
    /// Refused or failed before any cache tier was consulted.
    None,
}

impl Outcome {
    /// Wire spelling, used in the response header and the request log.
    pub fn as_str(&self) -> &'static str {
        match self {
            Outcome::Hot => "hot",
            Outcome::Disk => "disk",
            Outcome::Miss => "miss",
            Outcome::Coalesced => "coalesced",
            Outcome::None => "none",
        }
    }
}

/// One answered request, as seen at response-write time.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// Request method.
    pub method: String,
    /// Request path.
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// How the response body was produced.
    pub outcome: Outcome,
    /// Scenario content hash, when the request got far enough to have one.
    pub hash: Option<String>,
    /// Wall-clock milliseconds from accept to response written.
    pub latency_ms: f64,
    /// Response body size in bytes.
    pub body_bytes: usize,
}

impl RequestRecord {
    /// The record as one JSON object (the JSONL line without newline).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("method", Json::str(self.method.clone())),
            ("path", Json::str(self.path.clone())),
            ("status", Json::U64(u64::from(self.status))),
            ("outcome", Json::str(self.outcome.as_str())),
            (
                "hash",
                match &self.hash {
                    Some(h) => Json::str(h.clone()),
                    None => Json::Null,
                },
            ),
            ("latency_ms", Json::f64(self.latency_ms)),
            ("body_bytes", Json::U64(self.body_bytes as u64)),
        ])
    }
}

/// A sink for answered requests. Implementations must be cheap and must
/// not panic: they run on the connection thread after the response is
/// already on the wire.
pub trait RequestHook: Send + Sync {
    /// Called once per answered request.
    fn on_request(&self, record: &RequestRecord);
}

/// A hook that discards every record.
#[derive(Debug, Default)]
pub struct NullHook;

impl RequestHook for NullHook {
    fn on_request(&self, _record: &RequestRecord) {}
}

/// Appends one JSON object per request to a file.
#[derive(Debug)]
pub struct JsonlRequestLog {
    file: Mutex<std::fs::File>,
}

impl JsonlRequestLog {
    /// Opens (creating or appending to) the log file.
    ///
    /// # Errors
    ///
    /// Any I/O error opening the file.
    pub fn create(path: &Path) -> std::io::Result<JsonlRequestLog> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        Ok(JsonlRequestLog {
            file: Mutex::new(file),
        })
    }
}

impl RequestHook for JsonlRequestLog {
    fn on_request(&self, record: &RequestRecord) {
        let line = format!("{}\n", record.to_json().render());
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        // A failed log write must not take down the connection thread;
        // the response is already delivered.
        // vr-analyze::allow(blocking-while-locked, reason = "the mutex exists to serialize exactly this append; contention is bounded by line length")
        let _ = file.write_all(line.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_renders_as_one_json_object() {
        let record = RequestRecord {
            method: "POST".to_owned(),
            path: "/run".to_owned(),
            status: 200,
            outcome: Outcome::Coalesced,
            hash: Some("abc123".to_owned()),
            latency_ms: 12.5,
            body_bytes: 420,
        };
        let text = record.to_json().render();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("method").unwrap().as_str().unwrap(), "POST");
        assert_eq!(parsed.get("status").unwrap().as_u64().unwrap(), 200);
        assert_eq!(
            parsed.get("outcome").unwrap().as_str().unwrap(),
            "coalesced"
        );
        assert_eq!(parsed.get("hash").unwrap().as_str().unwrap(), "abc123");
        assert_eq!(parsed.get("body_bytes").unwrap().as_u64().unwrap(), 420);
    }

    #[test]
    fn missing_hash_is_json_null() {
        let record = RequestRecord {
            method: "GET".to_owned(),
            path: "/stats".to_owned(),
            status: 200,
            outcome: Outcome::None,
            hash: None,
            latency_ms: 0.1,
            body_bytes: 2,
        };
        let text = record.to_json().render();
        assert!(text.contains("\"hash\":null"), "{text}");
    }

    #[test]
    fn jsonl_log_appends_lines() {
        // Compile-time path: the serve crate may not read the process
        // environment (vr-lint env-read), tests included.
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"));
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(format!("vr-serve-reqlog-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let log = JsonlRequestLog::create(&path).unwrap();
        for status in [200u16, 400] {
            log.on_request(&RequestRecord {
                method: "POST".to_owned(),
                path: "/run".to_owned(),
                status,
                outcome: Outcome::Miss,
                hash: None,
                latency_ms: 1.0,
                body_bytes: 0,
            });
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"status\":200"));
        assert!(lines[1].contains("\"status\":400"));
        let _ = std::fs::remove_file(&path);
    }
}
