//! The accept loop, connection handling, and the simulation worker pool.
//!
//! One thread per connection (requests are single-shot and mostly bounded
//! by simulation time), a fixed pool of simulation workers fed from a
//! queue, and two explicit admission gates:
//!
//! * a **connection cap** — connections past `max_conns` are answered
//!   `429 Too Many Requests` before the request is even read;
//! * an **in-flight cap** — distinct cold scenarios past `max_inflight`
//!   are answered `503 Service Unavailable` with a `Retry-After` hint.
//!
//! Requests for a scenario that is already being simulated never hit the
//! second gate: they *coalesce* onto the in-flight run and all receive
//! the same bytes. The overload behaviour is therefore load-shedding of
//! genuinely new work, never queueing it invisibly.

use std::collections::VecDeque;
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Duration;

use vr_check::CheckScenario;
use vr_runner::{panic_message, ResultCache, Scenario};
use vr_simcore::jsonio::Json;
use vrecon::encode_report;

use crate::clock::Stopwatch;
use crate::hook::{NullHook, Outcome, RequestHook, RequestRecord};
use crate::http::{read_request, write_response, RecvError, Request, Response};
use crate::state::{Admission, Counters, HotTier, Inflight};

/// Server configuration, CLI-shaped.
#[derive(Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7071` (`:0` picks a free port).
    pub addr: String,
    /// Simulation worker threads (`0` = available parallelism).
    pub jobs: usize,
    /// On-disk result cache directory; `None` disables the disk tier.
    pub cache_dir: Option<PathBuf>,
    /// Maximum distinct scenarios simulating at once; cold requests past
    /// this are refused with 503.
    pub max_inflight: usize,
    /// In-memory hot-tier capacity, in response bodies.
    pub hot_cap: usize,
    /// Socket read timeout; a request not fully received within it is
    /// answered 408.
    pub read_timeout: Duration,
    /// Maximum concurrent connections; connections past this are
    /// answered 429.
    pub max_conns: usize,
    /// Per-request observability sink.
    pub hook: Arc<dyn RequestHook>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:7071".to_owned(),
            jobs: 0,
            cache_dir: Some(PathBuf::from(ResultCache::DEFAULT_DIR)),
            max_inflight: 8,
            hot_cap: 128,
            read_timeout: Duration::from_secs(5),
            max_conns: 64,
            hook: Arc::new(NullHook),
        }
    }
}

/// A queued cold-miss simulation.
struct SimJob {
    hash: String,
    scenario: Scenario,
}

/// Shared server state (see [`crate::state`] for the pieces).
pub struct ServeState {
    /// Request counters.
    pub counters: Counters,
    hot: HotTier,
    inflight: Inflight,
    cache: ResultCache,
    queue: Mutex<VecDeque<SimJob>>,
    queue_cv: Condvar,
    shutdown: AtomicBool,
    active_conns: AtomicU64,
    jobs: usize,
    max_conns: usize,
    read_timeout: Duration,
    hook: Arc<dyn RequestHook>,
}

impl ServeState {
    /// Renders the `/stats` document. This is the server's public
    /// self-description: `vrecon loadgen` reads it to self-configure and
    /// to compute per-phase counter deltas.
    pub fn stats_json(&self) -> Json {
        let cache = self.cache.stats();
        Json::obj([
            (
                "requests",
                Json::U64(Counters::get(&self.counters.requests)),
            ),
            (
                "hot_hits",
                Json::U64(Counters::get(&self.counters.hot_hits)),
            ),
            (
                "disk_hits",
                Json::U64(Counters::get(&self.counters.disk_hits)),
            ),
            (
                "sims_executed",
                Json::U64(Counters::get(&self.counters.sims_executed)),
            ),
            (
                "coalesced",
                Json::U64(Counters::get(&self.counters.coalesced)),
            ),
            (
                "overloads",
                Json::U64(Counters::get(&self.counters.overloads)),
            ),
            (
                "rejected_conns",
                Json::U64(Counters::get(&self.counters.rejected_conns)),
            ),
            (
                "bad_requests",
                Json::U64(Counters::get(&self.counters.bad_requests)),
            ),
            (
                "timeouts",
                Json::U64(Counters::get(&self.counters.timeouts)),
            ),
            ("in_flight", Json::U64(self.inflight.len() as u64)),
            ("hot_resident", Json::U64(self.hot.len() as u64)),
            (
                "cache",
                Json::obj([
                    ("hits", Json::U64(cache.hits)),
                    ("misses", Json::U64(cache.misses)),
                    ("corrupt_entries", Json::U64(cache.corrupt_entries)),
                ]),
            ),
            (
                "config",
                Json::obj([
                    ("max_inflight", Json::U64(self.inflight.capacity() as u64)),
                    ("jobs", Json::U64(self.jobs as u64)),
                ]),
            ),
        ])
    }
}

/// A running server: its bound address plus the handles needed to stop
/// it cleanly.
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<ServeState>,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server actually bound (resolves `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared state, for in-process inspection (tests, the CLI's exit
    /// summary).
    pub fn state(&self) -> &Arc<ServeState> {
        &self.state
    }

    /// Stops accepting, drains the worker queue, and joins every thread.
    /// In-flight connection threads finish on their own (each holds its
    /// own `Arc` of the state and has a read timeout).
    pub fn shutdown(mut self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        // Take (and immediately drop) the queue lock before notifying:
        // a worker that checked `shutdown` as false and is between that
        // check and `queue_cv.wait(...)` would otherwise miss this
        // wakeup and park forever. The scoped guard forces it past the
        // race window first.
        {
            let _queue = self
                .state
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
        }
        self.state.queue_cv.notify_all();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Binds the listener and spawns the accept loop plus the simulation
/// workers.
///
/// # Errors
///
/// Any I/O error binding the address.
pub fn start(config: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let jobs = vr_runner::effective_workers(config.jobs, usize::MAX);
    let cache = match &config.cache_dir {
        Some(dir) => ResultCache::at(dir.clone()),
        None => ResultCache::disabled(),
    };
    let state = Arc::new(ServeState {
        counters: Counters::default(),
        hot: HotTier::new(config.hot_cap),
        inflight: Inflight::new(config.max_inflight),
        cache,
        queue: Mutex::new(VecDeque::new()),
        queue_cv: Condvar::new(),
        shutdown: AtomicBool::new(false),
        active_conns: AtomicU64::new(0),
        jobs,
        max_conns: config.max_conns.max(1),
        read_timeout: config.read_timeout,
        hook: Arc::clone(&config.hook),
    });

    let workers = (0..jobs)
        .map(|_| {
            let state = Arc::clone(&state);
            std::thread::spawn(move || worker_loop(&state))
        })
        .collect();

    let accept = {
        let state = Arc::clone(&state);
        std::thread::spawn(move || accept_loop(&listener, &state))
    };

    Ok(ServerHandle {
        addr,
        state,
        accept: Some(accept),
        workers,
    })
}

fn accept_loop(listener: &TcpListener, state: &Arc<ServeState>) {
    for stream in listener.incoming() {
        if state.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let state = Arc::clone(state);
        // Connection threads are detached: each owns an Arc of the state
        // and is bounded by the read timeout plus one simulation.
        std::thread::spawn(move || handle_connection(&state, stream));
    }
}

fn handle_connection(state: &Arc<ServeState>, mut stream: TcpStream) {
    let watch = Stopwatch::start();
    // Connection cap, checked before reading anything.
    let conns = state.active_conns.fetch_add(1, Ordering::SeqCst) + 1;
    if conns > state.max_conns as u64 {
        Counters::bump(&state.counters.rejected_conns);
        let response = Response::text(429, "Too Many Requests", "server connection cap reached\n")
            .with_header("Retry-After", "1");
        let _ = write_response(&mut stream, &response);
        finish_request(state, &watch, None, Outcome::None, &response);
        state.active_conns.fetch_sub(1, Ordering::SeqCst);
        close_unread(&mut stream);
        return;
    }

    let _ = stream.set_read_timeout(Some(state.read_timeout));
    match read_request(&mut stream) {
        Ok(request) => {
            Counters::bump(&state.counters.requests);
            let (response, outcome) = route(state, &request);
            if response.status >= 400 && response.status < 500 {
                Counters::bump(&state.counters.bad_requests);
            }
            let _ = write_response(&mut stream, &response);
            finish_request(state, &watch, Some(&request), outcome, &response);
        }
        Err(error) => {
            match &error {
                RecvError::Timeout => Counters::bump(&state.counters.timeouts),
                RecvError::Closed => {}
                _ => Counters::bump(&state.counters.bad_requests),
            }
            if let Some((status, reason)) = error.status() {
                let response = Response::text(status, reason, format!("{}\n", error.message()));
                let _ = write_response(&mut stream, &response);
                finish_request(state, &watch, None, Outcome::None, &response);
                close_unread(&mut stream);
            }
        }
    }
    state.active_conns.fetch_sub(1, Ordering::SeqCst);
}

/// Most request bytes [`close_unread`] discards before giving up.
const DRAIN_CAP: usize = 64 * 1024;

/// Longest [`close_unread`] waits for the client to hang up.
const DRAIN_TIMEOUT: Duration = Duration::from_millis(250);

/// Closes a connection that was answered before its request was (fully)
/// read. Closing a socket with unread input makes Linux reset the
/// connection, and the reset can destroy the response before the client
/// reads it. So the write side is half-closed first (the client sees
/// EOF after the response), then the unread input is discarded until the
/// client hangs up, up to [`DRAIN_CAP`] bytes or [`DRAIN_TIMEOUT`].
fn close_unread(stream: &mut TcpStream) {
    let _ = stream.shutdown(Shutdown::Write);
    let _ = stream.set_read_timeout(Some(DRAIN_TIMEOUT));
    let watch = Stopwatch::start();
    let mut buf = [0u8; 4096];
    let mut drained = 0;
    while drained < DRAIN_CAP && !watch.expired(DRAIN_TIMEOUT) {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

fn finish_request(
    state: &ServeState,
    watch: &Stopwatch,
    request: Option<&Request>,
    outcome: Outcome,
    response: &Response,
) {
    let hash = response
        .headers
        .iter()
        .find(|(name, _)| name == "X-Vrecon-Hash")
        .map(|(_, value)| value.clone());
    state.hook.on_request(&RequestRecord {
        method: request.map_or_else(String::new, |r| r.method.clone()),
        path: request.map_or_else(String::new, |r| r.path.clone()),
        status: response.status,
        outcome,
        hash,
        latency_ms: watch.elapsed_ms(),
        body_bytes: response.body.len(),
    });
}

fn route(state: &Arc<ServeState>, request: &Request) -> (Response, Outcome) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/run") => handle_run(state, &request.body),
        ("GET", "/stats") => (
            Response::json(200, "OK", format!("{}\n", state.stats_json().render())),
            Outcome::None,
        ),
        ("GET", "/healthz") => (Response::text(200, "OK", "ok\n"), Outcome::None),
        (_, "/run") | (_, "/stats") | (_, "/healthz") => (
            Response::text(405, "Method Not Allowed", "method not allowed\n"),
            Outcome::None,
        ),
        _ => (
            Response::text(404, "Not Found", "unknown path\n"),
            Outcome::None,
        ),
    }
}

/// The `/run` pipeline: parse → hash → hot tier → disk tier → coalesce /
/// admit → simulate. The scenario hash travels in the `X-Vrecon-Hash`
/// response header (which is also where the request hook reads it).
fn handle_run(state: &Arc<ServeState>, body: &str) -> (Response, Outcome) {
    let spec = match CheckScenario::parse(body) {
        Ok(spec) => spec,
        Err(why) => {
            return (
                Response::text(400, "Bad Request", format!("bad scenario spec: {why}\n")),
                Outcome::None,
            )
        }
    };
    let (config, trace) = match spec.to_sim() {
        Ok(pair) => pair,
        Err(why) => {
            return (
                Response::text(400, "Bad Request", format!("unrunnable scenario: {why}\n")),
                Outcome::None,
            )
        }
    };
    let scenario = Scenario::new(config, Arc::new(trace));
    let hash = scenario.content_hash();

    if let Some(cached) = state.hot.get(&hash) {
        Counters::bump(&state.counters.hot_hits);
        return (ok_report(&hash, Outcome::Hot, &cached), Outcome::Hot);
    }
    if let Some(mut text) = state.cache.lookup_raw(&hash) {
        Counters::bump(&state.counters.disk_hits);
        text.push('\n');
        let body: Arc<str> = Arc::from(text);
        state.hot.put(&hash, Arc::clone(&body));
        return (ok_report(&hash, Outcome::Disk, &body), Outcome::Disk);
    }

    let (slot, outcome) = match state.inflight.try_admit(&hash) {
        Admission::Follower(slot) => {
            Counters::bump(&state.counters.coalesced);
            (slot, Outcome::Coalesced)
        }
        Admission::Leader(slot) => {
            let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
            queue.push_back(SimJob {
                hash: hash.clone(),
                scenario,
            });
            drop(queue);
            state.queue_cv.notify_one();
            (slot, Outcome::Miss)
        }
        Admission::Overloaded => {
            Counters::bump(&state.counters.overloads);
            let response = Response::text(
                503,
                "Service Unavailable",
                format!(
                    "simulation admission full ({} in flight); retry shortly\n",
                    state.inflight.capacity()
                ),
            )
            .with_header("Retry-After", "1")
            .with_header("X-Vrecon-Hash", hash);
            return (response, Outcome::None);
        }
    };

    match slot.wait() {
        Ok(body) => (ok_report(&hash, outcome, &body), outcome),
        Err(why) => (
            Response::text(
                500,
                "Internal Server Error",
                format!("simulation failed: {why}\n"),
            )
            .with_header("X-Vrecon-Hash", hash),
            outcome,
        ),
    }
}

/// A 200 carrying a cached report; the body is shared, not copied.
fn ok_report(hash: &str, outcome: Outcome, body: &Arc<str>) -> Response {
    Response::json(200, "OK", Arc::clone(body))
        .with_header("X-Vrecon-Outcome", outcome.as_str())
        .with_header("X-Vrecon-Hash", hash)
}

/// One simulation worker: pop, run under `catch_unwind`, publish to the
/// disk and hot tiers, then release the in-flight entry and wake waiters.
fn worker_loop(state: &Arc<ServeState>) {
    loop {
        let job = {
            let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = state
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };

        let outcome = catch_unwind(AssertUnwindSafe(|| job.scenario.run()))
            .map_err(|payload| panic_message(payload.as_ref()));
        let result = match outcome {
            Ok(report) => {
                Counters::bump(&state.counters.sims_executed);
                // Encoded once: the same text is stored and sent.
                let mut text = encode_report(&report);
                // A failed store is a cold next restart, not a failed
                // request — the bytes still go out on the wire.
                let _ = state.cache.store_text(&job.hash, &text);
                text.push('\n');
                let body: Arc<str> = Arc::from(text);
                state.hot.put(&job.hash, Arc::clone(&body));
                Ok(body)
            }
            Err(message) => Err(message),
        };
        // Publish order matters: the hot tier already has the body, so a
        // request landing between `finish` and `fill` re-hits the cache
        // rather than waiting on a dead slot.
        if let Some(slot) = state.inflight.finish(&job.hash) {
            slot.fill(result);
        }
    }
}
