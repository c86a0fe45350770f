//! `whatif-miss` and `whatif-hot`: a closed loop, one connection at a
//! time, against an in-process `vr_serve` server with one simulation
//! worker and a hot tier larger than the spec pool.
//!
//! The same `/run` path is used two ways, and each way is a workload of
//! its own, so each latency class has its own bounded figure and a change
//! that helps one class at the other's cost shows on one of them.
//!
//! - A miss is an audited simulation, two report encodings and a disk
//!   store. Each `whatif-miss` pass starts a fresh server on a fresh
//!   cache directory and requests every spec once.
//! - A hot hit is wire parse, content hash and response write, with no
//!   simulation. A `whatif-hot` run starts one server and requests every
//!   spec once as an untimed warm-up (its misses); each pass then
//!   requests every spec [`REPEATS`] more times.

use std::collections::BTreeMap;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use vr_check::fuzz::{ScenarioJob, ScenarioNode};
use vr_check::CheckScenario;
use vr_faults::FaultPlan;
use vr_runner::{ResultCache, Scenario};
use vr_serve::http::{read_request, write_response, Response};
use vr_serve::{
    ClientResponse, Outcome as ServeOutcome, RequestHook, RequestRecord, ServeConfig, ServerHandle,
};
use vr_simcore::jsonio::Json;
use vr_simcore::rng::SimRng;
use vr_simcore::time::{SimSpan, SimTime};
use vr_workload::trace::{spec_trace, Trace, TraceLevel};
use vrecon::plugin::{kind_of, ParamBag};
use vrecon::{decode_report, encode_report};

use crate::bench::{self, Ctx, Outcome};
use crate::check::{check_report, DigestMode};
use crate::clock::Mark;
use crate::host::HostProbe;
use crate::layers::Counts;
use crate::spans::{self, Tracer};
use crate::stats;

/// Workload name of the cold-request loop.
pub const MISS: &str = "whatif-miss";
/// Workload name of the hot-hit loop.
pub const HOT: &str = "whatif-hot";
/// Digest namespace of the miss bodies, which both workloads check.
pub const DIGEST_SET: &str = "whatif";
/// Distinct specs in the pool.
pub const POOL: usize = 100;
/// Hot repeats of each spec per `whatif-hot` pass.
pub const REPEATS: usize = 10;
/// Jobs per spec: a slice of a SPEC level 3–5 trace.
pub const JOBS_PER_SPEC: usize = 200;
/// Policies cycled through the pool, by registry name.
const POLICIES: [&str; 4] = [
    "g-loadsharing",
    "v-reconfiguration",
    "malleable",
    "fractional",
];
/// Client-side limit on one request; a timeout is a failed operation.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// One pool entry: the wire text and what it should produce.
#[derive(Debug, Clone)]
pub struct PoolSpec {
    /// The spec in the wire format.
    pub text: String,
    /// Jobs it submits.
    pub jobs: usize,
}

/// Builds the spec pool from the workload seed. Each spec is 32 nodes of
/// 384 MB with 8 slots and a `jobs`-job slice of a SPEC level 3–5 trace
/// at each job's peak working set; policies cycle through [`POLICIES`]
/// (malleable specs give half their jobs a 1:2 width range) and a
/// quarter of the specs carry a fault plan.
pub fn pool(
    seed: u64,
    size: usize,
    jobs: usize,
    tracer: &mut Tracer,
) -> Result<Vec<PoolSpec>, String> {
    let root = SimRng::seed_from(seed);
    let levels = [
        TraceLevel::Normal,
        TraceLevel::ModeratelyIntensive,
        TraceLevel::HighlyIntensive,
    ];
    let traces: Vec<Trace> = levels
        .iter()
        .enumerate()
        .map(|(i, &level)| {
            tracer.span("workload.gen", i as u64, |_| {
                spec_trace(level, &mut root.fork(i as u64))
            })
        })
        .collect();
    let mut rng = root.fork(99);
    let mut out = Vec::with_capacity(size);
    for i in 0..size {
        let trace = &traces[i % traces.len()];
        let n = jobs.min(trace.jobs.len());
        let offset = rng.index(trace.jobs.len() - n + 1);
        let slice = &trace.jobs[offset..offset + n];
        let t0 = slice[0].submit.as_micros();
        let policy_name = POLICIES[i % POLICIES.len()];
        let policy = kind_of(policy_name).ok_or_else(|| format!("unknown policy {policy_name}"))?;
        let malleable = policy_name == "malleable";
        let spec = CheckScenario {
            nodes: vec![
                ScenarioNode {
                    user_mb: 384,
                    slots: 8
                };
                32
            ],
            policy,
            policy_params: ParamBag::new(),
            seed: i as u64,
            max_sim_time_s: 1_000_000,
            jobs: slice
                .iter()
                .enumerate()
                .map(|(j, job)| ScenarioJob {
                    submit_us: job.submit.as_micros() - t0,
                    cpu_work_us: job.cpu_work.as_micros(),
                    ws_mb: job
                        .memory
                        .max_working_set()
                        .as_u64()
                        .div_ceil(1 << 20)
                        .max(1),
                    malleable: (malleable && j % 2 == 0).then_some((1, 2)),
                })
                .collect(),
            fault_plan: (i % 16 % 5 == 0).then(|| fault_plan(i, &mut rng)),
        };
        let text = spec.render();
        if CheckScenario::parse(&text).as_ref() != Ok(&spec) {
            return Err(format!(
                "spec {i} does not round-trip through the wire format"
            ));
        }
        out.push(PoolSpec { text, jobs: n });
    }
    Ok(out)
}

/// A recoverable fault plan: one crash with restart, lossy load
/// exchange, failing migrations with retries, stalled releases.
fn fault_plan(i: usize, rng: &mut SimRng) -> FaultPlan {
    let at = 30 + rng.index(300) as u64;
    FaultPlan::none()
        .with_crash(
            i % 32,
            SimTime::from_secs(at),
            Some(SimSpan::from_secs(120)),
        )
        .with_migration_failures(0.05)
        .with_load_info_loss(0.05)
        .with_reservation_stall(SimSpan::from_secs(2))
}

/// The seeded order of a `whatif-miss` pass and of the `whatif-hot`
/// warm-up: every spec once.
pub fn miss_order(pool: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool).collect();
    SimRng::seed_from(seed).fork(7).shuffle(&mut order);
    order
}

/// The seeded order of a `whatif-hot` pass: every spec `repeats` times.
pub fn hit_order(pool: usize, repeats: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..pool)
        .flat_map(|i| std::iter::repeat_n(i, repeats))
        .collect();
    SimRng::seed_from(seed).fork(8).shuffle(&mut order);
    order
}

/// Per-request server records from the benchmark's [`RequestHook`].
#[derive(Debug, Default)]
struct Hook {
    records: Mutex<Vec<(Mark, RequestRecord)>>,
}

impl RequestHook for Hook {
    fn on_request(&self, record: &RequestRecord) {
        let at = Mark::now();
        self.records
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push((at, record.clone()));
    }
}

impl Hook {
    fn take(&self) -> Vec<(Mark, RequestRecord)> {
        std::mem::take(&mut *self.records.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

/// An in-process server on a cache directory of its own.
pub struct Server {
    handle: ServerHandle,
    hook: Arc<Hook>,
    dir: PathBuf,
}

impl Server {
    /// Starts a server with one simulation worker and a hot tier larger
    /// than the pool, on a fresh cache directory `dir`.
    pub fn start(dir: &Path) -> Result<Server, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let hook = Arc::new(Hook::default());
        let handle = vr_serve::start(ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            jobs: 1,
            cache_dir: Some(dir.to_path_buf()),
            max_inflight: 8,
            hot_cap: POOL + 16,
            read_timeout: Duration::from_secs(10),
            max_conns: 64,
            hook: Arc::clone(&hook) as Arc<dyn RequestHook>,
        })
        .map_err(|e| format!("server start: {e}"))?;
        Ok(Server {
            handle,
            hook,
            dir: dir.to_path_buf(),
        })
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Checks the `/stats` counters against the construction: `hot_hits`
    /// hot answers, `sims` simulations, and nothing refused, coalesced
    /// or served from disk. The read is one operation. Returns the
    /// counters when they match.
    pub fn check_stats(
        &self,
        hot_hits: usize,
        sims: usize,
        out: &mut Outcome,
    ) -> BTreeMap<&'static str, u64> {
        let mut matched = BTreeMap::new();
        out.op(read_stats(self.addr()).and_then(|stats| {
            let expected = [
                ("hot_hits", hot_hits as u64),
                ("sims_executed", sims as u64),
                ("disk_hits", 0),
                ("coalesced", 0),
                ("overloads", 0),
                ("rejected_conns", 0),
                ("bad_requests", 0),
                ("timeouts", 0),
            ];
            for (name, want) in expected {
                if stats.get(name) != Some(&want) {
                    return Err(format!(
                        "/stats {name} = {:?}, constructed {want}",
                        stats.get(name)
                    ));
                }
            }
            matched = stats;
            Ok(())
        }));
        matched
    }

    /// Stops the server and removes its cache directory.
    pub fn stop(self) {
        self.handle.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Reads the server's `/stats` counters.
fn read_stats(addr: SocketAddr) -> Result<BTreeMap<&'static str, u64>, String> {
    let response = vr_serve::request(addr, "GET", "/stats", "", REQUEST_TIMEOUT)?;
    let doc = Json::parse(&response.body).map_err(|e| format!("/stats: {e:?}"))?;
    let names = [
        "requests",
        "hot_hits",
        "disk_hits",
        "sims_executed",
        "coalesced",
        "overloads",
        "rejected_conns",
        "bad_requests",
        "timeouts",
    ];
    Ok(names
        .into_iter()
        .filter_map(|name| doc.get(name).and_then(Json::as_u64).map(|v| (name, v)))
        .collect())
}

/// What the requests of a loop must produce. A miss body is checked on
/// first sight (a correct, audited report matching the recorded digest
/// on the default seed) and kept; every later answer for that spec must
/// repeat it byte for byte.
pub struct Expect<'a> {
    /// The outcome every request must have.
    pub outcome: ServeOutcome,
    /// The first miss body per spec.
    pub bodies: Vec<Option<String>>,
    /// Counts of the first-seen miss reports, summed.
    pub counts: Counts,
    digests: &'a mut DigestMode,
}

impl<'a> Expect<'a> {
    /// Expects misses, with no body seen yet.
    pub fn misses(digests: &'a mut DigestMode) -> Expect<'a> {
        Expect {
            outcome: ServeOutcome::Miss,
            bodies: vec![None; POOL],
            counts: Counts::default(),
            digests,
        }
    }

    /// Checks one response: status 200, the expected outcome in the
    /// header and in the hook's record, and the body.
    fn check(
        &mut self,
        spec: usize,
        response: &Result<ClientResponse, String>,
        record: Option<&RequestRecord>,
    ) -> Result<(), String> {
        let response = response.as_ref().map_err(|e| format!("spec {spec}: {e}"))?;
        if response.status != 200 {
            return Err(format!("spec {spec}: status {}", response.status));
        }
        let want = self.outcome.as_str();
        let got = response.header("x-vrecon-outcome").unwrap_or("");
        if got != want {
            return Err(format!("spec {spec}: outcome {got:?}, expected {want:?}"));
        }
        if record.map(|r| r.outcome) != Some(self.outcome) {
            return Err(format!("spec {spec}: request hook saw a different outcome"));
        }
        match &self.bodies[spec] {
            Some(first) if *first == response.body => Ok(()),
            Some(_) => Err(format!(
                "spec {spec}: body differs from the first miss body"
            )),
            None if self.outcome != ServeOutcome::Miss => {
                Err(format!("spec {spec}: answered before its miss"))
            }
            None => {
                let report = decode_report(response.body.trim_end())
                    .map_err(|e| format!("spec {spec}: undecodable body: {e}"))?;
                check_report(&report).map_err(|e| format!("spec {spec}: {e}"))?;
                self.digests.check(
                    DIGEST_SET,
                    &format!("spec{spec:03}"),
                    response.body.as_bytes(),
                )?;
                self.counts.add(&Counts::of(&report));
                self.bodies[spec] = Some(response.body.clone());
                Ok(())
            }
        }
    }
}

/// One closed-loop pass's measurements, per request in request order.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the request loop, seconds.
    pub wall_s: f64,
    /// Client-observed latency, ms.
    pub client_ms: Vec<f64>,
    /// Server-measured latency (accept to response written), ms.
    pub server_ms: Vec<f64>,
    /// Spec bytes sent.
    pub spec_bytes: u64,
}

impl Pass {
    /// Client minus server latency of each request, ms.
    fn transport_ms(&self) -> Vec<f64> {
        self.client_ms
            .iter()
            .zip(&self.server_ms)
            .map(|(c, s)| c - s)
            .collect()
    }
}

/// Sends `order` to `server` one request at a time. Each request with
/// its response check is one operation. With a recording tracer, each
/// request is a `serve.request` span with the server's own interval as a
/// `serve.server` child.
pub fn run_pass(
    server: &Server,
    specs: &[PoolSpec],
    order: &[usize],
    expect: &mut Expect<'_>,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Pass {
    let addr = server.addr();
    let mut pass = Pass::default();
    let started = Mark::now();
    for (k, &spec) in order.iter().enumerate() {
        let body = &specs[spec].text;
        let (response, client_ms, record) = tracer.span("serve.request", k as u64, |t| {
            let t0 = Mark::now();
            let response = vr_serve::request(addr, "POST", "/run", body, REQUEST_TIMEOUT);
            let client_ms = t0.elapsed_s() * 1e3;
            // The hook ran before the server closed the connection, so its
            // record for this request is already in.
            let record = server.hook.take().pop();
            if let Some((at, r)) = &record {
                let end = t.us(*at);
                t.record("serve.server", k as u64, end - r.latency_ms * 1e3, end);
            }
            (response, client_ms, record.map(|(_, r)| r))
        });
        pass.client_ms.push(client_ms);
        pass.server_ms
            .push(record.as_ref().map_or(client_ms, |r| r.latency_ms));
        pass.spec_bytes += body.len() as u64;
        out.op(expect.check(spec, &response, record.as_ref()));
    }
    pass.wall_s = started.elapsed_s();
    pass
}

/// Time per `/run` step over one pass's requests, in ms, replayed
/// in-process through the same public calls the server makes.
#[derive(Debug, Default)]
struct Replay {
    parse: f64,
    to_sim: f64,
    hash: f64,
    lookup: f64,
    sim: f64,
    encode: f64,
    store: f64,
    http: f64,
    audit: f64,
}

impl Replay {
    /// Every replayed step.
    fn total(&self) -> f64 {
        self.parse
            + self.to_sim
            + self.hash
            + self.lookup
            + self.sim
            + self.encode
            + self.store
            + self.http
    }
}

/// Loopback connections for replaying the server's HTTP steps: requests
/// are written to `client` and read back from `server`; responses are
/// written to `responses`, whose far end a thread reads and discards.
struct Loopback {
    client: TcpStream,
    server: TcpStream,
    responses: TcpStream,
    drain: std::thread::JoinHandle<std::io::Result<u64>>,
}

impl Loopback {
    fn open() -> Result<Loopback, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("bind: {e}"))?;
        let pair = || -> Result<(TcpStream, TcpStream), String> {
            let near = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
            let (far, _) = listener.accept().map_err(|e| format!("accept: {e}"))?;
            Ok((near, far))
        };
        let (client, server) = pair()?;
        let (responses, mut sink) = pair()?;
        let drain = std::thread::spawn(move || std::io::copy(&mut sink, &mut std::io::sink()));
        Ok(Loopback {
            client,
            server,
            responses,
            drain,
        })
    }

    /// Sends `body` as the client does and reads it back with the
    /// server's request reader, inside a `serve.http` span. A request
    /// (one spec, ~12 KB) fits in the loopback socket's buffer, so the
    /// write does not wait for the read.
    fn request(&mut self, t: &mut Tracer, group: u64, body: &str) -> Result<String, String> {
        let head = format!(
            "POST /run HTTP/1.1\r\nHost: vrecon\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        self.client
            .write_all(head.as_bytes())
            .and_then(|()| self.client.write_all(body.as_bytes()))
            .map_err(|e| format!("request write: {e}"))?;
        let request = t.span("serve.http", group, |_| read_request(&mut self.server));
        request
            .map(|r| r.body)
            .map_err(|e| format!("request read: {}", e.message()))
    }

    /// Writes the response the server would build for `body`, inside a
    /// `serve.http` span.
    fn respond(
        &mut self,
        t: &mut Tracer,
        group: u64,
        outcome: ServeOutcome,
        hash: String,
        body: &str,
    ) -> Result<(), String> {
        t.span("serve.http", group, |_| {
            let response = Response::json(200, "OK", body)
                .with_header("X-Vrecon-Outcome", outcome.as_str())
                .with_header("X-Vrecon-Hash", hash);
            write_response(&mut self.responses, &response)
        })
        .map_err(|e| format!("response write: {e}"))
    }

    /// Closes the connections and waits for the drain to see the end.
    fn close(self) -> Result<(), String> {
        drop(self.responses);
        match self.drain.join() {
            Ok(Ok(_)) => Ok(()),
            Ok(Err(e)) => Err(format!("drain: {e}")),
            Err(_) => Err("drain thread panicked".to_owned()),
        }
    }
}

/// Replays the `/run` steps of every request in `order`, each request in
/// a `bench.replay` span: the request read, parse, to_sim, hash, and the
/// response (built from the served body) write, over loopback sockets. With
/// `misses`, also the disk lookup, the audited run, the response encode
/// and the store (with its own encode), and an unaudited run of the same
/// spec for the audit overhead; each replayed report must equal the
/// served body. Closing the loopback sockets is one operation.
fn replay(
    specs: &[PoolSpec],
    order: &[usize],
    bodies: &[Option<String>],
    misses: bool,
    dir: &Path,
    origin: Mark,
    out: &mut Outcome,
) -> Replay {
    let cache = ResultCache::at(dir);
    let mut tracer = Tracer::on_at(origin);
    let mut wire = match Loopback::open() {
        Ok(wire) => wire,
        Err(why) => {
            out.op(Err(why));
            return Replay::default();
        }
    };
    for (k, &i) in order.iter().enumerate() {
        let group = 1_000_000 + k as u64;
        let result = tracer.span("bench.replay", group, |t| {
            let text = wire.request(t, group, &specs[i].text)?;
            let parsed = t.span("wire.parse", group, |_| CheckScenario::parse(&text))?;
            let (config, trace) = t.span("wire.to_sim", group, |_| parsed.to_sim())?;
            let unaudited = config.clone().with_audit(false);
            let scenario = Scenario::new(config, Arc::new(trace));
            let hash = t.span("runner.hash", group, |_| scenario.content_hash());
            let body = bodies[i]
                .as_deref()
                .ok_or_else(|| format!("replay {i}: no served body"))?;
            if misses {
                if t.span("runner.lookup", group, |_| cache.lookup_raw(&hash))
                    .is_some()
                {
                    return Err(format!("replay {i}: unexpected cache hit"));
                }
                let report = t.span("sim.run", group, |_| scenario.run());
                let reference = Scenario::new(unaudited, Arc::clone(&scenario.trace));
                t.span("bench.unaudited", group, |_| reference.run());
                let text = t.span("report.encode", group, |_| encode_report(&report));
                bench::traced_store(t, &cache, &hash, &report, group)?;
                if body.trim_end() != text {
                    return Err(format!(
                        "replay {i}: in-process report differs from the served body"
                    ));
                }
            }
            let outcome = if misses {
                ServeOutcome::Miss
            } else {
                ServeOutcome::Hot
            };
            wire.respond(t, group, outcome, hash, body)
        });
        out.op(result);
    }
    out.op(wire.close());
    let _ = std::fs::remove_dir_all(dir);
    out.absorb_spans(tracer.spans());
    let own = spans::self_ms(tracer.spans());
    let total = spans::total_ms(tracer.spans());
    let ms = |name| bench::ms(&own, name);
    Replay {
        parse: ms("wire.parse"),
        to_sim: ms("wire.to_sim"),
        hash: ms("runner.hash"),
        lookup: ms("runner.lookup"),
        sim: ms("sim.run"),
        encode: ms("report.encode"),
        store: ms("runner.store"),
        http: ms("serve.http"),
        audit: bench::ms(&total, "sim.run") - bench::ms(&total, "bench.unaudited"),
    }
}

/// The set-up both workloads time: the spec pool, a cache directory, a
/// server start and a health check.
struct Setup {
    seed: u64,
    traced: bool,
    work: PathBuf,
    origin: Mark,
    gen_ms: Vec<f64>,
    times: Vec<f64>,
}

impl Setup {
    fn new(ctx: &Ctx, origin: Mark) -> Setup {
        Setup {
            seed: ctx.seed,
            traced: ctx.traced,
            work: ctx.work.clone(),
            origin,
            gen_ms: Vec::new(),
            times: Vec::new(),
        }
    }

    /// Times the set-up per [`bench::measure_setup`] and returns the pool.
    fn measure(&mut self) -> Result<Vec<PoolSpec>, String> {
        let Setup {
            seed,
            traced,
            work,
            origin,
            gen_ms,
            times,
        } = self;
        bench::measure_setup(times, |rep| {
            let mut tracer = if *traced {
                Tracer::on_at(*origin)
            } else {
                Tracer::off()
            };
            let specs = pool(*seed, POOL, JOBS_PER_SPEC, &mut tracer)?;
            gen_ms.push(bench::ms(&spans::total_ms(tracer.spans()), "workload.gen"));
            let server = Server::start(&work.join(format!("setup-{rep}")))?;
            let health = vr_serve::request(server.addr(), "GET", "/healthz", "", REQUEST_TIMEOUT);
            server.stop();
            match health {
                Ok(r) if r.status == 200 => Ok(specs),
                other => Err(format!("server not healthy: {other:?}")),
            }
        })
    }
}

/// Timed passes for `seconds`, alternating untraced and (in a traced
/// run) traced ones. `pass(i, tracer, out)` runs pass `i`. Returns the
/// untraced and the traced passes.
fn timed_passes(
    (seconds, traced): (f64, bool),
    origin: Mark,
    out: &mut Outcome,
    mut pass: impl FnMut(usize, &mut Tracer, &mut Outcome) -> Result<Pass, String>,
) -> Result<(Vec<Pass>, Vec<Pass>), String> {
    let mut untraced = Vec::new();
    let mut traced_passes = Vec::new();
    let mut probe = HostProbe::new();
    bench::run_budget(seconds, if traced { 2 } else { 1 }, &mut probe, |i| {
        let tracing = traced && i % 2 == 1;
        let mut tracer = if tracing {
            Tracer::on_at(origin)
        } else {
            Tracer::off()
        };
        let p = pass(i, &mut tracer, out)?;
        let wall = p.wall_s;
        if tracing {
            traced_passes.push(p);
            out.absorb_spans(tracer.spans());
        } else {
            out.e2e
                .entry("peak_rss_mb")
                .or_insert_with(bench::peak_rss_mb);
            untraced.push(p);
        }
        Ok(wall)
    })?;
    out.probe_ms = probe.median_ms();
    Ok((untraced, traced_passes))
}

/// The end-to-end metrics: `jobs` (the jobs answered per pass) over the
/// sum of each request's median client latency across the untraced
/// passes. Also keeps the two latency percentiles, with the samples
/// behind them, for the info line (untraced) or the layers (traced).
fn finish(
    out: &mut Outcome,
    setup: &Setup,
    untraced: &[Pass],
    jobs: usize,
    percentiles: [(&'static str, f64); 2],
) -> Result<(), String> {
    let latencies: Vec<Vec<f64>> = untraced.iter().map(|p| p.client_ms.clone()).collect();
    let requests = latencies.first().map_or(0, Vec::len);
    out.e2e.insert("setup_s", stats::median(&setup.times));
    out.e2e.insert(
        "jobs_per_s",
        jobs as f64 / (bench::sum_of_medians(&latencies) / 1e3),
    );
    let pooled = latencies.concat();
    for (name, p) in percentiles {
        let value = stats::percentile(&pooled, p)?;
        out.info.push((name, value, pooled.len()));
        out.layers.insert(name, value);
    }
    out.notes.push(format!(
        "{} untraced passes of {requests} requests ({jobs} jobs answered per pass); \
         jobs_per_s divides by the sum of each request's median latency; loop seconds {:.3?}",
        untraced.len(),
        untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>()
    ));
    Ok(())
}

/// The replays of a traced run, one right after each traced pass,
/// reduced to the median time per step and the median span coverage.
/// Coverage divides the replayed steps plus the traced pass's transport
/// time (client minus server) by the pass's loop time, so a server step
/// the replay does not model lowers the figure. Pairing each replay
/// with the pass just before it keeps host drift between distant passes
/// out of the ratio; `bench.trace_overhead_pct` gives what the pass's
/// spans cost.
fn attribute(traced: &[Pass], replays: &[Replay]) -> (Replay, f64) {
    let coverage: Vec<f64> = traced
        .iter()
        .zip(replays)
        .map(|(p, r)| {
            let transport: f64 = p.transport_ms().iter().sum();
            100.0 * (r.total() + transport) / (p.wall_s * 1e3)
        })
        .collect();
    let med = |f: fn(&Replay) -> f64| stats::median(&replays.iter().map(f).collect::<Vec<_>>());
    let replay = Replay {
        parse: med(|r| r.parse),
        to_sim: med(|r| r.to_sim),
        hash: med(|r| r.hash),
        lookup: med(|r| r.lookup),
        sim: med(|r| r.sim),
        encode: med(|r| r.encode),
        store: med(|r| r.store),
        http: med(|r| r.http),
        audit: med(|r| r.audit),
    };
    (replay, stats::median(&coverage))
}

/// The per-layer metrics both workloads report; `server_metric` names
/// the server-latency metric of the workload's request class.
fn shared_layers(
    out: &mut Outcome,
    server_metric: &'static str,
    setup: &Setup,
    specs: &[PoolSpec],
    untraced: &[Pass],
    traced: &[Pass],
    (r, coverage_pct): &(Replay, f64),
) {
    let untraced_s: Vec<f64> = untraced.iter().map(|p| p.wall_s).collect();
    let traced_s: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
    let server_ms: Vec<f64> = untraced.iter().flat_map(|p| p.server_ms.clone()).collect();
    let l = &mut out.layers;
    l.insert("workload.gen_ms", stats::median(&setup.gen_ms));
    l.insert(
        "workload.jobs",
        specs.iter().map(|s| s.jobs).sum::<usize>() as f64,
    );
    l.insert("wire.spec_bytes", untraced[0].spec_bytes as f64);
    l.insert("wire.parse_ms", r.parse);
    l.insert("wire.to_sim_ms", r.to_sim);
    l.insert("runner.hash_ms", r.hash);
    l.insert("serve.http_ms", r.http);
    l.insert(server_metric, stats::median(&server_ms));
    l.insert("bench.span_coverage_pct", *coverage_pct);
    l.insert(
        "bench.trace_overhead_pct",
        bench::overhead_pct(&traced_s, &untraced_s),
    );
}

/// The `/stats` refusal counters summed.
fn refused(stats: &BTreeMap<&'static str, u64>) -> f64 {
    ["overloads", "rejected_conns", "timeouts"]
        .iter()
        .map(|name| stats.get(name).copied().unwrap_or(0) as f64)
        .sum()
}

/// Runs `whatif-miss`.
pub fn run_miss(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let origin = Mark::now();
    let mut setup = Setup::new(ctx, origin);
    let specs = setup.measure()?;
    let order = miss_order(POOL, ctx.seed);
    let (work, budget) = (ctx.work.clone(), (ctx.seconds, ctx.traced));
    let mut expect = Expect::misses(&mut ctx.digests);
    // An untimed warm-up pass, checked like the rest: a process's first
    // pass runs cold, and with three or four passes per run it would move
    // the per-request medians.
    let server = Server::start(&work.join("warm-up"))?;
    run_pass(
        &server,
        &specs,
        &order,
        &mut expect,
        &mut Tracer::off(),
        &mut out,
    );
    server.check_stats(0, order.len(), &mut out);
    server.stop();
    // Each server start spawns fresh threads, and the allocator arenas
    // they leave behind make a later high-water mark vary between runs;
    // read it after one server's pass.
    out.e2e.insert("peak_rss_mb", bench::peak_rss_mb());
    let mut stats_seen = BTreeMap::new();
    let mut replays = Vec::new();
    let (untraced, traced) = timed_passes(budget, origin, &mut out, |i, tracer, out| {
        let server = Server::start(&work.join(format!("pass-{i}")))?;
        let pass = run_pass(&server, &specs, &order, &mut expect, tracer, out);
        stats_seen = server.check_stats(0, order.len(), out);
        server.stop();
        if tracer.recording() {
            let dir = work.join(format!("replay-{i}"));
            replays.push(replay(
                &specs,
                &order,
                &expect.bodies,
                true,
                &dir,
                origin,
                out,
            ));
        }
        setup.measure()?;
        Ok(pass)
    })?;
    let Expect { bodies, counts, .. } = expect;
    let jobs = order.iter().map(|&s| specs[s].jobs).sum();
    finish(
        &mut out,
        &setup,
        &untraced,
        jobs,
        [("serve.miss_p50_ms", 50.0), ("serve.miss_p90_ms", 90.0)],
    )?;
    if ctx.traced {
        let attributed = attribute(&traced, &replays);
        let miss = "serve.miss_server_ms";
        shared_layers(
            &mut out,
            miss,
            &setup,
            &specs,
            &untraced,
            &traced,
            &attributed,
        );
        let r = &attributed.0;
        let body_bytes: usize = bodies.iter().flatten().map(|b| b.trim_end().len()).sum();
        let l = &mut out.layers;
        l.insert("runner.lookup_ms", r.lookup);
        l.insert("runner.store_ms", r.store);
        l.insert("runner.store_bytes", body_bytes as f64);
        l.insert("report.encode_ms", r.encode);
        l.insert("report.bytes", 2.0 * body_bytes as f64);
        l.insert("audit.overhead_ms", r.audit);
        counts.fill(r.sim, l);
        let sims = stats_seen.get("sims_executed").copied().unwrap_or(0);
        l.insert("serve.misses", sims as f64);
        l.insert("serve.refused", refused(&stats_seen));
    }
    Ok(out)
}

/// Runs `whatif-hot`.
pub fn run_hot(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let origin = Mark::now();
    let mut setup = Setup::new(ctx, origin);
    let specs = setup.measure()?;
    let (work, budget) = (ctx.work.clone(), (ctx.seconds, ctx.traced));
    let server = Server::start(&work.join("hot"))?;
    let mut expect = Expect::misses(&mut ctx.digests);
    // The warm-up: each spec's miss, untimed, so every pass is hot hits.
    let warm_up = miss_order(POOL, ctx.seed);
    run_pass(
        &server,
        &specs,
        &warm_up,
        &mut expect,
        &mut Tracer::off(),
        &mut out,
    );
    server.check_stats(0, POOL, &mut out);
    expect.outcome = ServeOutcome::Hot;
    let order = hit_order(POOL, REPEATS, ctx.seed);
    let mut hits = 0;
    let mut stats_seen = BTreeMap::new();
    let mut replays = Vec::new();
    let (untraced, traced) = timed_passes(budget, origin, &mut out, |i, tracer, out| {
        let pass = run_pass(&server, &specs, &order, &mut expect, tracer, out);
        hits += order.len();
        stats_seen = server.check_stats(hits, POOL, out);
        if tracer.recording() {
            let dir = work.join(format!("replay-{i}"));
            replays.push(replay(
                &specs,
                &order,
                &expect.bodies,
                false,
                &dir,
                origin,
                out,
            ));
        }
        setup.measure()?;
        Ok(pass)
    })?;
    server.stop();
    let passes = hits / order.len();
    let Expect { bodies, .. } = expect;
    let jobs = order.iter().map(|&s| specs[s].jobs).sum();
    finish(
        &mut out,
        &setup,
        &untraced,
        jobs,
        [("serve.hit_p50_ms", 50.0), ("serve.hit_p99_ms", 99.0)],
    )?;
    if ctx.traced {
        let attributed = attribute(&traced, &replays);
        let hit = "serve.hit_server_ms";
        shared_layers(
            &mut out,
            hit,
            &setup,
            &specs,
            &untraced,
            &traced,
            &attributed,
        );
        let body_bytes: usize = order
            .iter()
            .filter_map(|&s| bodies[s].as_ref())
            .map(String::len)
            .sum();
        let transport: Vec<f64> = untraced.iter().flat_map(Pass::transport_ms).collect();
        let stat = |name: &str| stats_seen.get(name).copied().unwrap_or(0) as f64;
        let l = &mut out.layers;
        l.insert("report.bytes", body_bytes as f64);
        // `/stats` counts from the server's start: the hot hits of all
        // passes, and the warm-up's misses.
        l.insert("serve.hot_hits", stat("hot_hits") / passes as f64);
        l.insert("serve.misses", stat("sims_executed"));
        l.insert("serve.refused", refused(&stats_seen));
        l.insert("serve.hit_transport_ms", stats::median(&transport));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_orders_match_their_construction() {
        let misses = miss_order(POOL, 42);
        let mut sorted = misses.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..POOL).collect::<Vec<_>>(), "each spec once");
        let hits = hit_order(POOL, REPEATS, 42);
        assert_eq!(hits.len(), POOL * REPEATS);
        for spec in 0..POOL {
            let n = hits.iter().filter(|&&s| s == spec).count();
            assert_eq!(n, REPEATS, "spec {spec}");
        }
        assert_eq!(hits, hit_order(POOL, REPEATS, 42), "seeded order repeats");
        assert_ne!(hits, hit_order(POOL, REPEATS, 43));
        assert_ne!(misses, miss_order(POOL, 43));
    }

    #[test]
    fn a_small_warm_up_and_hit_pass_yield_the_constructed_outcome_counts() {
        let specs = pool(5, 4, 12, &mut Tracer::off()).unwrap();
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.perfbench-work")
            .join(format!("test-whatif-{}", std::process::id()));
        let server = Server::start(&dir).unwrap();
        let mut digests = DigestMode::Skip;
        let mut expect = Expect::misses(&mut digests);
        let mut out = Outcome::default();
        let quiet = &mut Tracer::off();
        let warm_up = miss_order(specs.len(), 5);
        let misses = run_pass(&server, &specs, &warm_up, &mut expect, quiet, &mut out);
        let after_misses = server.check_stats(0, specs.len(), &mut out);
        expect.outcome = ServeOutcome::Hot;
        let order = hit_order(specs.len(), 3, 5);
        let hits = run_pass(&server, &specs, &order, &mut expect, quiet, &mut out);
        let after_hits = server.check_stats(order.len(), specs.len(), &mut out);
        server.stop();
        assert_eq!(out.failed, 0, "{:?}", out.problems);
        // Every request plus the two /stats reads.
        assert_eq!(out.attempted, (warm_up.len() + order.len() + 2) as u64);
        assert_eq!(misses.client_ms.len(), specs.len());
        assert_eq!(hits.client_ms.len(), specs.len() * 3);
        assert_eq!(after_misses["sims_executed"], specs.len() as u64);
        assert_eq!(after_misses["hot_hits"], 0);
        assert_eq!(after_hits["sims_executed"], specs.len() as u64);
        assert_eq!(after_hits["hot_hits"], (specs.len() * 3) as u64);
        assert!(expect.bodies[..specs.len()].iter().all(Option::is_some));
        assert_eq!(expect.counts.calls, specs.len() as u64);

        // A hit whose body differs from its miss is one failed operation.
        let forged = Ok(ClientResponse {
            status: 200,
            headers: vec![("x-vrecon-outcome".to_owned(), "hot".to_owned())],
            body: "{}\n".to_owned(),
        });
        let record = RequestRecord {
            method: "POST".to_owned(),
            path: "/run".to_owned(),
            status: 200,
            outcome: ServeOutcome::Hot,
            hash: None,
            latency_ms: 1.0,
            body_bytes: 3,
        };
        out.op(expect.check(0, &forged, Some(&record)));
        assert_eq!(
            (out.attempted - out.failed, out.failed),
            (out.attempted - 1, 1)
        );
    }
}
