//! End-to-end tests of `vrecon serve` over real sockets: byte-identity
//! across tiers, worker counts, and restarts; cold misses and hot
//! repeats; protocol rejection paths; request coalescing; bounded
//! admission; connection slots that survive a panicking thread; and
//! corrupt-cache recovery.

use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vr_check::fuzz::{generate, CheckScenario, ScenarioJob, ScenarioNode};
use vr_serve::{request, start, ClientResponse, ServeConfig};
use vr_simcore::jsonio::Json;
use vrecon::{encode_report, ParamBag, PolicyKind};

const TIMEOUT: Duration = Duration::from_secs(120);

/// A scenario heavy enough (~2 s in a debug build) that a second request
/// reliably arrives while it is still simulating.
const HEAVY_JOBS: usize = 1200;

/// A scenario that takes real wall time to simulate: a small, memory-
/// starved cluster fed a long stream of paging-heavy jobs. Distinct
/// `variant` values produce distinct content hashes at identical cost.
fn heavy_scenario(variant: u64, jobs: usize) -> CheckScenario {
    CheckScenario {
        nodes: vec![
            ScenarioNode {
                user_mb: 64,
                slots: 2
            };
            4
        ],
        policy: PolicyKind::VReconfiguration,
        policy_params: ParamBag::new(),
        seed: 9_000 + variant,
        max_sim_time_s: 200_000,
        jobs: (0..jobs as u64)
            .map(|i| ScenarioJob {
                submit_us: i * 100_000,
                cpu_work_us: 30_000_000,
                ws_mb: 48,
                malleable: None,
            })
            .collect(),
        fault_plan: None,
    }
}

fn tmp_cache(tag: &str) -> PathBuf {
    // Compile-time scratch dir: the serve crate may not read the process
    // environment (vr-lint env-read), tests included.
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("vr-serve-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn test_config(tag: &str) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_owned(),
        cache_dir: Some(tmp_cache(tag)),
        read_timeout: Duration::from_millis(500),
        ..ServeConfig::default()
    }
}

/// What `vrecon run` would print for this spec: the report encoding plus
/// a trailing newline. The serve response body must match it exactly.
fn direct_bytes(spec: &str) -> String {
    let scenario = vr_check::CheckScenario::parse(spec).unwrap();
    let (config, trace) = scenario.to_sim().unwrap();
    let report = vr_runner::Scenario::new(config, Arc::new(trace)).run();
    format!("{}\n", encode_report(&report))
}

fn stats(addr: std::net::SocketAddr) -> Json {
    let resp = request(addr, "GET", "/stats", "", TIMEOUT).unwrap();
    assert_eq!(resp.status, 200);
    Json::parse(&resp.body).unwrap()
}

fn stat(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap()
}

fn corrupt_entries(doc: &Json) -> u64 {
    doc.get("cache")
        .and_then(|c| c.get("corrupt_entries"))
        .and_then(Json::as_u64)
        .unwrap()
}

/// POSTs every body to `/run`, spread over `threads` client threads.
fn post_from_threads(addr: SocketAddr, bodies: &[String], threads: usize) -> Vec<ClientResponse> {
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    bodies
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|body| request(addr, "POST", "/run", body, TIMEOUT).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|client| client.join().unwrap())
            .collect()
    })
}

#[test]
fn responses_are_byte_identical_across_tiers_workers_and_restarts() {
    let spec = generate(7, 3).render();
    let want = direct_bytes(&spec);
    let cache_dir = tmp_cache("identity");

    // Server A: one worker. Cold miss, then a warm repeat.
    let server = start(ServeConfig {
        jobs: 1,
        cache_dir: Some(cache_dir.clone()),
        ..test_config("unused-a")
    })
    .unwrap();
    let addr = server.addr();
    let cold = request(addr, "POST", "/run", &spec, TIMEOUT).unwrap();
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-vrecon-outcome"), Some("miss"));
    assert_eq!(
        cold.body, want,
        "cold response must match `vrecon run` bytes"
    );
    let hash = cold.header("x-vrecon-hash").unwrap().to_owned();

    let warm = request(addr, "POST", "/run", &spec, TIMEOUT).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-vrecon-outcome"), Some("hot"));
    assert_eq!(warm.header("x-vrecon-hash"), Some(hash.as_str()));
    assert_eq!(warm.body, want);
    server.shutdown();

    // Server B: same cache dir, eight workers, fresh process-state. The
    // first request is served from disk — still the same bytes.
    let server = start(ServeConfig {
        jobs: 8,
        cache_dir: Some(cache_dir.clone()),
        ..test_config("unused-b")
    })
    .unwrap();
    let addr = server.addr();
    let restarted = request(addr, "POST", "/run", &spec, TIMEOUT).unwrap();
    assert_eq!(restarted.status, 200);
    assert_eq!(restarted.header("x-vrecon-outcome"), Some("disk"));
    assert_eq!(restarted.body, want, "restart must serve identical bytes");
    let doc = stats(addr);
    assert_eq!(
        stat(&doc, "sims_executed"),
        0,
        "restart must not re-simulate"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn distinct_cold_specs_miss_once_and_their_repeats_hit_hot() {
    let server = start(test_config("cold-warm")).unwrap();
    let addr = server.addr();
    let specs: Vec<String> = (0..16).map(|i| generate(42, i).render()).collect();

    // Cold: every distinct spec runs exactly one simulation.
    for resp in post_from_threads(addr, &specs, 4) {
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.header("x-vrecon-outcome"), Some("miss"));
    }
    let doc = stats(addr);
    assert_eq!(stat(&doc, "sims_executed"), 16, "{doc:?}");
    assert_eq!(stat(&doc, "hot_hits"), 0, "{doc:?}");
    assert_eq!(stat(&doc, "disk_hits"), 0, "{doc:?}");

    // Warm: round-robin repeats all come from the hot tier.
    let repeats: Vec<String> = (0..64).map(|i| specs[i % specs.len()].clone()).collect();
    for resp in post_from_threads(addr, &repeats, 4) {
        assert_eq!(resp.status, 200, "{}", resp.body);
        assert_eq!(resp.header("x-vrecon-outcome"), Some("hot"));
    }
    let doc = stats(addr);
    assert_eq!(
        stat(&doc, "sims_executed"),
        16,
        "repeats must not re-simulate"
    );
    assert_eq!(stat(&doc, "hot_hits"), 64, "{doc:?}");
    assert_eq!(stat(&doc, "disk_hits"), 0, "{doc:?}");
    assert_eq!(stat(&doc, "in_flight"), 0, "{doc:?}");
    assert_eq!(corrupt_entries(&doc), 0, "{doc:?}");
    server.shutdown();
}

#[test]
fn malformed_requests_get_wellformed_errors() {
    let server = start(test_config("errors")).unwrap();
    let addr = server.addr();

    // Bad spec → 400 with a diagnostic.
    let resp = request(addr, "POST", "/run", "policy nonsense\n", TIMEOUT).unwrap();
    assert_eq!(resp.status, 400);
    assert!(resp.body.contains("bad scenario spec"), "{}", resp.body);

    // Unknown path → 404; wrong method → 405.
    assert_eq!(
        request(addr, "GET", "/nope", "", TIMEOUT).unwrap().status,
        404
    );
    assert_eq!(
        request(addr, "GET", "/run", "", TIMEOUT).unwrap().status,
        405
    );

    // Raw protocol garbage → 400.
    let resp = request(addr, "POST /run", "HTTP/1.1", "", TIMEOUT);
    assert!(resp.is_err() || resp.unwrap().status == 400);

    // Slow loris: a drip of bytes, then silence → 408 within the read
    // timeout, not a hung thread.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"POST /run HTTP/1.1\r\n").unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut raw = Vec::new();
    std::io::Read::read_to_end(&mut stream, &mut raw).unwrap();
    let text = String::from_utf8_lossy(&raw);
    assert!(text.starts_with("HTTP/1.1 408"), "{text}");

    let doc = stats(addr);
    assert!(stat(&doc, "bad_requests") >= 3, "{doc:?}");
    assert_eq!(stat(&doc, "timeouts"), 1);
    assert_eq!(stat(&doc, "sims_executed"), 0);
    server.shutdown();
}

#[test]
fn identical_concurrent_requests_coalesce_onto_one_simulation() {
    let server = start(test_config("coalesce")).unwrap();
    let addr = server.addr();
    let state = Arc::clone(server.state());
    let spec = heavy_scenario(0, HEAVY_JOBS).render();

    let leader = {
        let spec = spec.clone();
        std::thread::spawn(move || request(addr, "POST", "/run", &spec, TIMEOUT).unwrap())
    };
    // Wait until the leader's simulation is registered in flight.
    let watch = vr_serve::clock::Stopwatch::start();
    while stat(&state.stats_json(), "in_flight") == 0 {
        assert!(
            !watch.expired(Duration::from_secs(30)),
            "leader never in flight"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let followers: Vec<_> = (0..3)
        .map(|_| {
            let spec = spec.clone();
            std::thread::spawn(move || request(addr, "POST", "/run", &spec, TIMEOUT).unwrap())
        })
        .collect();
    let lead_resp = leader.join().unwrap();
    assert_eq!(lead_resp.status, 200, "{}", lead_resp.body);
    assert_eq!(lead_resp.header("x-vrecon-outcome"), Some("miss"));
    for follower in followers {
        let resp = follower.join().unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("x-vrecon-outcome"), Some("coalesced"));
        assert_eq!(
            resp.body, lead_resp.body,
            "coalesced bytes must be identical"
        );
    }
    let doc = stats(addr);
    assert_eq!(
        stat(&doc, "sims_executed"),
        1,
        "followers must not re-simulate"
    );
    assert_eq!(stat(&doc, "coalesced"), 3);
    server.shutdown();
}

#[test]
fn cold_requests_past_max_inflight_are_shed_with_503() {
    let server = start(ServeConfig {
        max_inflight: 1,
        ..test_config("overload")
    })
    .unwrap();
    let addr = server.addr();
    let state = Arc::clone(server.state());

    let filler = {
        let spec = heavy_scenario(1, HEAVY_JOBS).render();
        std::thread::spawn(move || request(addr, "POST", "/run", &spec, TIMEOUT).unwrap())
    };
    let watch = vr_serve::clock::Stopwatch::start();
    while stat(&state.stats_json(), "in_flight") == 0 {
        assert!(
            !watch.expired(Duration::from_secs(30)),
            "filler never in flight"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    // A *distinct* cold scenario must be shed...
    let shed = request(
        addr,
        "POST",
        "/run",
        &heavy_scenario(2, HEAVY_JOBS).render(),
        TIMEOUT,
    )
    .unwrap();
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert!(shed.header("retry-after").is_some());
    // ...while the filler completes normally.
    assert_eq!(filler.join().unwrap().status, 200);
    let doc = stats(addr);
    assert_eq!(stat(&doc, "overloads"), 1);
    assert_eq!(stat(&doc, "sims_executed"), 1);
    server.shutdown();
}

#[test]
fn corrupt_cache_entry_is_recomputed_not_served() {
    let cache_dir = tmp_cache("corrupt");
    let spec = generate(11, 5).render();
    let want = direct_bytes(&spec);

    let server = start(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..test_config("unused-c")
    })
    .unwrap();
    let addr = server.addr();
    let first = request(addr, "POST", "/run", &spec, TIMEOUT).unwrap();
    assert_eq!(first.status, 200);
    let hash = first.header("x-vrecon-hash").unwrap().to_owned();
    server.shutdown();

    // Truncate the entry on disk, as a torn write would.
    let entry = cache_dir.join(format!("{hash}.json"));
    let full = std::fs::read_to_string(&entry).unwrap();
    std::fs::write(&entry, &full[..full.len() / 3]).unwrap();

    // A fresh server must treat it as a miss, recompute, and still serve
    // the correct bytes — never a 500, never the truncated text.
    let server = start(ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..test_config("unused-d")
    })
    .unwrap();
    let addr = server.addr();
    let resp = request(addr, "POST", "/run", &spec, TIMEOUT).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    assert_eq!(resp.header("x-vrecon-outcome"), Some("miss"));
    assert_eq!(resp.body, want);
    let doc = stats(addr);
    assert_eq!(corrupt_entries(&doc), 1, "{doc:?}");
    // The repaired entry hits from disk-backed state after the corrupt
    // one was quarantined.
    assert!(cache_dir.join(format!("{hash}.json.corrupt")).exists());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn connection_cap_rejects_with_429() {
    let server = start(ServeConfig {
        max_conns: 1,
        ..test_config("conncap")
    })
    .unwrap();
    let addr = server.addr();
    // Hold one connection open (it counts against the cap until its read
    // times out), then a second connection must be answered 429.
    let held = TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));
    // One probe must read the 429: the reject path drains the unread
    // request before closing, so the close cannot reset the response.
    let resp = request(addr, "GET", "/healthz", "", TIMEOUT).unwrap();
    assert_eq!(resp.status, 429, "{}", resp.body);
    assert!(resp.header("retry-after").is_some());
    drop(held);
    // The held connection's handler releases its slot asynchronously (it
    // has to notice the close first), so poll until /stats gets through.
    let watch = vr_serve::clock::Stopwatch::start();
    let doc = loop {
        // Until then /stats is answered 429, so only a 200 ends the poll.
        let resp = request(addr, "GET", "/stats", "", TIMEOUT).unwrap();
        if resp.status == 200 {
            break Json::parse(&resp.body).unwrap();
        }
        assert!(
            !watch.expired(Duration::from_secs(10)),
            "connection slot never released"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    // At least the probe above was rejected; polling may add more.
    assert!(stat(&doc, "rejected_conns") >= 1, "{doc:?}");
    server.shutdown();
}

/// A request hook that panics on `/healthz` records: a stand-in for any
/// panic on a connection thread after its response is on the wire.
struct PanicOnHealthz;

impl vr_serve::RequestHook for PanicOnHealthz {
    fn on_request(&self, record: &vr_serve::RequestRecord) {
        assert_ne!(record.path, "/healthz", "request hook panics on /healthz");
    }
}

#[test]
fn connection_slots_come_back_when_a_connection_thread_panics() {
    let server = start(ServeConfig {
        max_conns: 2,
        hook: Arc::new(PanicOnHealthz),
        ..test_config("panicslot")
    })
    .unwrap();
    let addr = server.addr();
    // Each answer is written before its hook panics, so both succeed and
    // both handlers then unwind while holding a connection slot.
    for _ in 0..2 {
        let resp = request(addr, "GET", "/healthz", "", TIMEOUT).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
    }
    // The unwinding handlers release their slots asynchronously, so poll;
    // slots that leaked would keep /stats at 429 for good.
    let watch = vr_serve::clock::Stopwatch::start();
    loop {
        let resp = request(addr, "GET", "/stats", "", TIMEOUT).unwrap();
        if resp.status == 200 {
            break;
        }
        assert!(
            !watch.expired(Duration::from_secs(5)),
            "connection slots leaked: /stats answered {}",
            resp.status
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}
