//! The `vrecon loadgen` driver: exercises a running `vrecon serve`
//! instance through deterministic phases and reduces the measurements
//! into one JSON document.
//!
//! Phases, in order:
//!
//! 1. **cold** — POST `specs` distinct fuzzer-generated scenarios at
//!    `concurrency`; each is a cache miss that runs a simulation.
//! 2. **warm** — POST `warm_requests` round-robin over the same specs;
//!    every one must be a cache hit. Latencies and QPS are measured here,
//!    where the server's work is pure cache service.
//! 3. **coalesce** — start one deliberately heavy scenario, wait until
//!    the server reports it in flight, then POST `followers` identical
//!    requests: all of them must coalesce onto the single run.
//! 4. **overload** — fill every admission seat (`max_inflight`, read
//!    from `/stats`) with distinct heavy scenarios, then POST one more:
//!    it must be refused with 503.
//!
//! The phase counts are exact by construction; CI's `serve-smoke` job
//! asserts them on the written document.

use std::net::SocketAddr;
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

use vr_check::fuzz::{generate, CheckScenario, ScenarioJob, ScenarioNode};
use vr_metrics::LatencySummary;
use vr_simcore::jsonio::Json;
use vrecon::PolicyKind;

use crate::client::{request, ClientResponse};
use crate::clock::Stopwatch;

/// Load-generation parameters, CLI-shaped.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// The server to exercise.
    pub addr: SocketAddr,
    /// Number of distinct scenarios in the cold/warm phases.
    pub specs: usize,
    /// Requests in the warm phase (round-robin over the specs).
    pub warm_requests: usize,
    /// Client threads for the cold and warm phases.
    pub concurrency: usize,
    /// Seed for scenario generation.
    pub seed: u64,
    /// Identical concurrent requests in the coalesce phase.
    pub followers: usize,
    /// Job count of the heavy probe scenario (sizes its wall time).
    pub heavy_jobs: usize,
    /// Per-request client timeout.
    pub timeout: Duration,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: SocketAddr::from(([127, 0, 0, 1], 7071)),
            specs: 32,
            warm_requests: 256,
            concurrency: 4,
            seed: 42,
            followers: 8,
            // ~1 s of release-build simulation: long enough that the
            // coalesce and overload probes reliably observe it in flight.
            heavy_jobs: 2000,
            timeout: Duration::from_secs(120),
        }
    }
}

/// A scenario that takes real wall time to simulate: a small, memory-
/// starved cluster fed a long stream of paging-heavy jobs. Distinct
/// `variant` values produce distinct content hashes at identical cost,
/// which is what the overload phase needs to fill every admission seat.
pub fn heavy_scenario(variant: u64, jobs: usize) -> CheckScenario {
    CheckScenario {
        nodes: vec![
            ScenarioNode {
                user_mb: 64,
                slots: 2
            };
            4
        ],
        policy: PolicyKind::VReconfiguration,
        policy_params: vrecon::plugin::ParamBag::new(),
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

/// Snapshot of the server counters loadgen cares about.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct StatsSnapshot {
    hot_hits: u64,
    disk_hits: u64,
    sims_executed: u64,
    coalesced: u64,
    overloads: u64,
    in_flight: u64,
    corrupt_entries: u64,
    max_inflight: u64,
}

impl StatsSnapshot {
    fn hits(&self) -> u64 {
        self.hot_hits + self.disk_hits
    }
}

fn fetch_stats(addr: SocketAddr, timeout: Duration) -> Result<StatsSnapshot, String> {
    let resp = request(addr, "GET", "/stats", "", timeout)?;
    if resp.status != 200 {
        return Err(format!("/stats returned {}", resp.status));
    }
    let doc = Json::parse(&resp.body).map_err(|e| format!("/stats body: {e}"))?;
    let u = |key: &str| -> u64 { doc.get(key).and_then(Json::as_u64).unwrap_or(0) };
    Ok(StatsSnapshot {
        hot_hits: u("hot_hits"),
        disk_hits: u("disk_hits"),
        sims_executed: u("sims_executed"),
        coalesced: u("coalesced"),
        overloads: u("overloads"),
        in_flight: u("in_flight"),
        corrupt_entries: doc
            .get("cache")
            .and_then(|c| c.get("corrupt_entries"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
        max_inflight: doc
            .get("config")
            .and_then(|c| c.get("max_inflight"))
            .and_then(Json::as_u64)
            .unwrap_or(0),
    })
}

/// POSTs `body` to `/run`, returning `(response, latency_ms)`.
fn post_run(
    addr: SocketAddr,
    body: &str,
    timeout: Duration,
) -> Result<(ClientResponse, f64), String> {
    let watch = Stopwatch::start();
    let resp = request(addr, "POST", "/run", body, timeout)?;
    Ok((resp, watch.elapsed_ms()))
}

/// Sends every spec in `batch` at `concurrency`, collecting latencies of
/// 200 responses and failing on anything else.
fn run_batch(
    addr: SocketAddr,
    batch: &[String],
    concurrency: usize,
    timeout: Duration,
) -> Result<Vec<f64>, String> {
    let latencies: Mutex<Vec<f64>> = Mutex::new(Vec::with_capacity(batch.len()));
    let errors: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let next = std::sync::atomic::AtomicUsize::new(0);
    let threads = concurrency.clamp(1, batch.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let Some(body) = batch.get(i) else { break };
                match post_run(addr, body, timeout) {
                    Ok((resp, ms)) if resp.status == 200 => {
                        latencies
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(ms);
                    }
                    Ok((resp, _)) => {
                        errors
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner)
                            .push(format!(
                                "request {i}: status {} ({})",
                                resp.status,
                                resp.body.trim()
                            ))
                    }
                    Err(e) => errors
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .push(format!("request {i}: {e}")),
                }
            });
        }
    });
    let errors = errors.into_inner().unwrap_or_else(PoisonError::into_inner);
    if let Some(first) = errors.first() {
        return Err(format!(
            "{} request(s) failed; first: {first}",
            errors.len()
        ));
    }
    Ok(latencies
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner))
}

/// Polls `/stats` until `pred` holds or ~10 s pass.
fn wait_for(
    addr: SocketAddr,
    timeout: Duration,
    what: &str,
    pred: impl Fn(&StatsSnapshot) -> bool,
) -> Result<StatsSnapshot, String> {
    let watch = Stopwatch::start();
    loop {
        let stats = fetch_stats(addr, timeout)?;
        if pred(&stats) {
            return Ok(stats);
        }
        if watch.expired(Duration::from_secs(10)) {
            return Err(format!("timed out waiting for {what}; stats {stats:?}"));
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn latency_json(summary: &LatencySummary) -> Json {
    Json::obj([
        ("count", Json::U64(summary.count as u64)),
        ("p50_ms", Json::f64(summary.p50_ms)),
        ("p99_ms", Json::f64(summary.p99_ms)),
        ("mean_ms", Json::f64(summary.mean_ms)),
        ("max_ms", Json::f64(summary.max_ms)),
        ("qps", Json::f64(summary.qps)),
    ])
}

/// Runs every phase and returns the loadgen document.
///
/// # Errors
///
/// Any failed request, unexpected status, or phase that does not reach
/// its expected server state within its poll window.
pub fn run_loadgen(config: &LoadgenConfig) -> Result<Json, String> {
    let addr = config.addr;
    let timeout = config.timeout;
    let specs: Vec<String> = (0..config.specs as u64)
        .map(|i| generate(config.seed, i).render())
        .collect();

    // Phase 1: cold.
    let before = fetch_stats(addr, timeout)?;
    let cold_watch = Stopwatch::start();
    let cold_lat = run_batch(addr, &specs, config.concurrency, timeout)?;
    let cold_wall = cold_watch.elapsed_secs();
    let after_cold = wait_for(addr, timeout, "cold phase drain", |s| s.in_flight == 0)?;
    let cold_sims = after_cold.sims_executed - before.sims_executed;
    let cold_hits = after_cold.hits() - before.hits();

    // Phase 2: warm.
    let warm_batch: Vec<String> = (0..config.warm_requests)
        .map(|i| specs[i % specs.len()].clone())
        .collect();
    let warm_watch = Stopwatch::start();
    let warm_lat = run_batch(addr, &warm_batch, config.concurrency, timeout)?;
    let warm_wall = warm_watch.elapsed_secs();
    let after_warm = fetch_stats(addr, timeout)?;
    let warm_hits = after_warm.hits() - after_cold.hits();
    let warm_sims = after_warm.sims_executed - after_cold.sims_executed;
    let warm_hit_rate = if config.warm_requests > 0 {
        warm_hits as f64 / config.warm_requests as f64
    } else {
        0.0
    };

    // Phase 3: coalesce. One heavy leader; followers join it mid-flight.
    let heavy = heavy_scenario(0, config.heavy_jobs).render();
    let leader = {
        let heavy = heavy.clone();
        std::thread::spawn(move || post_run(addr, &heavy, timeout))
    };
    wait_for(addr, timeout, "heavy leader to be in flight", |s| {
        s.in_flight >= 1
    })?;
    let follower_batch: Vec<String> = vec![heavy; config.followers];
    run_batch(addr, &follower_batch, config.followers.max(1), timeout)?;
    match leader.join() {
        Ok(Ok((resp, _))) if resp.status == 200 => {}
        Ok(Ok((resp, _))) => return Err(format!("heavy leader got status {}", resp.status)),
        Ok(Err(e)) => return Err(format!("heavy leader failed: {e}")),
        Err(_) => return Err("heavy leader thread panicked".to_owned()),
    }
    let after_coalesce = wait_for(addr, timeout, "coalesce drain", |s| s.in_flight == 0)?;
    let coalesced = after_coalesce.coalesced - after_warm.coalesced;
    let coalesce_sims = after_coalesce.sims_executed - after_warm.sims_executed;

    // Phase 4: overload. Fill every admission seat with distinct heavy
    // scenarios, then one more must be shed with 503.
    let seats = after_coalesce.max_inflight as usize;
    if seats == 0 {
        return Err("/stats reported max_inflight 0".to_owned());
    }
    let fillers: Vec<std::thread::JoinHandle<Result<(ClientResponse, f64), String>>> = (0..seats)
        .map(|i| {
            let body = heavy_scenario(1 + i as u64, config.heavy_jobs).render();
            std::thread::spawn(move || post_run(addr, &body, timeout))
        })
        .collect();
    wait_for(addr, timeout, "admission seats to fill", |s| {
        s.in_flight >= seats as u64
    })?;
    let shed = heavy_scenario(1_000, config.heavy_jobs).render();
    let (shed_resp, _) = post_run(addr, &shed, timeout)?;
    if shed_resp.status != 503 {
        return Err(format!(
            "expected 503 past max_inflight, got {}",
            shed_resp.status
        ));
    }
    for (i, filler) in fillers.into_iter().enumerate() {
        match filler.join() {
            Ok(Ok((resp, _))) if resp.status == 200 => {}
            Ok(Ok((resp, _))) => return Err(format!("filler {i} got status {}", resp.status)),
            Ok(Err(e)) => return Err(format!("filler {i} failed: {e}")),
            Err(_) => return Err(format!("filler {i} thread panicked")),
        }
    }
    let after_overload = wait_for(addr, timeout, "overload drain", |s| s.in_flight == 0)?;
    let overloads = after_overload.overloads - after_coalesce.overloads;

    Ok(Json::obj([
        ("schema_version", Json::U64(1)),
        (
            "config",
            Json::obj([
                ("specs", Json::U64(config.specs as u64)),
                ("warm_requests", Json::U64(config.warm_requests as u64)),
                ("concurrency", Json::U64(config.concurrency as u64)),
                ("seed", Json::U64(config.seed)),
                ("followers", Json::U64(config.followers as u64)),
                ("heavy_jobs", Json::U64(config.heavy_jobs as u64)),
                ("max_inflight", Json::U64(seats as u64)),
            ]),
        ),
        (
            "cold",
            Json::obj([
                ("requests", Json::U64(specs.len() as u64)),
                ("sims_executed", Json::U64(cold_sims)),
                ("hits", Json::U64(cold_hits)),
                (
                    "latency",
                    latency_json(&LatencySummary::of(&cold_lat, cold_wall)),
                ),
            ]),
        ),
        (
            "warm",
            Json::obj([
                ("requests", Json::U64(config.warm_requests as u64)),
                ("hits", Json::U64(warm_hits)),
                ("sims_executed", Json::U64(warm_sims)),
                ("hit_rate", Json::f64(warm_hit_rate)),
                (
                    "latency",
                    latency_json(&LatencySummary::of(&warm_lat, warm_wall)),
                ),
            ]),
        ),
        (
            "coalesce",
            Json::obj([
                ("followers", Json::U64(config.followers as u64)),
                ("coalesced", Json::U64(coalesced)),
                ("sims_executed", Json::U64(coalesce_sims)),
            ]),
        ),
        (
            "overload",
            Json::obj([
                ("seats_filled", Json::U64(seats as u64)),
                ("overloads", Json::U64(overloads)),
            ]),
        ),
        (
            "server",
            Json::obj([("corrupt_entries", Json::U64(after_overload.corrupt_entries))]),
        ),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heavy_scenarios_differ_by_variant_only() {
        let a = heavy_scenario(0, 50);
        let b = heavy_scenario(1, 50);
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.jobs, b.jobs);
        // Both must be valid, runnable specs.
        a.to_sim().unwrap();
        let rendered = b.render();
        assert_eq!(CheckScenario::parse(&rendered).unwrap(), b);
    }
}
