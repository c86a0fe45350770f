//! # vr-serve — what-if scheduling as a service
//!
//! A dependency-free HTTP/1.1 front-end over the experiment runner's
//! content-addressed result cache. Clients POST a scenario spec in the
//! fuzzer's replayable text format ([`vr_check::CheckScenario`], the
//! workspace's versioned wire format) to `/run` and receive the
//! deterministic [`vrecon::RunReport`] JSON — byte-identical to what
//! `vrecon run` prints for the same scenario, byte-identical across
//! repeats, worker counts, and server restarts, because the body is
//! either the cache entry itself or the encoding of a deterministic
//! simulation keyed by the same content hash.
//!
//! * [`server`] — accept loop, `/run` pipeline, simulation worker pool.
//!   Three tiers answer a request: in-memory hot LRU, on-disk
//!   [`vr_runner::ResultCache`], fresh simulation. Identical concurrent
//!   requests **coalesce** onto one in-flight run; distinct cold
//!   requests past `max_inflight` are shed with an explicit 503 (and
//!   connections past the connection cap with 429) — the server never
//!   queues work invisibly.
//! * [`http`] — the minimal request reader / response writer, with
//!   explicit limits (408/411/413/431) instead of hung threads.
//! * [`state`] — counters, hot tier, and the in-flight table.
//! * [`hook`] — per-request structured records ([`RequestRecord`]) via
//!   the same hook-seam pattern as the engine's `EventHook`, with a JSONL
//!   sink.
//! * [`client`] / [`loadgen`] — the blocking client and the phased load
//!   generator behind `vrecon loadgen`.
//! * [`clock`] — the only module allowed to read the wall clock
//!   (enforced by `vrecon analyze`); everything else handles opaque
//!   [`clock::Stopwatch`] values.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod clock;
pub mod hook;
pub mod http;
pub mod loadgen;
pub mod server;
pub mod state;

pub use client::{request, ClientResponse};
pub use hook::{JsonlRequestLog, NullHook, Outcome, RequestHook, RequestRecord};
pub use loadgen::{heavy_scenario, run_loadgen, LoadgenConfig};
pub use server::{start, ServeConfig, ServeState, ServerHandle};
