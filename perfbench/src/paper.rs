//! `paper-sweep`: the paper's own evaluation, as `vrecon sweep spec app
//! --jobs 1` runs it on a cold cache.
//!
//! SPEC traces on cluster 1 and App traces on cluster 2, levels 1–5,
//! under G-Loadsharing and V-Reconfiguration: 20 scenarios and 11,384
//! jobs. These are blocking-heavy 32-node runs, so node advance, pending
//! retries, stale-placement transit bounces and V-R detection/reservation
//! do most of the work, and per-node sweeps do almost none.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use vr_cluster::params::ClusterParams;
use vr_runner::{ResultCache, Runner, Scenario, SweepOptions, SweepPlan};
use vr_simcore::rng::SimRng;
use vr_workload::trace::{
    app_trace_scaled, spec_trace_scaled, TraceLevel, APP_LIFETIME_SCALE, SPEC_LIFETIME_SCALE,
};
use vrecon::{PolicyKind, RunReport, SimConfig};

use crate::bench::{self, Ctx, Outcome};
use crate::check::check_report;
use crate::clock::Mark;
use crate::host::HostProbe;
use crate::layers::Counts;
use crate::spans::{self, Tracer};
use crate::stats;

/// Workload name.
pub const NAME: &str = "paper-sweep";
/// Scheduler seed `vrecon sweep` uses by default.
const SCHED_SEED: u64 = 7;

/// Builds the sweep plan from the workload seed (the trace seed),
/// wrapping each trace generator call in a `workload.gen` span.
fn plan(seed: u64, tracer: &mut Tracer) -> SweepPlan {
    let mut plan = SweepPlan::new();
    let groups = [
        (true, ClusterParams::cluster1()),
        (false, ClusterParams::cluster2()),
    ];
    for (spec, cluster) in groups {
        for level in TraceLevel::ALL {
            let group = plan.len() as u64;
            let trace = tracer.span("workload.gen", group, |_| {
                let mut rng = SimRng::seed_from(seed);
                if spec {
                    spec_trace_scaled(level, &mut rng, SPEC_LIFETIME_SCALE)
                } else {
                    app_trace_scaled(level, &mut rng, APP_LIFETIME_SCALE)
                }
            });
            let trace = Arc::new(trace);
            for policy in [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration] {
                plan.push(Scenario::new(
                    SimConfig::new(cluster.clone(), policy).with_seed(SCHED_SEED),
                    Arc::clone(&trace),
                ));
            }
        }
    }
    plan
}

/// One scenario's output: its cache key and report.
struct Answer {
    hash: String,
    report: RunReport,
}

/// An untraced pass: the sweep through `Runner` with one worker and a
/// fresh cache directory, exactly as the CLI runs it.
fn pass_runner(plan: &SweepPlan, dir: &Path) -> (f64, Vec<f64>, Vec<Result<Answer, String>>) {
    let runner = Runner::new(SweepOptions {
        jobs: 1,
        cache: ResultCache::at(dir),
        progress: false,
    });
    let started = Mark::now();
    let outcome = runner.run(plan);
    let wall = started.elapsed_s();
    let walls = outcome
        .results
        .iter()
        .map(|slot| slot.as_ref().map_or(0.0, |r| r.wall.as_secs_f64()))
        .collect();
    let answers = outcome
        .results
        .into_iter()
        .enumerate()
        .map(|(i, slot)| match slot {
            Some(r) if r.cache_hit => Err(format!("scenario {i}: unexpected cache hit")),
            Some(r) => Ok(Answer {
                hash: r.hash,
                report: r.report,
            }),
            None => Err(format!("scenario {i} panicked")),
        })
        .collect();
    (wall, walls, answers)
}

/// A traced pass: the runner's per-scenario steps (hash, lookup, run,
/// store) called one by one inside spans. The encoding inside
/// `ResultCache::store` is split off at the store's pause point, so
/// `report.encode` covers `encode_report` plus the temp-file write.
fn pass_traced(
    plan: &SweepPlan,
    dir: &Path,
    tracer: &mut Tracer,
) -> (f64, Vec<Result<Answer, String>>) {
    let cache = ResultCache::at(dir);
    let started = Mark::now();
    let answers = plan
        .scenarios
        .iter()
        .enumerate()
        .map(|(i, scenario)| {
            let group = i as u64;
            tracer.span("bench.scenario", group, |t| {
                let hash = t.span("runner.hash", group, |_| scenario.content_hash());
                if t.span("runner.lookup", group, |_| cache.lookup(&hash))
                    .is_some()
                {
                    return Err(format!("scenario {i}: unexpected cache hit"));
                }
                let report = t.span("sim.run", group, |_| scenario.run());
                bench::traced_store(t, &cache, &hash, &report, group)?;
                Ok(Answer { hash, report })
            })
        })
        .collect();
    (started.elapsed_s(), answers)
}

/// Checks one pass's answers: every report correct, and on the default
/// seed every stored cache entry byte-equal (by digest) to the recorded
/// one. Returns the completed-job count and the stored bytes.
fn check_pass(
    ctx: &mut Ctx,
    dir: &Path,
    answers: &[Result<Answer, String>],
    out: &mut Outcome,
) -> (u64, u64) {
    let mut jobs = 0;
    let mut bytes = 0;
    for (i, answer) in answers.iter().enumerate() {
        let result = answer.as_ref().map_err(Clone::clone).and_then(|a| {
            check_report(&a.report)?;
            let stored = std::fs::read(dir.join(format!("{}.json", a.hash)))
                .map_err(|e| format!("scenario {i}: cache entry unreadable: {e}"))?;
            bytes += stored.len() as u64;
            ctx.digests.check(NAME, &format!("s{i:02}"), &stored)?;
            jobs += (a.report.summary.jobs - a.report.unfinished_jobs) as u64;
            Ok(())
        });
        out.op(result);
    }
    (jobs, bytes)
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let origin = Mark::now();
    let mut gen_ms = Vec::new();
    let mut setup_times = Vec::new();
    let (seed, traced) = (ctx.seed, ctx.traced);
    let mut setup = |_: usize| -> Result<SweepPlan, String> {
        let mut tracer = if traced {
            Tracer::on_at(origin)
        } else {
            Tracer::off()
        };
        let plan = plan(seed, &mut tracer);
        gen_ms.push(bench::ms(&spans::total_ms(tracer.spans()), "workload.gen"));
        Ok(plan)
    };
    let plan = bench::measure_setup(&mut setup_times, &mut setup)?;
    let trace_jobs: usize = plan
        .scenarios
        .iter()
        .step_by(2)
        .map(|s| s.trace.len())
        .sum();

    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut scenario_walls = Vec::new();
    let mut jobs = 0;
    let mut layer_runs: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut counts: Option<Counts> = None;
    let mut store_bytes = 0;
    // An untimed warm-up pass, checked like the rest: a process's first
    // pass runs cold, and with three or four passes per run it would move
    // the per-scenario medians.
    let dir = ctx.work.join("warm-up");
    let (_, _, answers) = pass_runner(&plan, &dir);
    check_pass(ctx, &dir, &answers, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    // Each `Runner` pass spawns a fresh worker thread, and the allocator
    // arenas those threads leave behind make a later high-water mark vary
    // by tens of percent between runs; read it after one pass.
    out.e2e.insert("peak_rss_mb", bench::peak_rss_mb());
    let mut probe = HostProbe::new();
    let min_passes = if traced { 2 } else { 1 };
    let passes = bench::run_budget(ctx.seconds, min_passes, &mut probe, |i| {
        let dir = ctx.work.join(format!("pass-{i}"));
        let tracing = traced && i % 2 == 1;
        let mut tracer = if tracing {
            Tracer::on_at(origin)
        } else {
            Tracer::off()
        };
        let (wall, walls, answers) = if tracing {
            let (wall, answers) = pass_traced(&plan, &dir, &mut tracer);
            (wall, Vec::new(), answers)
        } else {
            pass_runner(&plan, &dir)
        };
        let (pass_jobs, bytes) = check_pass(ctx, &dir, &answers, &mut out);
        store_bytes = bytes;
        let mut pass_counts = Counts::default();
        for answer in answers.iter().flatten() {
            pass_counts.add(&Counts::of(&answer.report));
        }
        counts.get_or_insert(pass_counts);
        if tracing {
            traced_s.push(wall);
            let own = spans::self_ms(tracer.spans());
            let mut layers = BTreeMap::new();
            for name in [
                "runner.hash",
                "runner.lookup",
                "runner.store",
                "report.encode",
                "sim.run",
            ] {
                layers.insert(name, bench::ms(&own, name));
            }
            layers.insert(
                "bench.covered",
                100.0 * bench::layered_ms(&own) / (wall * 1e3),
            );
            layer_runs.push(layers);
            out.absorb_spans(tracer.spans());
        } else {
            untraced_s.push(wall);
            scenario_walls.push(walls);
            out.e2e
                .entry("peak_rss_mb")
                .or_insert_with(bench::peak_rss_mb);
            jobs = pass_jobs;
        }
        let _ = std::fs::remove_dir_all(&dir);
        bench::measure_setup(&mut setup_times, &mut setup)?;
        Ok(wall)
    })?;

    out.probe_ms = probe.median_ms();
    out.e2e.insert("setup_s", stats::median(&setup_times));
    out.e2e.insert(
        "jobs_per_s",
        jobs as f64 / bench::sum_of_medians(&scenario_walls),
    );
    out.notes.push(format!(
        "{passes} passes of {} scenarios ({jobs} jobs); jobs_per_s divides by the sum of each \
         scenario's median Runner time over {} untraced passes; pass seconds {untraced_s:.3?}",
        plan.len(),
        untraced_s.len()
    ));
    if traced {
        let med =
            |name: &str| stats::median(&layer_runs.iter().map(|l| l[name]).collect::<Vec<_>>());
        let l = &mut out.layers;
        l.insert("workload.gen_ms", stats::median(&gen_ms));
        l.insert("workload.jobs", trace_jobs as f64);
        l.insert("runner.hash_ms", med("runner.hash"));
        l.insert("runner.lookup_ms", med("runner.lookup"));
        l.insert("runner.store_ms", med("runner.store"));
        l.insert("runner.store_bytes", store_bytes as f64);
        l.insert("report.encode_ms", med("report.encode"));
        l.insert("report.bytes", store_bytes as f64);
        if let Some(c) = counts {
            c.fill(med("sim.run"), l);
        }
        l.insert("bench.span_coverage_pct", med("bench.covered"));
        l.insert(
            "bench.trace_overhead_pct",
            bench::overhead_pct(&traced_s, &untraced_s),
        );
    }
    Ok(out)
}
