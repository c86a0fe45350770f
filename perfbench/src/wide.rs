//! `wide-1k`: three 1,024-node, 5,000-job `ScaleSpec` traces under
//! V-Reconfiguration with commit-aware placement; a pass is one
//! `Simulation::run` of one trace, the traces in turn.
//!
//! Each run has about 38k engine events, 5.4M node samples (1,024 nodes
//! × ~5,300 simulated seconds) and no blocking: the O(nodes)-per-tick
//! gauge sweep is nearly all of the time — the reverse of `paper-sweep`.
//! A run takes about a second, so a timed phase holds about ten of each
//! trace and a contention burst of a few seconds touches only some of
//! them; a 4,096-node run takes 5–7 s, too few fit in a timed phase for a
//! median to drop the burst.

use std::collections::BTreeMap;

use vr_simcore::rng::SimRng;
use vr_workload::{ScaleSpec, Trace};
use vrecon::config::PlacementMode;
use vrecon::{encode_report, PolicyKind, RunReport, SimConfig, Simulation};

use crate::bench::{self, Ctx, Outcome};
use crate::check::check_report;
use crate::clock::Mark;
use crate::host::HostProbe;
use crate::layers::Counts;
use crate::spans::{self, Tracer};
use crate::stats;

/// Workload name.
pub const NAME: &str = "wide-1k";
/// Cluster size.
const NODES: usize = 1024;
/// Submitted jobs per trace.
const JOBS: usize = 5_000;
/// Traces per run, each from its own stream of the workload seed, so no
/// single trace's length sets `jobs_per_s`.
const TRACES: usize = 3;
/// Scheduler seed, as `scale_bench` uses.
const SCHED_SEED: u64 = 7;

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let origin = Mark::now();
    let mut gen_ms = Vec::new();
    let mut setup_times = Vec::new();
    let (seed, traced) = (ctx.seed, ctx.traced);
    let mut setup = |_: usize| -> Result<(SimConfig, Vec<Trace>), String> {
        let mut tracer = if traced {
            Tracer::on_at(origin)
        } else {
            Tracer::off()
        };
        let spec = ScaleSpec::new(NODES, JOBS);
        let root = SimRng::seed_from(seed);
        let traces: Vec<Trace> = (0..TRACES)
            .map(|t| {
                tracer.span("workload.gen", t as u64, |_| {
                    spec.trace(&mut root.fork(t as u64))
                })
            })
            .collect();
        gen_ms.push(bench::ms(&spans::total_ms(tracer.spans()), "workload.gen"));
        let config = SimConfig::new(spec.cluster(), PolicyKind::VReconfiguration)
            .with_seed(SCHED_SEED)
            .with_placement(PlacementMode::CommitAware);
        config.validate()?;
        for trace in &traces {
            trace.validate()?;
        }
        Ok((config, traces))
    };
    let (config, traces) = bench::measure_setup(&mut setup_times, &mut setup)?;

    let mut first: Vec<RunReport> = Vec::new();
    let mut untraced_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut trace_walls: Vec<Vec<f64>> = vec![Vec::new(); TRACES];
    let mut layer_runs: Vec<BTreeMap<&'static str, f64>> = Vec::new();
    let mut probe = HostProbe::new();
    // A pass is one run of one trace, the traces in turn; a traced run
    // alternates untraced and traced passes and gives each trace both.
    let min_passes = if traced { 2 * TRACES } else { TRACES };
    let passes = bench::run_budget(ctx.seconds, min_passes, &mut probe, |i| {
        let tracing = traced && i % 2 == 1;
        let t = i % TRACES;
        let mut tracer = if tracing {
            Tracer::on_at(origin)
        } else {
            Tracer::off()
        };
        let started = Mark::now();
        let report = tracer.span("sim.run", i as u64, |_| {
            Simulation::new(config.clone()).run(&traces[t])
        });
        let wall = started.elapsed_s();
        // Every run of a trace must repeat its first byte for byte; the
        // first is checked against the recorded digest.
        let result = check_report(&report).and_then(|()| match first.get(t) {
            Some(f) if *f == report => Ok(()),
            Some(_) => Err(format!(
                "pass {i}: trace {t}'s report differs from its first run"
            )),
            None => ctx
                .digests
                .check(NAME, &format!("run{t}"), encode_report(&report).as_bytes()),
        });
        out.op(result);
        if first.len() == t {
            first.push(report);
        }
        if tracing {
            traced_s.push(wall);
            let own = spans::self_ms(tracer.spans());
            let mut layers = BTreeMap::new();
            layers.insert("sim.run", bench::ms(&own, "sim.run"));
            layers.insert(
                "bench.covered",
                100.0 * bench::layered_ms(&own) / (wall * 1e3),
            );
            layer_runs.push(layers);
            out.absorb_spans(tracer.spans());
        } else {
            untraced_s.push(wall);
            trace_walls[t].push(wall);
            out.e2e
                .entry("peak_rss_mb")
                .or_insert_with(bench::peak_rss_mb);
        }
        bench::measure_setup(&mut setup_times, &mut setup)?;
        Ok(wall)
    })?;

    let mut counts = Counts::default();
    for report in &first {
        counts.add(&Counts::of(report));
    }
    out.probe_ms = probe.median_ms();
    out.e2e.insert("setup_s", stats::median(&setup_times));
    let medians: f64 = trace_walls.iter().map(|w| stats::median(w)).sum();
    out.e2e.insert("jobs_per_s", counts.jobs as f64 / medians);
    out.notes.push(format!(
        "{passes} passes, each one run of one of {TRACES} traces on {NODES} nodes x {JOBS} jobs; \
         jobs_per_s divides by the sum of each trace's median run over {} untraced passes; \
         pass seconds {untraced_s:.3?}",
        untraced_s.len()
    ));
    if traced {
        let med =
            |name: &str| stats::median(&layer_runs.iter().map(|l| l[name]).collect::<Vec<_>>());
        let l = &mut out.layers;
        l.insert("workload.gen_ms", stats::median(&gen_ms));
        l.insert(
            "workload.jobs",
            traces.iter().map(Trace::len).sum::<usize>() as f64,
        );
        // The counts are for all traces; so is the time: the median
        // traced run, once per trace.
        counts.fill(TRACES as f64 * med("sim.run"), l);
        l.insert("bench.span_coverage_pct", med("bench.covered"));
        l.insert(
            "bench.trace_overhead_pct",
            bench::overhead_pct(&traced_s, &untraced_s),
        );
    }
    Ok(out)
}
