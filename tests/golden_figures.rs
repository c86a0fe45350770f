//! Golden-file regression test for a reduced Figure 1 / Figure 2 dataset.
//!
//! A scaled-down version of the paper's group-1 experiment (cluster 1
//! truncated to 8 workstations, shortened SPEC traces) is replayed under
//! G-Loadsharing and V-Reconfiguration and compared against checked-in CSV
//! snapshots; every policy family's encoded report is pinned by digest, as
//! are G-LS and V-R under thrashing protection, network RAM and injected
//! faults, and the blocking detector's counters by exact value. In debug builds every
//! read of a node's cached memory demand is re-derived from its resident
//! jobs, so this matrix also checks the incremental detector against a
//! full rescan. The runs are deterministic, so drift here means scheduler
//! behaviour changed — if the change is intentional, regenerate with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_figures
//! ```
//!
//! and review the CSV diff like any other code change.

use std::fmt::Write as _;
use std::path::PathBuf;

use vr_workload::trace::spec_trace_scaled;
use vrecon_repro::prelude::*;

const NODES: usize = 8;
const TRACE_SEED: u64 = 42;
const SCHED_SEED: u64 = 7;
/// Shorter lifetimes than the paper's scale so the whole matrix replays in
/// seconds; the blocking dynamics survive the scaling.
const LIFETIME_SCALE: f64 = 0.05;
/// Relative tolerance: runs are bit-deterministic, so this only allows for
/// float formatting round-trips, not behaviour drift.
const REL_TOL: f64 = 1e-9;

const LEVELS: [TraceLevel; 3] = [
    TraceLevel::Light,
    TraceLevel::Normal,
    TraceLevel::HighlyIntensive,
];

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares a freshly rendered digest file with `tests/golden/<name>` line
/// by line, or rewrites the golden file when `UPDATE_GOLDEN` is set.
fn assert_digests_match(name: &str, fresh: &str) {
    let path = golden_path(name);
    // vr-lint::allow(env-read, reason = "UPDATE_GOLDEN is an explicit snapshot-regeneration opt-in; without it the test reads no host state")
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, fresh).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    for (g, f) in golden.lines().zip(fresh.lines()) {
        assert_eq!(g, f, "report digest drifted from {}", path.display());
    }
    assert_eq!(
        golden.lines().count(),
        fresh.lines().count(),
        "{name}: digest row count changed"
    );
}

fn reduced_cluster() -> ClusterParams {
    let mut c = ClusterParams::cluster1();
    c.nodes.truncate(NODES);
    c
}

/// One CSV per figure: fig1 = totals (execution, queuing), fig2 = averages
/// (slowdown, idle memory MB).
fn render_dataset() -> (String, String) {
    let mut fig1 = String::from("trace,policy,t_exe_s,t_que_s\n");
    let mut fig2 = String::from("trace,policy,avg_slowdown,avg_idle_mb\n");
    for level in LEVELS {
        let trace = spec_trace_scaled(level, &mut SimRng::seed_from(TRACE_SEED), LIFETIME_SCALE);
        for policy in [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration] {
            let config = SimConfig::new(reduced_cluster(), policy).with_seed(SCHED_SEED);
            let report = Simulation::new(config).run(&trace);
            assert!(
                report.all_completed(),
                "{} under {policy} left jobs unfinished",
                trace.name
            );
            writeln!(
                fig1,
                "{},{policy},{:.6},{:.6}",
                trace.name,
                report.total_execution_secs(),
                report.total_queue_secs()
            )
            .unwrap();
            writeln!(
                fig2,
                "{},{policy},{:.6},{:.6}",
                trace.name,
                report.avg_slowdown(),
                report.avg_idle_memory_mb()
            )
            .unwrap();
        }
    }
    (fig1, fig2)
}

/// Compares CSVs cell by cell: text columns exactly, numeric columns within
/// `REL_TOL` relative error.
fn assert_csv_close(name: &str, golden: &str, fresh: &str) {
    let g_lines: Vec<&str> = golden.trim_end().lines().collect();
    let f_lines: Vec<&str> = fresh.trim_end().lines().collect();
    assert_eq!(
        g_lines.len(),
        f_lines.len(),
        "{name}: row count changed ({} -> {})",
        g_lines.len(),
        f_lines.len()
    );
    for (row, (g, f)) in g_lines.iter().zip(&f_lines).enumerate() {
        let g_cells: Vec<&str> = g.split(',').collect();
        let f_cells: Vec<&str> = f.split(',').collect();
        assert_eq!(
            g_cells.len(),
            f_cells.len(),
            "{name} row {row}: column count changed"
        );
        for (col, (gc, fc)) in g_cells.iter().zip(&f_cells).enumerate() {
            match (gc.parse::<f64>(), fc.parse::<f64>()) {
                (Ok(gv), Ok(fv)) => {
                    let scale = gv.abs().max(1.0);
                    assert!(
                        (gv - fv).abs() <= REL_TOL * scale,
                        "{name} row {row} col {col}: {gv} -> {fv} (drift {:.3e})",
                        (gv - fv).abs() / scale
                    );
                }
                _ => assert_eq!(gc, fc, "{name} row {row} col {col}"),
            }
        }
    }
}

#[test]
fn reduced_fig1_fig2_match_golden_snapshots() {
    let (fig1, fig2) = render_dataset();
    // vr-lint::allow(env-read, reason = "UPDATE_GOLDEN is an explicit snapshot-regeneration opt-in; without it the test reads no host state")
    let update = std::env::var_os("UPDATE_GOLDEN").is_some();
    for (name, fresh) in [("fig1_reduced.csv", &fig1), ("fig2_reduced.csv", &fig2)] {
        let path = golden_path(name);
        if update {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, fresh).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden file {} ({e}); run with UPDATE_GOLDEN=1 to create it",
                path.display()
            )
        });
        assert_csv_close(name, &golden, fresh);
    }
    if update {
        eprintln!("golden files rewritten; review the diff before committing");
    }
}

/// Every policy family, resolved **through the registry** (name round-trip
/// plus a rendered-and-reparsed parameter bag), reproduces the encoded
/// `RunReport` whose fnv1a-128 digest is recorded in
/// `tests/golden/policy_digests.txt`. The CSV snapshots above pin only G-LS
/// and V-R; this pins the report bytes of every kind in `PolicyKind::ALL`.
/// All nine families run the Light golden trace — the heavier traces take
/// minutes per non-sharing family in debug builds.
#[test]
fn registry_resolution_is_byte_identical_on_golden_scenarios() {
    use vr_simcore::hash::{fnv1a128, hex128};
    use vrecon::plugin::{entry, kind_of, ParamBag};
    use vrecon::report_json::encode_report;

    let trace = spec_trace_scaled(
        TraceLevel::Light,
        &mut SimRng::seed_from(TRACE_SEED),
        LIFETIME_SCALE,
    );
    let mut fresh = String::from(
        "# fnv1a-128 of the encoded report per policy on the reduced Light trace.\n\
         # Regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_figures`.\n",
    );
    for policy in PolicyKind::ALL {
        let name = entry(policy).name;
        let resolved = kind_of(name).unwrap_or_else(|| panic!("{policy} has no registry entry"));
        assert_eq!(resolved, policy, "registry maps `{name}` to {resolved}");
        let bag = ParamBag::parse(&ParamBag::new().render()).unwrap();
        let config = SimConfig::new(reduced_cluster(), resolved)
            .with_policy_params(bag)
            .with_seed(SCHED_SEED);
        let report = encode_report(&Simulation::new(config).run(&trace));
        writeln!(fresh, "{name} {}", hex128(fnv1a128(report.as_bytes()))).unwrap();
    }

    assert_digests_match("policy_digests.txt", &fresh);
}

/// A 128-node `ScaleSpec` cell under V-Reconfiguration with commit-aware
/// placement — the configuration every `scale_bench` cell runs — reproduces
/// the encoded report whose fnv1a-128 digest is recorded in
/// `tests/golden/scale_digests.txt` under the global load exchange. The
/// figure goldens above run 8 nodes; this pins report bytes where the
/// engine's sweep sets, not a whole-cluster walk, decide which nodes each
/// tick visits.
#[test]
fn scale_cell_report_is_byte_identical() {
    use vr_simcore::hash::{fnv1a128, hex128};
    use vr_workload::scale::ScaleSpec;
    use vrecon::config::PlacementMode;
    use vrecon::report_json::encode_report;

    let spec = ScaleSpec::new(128, 600);
    let trace = spec.trace(&mut SimRng::seed_from(TRACE_SEED));
    let mut fresh = String::from(
        "# fnv1a-128 of the encoded report of ScaleSpec::new(128, 600) under\n\
         # V-Reconfiguration with commit-aware placement.\n\
         # Regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_figures`.\n",
    );
    let config = SimConfig::new(spec.cluster(), PolicyKind::VReconfiguration)
        .with_seed(SCHED_SEED)
        .with_placement(PlacementMode::CommitAware);
    let report = Simulation::new(config).run(&trace);
    assert!(
        report.all_completed(),
        "the scale cell left jobs unfinished"
    );
    let bytes = encode_report(&report);
    writeln!(fresh, "global {}", hex128(fnv1a128(bytes.as_bytes()))).unwrap();

    assert_digests_match("scale_digests.txt", &fresh);
}

/// Thrashing protection and network RAM both rewrite a job's stall factor
/// before its progress rate is taken from it. G-LS and V-R on the reduced
/// cluster reproduce the encoded reports whose fnv1a-128 digests are
/// recorded in `tests/golden/rate_digests.txt`, plain and under each
/// protection heuristic, network RAM, and protection plus network RAM.
/// Every variant must also change the report against the plain run, so a
/// rate branch that silently stops running fails here instead of matching
/// a digest it never reaches.
#[test]
fn rate_variant_reports_are_byte_identical_and_each_variant_counts() {
    use vr_cluster::protection::ThrashingProtection;
    use vr_simcore::hash::{fnv1a128, hex128};
    use vrecon::plugin::entry;
    use vrecon::report_json::encode_report;

    // The Light golden trace is the smallest SPEC trace the figures use, and
    // every variant below already pages differently on it.
    let trace = spec_trace_scaled(
        TraceLevel::Light,
        &mut SimRng::seed_from(TRACE_SEED),
        LIFETIME_SCALE,
    );
    let variants = [
        ("plain", ThrashingProtection::Off, false),
        (
            "protect-largest",
            ThrashingProtection::ProtectLargest,
            false,
        ),
        (
            "protect-shortest",
            ThrashingProtection::ProtectShortestRemaining,
            false,
        ),
        ("netram", ThrashingProtection::Off, true),
        (
            "protect-largest+netram",
            ThrashingProtection::ProtectLargest,
            true,
        ),
    ];
    let mut fresh = String::from(
        "# fnv1a-128 of the encoded report per policy and rate variant on the\n\
         # reduced Light trace.\n\
         # Regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_figures`.\n",
    );
    for policy in [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration] {
        let mut plain = None;
        for (variant, protection, netram) in variants {
            let mut config = SimConfig::new(reduced_cluster(), policy).with_seed(SCHED_SEED);
            for node in &mut config.cluster.nodes {
                node.protection = protection;
            }
            if netram {
                config = config.with_network_ram();
            }
            let report = Simulation::new(config).run(&trace);
            assert!(
                report.all_completed(),
                "{policy} {variant}: left jobs unfinished"
            );
            let digest = hex128(fnv1a128(encode_report(&report).as_bytes()));
            match &plain {
                None => plain = Some(digest.clone()),
                Some(base) => assert_ne!(
                    &digest, base,
                    "{policy} {variant}: the report equals the plain run's"
                ),
            }
            writeln!(fresh, "{} {variant} {digest}", entry(policy).name).unwrap();
        }
    }
    assert_digests_match("rate_digests.txt", &fresh);
}

/// Crashes, restarts and retried migrations change a node's future in the
/// middle of a tick sweep. G-LS and V-R on the reduced Light trace
/// reproduce the encoded reports whose fnv1a-128 digests are recorded in
/// `tests/golden/fault_digests.txt`, plain, under each fault kind alone and
/// under all four together. As with the rate variants, a faulted report
/// must differ from the plain run, so a fault that stops firing fails here.
/// The one exception is G-LS under a release stall: G-LS never reserves a
/// node, so the stall must leave its report exactly as it was.
#[test]
fn fault_variant_reports_are_byte_identical_and_each_variant_counts() {
    use vr_faults::FaultPlan;
    use vr_simcore::hash::{fnv1a128, hex128};
    use vrecon::plugin::entry;
    use vrecon::report_json::encode_report;

    let trace = spec_trace_scaled(
        TraceLevel::Light,
        &mut SimRng::seed_from(TRACE_SEED),
        LIFETIME_SCALE,
    );
    let crash =
        FaultPlan::none().with_crash(2, SimTime::from_secs(150), Some(SimSpan::from_secs(60)));
    let stall = SimSpan::from_secs(2);
    let variants = [
        ("crash-restart", crash.clone()),
        (
            "migration-failure",
            FaultPlan::none().with_migration_failures(0.3),
        ),
        ("load-info-loss", FaultPlan::none().with_load_info_loss(0.2)),
        (
            "reservation-stall",
            FaultPlan::none().with_reservation_stall(stall),
        ),
        (
            "all",
            crash
                .with_migration_failures(0.3)
                .with_load_info_loss(0.2)
                .with_reservation_stall(stall),
        ),
    ];
    let mut fresh = String::from(
        "# fnv1a-128 of the encoded report per policy and fault variant on the\n\
         # reduced Light trace.\n\
         # Regenerate with `UPDATE_GOLDEN=1 cargo test --test golden_figures`.\n",
    );
    for policy in [PolicyKind::GLoadSharing, PolicyKind::VReconfiguration] {
        let digest = |plan: Option<&FaultPlan>, variant: &str| {
            let mut config = SimConfig::new(reduced_cluster(), policy).with_seed(SCHED_SEED);
            if let Some(plan) = plan {
                config = config.with_faults(plan.clone());
            }
            let report = Simulation::new(config).run(&trace);
            assert!(
                report.all_completed(),
                "{policy} {variant}: left jobs unfinished"
            );
            hex128(fnv1a128(encode_report(&report).as_bytes()))
        };
        let name = entry(policy).name;
        let plain = digest(None, "plain");
        writeln!(fresh, "{name} plain {plain}").unwrap();
        for (variant, plan) in &variants {
            let faulted = digest(Some(plan), variant);
            if policy == PolicyKind::GLoadSharing && *variant == "reservation-stall" {
                assert_eq!(
                    faulted, plain,
                    "{policy} {variant}: the stall changed the report"
                );
            } else {
                assert_ne!(
                    faulted, plain,
                    "{policy} {variant}: the report equals the plain run's"
                );
            }
            writeln!(fresh, "{name} {variant} {faulted}").unwrap();
        }
    }
    assert_digests_match("fault_digests.txt", &fresh);
}

/// The reduced dataset preserves the paper's headline ordering: summed over
/// the arrival levels, V-R's slowdown beats G-LS, and no single level loses
/// by more than 1% (the heavily scaled-down traces make individual levels
/// near-ties). Keeping this separate from the snapshot test means a
/// regenerated golden file cannot silently bake in a regression of the
/// paper's claim.
#[test]
fn reduced_dataset_preserves_the_vr_advantage() {
    let (_, fig2) = render_dataset();
    let rows: Vec<&str> = fig2.trim_end().lines().skip(1).collect();
    let mut gls_sum = 0.0;
    let mut vr_sum = 0.0;
    for pair in rows.chunks(2) {
        let gls: f64 = pair[0].split(',').nth(2).unwrap().parse().unwrap();
        let vr: f64 = pair[1].split(',').nth(2).unwrap().parse().unwrap();
        assert!(
            vr <= gls * 1.01,
            "V-R slowdown {vr} over 1% worse than G-LS {gls} ({})",
            pair[1]
        );
        gls_sum += gls;
        vr_sum += vr;
    }
    assert!(
        vr_sum <= gls_sum,
        "V-R lost in aggregate: {vr_sum:.2} vs {gls_sum:.2}"
    );
}

/// Golden-counter pin: the exact number of blocking episodes and the exact
/// per-kind scheduler-event counts of the reduced highly-intensive V-R run.
/// `blocking_detections` counts state changes (a node newly entering the
/// blocked state), not scan ticks — the incremental detector's whole point —
/// so any drift back to level-triggered counting changes these numbers.
#[test]
fn golden_scenario_detector_counters_are_pinned() {
    let trace = spec_trace_scaled(
        TraceLevel::HighlyIntensive,
        &mut SimRng::seed_from(TRACE_SEED),
        LIFETIME_SCALE,
    );
    let config =
        SimConfig::new(reduced_cluster(), PolicyKind::VReconfiguration).with_seed(SCHED_SEED);
    let report = Simulation::new(config).run(&trace);
    let count = |kind: SchedulerEventKind| report.events.of_kind(kind).count() as u64;
    assert_eq!(report.counters.blocking_detections, 145);
    assert_eq!(count(SchedulerEventKind::BlockingDetected), 145);
    assert_eq!(count(SchedulerEventKind::Blocked), 32_587);
    assert_eq!(count(SchedulerEventKind::TransitStarted), 32_015);
    assert_eq!(count(SchedulerEventKind::ReservationBegan), 12);
    assert_eq!(count(SchedulerEventKind::SpecialServiceStarted), 31);
    assert_eq!(count(SchedulerEventKind::MigrationStarted), 29);
    // The O(state changes) property itself: a level-triggered detector fires
    // on every 1 s scan tick a node *stays* blocked (which is what the
    // per-tick `Blocked` records above count), so it would report hundreds
    // of times more episodes than the edge-triggered count pinned here.
    assert!(
        report.counters.blocking_detections * 100 < count(SchedulerEventKind::Blocked),
        "blocking detections are no longer O(state changes)"
    );
}
