//! Golden-diagnostic tests: every rule fires on its seeded fixture at the
//! exact `file:line:col`, suppression is line-local, the two regression
//! fixtures pin the shapes of real bugs the analyzer caught in this tree,
//! and the `vr-analyze` binary exits 0/1/2 for clean/findings/error.
//!
//! Each fixture is analyzed as if it sat at a workspace path; the path
//! alone decides the crate and role every rule is scoped by.

use std::path::Path;
use std::process::Command;

use vr_lint::{analyze_sources, RULES};

/// Analyzes `(rel_path, source)` pairs and returns every diagnostic as
/// `file:line:col rule`, in report order.
fn findings(files: &[(&str, &str)]) -> Vec<String> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(r, s)| ((*r).to_owned(), (*s).to_owned()))
        .collect();
    analyze_sources(&owned)
        .diagnostics
        .iter()
        .map(|d| format!("{}:{}:{} {}", d.file, d.line, d.col, d.rule))
        .collect()
}

/// One fixture at `rel_path`, diagnostics as `line:col rule`.
fn positions(rel_path: &str, src: &str) -> Vec<String> {
    findings(&[(rel_path, src)])
        .into_iter()
        .map(|d| {
            let at = d
                .strip_prefix(rel_path)
                .and_then(|rest| rest.strip_prefix(':'))
                .unwrap_or_else(|| panic!("diagnostic outside the analyzed file: {d}"));
            at.to_owned()
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Token rules
// ---------------------------------------------------------------------------

#[test]
fn nondeterministic_collection_fires_with_exact_positions() {
    let got = positions(
        "crates/core/src/nondet_collection.rs",
        include_str!("fixtures/nondet_collection.rs"),
    );
    assert_eq!(
        got,
        [
            "1:23 nondeterministic-collection",
            "4:17 nondeterministic-collection"
        ]
    );
}

#[test]
fn wall_clock_fires_with_exact_positions() {
    // The same raw read also taints `measure` (the semantic rule).
    let got = positions(
        "crates/core/src/wall_clock.rs",
        include_str!("fixtures/wall_clock.rs"),
    );
    assert_eq!(
        got,
        ["1:16 wall-clock", "3:5 wall-clock-taint", "4:17 wall-clock"]
    );
}

#[test]
fn env_read_fires_with_exact_positions() {
    let got = positions(
        "crates/core/src/env_read.rs",
        include_str!("fixtures/env_read.rs"),
    );
    assert_eq!(got, ["2:10 env-read"]);
}

#[test]
fn panic_in_lib_fires_and_exempts_the_test_module() {
    let src = include_str!("fixtures/panic_in_lib.rs");
    let got = positions("crates/core/src/panic_in_lib.rs", src);
    assert_eq!(
        got,
        [
            "2:17 panic-in-lib",
            "6:17 panic-in-lib",
            "10:5 panic-in-lib"
        ]
    );
    // Silent for the test role.
    assert!(positions("crates/core/tests/panic_in_lib.rs", src).is_empty());
}

#[test]
fn float_eq_fires_on_floats_only() {
    let got = positions(
        "crates/core/src/float_eq.rs",
        include_str!("fixtures/float_eq.rs"),
    );
    assert_eq!(got, ["2:7 float-eq", "6:7 float-eq"]);
}

#[test]
fn narrowing_cast_fires_only_in_memory_accounting_paths() {
    let src = include_str!("fixtures/narrowing_cast.rs");
    // Scoped in: the accounting module, narrowing cast only.
    let got = positions("crates/cluster/src/memory.rs", src);
    assert_eq!(got, ["2:25 narrowing-as-cast"]);
    // Scoped out: any other path in the same crate.
    assert!(positions("crates/cluster/src/compaction.rs", src).is_empty());
}

#[test]
fn allow_directives_suppress_locally_and_report_stale_or_malformed() {
    let src = include_str!("fixtures/allows.rs");
    let report = analyze_sources(&[("crates/core/src/allows.rs".to_owned(), src.to_owned())]);
    assert_eq!(report.allows, 2, "two well-formed directives");
    assert_eq!(
        report.stale_allows, 1,
        "the wall-clock allow covers nothing"
    );
    let got = positions("crates/core/src/allows.rs", src);
    assert_eq!(
        got,
        [
            "4:1 stale-allow",
            "7:1 malformed-directive",
            "10:1 malformed-directive",
            // Suppression reaches only the next line: the HashMap alias
            // further down still fires.
            "13:18 nondeterministic-collection",
        ]
    );
}

// ---------------------------------------------------------------------------
// Semantic rules
// ---------------------------------------------------------------------------

#[test]
fn wall_clock_taint_fires_with_exact_positions() {
    let got = positions(
        "crates/serve/src/timing.rs",
        include_str!("fixtures/analyze/wall_clock_taint.rs"),
    );
    assert_eq!(
        got,
        [
            "1:1 wall-clock-taint",
            "2:5 wall-clock",
            "6:5 wall-clock-taint"
        ]
    );
}

#[test]
fn boundary_absorbs_taint_but_reports_leaked_instants() {
    // The boundary file reports its signature leak, and the token rule
    // still wants a reasoned allow on every raw `Instant`.
    let boundary = include_str!("fixtures/analyze/wall_clock_boundary.rs");
    let own = [
        "crates/serve/src/clockfix.rs:6:9 wall-clock",
        "crates/serve/src/clockfix.rs:10:9 wall-clock-leak",
        "crates/serve/src/clockfix.rs:10:26 wall-clock",
        "crates/serve/src/clockfix.rs:11:9 wall-clock",
    ];
    assert_eq!(findings(&[("crates/serve/src/clockfix.rs", boundary)]), own);
    // A clean caller routed through the boundary stays clean.
    let got = findings(&[
        ("crates/serve/src/clockfix.rs", boundary),
        (
            "crates/serve/src/caller.rs",
            "pub fn timed() -> u64 { Stopwatch::start() }\n",
        ),
    ]);
    assert_eq!(got, own);
}

#[test]
fn rng_discipline_fires_with_exact_positions() {
    let got = positions(
        "crates/core/src/streams.rs",
        include_str!("fixtures/analyze/rng_discipline.rs"),
    );
    assert_eq!(got, ["2:5 rng-stream-discipline"]);
}

#[test]
fn panic_path_fires_on_the_undocumented_caller_only() {
    let got = positions(
        "crates/core/src/math.rs",
        include_str!("fixtures/analyze/panic_path.rs"),
    );
    assert_eq!(got, ["11:5 panic-path"]);
}

#[test]
fn blocking_while_locked_fires_with_exact_positions() {
    let got = positions(
        "crates/serve/src/fixture_pool.rs",
        include_str!("fixtures/analyze/blocking_while_locked.rs"),
    );
    assert_eq!(got, ["3:22 blocking-while-locked"]);
}

#[test]
fn lock_cycle_fires_on_both_edges() {
    let got = positions(
        "crates/serve/src/fixture_order.rs",
        include_str!("fixtures/analyze/lock_cycle.rs"),
    );
    assert_eq!(got, ["3:18 lock-cycle", "10:19 lock-cycle"]);
}

#[test]
fn guard_across_callback_fires_with_exact_positions() {
    let got = positions(
        "crates/serve/src/fixture_hook.rs",
        include_str!("fixtures/analyze/guard_across_callback.rs"),
    );
    assert_eq!(got, ["3:11 guard-across-callback"]);
}

#[test]
fn regression_naked_notify_shutdown_shape() {
    // The broken shutdown fires; the scoped-guard fix (the shape now in
    // crates/serve/src/server.rs) is clean.
    let got = positions(
        "crates/serve/src/fixture_shutdown.rs",
        include_str!("fixtures/analyze/regression_naked_notify.rs"),
    );
    assert_eq!(got, ["12:14 naked-notify"]);
}

#[test]
fn regression_stderr_lock_into_blocking_call_shape() {
    // The broken sweep (a fresh stderr guard inside the blocking call's
    // argument list) fires; passing the unlocked handle (the shape now in
    // crates/runner/src/runner.rs) is clean.
    let got = positions(
        "crates/runner/src/fixture_progress.rs",
        include_str!("fixtures/analyze/regression_stderr_lock.rs"),
    );
    assert_eq!(got, ["14:38 blocking-while-locked"]);
}

#[test]
fn stale_and_malformed_directives_fire_with_exact_positions() {
    let got = positions(
        "crates/serve/src/fixture_directives.rs",
        include_str!("fixtures/analyze/directives.rs"),
    );
    assert_eq!(
        got,
        [
            "1:1 stale-allow",
            "4:1 stale-directive",
            "7:1 malformed-directive"
        ]
    );
}

// ---------------------------------------------------------------------------
// Binary exit codes
// ---------------------------------------------------------------------------

/// Runs `vr-analyze` with `args`, returning `(exit code, stdout)`.
fn vr_analyze(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_vr-analyze"))
        .args(args)
        .output()
        .expect("vr-analyze runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

#[test]
fn binary_exits_zero_on_clean_one_on_findings_two_on_error() {
    // A throwaway workspace with one library file.
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("vr-analyze-exit");
    let _ = std::fs::remove_dir_all(&root);
    let src = root.join("crates/serve/src");
    std::fs::create_dir_all(&src).unwrap();
    std::fs::write(root.join("Cargo.toml"), "[workspace]\n").unwrap();
    let lib = src.join("lib.rs");
    let dir = root.to_str().unwrap();

    std::fs::write(&lib, "pub fn fine() -> u64 { 7 }\n").unwrap();
    let (code, stdout) = vr_analyze(&["--root", dir]);
    assert_eq!(code, Some(0), "{stdout}");
    assert!(stdout.contains("0 diagnostic(s)"), "{stdout}");

    // One finding from each stage: a token rule and a semantic rule.
    std::fs::write(
        &lib,
        "pub fn bad(q: &Mutex<u64>, ch: &Receiver<u64>) -> u64 {\n    \
         let g = q.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n    \
         let _ = ch.recv();\n    drop(g);\n    ch.try_recv().unwrap()\n}\n",
    )
    .unwrap();
    let sarif_path = root.join("analyze.sarif");
    let (code, stdout) = vr_analyze(&[
        "--root",
        dir,
        "--format",
        "json",
        "--sarif-out",
        sarif_path.to_str().unwrap(),
    ]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(
        stdout.contains("\"rule\": \"blocking-while-locked\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"rule\": \"panic-in-lib\""), "{stdout}");
    let sarif = std::fs::read_to_string(&sarif_path).unwrap();
    assert!(sarif.contains("\"2.1.0\""), "{sarif}");
    assert!(sarif.contains("\"ruleId\": \"panic-in-lib\""), "{sarif}");

    assert_eq!(
        vr_analyze(&["--root", "/nonexistent/vr-analyze-root"]).0,
        Some(2)
    );
    assert_eq!(vr_analyze(&["--format", "yaml"]).0, Some(2));
    assert_eq!(vr_analyze(&["--workspace"]).0, Some(2), "not an option");

    let (code, help) = vr_analyze(&["--help"]);
    assert_eq!(code, Some(0));
    for rule in RULES {
        assert!(help.contains(rule.name), "--help lists `{}`", rule.name);
    }
    let _ = std::fs::remove_dir_all(&root);
}
