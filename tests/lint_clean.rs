//! Tier-1 self-check: the workspace must pass its own analyzer.
//!
//! This is the enforcement point for the determinism contract — a plain
//! `cargo test -q` fails if anyone reintroduces a `HashMap` in a
//! simulation crate, a wall-clock or environment read outside the
//! orchestration layer, an unannotated panic site, a wall-clock or RNG
//! taint leak, an undocumented panic path, or a lock-discipline violation
//! in the pool/serve layer. The rule set and scoping live in
//! `crates/lint`; see ARCHITECTURE.md "Static analysis".

use std::path::Path;

use vr_lint::analyze_workspace;

#[test]
fn workspace_passes_vr_lint() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = analyze_workspace(root).expect("workspace walk succeeds");
    assert!(
        report.files_scanned > 100,
        "suspiciously few files scanned ({}); did the walker miss the crates?",
        report.files_scanned
    );
    assert!(
        report.fns_indexed > 500,
        "suspiciously small call-graph index ({} fns)",
        report.fns_indexed
    );
    assert_eq!(
        report.stale_allows, 0,
        "stale directives must be deleted, not accumulated"
    );
    assert!(
        report.is_clean(),
        "the analyzer found {} diagnostic(s):\n{}",
        report.diagnostics.len(),
        report.render_text()
    );
}
