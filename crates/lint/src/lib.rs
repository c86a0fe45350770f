//! `vr-lint` — a dependency-free determinism, panic-safety and
//! concurrency analyzer for the vrecon workspace.
//!
//! The reproduction's headline guarantee is that `(plan, seed)` determines
//! the `RunReport` bit-for-bit. That contract used to rest on convention;
//! this crate makes it machine-checked. A hand-rolled lexer (the container
//! is offline — no `syn`/`quote`; see the `vr_simcore::jsonio` precedent)
//! feeds one pipeline, [`analyze_sources`]: per-file token rules with
//! per-crate scoping and whole-workspace taint and lock rules over a call
//! graph, one `// vr-analyze::allow(rule, reason = "...")` directive
//! grammar with mandatory reasons and stale-directive reporting, and one
//! report with rustc-style `file:line:col` text, JSON and SARIF output.
//!
//! Two entry points run it:
//!
//! * the `vr-analyze` binary (`cargo run -p vr-lint --bin vr-analyze`),
//!   used by CI;
//! * the workspace self-check test (`tests/lint_clean.rs` at the
//!   workspace root), which makes tier-1 `cargo test -q` fail on any new
//!   hazard.
//!
//! See `ARCHITECTURE.md` ("Static analysis") for the rule table.

pub mod analyze;
pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod rules;
pub mod syntax;

use std::path::{Path, PathBuf};

pub use analyze::{analyze_sources, analyze_workspace};
pub use diag::{AnalysisReport, Diagnostic, Format};
pub use rules::{FileContext, Role, RULES};

/// Classifies a workspace-relative path into its crate and role.
pub fn classify(rel_path: &str) -> FileContext {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let krate = if parts.first() == Some(&"crates") && parts.len() > 1 {
        parts[1].to_owned()
    } else {
        "repro".to_owned()
    };
    let file = parts.last().copied().unwrap_or("");
    let role = if parts.contains(&"tests") || parts.contains(&"benches") {
        Role::Test
    } else if parts.contains(&"examples") {
        Role::Example
    } else if file == "main.rs" || file == "build.rs" || parts.contains(&"bin") {
        Role::Bin
    } else {
        Role::Lib
    };
    FileContext { krate, role }
}

/// Directories never descended into. `compat/` holds vendored stand-ins
/// for absent registry crates (not project code); `fixtures/` holds this
/// crate's seeded-violation test inputs.
const SKIP_DIRS: &[&str] = &[
    ".git",
    ".vr-cache",
    "compat",
    "fixtures",
    "golden",
    "results",
    "target",
];

/// Collects every `.rs` file under `root` that the analyzer owns, as
/// `(absolute, workspace-relative)` pairs sorted by relative path.
pub fn workspace_files(root: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            std::fs::read_dir(&dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| format!("path {} outside root: {e}", path.display()))?
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                files.push((path, rel));
            }
        }
    }
    files.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(files)
}

/// The workspace to analyze: `root` when given, else the nearest ancestor
/// of the current directory whose `Cargo.toml` declares `[workspace]`.
pub fn workspace_root(root: Option<&str>) -> Result<PathBuf, String> {
    if let Some(root) = root {
        return Ok(PathBuf::from(root));
    }
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read current directory: {e}"))?;
    cwd.ancestors()
        .find(|dir| {
            std::fs::read_to_string(dir.join("Cargo.toml"))
                .is_ok_and(|text| text.contains("[workspace]"))
        })
        .map(Path::to_path_buf)
        .ok_or_else(|| {
            "no [workspace] Cargo.toml above the current directory; use --root".to_owned()
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(rel_path: &str, src: &str) -> AnalysisReport {
        analyze_sources(&[(rel_path.to_owned(), src.to_owned())])
    }

    fn rules_fired(report: &AnalysisReport) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn suppression_covers_same_and_next_line() {
        let src = "\
// vr-lint::allow(nondeterministic-collection, reason = \"membership only\")
use std::collections::HashMap;
use std::collections::HashSet;
";
        let out = analyze("crates/core/src/x.rs", src);
        // Line 2 suppressed, line 3 not.
        assert_eq!(out.diagnostics.len(), 1);
        assert_eq!(out.diagnostics[0].line, 3);
        assert_eq!(out.allows, 1);
        assert_eq!(out.stale_allows, 0);
    }

    #[test]
    fn trailing_allow_on_same_line() {
        let src = "use std::collections::HashSet; // vr-lint::allow(nondeterministic-collection, reason = \"never iterated\")\n";
        let out = analyze("crates/simcore/src/x.rs", src);
        assert!(out.is_clean(), "{}", out.render_text());
    }

    #[test]
    fn stale_allow_is_reported() {
        let src = "// vr-lint::allow(wall-clock, reason = \"no longer true\")\nfn f() {}\n";
        let out = analyze("crates/core/src/x.rs", src);
        assert_eq!(rules_fired(&out), vec!["stale-allow"]);
        assert_eq!(out.stale_allows, 1);
    }

    #[test]
    fn malformed_and_unknown_rule_directives() {
        let src = "// vr-lint::allow(nope-rule, reason = \"x\")\n// vr-lint::allow(float-eq)\n";
        let out = analyze("crates/core/src/x.rs", src);
        assert_eq!(
            rules_fired(&out),
            vec!["malformed-directive", "malformed-directive"]
        );
    }

    #[test]
    fn crate_scoping_gates_rules() {
        let src = "use std::collections::HashMap;\n";
        assert_eq!(analyze("crates/core/src/x.rs", src).diagnostics.len(), 1);
        // The runner crate is outside the deterministic set; the analysis
        // crate is inside it.
        assert!(analyze("crates/runner/src/x.rs", src).is_clean());
        assert_eq!(
            analyze("crates/analysis/src/x.rs", src).diagnostics.len(),
            1
        );
    }

    #[test]
    fn panic_rule_exempts_tests_and_bins() {
        let src = "fn f() { x.unwrap(); }\n";
        assert_eq!(
            rules_fired(&analyze("crates/core/src/x.rs", src)),
            vec!["panic-in-lib"]
        );
        for path in [
            "crates/core/tests/x.rs",
            "crates/core/src/bin/x.rs",
            "crates/core/examples/x.rs",
        ] {
            assert!(analyze(path, src).is_clean(), "{path}");
        }
        // ... and in-file #[cfg(test)] modules.
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n fn t() { x.unwrap(); }\n}\n";
        assert!(analyze("crates/core/src/x.rs", src).is_clean());
    }

    #[test]
    fn wall_clock_has_no_filename_escape_hatch() {
        let src = "use std::time::Instant;\nfn now() -> Instant { Instant::now() }\n";
        // The serve crate is NOT in the orchestration allow-list, and the
        // clock-injection file gets no pass from its name: every
        // `Instant` there needs its own reasoned allow, and the read
        // taints its fn until the file declares the boundary.
        for path in ["crates/serve/src/server.rs", "crates/serve/src/clock.rs"] {
            assert_eq!(
                rules_fired(&analyze(path, src)),
                vec!["wall-clock", "wall-clock-taint", "wall-clock", "wall-clock"],
                "{path}"
            );
        }
    }

    #[test]
    fn allow_inside_test_region_for_exempt_rule_is_stale_not_leaky() {
        // The directive trails the region's closing brace, so its
        // line + 1 coverage window lands on *live* code. It must not
        // suppress the live finding, and it must be reported stale.
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    fn t() {}
} // vr-lint::allow(panic-in-lib, reason = \"exempt in tests anyway\")
fn hot() -> u32 { x.unwrap() }
";
        let out = analyze("crates/core/src/x.rs", src);
        assert_eq!(out.stale_allows, 1, "{}", out.render_text());
        assert_eq!(rules_fired(&out), vec!["stale-allow", "panic-in-lib"]);
        assert!(out.diagnostics[0].message.contains("#[cfg(test)]"));
        // A directive fully inside the region is stale too, with the
        // region-specific explanation.
        let src = "\
fn live() {}
#[cfg(test)]
mod tests {
    // vr-lint::allow(panic-in-lib, reason = \"tests may unwrap\")
    fn t() -> u32 { y.unwrap() }
}
";
        let out = analyze("crates/core/src/x.rs", src);
        assert_eq!(out.stale_allows, 1);
        assert_eq!(out.diagnostics.len(), 1);
        assert!(out.diagnostics[0].message.contains("already exempt"));
    }

    #[test]
    fn unsafe_block_rule_fires_in_deterministic_crates_only() {
        let src = "fn f(p: *const u32) -> u32 { unsafe { *p } }\n";
        let out = analyze("crates/simcore/src/x.rs", src);
        assert_eq!(rules_fired(&out), vec!["unsafe-block"]);
        // The orchestration layer is outside the rule's scope.
        assert!(analyze("crates/runner/src/x.rs", src).is_clean());
        // The reasoned escape hatch works like every other rule.
        let allowed = "// vr-lint::allow(unsafe-block, reason = \"FFI shim audited in review\")\nfn f(p: *const u32) -> u32 { unsafe { *p } }\n";
        let out = analyze("crates/simcore/src/x.rs", allowed);
        assert!(out.is_clean(), "{}", out.render_text());
    }

    #[test]
    fn classify_paths() {
        let c = classify("crates/core/src/sim.rs");
        assert_eq!(c.krate, "core");
        assert_eq!(c.role, Role::Lib);
        assert_eq!(classify("crates/core/tests/proptests.rs").role, Role::Test);
        assert_eq!(
            classify("crates/bench/src/bin/experiments.rs").role,
            Role::Bin
        );
        assert_eq!(classify("crates/cli/src/main.rs").role, Role::Bin);
        assert_eq!(classify("examples/quickstart.rs").role, Role::Example);
        assert_eq!(classify("src/lib.rs").krate, "repro");
        assert_eq!(classify("tests/determinism.rs").role, Role::Test);
    }
}
