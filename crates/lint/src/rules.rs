//! The rule table and its per-crate scoping.
//!
//! Each rule targets a hazard this codebase has actually had (or is one
//! refactor away from having). The scoping tables below are the project's
//! determinism contract in machine-checkable form: the simulation crates
//! must be bit-reproducible from `(plan, seed)`, so anything that injects
//! host state — hash iteration order, wall clocks, environment variables —
//! is banned there and only allowed in the orchestration layer.
//!
//! [`RULES`] names every rule that can appear in a diagnostic. The token
//! rules are implemented here; the semantic rules live in
//! [`crate::analyze`], which also runs the token stage.

use crate::lexer::{Tok, TokKind};

/// Crates whose output must be a pure function of `(plan, seed)`. The
/// cross-`--jobs` byte-equality tests and the golden figures rest on this.
pub const DETERMINISTIC_CRATES: &[&str] = &[
    "analysis", "check", "cluster", "core", "faults", "metrics", "simcore", "trace", "workload",
];

/// Crates allowed to read wall clocks (orchestration / reporting layer),
/// shared by the `wall-clock` token rule and the `wall-clock-taint` pass.
/// There is deliberately no per-file allowlist: a crate outside this set
/// that must read the clock declares an in-source
/// `vr-analyze::boundary(wall-clock, ...)` directive, and every
/// token-level finding in that file carries its own reasoned allow — the
/// boundary is a checked property, not a filename.
pub const WALL_CLOCK_ALLOWED: &[&str] = &["bench", "cli", "lint", "runner"];

/// Crates allowed to read the process environment (config / CLI layer).
const ENV_ALLOWED: &[&str] = &["bench", "cli", "lint", "runner"];

/// Memory-accounting modules where a narrowing `as` cast can silently
/// truncate a byte count; everything there is `u64`/`f64`.
pub const MEMORY_ACCOUNTING_MODULES: &[&str] = &[
    "crates/cluster/src/memory.rs",
    "crates/cluster/src/netram.rs",
    "crates/cluster/src/units.rs",
];

/// What kind of file a path is, for rule exemptions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Ordinary library code — every rule applies.
    Lib,
    /// A binary entry point (`main.rs`, `src/bin/*`, `build.rs`).
    Bin,
    /// Integration tests and benches (`tests/`, `benches/`).
    Test,
    /// `examples/`.
    Example,
}

/// Where a file sits in the workspace, for rule scoping.
#[derive(Debug, Clone)]
pub struct FileContext {
    /// Crate directory name under `crates/` (`core`, `simcore`, ...) or
    /// `repro` for the umbrella crate's own `src/`, `tests/`, `examples/`.
    pub krate: String,
    pub role: Role,
}

/// A rule's finding sink: `(line, col, message)`.
pub type Emit<'a> = &'a mut dyn FnMut(u32, u32, String);

/// One rule: a name for diagnostics and allow directives, a summary for
/// `--help`, the docs and SARIF, and how it is checked.
pub struct Rule {
    /// Kebab-case name.
    pub name: &'static str,
    /// One-line description.
    pub summary: &'static str,
    pub check: Check,
}

/// How a rule is checked.
pub enum Check {
    /// A scan of one file's tokens.
    Token(TokenRule),
    /// A whole-workspace rule over the call graph or the lock model,
    /// implemented in [`crate::analyze`].
    Semantic,
    /// A finding about a directive itself; it cannot be allowed.
    Meta,
}

/// A token rule's scoping and scanner.
pub struct TokenRule {
    /// Skip findings in test code (`tests/`, `benches/`, `#[cfg(test)]`).
    pub skip_test_code: bool,
    /// Skip findings in binary entry points and examples.
    pub skip_bin_code: bool,
    /// Whether the rule is active for a file (crate + path scoping).
    pub applies: fn(krate: &str, rel_path: &str) -> bool,
    /// Scans the token stream, emitting `(line, col, message)` findings.
    pub run: fn(&[Tok], Emit<'_>),
}

impl Rule {
    /// `true` for a token rule that exempts `#[cfg(test)]` code, where an
    /// allow directive for it is dead weight.
    pub fn skips_test_code(&self) -> bool {
        matches!(&self.check, Check::Token(t) if t.skip_test_code)
    }
}

/// Every rule that can appear in a diagnostic: the seven token rules, the
/// eight semantic rules, then the three meta rules.
pub const RULES: &[Rule] = &[
    Rule {
        name: "env-read",
        summary: "process environment reads outside the config/CLI layer",
        check: Check::Token(TokenRule {
            skip_test_code: false,
            skip_bin_code: false,
            applies: |krate, _| !ENV_ALLOWED.contains(&krate),
            run: run_env_read,
        }),
    },
    Rule {
        name: "float-eq",
        summary: "== / != against a float literal",
        check: Check::Token(TokenRule {
            skip_test_code: true,
            skip_bin_code: false,
            applies: |_, _| true,
            run: run_float_eq,
        }),
    },
    Rule {
        name: "narrowing-as-cast",
        summary: "narrowing integer `as` cast in memory-accounting modules",
        check: Check::Token(TokenRule {
            skip_test_code: true,
            skip_bin_code: false,
            applies: |_, rel| MEMORY_ACCOUNTING_MODULES.contains(&rel),
            run: run_narrowing_as_cast,
        }),
    },
    Rule {
        name: "nondeterministic-collection",
        summary: "HashMap/HashSet in the deterministic simulation crates",
        check: Check::Token(TokenRule {
            skip_test_code: false,
            skip_bin_code: false,
            applies: |krate, _| DETERMINISTIC_CRATES.contains(&krate),
            run: run_nondeterministic_collection,
        }),
    },
    Rule {
        name: "panic-in-lib",
        summary: "unwrap/expect/panic!/todo! in library code",
        check: Check::Token(TokenRule {
            skip_test_code: true,
            skip_bin_code: true,
            applies: |_, _| true,
            run: run_panic_in_lib,
        }),
    },
    Rule {
        name: "unsafe-block",
        summary: "`unsafe` in the deterministic simulation crates",
        check: Check::Token(TokenRule {
            skip_test_code: false,
            skip_bin_code: false,
            applies: |krate, _| DETERMINISTIC_CRATES.contains(&krate),
            run: run_unsafe_block,
        }),
    },
    Rule {
        name: "wall-clock",
        summary: "Instant/SystemTime outside the orchestration layer",
        check: Check::Token(TokenRule {
            skip_test_code: false,
            skip_bin_code: false,
            applies: |krate, _| !WALL_CLOCK_ALLOWED.contains(&krate),
            run: run_wall_clock,
        }),
    },
    Rule {
        name: "blocking-while-locked",
        summary: "mutex guard held across a blocking operation",
        check: Check::Semantic,
    },
    Rule {
        name: "guard-across-callback",
        summary: "mutex guard held across a user-supplied hook",
        check: Check::Semantic,
    },
    Rule {
        name: "lock-cycle",
        summary: "lock acquisition order admits a deadlock cycle",
        check: Check::Semantic,
    },
    Rule {
        name: "naked-notify",
        summary: "Condvar notified by a thread that never held the paired mutex",
        check: Check::Semantic,
    },
    Rule {
        name: "panic-path",
        summary: "public API reaches a documented panic without a `# Panics` contract",
        check: Check::Semantic,
    },
    Rule {
        name: "rng-stream-discipline",
        summary: "SimRng stream minted outside a declared authority file",
        check: Check::Semantic,
    },
    Rule {
        name: "wall-clock-leak",
        summary: "wall-clock boundary leaks a raw Instant/SystemTime in a public signature",
        check: Check::Semantic,
    },
    Rule {
        name: "wall-clock-taint",
        summary: "function transitively reads the wall clock outside the declared boundary",
        check: Check::Semantic,
    },
    Rule {
        name: "malformed-directive",
        summary: "unparseable directive",
        check: Check::Meta,
    },
    Rule {
        name: "stale-allow",
        summary: "allow directive that suppressed nothing",
        check: Check::Meta,
    },
    Rule {
        name: "stale-directive",
        summary: "scoped directive that affected nothing",
        check: Check::Meta,
    },
];

/// Looks a rule up by name.
pub fn rule_named(name: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.name == name)
}

fn run_nondeterministic_collection(tokens: &[Tok], emit: Emit<'_>) {
    for t in tokens {
        if t.kind == TokKind::Ident && (t.text == "HashMap" || t.text == "HashSet") {
            emit(
                t.line,
                t.col,
                format!(
                    "`{}` iteration order is nondeterministic; use \
                     `BTreeMap`/`BTreeSet` or an index-keyed `Vec` in \
                     deterministic simulation crates",
                    t.text
                ),
            );
        }
    }
}

fn run_wall_clock(tokens: &[Tok], emit: Emit<'_>) {
    for t in tokens {
        if t.kind == TokKind::Ident && (t.text == "Instant" || t.text == "SystemTime") {
            emit(
                t.line,
                t.col,
                format!(
                    "`{}` reads the host clock; simulation code must use \
                     `SimTime` so runs are a pure function of (plan, seed)",
                    t.text
                ),
            );
        }
    }
}

fn run_env_read(tokens: &[Tok], emit: Emit<'_>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        // Only runtime reads are hazards: `std::env::...` or `env::var(...)`
        // through a re-export. The `env!`/`option_env!` macros resolve at
        // compile time (CARGO_MANIFEST_DIR etc.) and cannot vary per run.
        let flagged = t.text == "env" && {
            let after_std = i >= 2 && tokens[i - 2].is_ident("std") && tokens[i - 1].is_punct("::");
            let before_path = tokens.get(i + 1).is_some_and(|n| n.is_punct("::"));
            after_std || before_path
        };
        if flagged {
            emit(
                t.line,
                t.col,
                "environment read outside the config/CLI layer makes runs \
                 depend on host state; plumb the value through `SimConfig` \
                 or CLI options instead"
                    .to_owned(),
            );
        }
    }
}

fn run_panic_in_lib(tokens: &[Tok], emit: Emit<'_>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "unwrap" | "expect" => {
                let is_method_call = i >= 1
                    && tokens[i - 1].is_punct(".")
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
                if is_method_call {
                    emit(
                        t.line,
                        t.col,
                        format!(
                            "`.{}()` panics in library code; return a \
                             `Result`/`Option` or document the invariant \
                             with an allow directive",
                            t.text
                        ),
                    );
                }
            }
            "panic" | "todo" | "unimplemented"
                if tokens.get(i + 1).is_some_and(|n| n.is_punct("!")) =>
            {
                emit(
                    t.line,
                    t.col,
                    format!(
                        "`{}!` aborts the caller; library code should \
                         surface an error value instead",
                        t.text
                    ),
                );
            }
            _ => {}
        }
    }
}

fn run_float_eq(tokens: &[Tok], emit: Emit<'_>) {
    for (i, t) in tokens.iter().enumerate() {
        if t.kind != TokKind::Punct || (t.text != "==" && t.text != "!=") {
            continue;
        }
        let prev_float = i >= 1 && tokens[i - 1].kind == TokKind::Float;
        // Allow one unary minus on the right-hand side: `x == -1.0`.
        let rhs = match tokens.get(i + 1) {
            Some(n) if n.is_punct("-") => tokens.get(i + 2),
            other => other,
        };
        let next_float = rhs.is_some_and(|n| n.kind == TokKind::Float);
        if prev_float || next_float {
            emit(
                t.line,
                t.col,
                format!(
                    "`{}` against a float literal is exact bit equality; \
                     compare with a tolerance, or allow with a reason if \
                     the exact comparison is intentional",
                    t.text
                ),
            );
        }
    }
}

fn run_unsafe_block(tokens: &[Tok], emit: Emit<'_>) {
    for t in tokens {
        if t.is_ident("unsafe") {
            emit(
                t.line,
                t.col,
                "`unsafe` voids the compiler's aliasing and initialization \
                 guarantees the determinism contract leans on; the \
                 simulation crates are `#![forbid(unsafe_code)]` territory"
                    .to_owned(),
            );
        }
    }
}

fn run_narrowing_as_cast(tokens: &[Tok], emit: Emit<'_>) {
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    for (i, t) in tokens.iter().enumerate() {
        if t.is_ident("as") {
            if let Some(target) = tokens.get(i + 1) {
                if target.kind == TokKind::Ident && NARROW.contains(&target.text.as_str()) {
                    emit(
                        t.line,
                        t.col,
                        format!(
                            "`as {}` can silently truncate a byte count in \
                             memory accounting; use `try_from` or widen the \
                             target type",
                            target.text
                        ),
                    );
                }
            }
        }
    }
}

/// Line ranges (1-based, inclusive) of `#[cfg(test)]` items, so rules with
/// `skip_test_code` can exempt in-file test modules. Handles attributes
/// stacked after the cfg and both `;`-terminated and brace-bodied items.
pub fn test_regions(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i < tokens.len() {
        if !is_cfg_test_at(tokens, i) {
            i += 1;
            continue;
        }
        let start_line = tokens[i].line;
        let mut j = i + 7; // past `# [ cfg ( test ) ]`
                           // Skip any further attributes.
        while j < tokens.len() && tokens[j].is_punct("#") {
            let mut depth = 0usize;
            j += 1;
            while j < tokens.len() {
                if tokens[j].is_punct("[") {
                    depth += 1;
                } else if tokens[j].is_punct("]") {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                j += 1;
            }
        }
        // Consume one item: it ends at a `;` at depth zero, or at the close
        // of the first top-level `{ ... }` block.
        let mut end_line = start_line;
        let mut depth = 0i32;
        let mut saw_block = false;
        while j < tokens.len() {
            let t = &tokens[j];
            end_line = t.line;
            if t.kind == TokKind::Punct {
                match t.text.as_str() {
                    "{" | "(" | "[" => {
                        depth += 1;
                        if t.text == "{" {
                            saw_block = true;
                        }
                    }
                    "}" | ")" | "]" => {
                        depth -= 1;
                        if depth == 0 && saw_block && t.text == "}" {
                            j += 1;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        j += 1;
                        break;
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        regions.push((start_line, end_line));
        i = j;
    }
    regions
}

fn is_cfg_test_at(tokens: &[Tok], i: usize) -> bool {
    tokens.len() > i + 6
        && tokens[i].is_punct("#")
        && tokens[i + 1].is_punct("[")
        && tokens[i + 2].is_ident("cfg")
        && tokens[i + 3].is_punct("(")
        && tokens[i + 4].is_ident("test")
        && tokens[i + 5].is_punct(")")
        && tokens[i + 6].is_punct("]")
}

/// `true` if `line` falls inside any of `regions`.
pub fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn regions(src: &str) -> Vec<(u32, u32)> {
        test_regions(&lex(src).tokens)
    }

    #[test]
    fn cfg_test_mod_region() {
        let src = "fn live() {}\n#[cfg(test)]\nmod tests {\n  fn t() {}\n}\nfn after() {}";
        assert_eq!(regions(src), vec![(2, 5)]);
    }

    #[test]
    fn cfg_test_use_statement() {
        let src = "#[cfg(test)]\nuse super::*;\nfn live() {}";
        assert_eq!(regions(src), vec![(1, 2)]);
    }

    #[test]
    fn stacked_attributes() {
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nfn helper() {\n  body();\n}\nfn live() {}";
        assert_eq!(regions(src), vec![(1, 5)]);
    }

    #[test]
    fn nested_braces_inside_test_mod() {
        let src = "#[cfg(test)]\nmod tests {\n  fn t() { if x { y(); } }\n}\nfn live() {}";
        assert_eq!(regions(src), vec![(1, 4)]);
        assert!(in_regions(&regions(src), 3));
        assert!(!in_regions(&regions(src), 5));
    }

    #[test]
    fn semicolon_inside_array_type_does_not_end_item() {
        let src = "#[cfg(test)]\nconst X: [u8; 4] = [0; 4];\nfn live() {}";
        assert_eq!(regions(src), vec![(1, 2)]);
    }

    #[test]
    fn architecture_rule_table_has_a_row_per_rule() {
        let doc = include_str!("../../../ARCHITECTURE.md");
        let row = |name: &str| {
            let start = format!("| `{name}` |");
            doc.lines().find(|l| l.starts_with(&start))
        };
        for rule in RULES.iter().filter(|r| !matches!(r.check, Check::Meta)) {
            assert!(
                row(rule.name).is_some(),
                "ARCHITECTURE.md's rule table has no row for `{}`",
                rule.name
            );
        }
        // The rows scoped to the deterministic crates name all of them.
        for name in ["nondeterministic-collection", "unsafe-block"] {
            let line = row(name).unwrap_or_default();
            for krate in DETERMINISTIC_CRATES {
                assert!(
                    line.contains(&format!("`{krate}`")),
                    "`{name}` row omits `{krate}`"
                );
            }
        }
    }

    #[test]
    fn cfg_not_test_is_ignored() {
        assert!(regions("#[cfg(unix)]\nfn f() {}").is_empty());
        assert!(regions("#[cfg(feature = \"test\")]\nfn f() {}").is_empty());
    }
}
