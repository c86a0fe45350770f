//! The analyzer: one pass over the workspace that lexes each file once
//! and runs every rule in [`RULES`] on it.
//!
//! The **token stage** runs the per-file token rules from
//! [`crate::rules`], each gated by its crate/path scope and the file's
//! role. The **semantic stage** needs three things a token scan cannot
//! express: *which function* a token lives in ([`crate::syntax`]), *who
//! calls whom* across the workspace ([`crate::callgraph`]), and *which
//! locks are held* at a given point (the guard-liveness model in this
//! module). On that base run two rule families:
//!
//! **Taint / reachability** — `wall-clock-taint` (functions transitively
//! reaching `Instant::now`/`SystemTime::now` outside the declared
//! boundary), `wall-clock-leak` (boundary files re-exporting raw
//! instants), `rng-stream-discipline` (`SimRng::seed_from` outside
//! declared authority files), and `panic-path` (public simulation API
//! reaching documented panics without carrying the `# Panics` contract
//! forward).
//!
//! **Concurrency** — over `runner` and `serve` only: `lock-cycle`
//! (lock-order graph with cycle detection), `blocking-while-locked`
//! (guards held across channel/socket/Condvar/simulation-run blocking),
//! `naked-notify` (Condvar notified without the paired mutex ever
//! held), and `guard-across-callback` (guards held across user hooks).
//!
//! Findings of both stages go through one suppression pass. Directives
//! are `//` comments starting with `vr-analyze::` or `vr-lint::` (the two
//! markers spell the same grammar): `allow(rule, reason = "...")` is
//! line-local with a mandatory reason, plus three *scoped* directives
//! that feed the rules themselves — `boundary(wall-clock, reason =
//! "...")` marks a file as the clock injection seam, `rng-authority(reason
//! = "...")` marks a file as allowed to mint RNG streams, and
//! `blocking(reason = "...")` declares the function directly below it
//! blocking (for loops that block without a recognizable token, e.g.
//! iterating a channel Receiver). Unused directives are reported
//! (`stale-allow` / `stale-directive`), so the suppression set can never
//! rot silently.
//!
//! Everything semantic is approximate by design: calls resolve by name
//! union (no trait dispatch, no type inference) and macro bodies are
//! opaque. The limits are documented in `ARCHITECTURE.md`; the rules err
//! toward silence on patterns the model cannot see and toward noise on
//! the ones it can, with the reasoned-allow valve for the latter.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::callgraph::{extract_calls, tainted_from, Call, CallKind, FnIndex, FnInfo};
use crate::diag::{AnalysisReport, Diagnostic};
use crate::lexer::{self, Tok, TokKind};
use crate::rules::{
    in_regions, rule_named, test_regions, Check, FileContext, Role, Rule, DETERMINISTIC_CRATES,
    RULES, WALL_CLOCK_ALLOWED,
};
use crate::syntax::parse_fns;
use crate::{classify, workspace_files};

/// The markers that introduce a directive inside a `//` comment.
const MARKERS: &[&str] = &["vr-analyze::", "vr-lint::"];

/// Crates whose lock/blocking behaviour is analysed. Everything else is
/// still *indexed* (so calls into it classify correctly) but its own
/// guard usage is out of scope.
const CONCURRENCY_CRATES: &[&str] = &["runner", "serve"];

// ---------------------------------------------------------------------------
// Directives
// ---------------------------------------------------------------------------

/// What a well-formed directive asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DirectiveKind {
    /// `allow(rule, reason = "...")` — line-local suppression.
    Allow(String),
    /// `boundary(wall-clock, reason = "...")` — this file absorbs
    /// wall-clock taint.
    Boundary,
    /// `rng-authority(reason = "...")` — this file may mint RNG streams.
    RngAuthority,
    /// `blocking(reason = "...")` — the `fn` directly below blocks.
    Blocking,
}

/// A parsed directive (possibly malformed).
#[derive(Debug)]
struct Directive {
    kind: Option<DirectiveKind>,
    line: u32,
    col: u32,
    /// `Some(why)` when the directive is malformed.
    error: Option<String>,
    used: bool,
}

/// Parses the text after a directive marker.
fn parse_directive(rest: &str) -> Result<DirectiveKind, String> {
    let rest = rest.trim_start();
    let open = rest
        .find('(')
        .ok_or_else(|| "expected `name(...)` after the directive marker".to_owned())?;
    let head = rest[..open].trim();
    let close = rest
        .rfind(')')
        .ok_or_else(|| format!("unclosed `{head}(` directive"))?;
    let body = &rest[open + 1..close];
    match head {
        "allow" => {
            let (rule, rest) = body.split_once(',').ok_or_else(|| {
                "expected `allow(rule, reason = \"...\")` — the reason is mandatory".to_owned()
            })?;
            let rule = rule.trim();
            if !rule_named(rule).is_some_and(|r| !matches!(r.check, Check::Meta)) {
                return Err(format!("unknown rule `{rule}`"));
            }
            parse_reason(rest)?;
            Ok(DirectiveKind::Allow(rule.to_owned()))
        }
        "boundary" => {
            let (what, rest) = body
                .split_once(',')
                .ok_or_else(|| "expected `boundary(wall-clock, reason = \"...\")`".to_owned())?;
            if what.trim() != "wall-clock" {
                return Err(format!(
                    "unknown boundary kind `{}`; only `wall-clock` exists",
                    what.trim()
                ));
            }
            parse_reason(rest)?;
            Ok(DirectiveKind::Boundary)
        }
        "rng-authority" => {
            parse_reason(body)?;
            Ok(DirectiveKind::RngAuthority)
        }
        "blocking" => {
            parse_reason(body)?;
            Ok(DirectiveKind::Blocking)
        }
        other => Err(format!(
            "unknown directive `{other}`; expected allow / boundary / rng-authority / blocking"
        )),
    }
}

/// Parses `reason = "<non-empty>"`.
fn parse_reason(text: &str) -> Result<(), String> {
    let value = text
        .trim()
        .strip_prefix("reason")
        .map(str::trim_start)
        .and_then(|r| r.strip_prefix('='))
        .map(str::trim)
        .ok_or_else(|| "expected `reason = \"...\"`".to_owned())?;
    let reason = value
        .strip_prefix('"')
        .and_then(|v| v.strip_suffix('"'))
        .ok_or_else(|| "reason must be a double-quoted string".to_owned())?;
    if reason.trim().is_empty() {
        return Err("reason must not be empty".to_owned());
    }
    Ok(())
}

/// Extracts this file's directives from its comments. A directive is a
/// plain `//` comment whose trimmed text *starts with* a marker; doc
/// comments (`///`, `//!`) lex with a leading `/` or `!` in their text, so
/// prose that merely mentions the syntax never matches.
fn parse_directives(comments: &[lexer::Comment]) -> Vec<Directive> {
    let mut out = Vec::new();
    for c in comments {
        let trimmed = c.text.trim_start();
        let Some(rest) = MARKERS.iter().find_map(|m| trimmed.strip_prefix(m)) else {
            continue;
        };
        let mut d = Directive {
            kind: None,
            line: c.line,
            col: c.col,
            error: None,
            used: false,
        };
        match parse_directive(rest) {
            Ok(kind) => d.kind = Some(kind),
            Err(why) => d.error = Some(why),
        }
        out.push(d);
    }
    out
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

/// Index of the closer matching the opener at `open` (same bracket
/// family only; the token stream is already free of strings/comments).
/// Returns the last index if unbalanced.
fn matching_close(tokens: &[Tok], open: usize) -> usize {
    let (o, c) = match tokens[open].text.as_str() {
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => ("{", "}"),
    };
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == o {
                depth += 1;
            } else if t.text == c {
                depth -= 1;
                if depth == 0 {
                    return k;
                }
            }
        }
    }
    tokens.len().saturating_sub(1)
}

/// Index of the opener matching the closer at `close`, scanning back.
fn matching_open(tokens: &[Tok], close: usize) -> Option<usize> {
    let (o, c) = match tokens[close].text.as_str() {
        ")" => ("(", ")"),
        "]" => ("[", "]"),
        _ => ("{", "}"),
    };
    let mut depth = 0usize;
    for k in (0..=close).rev() {
        let t = &tokens[k];
        if t.kind == TokKind::Punct {
            if t.text == c {
                depth += 1;
            } else if t.text == o {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
    }
    None
}

/// Recovers the receiver chain ending at token `last` (the token just
/// before the `.method` being inspected), as a dotted identity string
/// plus the chain's first token index. `self.state.queue` → `queue`
/// (leading `self`/`state` holders are stripped so the same mutex named
/// through different paths compares equal); `deques[me]` → `deques[_]`;
/// `std::io::stderr()` → `std.io.stderr`.
fn receiver_chain(tokens: &[Tok], last: usize) -> Option<(String, usize)> {
    let mut parts: Vec<String> = Vec::new();
    let mut start = last;
    let mut j = last as isize;
    while j >= 0 {
        let t = &tokens[j as usize];
        if t.kind == TokKind::Ident {
            parts.push(t.text.clone());
            start = j as usize;
            if j >= 1 {
                let sep = &tokens[(j - 1) as usize];
                if sep.is_punct(".") || sep.is_punct("::") {
                    j -= 2;
                    continue;
                }
            }
            break;
        } else if t.is_punct("]") {
            let open = matching_open(tokens, j as usize)?;
            parts.push("[_]".to_owned());
            start = open;
            j = open as isize - 1;
        } else if t.is_punct(")") {
            // A call in the chain (`stderr()`); identity is the callee.
            let open = matching_open(tokens, j as usize)?;
            start = open;
            j = open as isize - 1;
            if j < 0 || tokens[j as usize].kind != TokKind::Ident {
                break;
            }
        } else {
            break;
        }
    }
    if parts.is_empty() {
        return None;
    }
    parts.reverse();
    let mut kept: &[String] = &parts;
    while kept.len() > 1 && (kept[0] == "self" || kept[0] == "state") {
        kept = &kept[1..];
    }
    let mut chain = String::new();
    for p in kept {
        if p == "[_]" {
            chain.push_str("[_]");
        } else {
            if !chain.is_empty() {
                chain.push('.');
            }
            chain.push_str(p);
        }
    }
    Some((chain, start))
}

// ---------------------------------------------------------------------------
// Per-function concurrency model
// ---------------------------------------------------------------------------

/// A direct `.lock()` site.
#[derive(Debug, Clone)]
struct LockSite {
    /// Receiver identity (`queue`, `deques[_]`, `std.io.stderr`).
    chain: String,
    /// Token index of the `lock` identifier.
    idx: usize,
    line: u32,
    col: u32,
}

/// A guard's live interval, token-index half-open `[start, end)`.
#[derive(Debug, Clone)]
struct GuardSpan {
    /// Binding name for `let` guards; `None` for transients.
    name: Option<String>,
    chain: String,
    start: usize,
    end: usize,
    line: u32,
}

/// A token that blocks the calling thread.
#[derive(Debug, Clone)]
struct BlockTok {
    idx: usize,
    line: u32,
    col: u32,
    /// Human label (`.recv()`, `thread::sleep`, ...).
    what: String,
    /// For `Condvar::wait(guard)`: the chain of the guard it releases.
    releases: Option<String>,
}

/// A resolved call site.
#[derive(Debug, Clone)]
struct SiteCall {
    name: String,
    kind: CallKind,
    idx: usize,
    line: u32,
    col: u32,
    /// Token index of the call's closing `)`.
    arg_end: usize,
    /// Candidate workspace callees (empty ⇒ external leaf).
    callees: Vec<usize>,
}

/// Everything the concurrency rules need to know about one function.
#[derive(Debug, Default)]
struct FnConc {
    locks: Vec<LockSite>,
    guards: Vec<GuardSpan>,
    blocking: Vec<BlockTok>,
    calls: Vec<SiteCall>,
    /// `(cv_chain, guard_name)` at `cv.wait(guard)` sites — used to
    /// infer which mutex a Condvar pairs with.
    wait_pairs: Vec<(String, String)>,
    /// Declared blocking via a `vr-analyze::blocking` directive.
    declared_blocking: bool,
}

/// Method names treated as directly blocking when called with a `.`.
const BLOCKING_METHODS: &[&str] = &[
    "accept",
    "flush",
    "read_exact",
    "read_line",
    "read_to_end",
    "read_to_string",
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "write_all",
];

/// End of a `.lock(...)` expression including any trailing
/// `.unwrap()`/`.expect(...)`/`.unwrap_or_else(...)` adapters.
fn lock_expr_end(tokens: &[Tok], lock_idx: usize) -> usize {
    let mut close = matching_close(tokens, lock_idx + 1);
    loop {
        let adapter = tokens.get(close + 1).is_some_and(|t| t.is_punct("."))
            && tokens.get(close + 2).is_some_and(|t| {
                t.is_ident("unwrap") || t.is_ident("expect") || t.is_ident("unwrap_or_else")
            })
            && tokens.get(close + 3).is_some_and(|t| t.is_punct("("));
        if !adapter {
            return close;
        }
        close = matching_close(tokens, close + 3);
    }
}

/// Where a *transient* (un-bound) guard created at `expr_end` dies.
/// Models Rust 2021 temporary lifetimes: the temporary lives to the end
/// of its statement, and an `if let`/`while let`/`match` scrutinee
/// temporary lives through the consequent block (plus any `else` arm).
fn transient_end(tokens: &[Tok], from: usize, body_end: usize) -> usize {
    let mut paren = 0i32;
    let mut k = from;
    while k < body_end {
        let t = &tokens[k];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" => paren += 1,
                ")" | "]" => {
                    paren -= 1;
                    if paren < 0 {
                        return k;
                    }
                }
                "{" if paren == 0 => {
                    let close = matching_close(tokens, k);
                    if tokens.get(close + 1).is_some_and(|n| n.is_ident("else")) {
                        k = close + 2;
                        continue;
                    }
                    return close + 1;
                }
                "}" if paren == 0 => return k,
                ";" if paren == 0 => return k,
                _ => {}
            }
        }
        k += 1;
    }
    body_end
}

/// Scans one function body into its concurrency model.
fn scan_fn(tokens: &[Tok], body: (usize, usize), calls: Vec<Call>) -> FnConc {
    let (body_start, body_end) = body;
    let mut conc = FnConc::default();

    // Direct lock sites and their guards.
    for i in body_start..body_end {
        let is_lock = tokens[i].is_ident("lock")
            && i >= 1
            && tokens[i - 1].is_punct(".")
            && tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
        if !is_lock {
            continue;
        }
        let Some((chain, chain_start)) = receiver_chain(tokens, i.saturating_sub(2)) else {
            continue;
        };
        conc.locks.push(LockSite {
            chain: chain.clone(),
            idx: i,
            line: tokens[i].line,
            col: tokens[i].col,
        });
        let expr_end = lock_expr_end(tokens, i);
        // `let [mut] NAME = <chain>.lock()...<adapters>;` binds a guard
        // that lives to its block's end (or an explicit `drop(NAME)`).
        let whole_rhs = tokens.get(expr_end + 1).is_some_and(|t| t.is_punct(";"));
        let let_name = if whole_rhs && chain_start >= 3 && tokens[chain_start - 1].is_punct("=") {
            let name_tok = &tokens[chain_start - 2];
            let let_kw = tokens[chain_start - 3].is_ident("let")
                || (tokens[chain_start - 3].is_ident("mut")
                    && chain_start >= 4
                    && tokens[chain_start - 4].is_ident("let"));
            (name_tok.kind == TokKind::Ident && let_kw).then(|| name_tok.text.clone())
        } else {
            None
        };
        match let_name {
            Some(name) => {
                let mut depth = 0i32;
                let mut end = body_end;
                let mut k = expr_end + 1;
                while k < body_end {
                    let t = &tokens[k];
                    if t.is_punct("{") {
                        depth += 1;
                    } else if t.is_punct("}") {
                        depth -= 1;
                        if depth < 0 {
                            end = k;
                            break;
                        }
                    } else if t.is_ident("drop")
                        && tokens.get(k + 1).is_some_and(|n| n.is_punct("("))
                        && tokens.get(k + 2).is_some_and(|n| n.is_ident(&name))
                        && tokens.get(k + 3).is_some_and(|n| n.is_punct(")"))
                    {
                        end = k;
                        break;
                    }
                    k += 1;
                }
                conc.guards.push(GuardSpan {
                    name: Some(name),
                    chain,
                    start: i,
                    end,
                    line: tokens[i].line,
                });
            }
            None => {
                conc.guards.push(GuardSpan {
                    name: None,
                    chain,
                    start: i,
                    end: transient_end(tokens, expr_end + 1, body_end),
                    line: tokens[i].line,
                });
            }
        }
    }

    // Blocking tokens.
    for i in body_start..body_end {
        let t = &tokens[i];
        if t.kind != TokKind::Ident || !tokens.get(i + 1).is_some_and(|n| n.is_punct("(")) {
            continue;
        }
        let after_dot = i >= 1 && tokens[i - 1].is_punct(".");
        let after_path = i >= 1 && tokens[i - 1].is_punct("::");
        let name = t.text.as_str();
        let mut what = None;
        let mut releases = None;
        if after_dot && BLOCKING_METHODS.contains(&name) {
            if name == "wait" || name == "wait_timeout" {
                // `cv.wait(guard)` releases the guard's own mutex; note
                // which one so the holder isn't flagged for it.
                if let Some(arg) = tokens.get(i + 2) {
                    if arg.kind == TokKind::Ident {
                        let arg_name = arg.text.clone();
                        if let Some(g) = conc
                            .guards
                            .iter()
                            .find(|g| g.name.as_deref() == Some(arg_name.as_str()))
                        {
                            releases = Some(g.chain.clone());
                            if let Some((cv, _)) = receiver_chain(tokens, i.saturating_sub(2)) {
                                conc.wait_pairs.push((cv, g.chain.clone()));
                            }
                        }
                    }
                }
                what = Some("Condvar::wait".to_owned());
            } else if name == "join" {
                // Only thread/scope joins take no arguments; `Path::join`
                // and `[str]::join` always do.
                if tokens.get(i + 2).is_some_and(|n| n.is_punct(")")) {
                    what = Some(".join()".to_owned());
                }
            } else {
                what = Some(format!(".{name}()"));
            }
        } else if after_path && name == "sleep" {
            what = Some("thread::sleep".to_owned());
        } else if after_path && name == "connect" && i >= 2 && tokens[i - 2].is_ident("TcpStream") {
            what = Some("TcpStream::connect".to_owned());
        }
        if let Some(what) = what {
            conc.blocking.push(BlockTok {
                idx: i,
                line: t.line,
                col: t.col,
                what,
                releases,
            });
        }
    }

    // Calls, minus Condvar waits (resolving `.wait(guard)` by name union
    // would hit unrelated workspace `wait` methods).
    let carved: BTreeSet<usize> = conc
        .blocking
        .iter()
        .filter(|b| b.releases.is_some())
        .map(|b| b.idx)
        .collect();
    for c in calls {
        if carved.contains(&c.idx) {
            continue;
        }
        // Method calls whose receiver is a guard binding, or whose
        // receiver chain runs through `.lock()`, operate on the *guarded
        // data* — `q.push(..)`, `table.get(..)`, `inner.lock()...len()`.
        // Those are std-collection ops; resolving them by name union
        // would hit unrelated workspace impls and fabricate edges.
        if matches!(c.kind, CallKind::Method) {
            if let Some((chain, _)) = receiver_chain(tokens, c.idx.saturating_sub(2)) {
                let root = chain.split('.').next().unwrap_or("");
                let guard_data = chain.split('.').any(|p| p == "lock")
                    || conc.guards.iter().any(|g| g.name.as_deref() == Some(root));
                if guard_data {
                    continue;
                }
            }
        }
        conc.calls.push(SiteCall {
            name: c.name,
            kind: c.kind,
            idx: c.idx,
            line: c.line,
            col: c.col,
            arg_end: matching_close(tokens, c.idx + 1),
            callees: Vec::new(),
        });
    }
    conc
}

// ---------------------------------------------------------------------------
// The analysis pipeline
// ---------------------------------------------------------------------------

/// Per-file working state.
struct FileData {
    rel: String,
    krate: String,
    role: Role,
    tokens: Vec<Tok>,
    /// Line ranges of `#[cfg(test)]` items.
    regions: Vec<(u32, u32)>,
    directives: Vec<Directive>,
    boundary: bool,
    rng_authority: bool,
}

/// A raw finding before suppression.
struct Finding {
    file: usize,
    line: u32,
    col: u32,
    rule: &'static str,
    message: String,
}

/// Analyzes a set of `(workspace-relative path, source)` pairs. The path
/// decides the crate and role each rule is scoped by (see [`classify`]).
pub fn analyze_sources(sources: &[(String, String)]) -> AnalysisReport {
    let mut files: Vec<FileData> = Vec::new();
    let mut fn_infos: Vec<FnInfo> = Vec::new();
    let mut file_of: Vec<usize> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();

    for (rel, src) in sources {
        let lexed = lexer::lex(src);
        let ctx = classify(rel);
        let regions = test_regions(&lexed.tokens);
        let file_idx = files.len();
        run_token_rules(file_idx, rel, &ctx, &lexed.tokens, &regions, &mut findings);
        let directives = parse_directives(&lexed.comments);
        let boundary = directives
            .iter()
            .any(|d| d.kind == Some(DirectiveKind::Boundary));
        let rng_authority = directives
            .iter()
            .any(|d| d.kind == Some(DirectiveKind::RngAuthority));
        if !matches!(ctx.role, Role::Test | Role::Example) {
            for item in parse_fns(&lexed) {
                if item.in_test_region || !item.has_body() {
                    continue;
                }
                let file_stem = rel
                    .rsplit('/')
                    .next()
                    .and_then(|f| f.strip_suffix(".rs"))
                    .unwrap_or("")
                    .to_owned();
                fn_infos.push(FnInfo {
                    rel_path: rel.clone(),
                    krate: ctx.krate.clone(),
                    item,
                    file_stem,
                });
                file_of.push(file_idx);
            }
        }
        files.push(FileData {
            rel: rel.clone(),
            krate: ctx.krate,
            role: ctx.role,
            tokens: lexed.tokens,
            regions,
            directives,
            boundary,
            rng_authority,
        });
    }

    let index = FnIndex::build(fn_infos);
    let n = index.fns.len();

    // Attach `blocking` directives to the fn directly below them.
    let mut declared_blocking: Vec<bool> = vec![false; n];
    for (fi, file) in files.iter_mut().enumerate() {
        for d in &mut file.directives {
            if d.kind != Some(DirectiveKind::Blocking) {
                continue;
            }
            for (id, info) in index.fns.iter().enumerate() {
                if file_of[id] == fi && (info.item.line == d.line || info.item.line == d.line + 1) {
                    declared_blocking[id] = true;
                    d.used = true;
                }
            }
        }
    }

    // Scan every indexed fn: concurrency model + resolved calls.
    let mut conc: Vec<FnConc> = Vec::with_capacity(n);
    for (id, info) in index.fns.iter().enumerate() {
        let tokens = &files[file_of[id]].tokens;
        let calls = extract_calls(tokens, info.item.body);
        let mut c = scan_fn(tokens, info.item.body, calls);
        c.declared_blocking = declared_blocking[id];
        for call in &mut c.calls {
            let raw = Call {
                kind: call.kind.clone(),
                name: call.name.clone(),
                idx: call.idx,
                line: call.line,
                col: call.col,
            };
            call.callees = index.resolve(&raw, info);
        }
        conc.push(c);
    }

    // Callers map, for the taint rules.
    let mut callers_of: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    // A second map restricted to statically-named calls (`f(..)`,
    // `Type::f(..)`, `self::f(..)`) — no `.method()` edges. Panic-path
    // uses this one: a panic reached through a plain method call is the
    // receiver *type's* documented contract, visible at the call site;
    // pulling it through name-union method edges drowned the rule in
    // std-collection lookalikes (`.get`, `.push`, `.index`).
    let mut static_callers_of: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (id, c) in conc.iter().enumerate() {
        for call in &c.calls {
            for &callee in &call.callees {
                callers_of.entry(callee).or_default().push(id);
                if !matches!(call.kind, CallKind::Method) {
                    static_callers_of.entry(callee).or_default().push(id);
                }
            }
        }
    }

    run_wall_clock_rules(&index, &files, &file_of, &conc, &callers_of, &mut findings);
    run_panic_path(&index, &files, &file_of, &static_callers_of, &mut findings);
    run_rng_discipline(&index, &files, &file_of, &mut findings);
    run_concurrency_rules(&index, &files, &file_of, &conc, &mut findings);

    assemble_report(files, findings, index.fns.len())
}

// ---------------------------------------------------------------------------
// Token rules
// ---------------------------------------------------------------------------

/// The token stage: every [`Check::Token`] rule in scope for one file.
fn run_token_rules(
    file: usize,
    rel: &str,
    ctx: &FileContext,
    tokens: &[Tok],
    regions: &[(u32, u32)],
    findings: &mut Vec<Finding>,
) {
    for rule in RULES {
        let Check::Token(t) = &rule.check else {
            continue;
        };
        let exempt = !(t.applies)(&ctx.krate, rel)
            || (t.skip_test_code && ctx.role == Role::Test)
            || (t.skip_bin_code && matches!(ctx.role, Role::Bin | Role::Example));
        if exempt {
            continue;
        }
        (t.run)(tokens, &mut |line, col, message| {
            if !(t.skip_test_code && in_regions(regions, line)) {
                findings.push(Finding {
                    file,
                    line,
                    col,
                    rule: rule.name,
                    message,
                });
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Taint rules
// ---------------------------------------------------------------------------

/// `Instant::now` / `SystemTime::now` in a body.
fn reads_clock(tokens: &[Tok], body: (usize, usize)) -> bool {
    (body.0..body.1).any(|i| {
        (tokens[i].is_ident("Instant") || tokens[i].is_ident("SystemTime"))
            && tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
            && tokens.get(i + 2).is_some_and(|t| t.is_ident("now"))
    })
}

fn run_wall_clock_rules(
    index: &FnIndex,
    files: &[FileData],
    file_of: &[usize],
    _conc: &[FnConc],
    callers_of: &BTreeMap<usize, Vec<usize>>,
    findings: &mut Vec<Finding>,
) {
    // Sources live only in crates where the `wall-clock` token rule
    // already bans raw clock reads: in `bench`/`cli`/`runner`/`lint`, `Instant::now` is the
    // sanctioned way to measure the host, and seeding taint there made
    // every orchestration entry point glow. The taint rule's job is the
    // *unsanctioned* residue — clock reads inside the simulation tier
    // and the serve layer outside the declared boundary file.
    let sources: Vec<usize> = (0..index.fns.len())
        .filter(|&id| {
            let info = &index.fns[id];
            !WALL_CLOCK_ALLOWED.contains(&info.krate.as_str())
                && reads_clock(&files[file_of[id]].tokens, info.item.body)
        })
        .collect();
    let via = tainted_from(&sources, callers_of, |id| files[file_of[id]].boundary);
    for (&id, &through) in &via {
        let info = &index.fns[id];
        let file = &files[file_of[id]];
        if file.boundary || WALL_CLOCK_ALLOWED.contains(&file.krate.as_str()) {
            continue;
        }
        let message = if through == id {
            format!(
                "`{}` reads the wall clock directly; route timing through the \
                 declared boundary or add `vr-analyze::boundary(wall-clock, ...)` \
                 with a reason",
                info.item.name
            )
        } else {
            format!(
                "`{}` transitively reaches the wall clock via `{}`; route timing \
                 through the declared boundary instead",
                info.item.name, index.fns[through].item.name
            )
        };
        findings.push(Finding {
            file: file_of[id],
            line: info.item.line,
            col: info.item.col,
            rule: "wall-clock-taint",
            message,
        });
    }

    // Boundary files must keep raw instants out of their public surface.
    for (id, info) in index.fns.iter().enumerate() {
        let file = &files[file_of[id]];
        if !file.boundary || !info.item.is_pub {
            continue;
        }
        let (s, e) = info.item.sig;
        let leaks = (s..e)
            .any(|i| file.tokens[i].is_ident("Instant") || file.tokens[i].is_ident("SystemTime"));
        if leaks {
            findings.push(Finding {
                file: file_of[id],
                line: info.item.line,
                col: info.item.col,
                rule: "wall-clock-leak",
                message: format!(
                    "boundary fn `{}` names a raw `Instant`/`SystemTime` in its public \
                     signature; wrap it so callers cannot mint or compare instants",
                    info.item.name
                ),
            });
        }
    }
}

/// Panic-bearing token in a body (the set the `# Panics` convention
/// documents: explicit aborts plus assert!/unwrap/expect).
fn has_panic_token(tokens: &[Tok], body: (usize, usize)) -> bool {
    (body.0..body.1).any(|i| {
        let t = &tokens[i];
        if t.kind != TokKind::Ident {
            return false;
        }
        match t.text.as_str() {
            "panic" | "unreachable" | "todo" | "unimplemented" | "assert" | "assert_eq"
            | "assert_ne" => tokens.get(i + 1).is_some_and(|n| n.is_punct("!")),
            "unwrap" | "expect" => {
                i >= 1
                    && tokens[i - 1].is_punct(".")
                    && tokens.get(i + 1).is_some_and(|n| n.is_punct("("))
            }
            _ => false,
        }
    })
}

fn run_panic_path(
    index: &FnIndex,
    files: &[FileData],
    file_of: &[usize],
    callers_of: &BTreeMap<usize, Vec<usize>>,
    findings: &mut Vec<Finding>,
) {
    // Sources are *declared* panickers: a panic token in the body AND a
    // `# Panics` doc section. Undocumented panics are the `panic-in-lib`
    // token rule's turf, and its allow reasons assert unreachability —
    // treating those as sources would re-litigate every settled allow.
    let source_set: BTreeSet<usize> = (0..index.fns.len())
        .filter(|&id| {
            let info = &index.fns[id];
            info.item.doc_panics
                && DETERMINISTIC_CRATES.contains(&info.krate.as_str())
                && has_panic_token(&files[file_of[id]].tokens, info.item.body)
        })
        .collect();
    let sources: Vec<usize> = source_set.iter().copied().collect();
    // A caller that documents `# Panics` itself carries the contract
    // forward explicitly — taint is absorbed there.
    let via = tainted_from(&sources, callers_of, |id| {
        index.fns[id].item.doc_panics && !source_set.contains(&id)
    });
    for (&id, &through) in &via {
        let info = &index.fns[id];
        if source_set.contains(&id) || info.item.doc_panics || !info.item.is_pub {
            continue;
        }
        if !DETERMINISTIC_CRATES.contains(&info.krate.as_str()) {
            continue;
        }
        if files[file_of[id]].role != Role::Lib {
            continue;
        }
        findings.push(Finding {
            file: file_of[id],
            line: info.item.line,
            col: info.item.col,
            rule: "panic-path",
            message: format!(
                "pub fn `{}` can reach a documented panic via `{}` but has no \
                 `# Panics` section; document the contract or handle the error",
                info.item.name, index.fns[through].item.name
            ),
        });
    }
}

fn run_rng_discipline(
    index: &FnIndex,
    files: &[FileData],
    file_of: &[usize],
    findings: &mut Vec<Finding>,
) {
    for (id, info) in index.fns.iter().enumerate() {
        let file = &files[file_of[id]];
        if file.rng_authority
            || file.role != Role::Lib
            || !DETERMINISTIC_CRATES.contains(&file.krate.as_str())
        {
            continue;
        }
        let (s, e) = info.item.body;
        for i in s..e {
            let seeds = file.tokens[i].is_ident("SimRng")
                && file.tokens.get(i + 1).is_some_and(|t| t.is_punct("::"))
                && file
                    .tokens
                    .get(i + 2)
                    .is_some_and(|t| t.is_ident("seed_from"))
                && file.tokens.get(i + 3).is_some_and(|t| t.is_punct("("));
            if seeds {
                let t = &file.tokens[i];
                findings.push(Finding {
                    file: file_of[id],
                    line: t.line,
                    col: t.col,
                    rule: "rng-stream-discipline",
                    message: format!(
                        "`SimRng::seed_from` in `{}` mints a fresh RNG stream; seed only \
                         in files declaring `vr-analyze::rng-authority` so streams cannot \
                         silently fork (fork an existing stream instead)",
                        info.item.name
                    ),
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Concurrency rules
// ---------------------------------------------------------------------------

/// Crate-qualified lock identity.
fn lock_id(krate: &str, chain: &str) -> String {
    format!("{krate}/{chain}")
}

fn run_concurrency_rules(
    index: &FnIndex,
    files: &[FileData],
    file_of: &[usize],
    conc: &[FnConc],
    findings: &mut Vec<Finding>,
) {
    let n = index.fns.len();

    // Fixpoint 1: which fns block (directly, by declaration, or through
    // a resolved call).
    let mut blocking: Vec<bool> = (0..n)
        .map(|id| !conc[id].blocking.is_empty() || conc[id].declared_blocking)
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            if blocking[id] {
                continue;
            }
            let reaches = conc[id]
                .calls
                .iter()
                .any(|c| c.callees.iter().any(|&g| blocking[g]));
            if reaches {
                blocking[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Fixpoint 2: the may-acquire lock set of every fn.
    let mut acquires: Vec<BTreeSet<String>> = (0..n)
        .map(|id| {
            conc[id]
                .locks
                .iter()
                .map(|l| lock_id(&index.fns[id].krate, &l.chain))
                .collect()
        })
        .collect();
    loop {
        let mut changed = false;
        for id in 0..n {
            let mut gained: Vec<String> = Vec::new();
            for c in &conc[id].calls {
                for &g in &c.callees {
                    for l in &acquires[g] {
                        if !acquires[id].contains(l) {
                            gained.push(l.clone());
                        }
                    }
                }
            }
            if !gained.is_empty() {
                acquires[id].extend(gained);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Condvar → mutex pairing, inferred from every wait site.
    let mut cv_pairs: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    for (id, c) in conc.iter().enumerate() {
        for (cv, lock) in &c.wait_pairs {
            cv_pairs
                .entry(lock_id(&index.fns[id].krate, cv))
                .or_default()
                .insert(lock.clone());
        }
    }

    // The lock-order graph: edge A → B with an example site.
    let mut edges: BTreeMap<(String, String), (usize, u32, u32)> = BTreeMap::new();

    for (id, c) in conc.iter().enumerate() {
        let info = &index.fns[id];
        let file = &files[file_of[id]];
        let in_scope = CONCURRENCY_CRATES.contains(&file.krate.as_str());
        let krate = &info.krate;

        for g in &c.guards {
            let held = lock_id(krate, &g.chain);
            // Nested direct lock sites.
            for l in &c.locks {
                if l.idx <= g.start || l.idx >= g.end {
                    continue;
                }
                let inner = lock_id(krate, &l.chain);
                if inner == held {
                    if in_scope {
                        findings.push(Finding {
                            file: file_of[id],
                            line: l.line,
                            col: l.col,
                            rule: "lock-cycle",
                            message: format!(
                                "`{}` re-locks `{}` while the guard taken at line {} is \
                                 still held — self-deadlock on a non-reentrant mutex",
                                info.item.name, g.chain, g.line
                            ),
                        });
                    }
                } else {
                    edges
                        .entry((held.clone(), inner))
                        .or_insert((file_of[id], l.line, l.col));
                }
            }
            // Blocking tokens under the guard.
            if in_scope {
                for b in &c.blocking {
                    if b.idx <= g.start || b.idx >= g.end {
                        continue;
                    }
                    if b.releases.as_deref() == Some(g.chain.as_str()) {
                        continue; // `cv.wait(guard)` releases this lock
                    }
                    let message = match &b.releases {
                        Some(other) => format!(
                            "`Condvar::wait` in `{}` releases `{}` but the guard of \
                             `{}` taken at line {} stays held for the whole sleep",
                            info.item.name, other, g.chain, g.line
                        ),
                        None => format!(
                            "`{}` blocks in `{}` while the guard of `{}` taken at \
                             line {} is held; drop the guard first",
                            b.what, info.item.name, g.chain, g.line
                        ),
                    };
                    findings.push(Finding {
                        file: file_of[id],
                        line: b.line,
                        col: b.col,
                        rule: "blocking-while-locked",
                        message,
                    });
                }
            }
            // Calls under the guard: blocking callees, transitive lock
            // acquisitions, and user hooks.
            for call in &c.calls {
                if call.idx <= g.start || call.idx >= g.end {
                    continue;
                }
                if in_scope {
                    if let Some(&blk) = call.callees.iter().find(|&&x| blocking[x]) {
                        findings.push(Finding {
                            file: file_of[id],
                            line: call.line,
                            col: call.col,
                            rule: "blocking-while-locked",
                            message: format!(
                                "`{}` calls `{}` (blocking, defined in {}) while the \
                                 guard of `{}` taken at line {} is held",
                                info.item.name, call.name, index.fns[blk].rel_path, g.chain, g.line
                            ),
                        });
                    }
                    let hooky = call.name.starts_with("on_")
                        || receiver_chain(&file.tokens, call.idx.saturating_sub(2))
                            .is_some_and(|(chain, _)| chain.contains("hook"));
                    if hooky && call.kind == CallKind::Method {
                        findings.push(Finding {
                            file: file_of[id],
                            line: call.line,
                            col: call.col,
                            rule: "guard-across-callback",
                            message: format!(
                                "`{}` invokes a user hook while the guard of `{}` taken \
                                 at line {} is held; a re-entrant hook deadlocks",
                                info.item.name, g.chain, g.line
                            ),
                        });
                    }
                }
                for &callee in &call.callees {
                    for inner in &acquires[callee] {
                        if *inner == held {
                            if in_scope {
                                findings.push(Finding {
                                    file: file_of[id],
                                    line: call.line,
                                    col: call.col,
                                    rule: "lock-cycle",
                                    message: format!(
                                        "`{}` calls `{}` which may re-lock `{}` while \
                                         its guard is still held",
                                        info.item.name, call.name, g.chain
                                    ),
                                });
                            }
                        } else {
                            edges.entry((held.clone(), inner.clone())).or_insert((
                                file_of[id],
                                call.line,
                                call.col,
                            ));
                        }
                    }
                }
            }
        }

        // A `.lock()` *inside a blocking call's argument list* creates a
        // temporary guard that lives exactly as long as the call —
        // `render(&mut stderr().lock(), ..)` holds the lock for the
        // whole blocking render. The guard-interval checks above miss it
        // because the guard starts after the call token.
        if in_scope {
            for call in &c.calls {
                let Some(&blk) = call.callees.iter().find(|&&x| blocking[x]) else {
                    continue;
                };
                for l in &c.locks {
                    if call.idx < l.idx && l.idx < call.arg_end {
                        findings.push(Finding {
                            file: file_of[id],
                            line: l.line,
                            col: l.col,
                            rule: "blocking-while-locked",
                            message: format!(
                                "`{}` passes a fresh `{}` guard into `{}` (blocking, \
                                 defined in {}); the lock is held for the whole call — \
                                 pass the unlocked handle and lock inside",
                                info.item.name, l.chain, call.name, index.fns[blk].rel_path
                            ),
                        });
                    }
                }
            }
        }

        // Naked notify: a notify site in a fn that never held (or even
        // locked) the mutex the Condvar is paired with loses the race
        // against a checker that has not parked yet.
        if in_scope {
            for i in info.item.body.0..info.item.body.1 {
                let t = &file.tokens[i];
                let is_notify = (t.is_ident("notify_one") || t.is_ident("notify_all"))
                    && i >= 1
                    && file.tokens[i - 1].is_punct(".")
                    && file.tokens.get(i + 1).is_some_and(|n| n.is_punct("("));
                if !is_notify {
                    continue;
                }
                let Some((cv, _)) = receiver_chain(&file.tokens, i.saturating_sub(2)) else {
                    continue;
                };
                let Some(paired) = cv_pairs.get(&lock_id(krate, &cv)) else {
                    continue; // pairing unknown — no wait site seen
                };
                let sanctioned = paired.iter().any(|lock| {
                    let guard_held = c
                        .guards
                        .iter()
                        .any(|g| g.chain == *lock && g.start < i && i < g.end);
                    let locked_earlier = c.locks.iter().any(|l| l.chain == *lock && l.idx < i);
                    guard_held || locked_earlier
                });
                if !sanctioned {
                    let locks: Vec<&str> = paired.iter().map(String::as_str).collect();
                    findings.push(Finding {
                        file: file_of[id],
                        line: t.line,
                        col: t.col,
                        rule: "naked-notify",
                        message: format!(
                            "`{}` notifies `{}` without ever locking `{}`; a waiter \
                             between its predicate check and `wait()` misses this \
                             wakeup — lock the mutex (a scoped guard is enough) first",
                            info.item.name,
                            cv,
                            locks.join("`/`")
                        ),
                    });
                }
            }
        }
    }

    // Global cycle detection on the lock-order graph: report each edge
    // whose target can reach back to its source.
    let mut succ: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for (a, b) in edges.keys() {
        succ.entry(a.as_str()).or_default().insert(b.as_str());
    }
    for ((a, b), &(file, line, col)) in &edges {
        if reaches(&succ, b, a) {
            findings.push(Finding {
                file,
                line,
                col,
                rule: "lock-cycle",
                message: format!(
                    "acquiring `{b}` while holding `{a}` completes a lock-order \
                     cycle (`{b}` is elsewhere held while taking `{a}`); pick one \
                     global order"
                ),
            });
        }
    }
}

/// Whether `to` is reachable from `from` in the lock-order graph.
fn reaches(succ: &BTreeMap<&str, BTreeSet<&str>>, from: &str, to: &str) -> bool {
    let mut seen: BTreeSet<&str> = BTreeSet::new();
    let mut stack = vec![from];
    while let Some(x) = stack.pop() {
        if x == to {
            return true;
        }
        if !seen.insert(x) {
            continue;
        }
        if let Some(next) = succ.get(x) {
            stack.extend(next.iter().copied());
        }
    }
    false
}

// ---------------------------------------------------------------------------
// Suppression and assembly
// ---------------------------------------------------------------------------

/// The one suppression and stale pass over both stages' findings.
fn assemble_report(
    mut files: Vec<FileData>,
    findings: Vec<Finding>,
    fns_indexed: usize,
) -> AnalysisReport {
    let mut report = AnalysisReport {
        files_scanned: files.len(),
        fns_indexed,
        ..AnalysisReport::default()
    };
    for f in findings {
        let file = &mut files[f.file];
        // An allow covers its own line and the line directly below. One
        // sitting inside a `#[cfg(test)]` region for a rule that skips
        // test code is never eligible: the rule is exempt there, so the
        // directive is dead weight — and without this check one placed on
        // the region's closing line would silently suppress *live* code on
        // the next line instead of being reported stale.
        let rule = rule_named(f.rule);
        debug_assert!(rule.is_some(), "`{}` is missing from RULES", f.rule);
        let exempt_in_tests = rule.is_some_and(Rule::skips_test_code);
        let suppressed = file.directives.iter_mut().any(|d| {
            let hit = matches!(&d.kind, Some(DirectiveKind::Allow(rule)) if *rule == f.rule)
                && (d.line == f.line || d.line + 1 == f.line)
                && !(exempt_in_tests && in_regions(&file.regions, d.line));
            if hit {
                d.used = true;
            }
            hit
        });
        if !suppressed {
            report.diagnostics.push(Diagnostic {
                file: file.rel.clone(),
                line: f.line,
                col: f.col,
                rule: f.rule.to_owned(),
                message: f.message,
            });
        }
    }
    // Scoped directives count as used when their scope did something:
    // a boundary that absorbed or hosted clock reads, an authority file
    // that actually seeds. Mark those here, then audit the rest.
    for file in &mut files {
        let seeds_somewhere = file
            .tokens
            .windows(3)
            .any(|w| w[0].is_ident("SimRng") && w[1].is_punct("::") && w[2].is_ident("seed_from"));
        let clocks_somewhere = file.tokens.windows(3).any(|w| {
            (w[0].is_ident("Instant") || w[0].is_ident("SystemTime"))
                && w[1].is_punct("::")
                && w[2].is_ident("now")
        });
        for d in &mut file.directives {
            match &d.kind {
                Some(DirectiveKind::Boundary) if clocks_somewhere => d.used = true,
                Some(DirectiveKind::RngAuthority) if seeds_somewhere => d.used = true,
                _ => {}
            }
        }
    }
    for file in &files {
        for d in &file.directives {
            if let Some(why) = &d.error {
                report.diagnostics.push(Diagnostic {
                    file: file.rel.clone(),
                    line: d.line,
                    col: d.col,
                    rule: "malformed-directive".to_owned(),
                    message: format!(
                        "{why}; see the directive grammar in ARCHITECTURE.md \
                         (\"Static analysis\")"
                    ),
                });
                continue;
            }
            report.allows += 1;
            if d.used {
                continue;
            }
            report.stale_allows += 1;
            let (rule, message) = match &d.kind {
                Some(DirectiveKind::Allow(rule))
                    if rule_named(rule).is_some_and(Rule::skips_test_code)
                        && in_regions(&file.regions, d.line) =>
                {
                    (
                        "stale-allow",
                        format!(
                            "allow({rule}) sits inside `#[cfg(test)]` code where the \
                             rule is already exempt; remove the directive"
                        ),
                    )
                }
                Some(DirectiveKind::Allow(rule)) => (
                    "stale-allow",
                    format!("allow({rule}) suppressed nothing; remove the directive"),
                ),
                Some(DirectiveKind::Boundary) => (
                    "stale-directive",
                    "boundary(wall-clock) declared in a file with no clock reads; \
                     remove the directive"
                        .to_owned(),
                ),
                Some(DirectiveKind::RngAuthority) => (
                    "stale-directive",
                    "rng-authority declared in a file that never seeds; remove the \
                     directive"
                        .to_owned(),
                ),
                Some(DirectiveKind::Blocking) | None => (
                    "stale-directive",
                    "blocking directive attaches to no function; place it on the \
                     line directly above a `fn` item"
                        .to_owned(),
                ),
            };
            report.diagnostics.push(Diagnostic {
                file: file.rel.clone(),
                line: d.line,
                col: d.col,
                rule: rule.to_owned(),
                message,
            });
        }
    }
    report.diagnostics.sort_by_key(|d| d.sort_key());
    report
}

/// Analyzes the whole workspace rooted at `root`.
pub fn analyze_workspace(root: &Path) -> Result<AnalysisReport, String> {
    let mut sources = Vec::new();
    for (abs, rel) in workspace_files(root)? {
        let src = std::fs::read_to_string(&abs)
            .map_err(|e| format!("cannot read {}: {e}", abs.display()))?;
        sources.push((rel, src));
    }
    Ok(analyze_sources(&sources))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(files: &[(&str, &str)]) -> AnalysisReport {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(r, s)| ((*r).to_owned(), (*s).to_owned()))
            .collect();
        analyze_sources(&owned)
    }

    fn rules_fired(report: &AnalysisReport) -> Vec<&str> {
        report.diagnostics.iter().map(|d| d.rule.as_str()).collect()
    }

    #[test]
    fn directive_grammar() {
        for ok in [
            r#"allow(lock-cycle, reason = "x")"#,
            r#"allow( float-eq , reason = "x" )"#,
            r#"boundary(wall-clock, reason = "x")"#,
            r#"rng-authority(reason = "x")"#,
            r#"blocking(reason = "x")"#,
        ] {
            assert!(parse_directive(ok).is_ok(), "{ok}");
        }
        for bad in [
            r#"allow(lock-cycle)"#,
            r#"allow(float-eq, reason = "")"#,
            r#"allow(float-eq, reason = unquoted)"#,
            r#"allow(not-a-rule, reason = "x")"#,
            r#"allow(stale-allow, reason = "x")"#,
            r#"boundary(rng, reason = "x")"#,
            r#"forbid(lock-cycle, reason = "x")"#,
        ] {
            assert!(parse_directive(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn both_markers_share_one_grammar() {
        // Either marker can allow a token rule or a semantic rule.
        let report = analyze(&[(
            "crates/serve/src/x.rs",
            "// vr-lint::allow(blocking-while-locked, reason = \"intentional\")\n\
             pub fn f() { let g = q.lock().unwrap_or_else(e); ch.recv(); }\n\
             // vr-analyze::allow(env-read, reason = \"startup only\")\n\
             pub fn g() -> bool { std::env::var(\"X\").is_ok() }\n",
        )]);
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!((report.allows, report.stale_allows), (2, 0));
    }

    #[test]
    fn receiver_chains() {
        let lexed = lexer::lex(
            "fn f() { self.state.queue.lock(); deques[me].lock(); std::io::stderr().lock(); }",
        );
        let t = &lexed.tokens;
        let dots: Vec<usize> = (0..t.len())
            .filter(|&i| t[i].is_ident("lock") && t[i - 1].is_punct("."))
            .collect();
        let chains: Vec<String> = dots
            .iter()
            .map(|&i| receiver_chain(t, i - 2).map(|(c, _)| c).unwrap_or_default())
            .collect();
        assert_eq!(chains, vec!["queue", "deques[_]", "std.io.stderr"]);
    }

    #[test]
    fn wall_clock_taint_propagates_and_boundary_absorbs() {
        let report = analyze(&[
            (
                "crates/serve/src/clock.rs",
                "// vr-analyze::boundary(wall-clock, reason = \"the seam\")\n\
                 pub struct Stopwatch;\n\
                 impl Stopwatch { pub fn start() -> u64 { Instant::now(); 0 } }\n",
            ),
            (
                "crates/serve/src/good.rs",
                "pub fn timed() -> u64 { Stopwatch::start() }\n",
            ),
            (
                "crates/serve/src/bad.rs",
                "fn raw() -> u64 { Instant::now(); 1 }\npub fn caller() -> u64 { raw() }\n",
            ),
        ]);
        // `timed` is clean (taint absorbed at the boundary); `raw` and
        // `caller` both fire. The token rule flags every raw clock read,
        // boundary or not, until it carries its own allow.
        let fired: Vec<(&str, u32)> = report
            .diagnostics
            .iter()
            .map(|d| (d.rule.as_str(), d.line))
            .collect();
        assert_eq!(
            fired,
            vec![
                ("wall-clock-taint", 1),
                ("wall-clock", 1),
                ("wall-clock-taint", 2),
                ("wall-clock", 3),
            ],
            "{}",
            report.render_text()
        );
        assert!(report.diagnostics[0].message.contains("directly"));
        assert!(report.diagnostics[2].message.contains("via `raw`"));
    }

    #[test]
    fn wall_clock_leak_catches_raw_instant_in_boundary_signature() {
        let report = analyze(&[(
            "crates/serve/src/clock.rs",
            "// vr-analyze::boundary(wall-clock, reason = \"the seam\")\n\
             pub fn now_raw() -> Instant { Instant::now() }\n",
        )]);
        assert_eq!(
            rules_fired(&report),
            vec!["wall-clock-leak", "wall-clock", "wall-clock"]
        );
    }

    #[test]
    fn rng_discipline_requires_authority() {
        let src = "pub fn fresh() -> SimRng { SimRng::seed_from(7) }\n";
        let report = analyze(&[("crates/core/src/x.rs", src)]);
        assert_eq!(rules_fired(&report), vec!["rng-stream-discipline"]);
        let authority =
            format!("// vr-analyze::rng-authority(reason = \"the root seeder\")\n{src}");
        let report = analyze(&[("crates/core/src/x.rs", authority.as_str())]);
        assert!(report.is_clean(), "{}", report.render_text());
        // Outside the deterministic set the rule does not apply.
        let report = analyze(&[("crates/runner/src/x.rs", src)]);
        assert!(report.is_clean());
    }

    #[test]
    fn panic_path_follows_documented_panics_only() {
        let report = analyze(&[(
            "crates/core/src/x.rs",
            "/// Divides.\n\
             ///\n\
             /// # Panics\n\
             /// When `b` is zero.\n\
             pub fn div(a: u64, b: u64) -> u64 { assert!(b != 0); a / b }\n\
             pub fn undocumented(a: u64) -> u64 { div(a, 2) }\n\
             /// Doc'd.\n\
             ///\n\
             /// # Panics\n\
             /// See `div`.\n\
             pub fn documented(a: u64) -> u64 { div(a, 2) }\n\
             pub fn shielded(a: u64) -> u64 { documented(a, ) }\n",
        )]);
        // `undocumented` fires; `documented` carries the contract, and
        // `shielded` sits behind that absorption.
        let fired: Vec<(&str, u32)> = report
            .diagnostics
            .iter()
            .map(|d| (d.rule.as_str(), d.line))
            .collect();
        assert_eq!(fired, vec![("panic-path", 6)], "{}", report.render_text());
    }

    #[test]
    fn blocking_while_locked_direct_and_transitive() {
        let report = analyze(&[(
            "crates/serve/src/x.rs",
            "fn slow() { stream.write_all(b); }\n\
             pub fn direct() { let g = q.lock().unwrap_or_else(e); ch.recv(); }\n\
             pub fn indirect() { let g = q.lock().unwrap_or_else(e); slow(); }\n\
             pub fn fine() { let g = q.lock().unwrap_or_else(e); drop(g); ch.recv(); }\n",
        )]);
        let fired: Vec<(&str, u32)> = report
            .diagnostics
            .iter()
            .map(|d| (d.rule.as_str(), d.line))
            .collect();
        assert_eq!(
            fired,
            vec![("blocking-while-locked", 2), ("blocking-while-locked", 3)],
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn declared_blocking_and_lock_in_arg_span() {
        // `render` blocks only by declaration (a channel for-loop has no
        // blocking token). `sweep` holds a guard across the call;
        // `paint` mints a guard *inside* the call's argument list.
        let report = analyze(&[
            (
                "crates/runner/src/render.rs",
                "// vr-analyze::blocking(reason = \"drains a channel\")\n\
                 pub fn render(rx: R, out: W) { for e in rx { } }\n",
            ),
            (
                "crates/runner/src/runner.rs",
                "pub fn sweep() { let g = q.lock().unwrap_or_else(e); render(rx, out); }\n\
                 pub fn paint() { render(rx, &mut stderr().lock()); }\n",
            ),
        ]);
        let fired: Vec<(&str, u32)> = report
            .diagnostics
            .iter()
            .map(|d| (d.rule.as_str(), d.line))
            .collect();
        assert_eq!(
            fired,
            vec![("blocking-while-locked", 1), ("blocking-while-locked", 2)],
            "{}",
            report.render_text()
        );
        assert!(report.diagnostics[1].message.contains("fresh"));
    }

    #[test]
    fn condvar_wait_releases_its_own_lock_but_not_others() {
        let ok = "pub fn worker() { let mut q = queue.lock().unwrap_or_else(e); \
                  loop { q = cv.wait(q).unwrap_or_else(e); } }\n";
        let report = analyze(&[("crates/serve/src/x.rs", ok)]);
        assert!(report.is_clean(), "{}", report.render_text());
        let bad = "pub fn worker() { let d = done.lock().unwrap_or_else(e); \
                   let mut q = queue.lock().unwrap_or_else(e); \
                   q = cv.wait(q).unwrap_or_else(e); }\n";
        let report = analyze(&[("crates/serve/src/x.rs", bad)]);
        let fired = rules_fired(&report);
        assert!(
            fired.contains(&"blocking-while-locked"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn lock_cycle_detected_across_functions() {
        let report = analyze(&[(
            "crates/serve/src/x.rs",
            "pub fn ab() { let a = alpha.lock().unwrap_or_else(e); \
             let b = beta.lock().unwrap_or_else(e); }\n\
             pub fn ba() { let b = beta.lock().unwrap_or_else(e); \
             let a = alpha.lock().unwrap_or_else(e); }\n",
        )]);
        let fired = rules_fired(&report);
        assert_eq!(
            fired,
            vec!["lock-cycle", "lock-cycle"],
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn self_relock_is_immediate_cycle() {
        let report = analyze(&[(
            "crates/serve/src/x.rs",
            "pub fn twice() { let a = q.lock().unwrap_or_else(e); \
             let b = q.lock().unwrap_or_else(e); }\n",
        )]);
        assert_eq!(rules_fired(&report), vec!["lock-cycle"]);
        assert!(report.diagnostics[0].message.contains("re-locks"));
    }

    #[test]
    fn naked_notify_needs_a_wait_site_to_pair() {
        // worker waits with a `queue` guard; shutdown notifies without
        // ever touching `queue` → finding. A scoped guard fixes it.
        let bad = "pub fn worker() { let mut q = queue.lock().unwrap_or_else(e); \
                   loop { q = queue_cv.wait(q).unwrap_or_else(e); } }\n\
                   pub fn shutdown() { queue_cv.notify_all(); }\n";
        let report = analyze(&[("crates/serve/src/x.rs", bad)]);
        assert_eq!(rules_fired(&report), vec!["naked-notify"]);
        let good = "pub fn worker() { let mut q = queue.lock().unwrap_or_else(e); \
                    loop { q = queue_cv.wait(q).unwrap_or_else(e); } }\n\
                    pub fn shutdown() { { let _g = queue.lock().unwrap_or_else(e); } \
                    queue_cv.notify_all(); }\n";
        let report = analyze(&[("crates/serve/src/x.rs", good)]);
        assert!(report.is_clean(), "{}", report.render_text());
    }

    #[test]
    fn guard_across_callback_fires_on_hooks() {
        let report = analyze(&[(
            "crates/serve/src/x.rs",
            "pub fn f(h: H) { let g = q.lock().unwrap_or_else(e); h.on_request(r); }\n",
        )]);
        let fired = rules_fired(&report);
        assert!(
            fired.contains(&"guard-across-callback"),
            "{}",
            report.render_text()
        );
    }

    #[test]
    fn allow_suppresses_and_stale_directives_fire() {
        let report = analyze(&[(
            "crates/serve/src/x.rs",
            "// vr-analyze::allow(blocking-while-locked, reason = \"intentional\")\n\
             pub fn f() { let g = q.lock().unwrap_or_else(e); ch.recv(); }\n",
        )]);
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(report.allows, 1);
        let report = analyze(&[(
            "crates/serve/src/x.rs",
            "// vr-analyze::allow(lock-cycle, reason = \"nothing here\")\n\
             pub fn f() {}\n\
             // vr-analyze::blocking(reason = \"floats free\")\n\
             struct S;\n",
        )]);
        let fired = rules_fired(&report);
        assert_eq!(fired, vec!["stale-allow", "stale-directive"]);
        assert_eq!(report.stale_allows, 2);
    }

    #[test]
    fn malformed_directives_are_loud() {
        let report = analyze(&[(
            "crates/serve/src/x.rs",
            "// vr-analyze::allow(blocking-while-locked)\npub fn f() {}\n",
        )]);
        assert_eq!(rules_fired(&report), vec!["malformed-directive"]);
    }

    #[test]
    fn test_code_and_test_files_are_out_of_scope() {
        let src = "#[cfg(test)]\nmod tests {\n fn t() { let g = q.lock().unwrap_or_else(e); \
                   ch.recv(); }\n}\n";
        assert!(analyze(&[("crates/serve/src/x.rs", src)]).is_clean());
        let live = "pub fn f() { let g = q.lock().unwrap_or_else(e); ch.recv(); }\n";
        assert!(analyze(&[("crates/serve/tests/x.rs", live)]).is_clean());
        assert!(!analyze(&[("crates/serve/src/x.rs", live)]).is_clean());
    }
}
