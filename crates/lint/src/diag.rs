//! Diagnostics and the analyzer's one report: rustc-style text, JSON and
//! SARIF output.

use std::fmt;

use crate::rules::RULES;

/// One finding, anchored to a file position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column (in characters).
    pub col: u32,
    /// The rule that fired (a name in [`RULES`]).
    pub rule: String,
    /// Human-facing explanation.
    pub message: String,
}

impl Diagnostic {
    /// Stable ordering for reports: by file, position, rule.
    pub fn sort_key(&self) -> (String, u32, u32, String) {
        (self.file.clone(), self.line, self.col, self.rule.clone())
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: error[{}]: {}",
            self.file, self.line, self.col, self.rule, self.message
        )
    }
}

/// How a report is rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Text,
    Json,
    Sarif,
}

impl Format {
    /// Parses a `--format` value.
    pub fn parse(name: &str) -> Result<Format, String> {
        match name {
            "text" => Ok(Format::Text),
            "json" => Ok(Format::Json),
            "sarif" => Ok(Format::Sarif),
            other => Err(format!("--format must be text|json|sarif, got {other}")),
        }
    }
}

/// The aggregated result of an analysis run.
#[derive(Debug, Default)]
pub struct AnalysisReport {
    /// All findings, sorted by position.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files analysed.
    pub files_scanned: usize,
    /// Number of functions in the cross-crate index.
    pub fns_indexed: usize,
    /// Well-formed directives seen (all four kinds).
    pub allows: usize,
    /// Of those, how many affected nothing (each also appears as a
    /// `stale-allow` or `stale-directive` diagnostic).
    pub stale_allows: usize,
}

impl AnalysisReport {
    /// `true` when nothing fired — the workspace passes.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Renders the report in `format`.
    pub fn render(&self, format: Format) -> String {
        match format {
            Format::Text => self.render_text(),
            Format::Json => self.render_json(),
            Format::Sarif => self.render_sarif(),
        }
    }

    /// rustc-style one-line-per-finding text, with a trailing summary.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&format!(
            "vr-analyze: {} file(s), {} fn(s) indexed, {} directive(s) ({} stale), {} diagnostic(s)",
            self.files_scanned,
            self.fns_indexed,
            self.allows,
            self.stale_allows,
            self.diagnostics.len()
        ));
        out
    }

    /// Machine-readable JSON (stable field and array order).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n  \"version\": 1,\n  \"diagnostics\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&d.file),
                d.line,
                d.col,
                json_escape(&d.rule),
                json_escape(&d.message)
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str(&format!(
            "],\n  \"files_scanned\": {},\n  \"fns_indexed\": {},\n  \"allows\": {},\n  \"stale_allows\": {}\n}}",
            self.files_scanned, self.fns_indexed, self.allows, self.stale_allows
        ));
        out
    }

    /// SARIF 2.1.0, the minimal shape code-scanning UIs ingest: one run
    /// whose tool lists every rule, one result per diagnostic with a
    /// physical location.
    pub fn render_sarif(&self) -> String {
        let mut out = String::from(
            "{\n  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n  \
             \"version\": \"2.1.0\",\n  \"runs\": [{\n    \"tool\": {\"driver\": {\n      \
             \"name\": \"vr-analyze\",\n      \"rules\": [",
        );
        for (i, rule) in RULES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n        {{\"id\": \"{}\", \"shortDescription\": {{\"text\": \"{}\"}}}}",
                json_escape(rule.name),
                json_escape(rule.summary)
            ));
        }
        out.push_str("\n      ]\n    }},\n    \"results\": [");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n      {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": \"{}\"}}, \
                 \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": \"{}\"}}, \
                 \"region\": {{\"startLine\": {}, \"startColumn\": {}}}}}}}]}}",
                json_escape(&d.rule),
                json_escape(&d.message),
                json_escape(&d.file),
                d.line,
                d.col
            ));
        }
        if !self.diagnostics.is_empty() {
            out.push_str("\n    ");
        }
        out.push_str("]\n  }]\n}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag() -> Diagnostic {
        Diagnostic {
            file: "crates/core/src/sim.rs".into(),
            line: 44,
            col: 5,
            rule: "nondeterministic-collection".into(),
            message: "use of `HashMap`".into(),
        }
    }

    #[test]
    fn text_rendering_is_rustc_style() {
        assert_eq!(
            diag().to_string(),
            "crates/core/src/sim.rs:44:5: error[nondeterministic-collection]: use of `HashMap`"
        );
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn report_renderings_carry_counts_and_positions() {
        let report = AnalysisReport {
            diagnostics: vec![diag()],
            files_scanned: 3,
            fns_indexed: 9,
            allows: 2,
            stale_allows: 1,
        };
        let text = report.render(Format::Text);
        assert!(
            text.contains("error[nondeterministic-collection]"),
            "{text}"
        );
        assert!(
            text.ends_with(
                "vr-analyze: 3 file(s), 9 fn(s) indexed, 2 directive(s) (1 stale), 1 diagnostic(s)"
            ),
            "{text}"
        );
        let json = report.render(Format::Json);
        for field in [
            "\"version\": 1",
            "\"line\": 44",
            "\"files_scanned\": 3",
            "\"fns_indexed\": 9",
            "\"allows\": 2",
            "\"stale_allows\": 1",
        ] {
            assert!(json.contains(field), "{field} missing: {json}");
        }
        let sarif = report.render(Format::Sarif);
        assert!(sarif.contains("\"version\": \"2.1.0\""), "{sarif}");
        assert!(
            sarif.contains("\"ruleId\": \"nondeterministic-collection\""),
            "{sarif}"
        );
        assert!(sarif.contains("\"startLine\": 44"), "{sarif}");
        // The tool's rule list covers token, semantic and meta rules alike.
        for rule in RULES {
            assert!(
                sarif.contains(&format!("\"id\": \"{}\"", rule.name)),
                "{}",
                rule.name
            );
        }
    }

    #[test]
    fn empty_report_is_clean_and_valid_json() {
        let report = AnalysisReport::default();
        assert!(report.is_clean());
        assert!(report.render_json().contains("\"diagnostics\": []"));
    }

    #[test]
    fn format_names() {
        assert_eq!(Format::parse("sarif"), Ok(Format::Sarif));
        assert!(Format::parse("yaml").is_err());
    }
}
