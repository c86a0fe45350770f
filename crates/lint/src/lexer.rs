//! A minimal hand-rolled Rust lexer.
//!
//! The container is offline, so `syn`/`proc-macro2` are unavailable; like
//! `vr_simcore::jsonio`, the infrastructure is written from scratch. The
//! lexer is deliberately *token-level*: it does not parse items or types,
//! but it does get the hard tokenisation cases right, because a rule that
//! fires inside a string literal or a comment is worse than no rule at all:
//!
//! * strings with escapes (`"a \" b"`), byte strings, C strings;
//! * raw strings with any number of hashes (`r#"..."#`, `br##"..."##`);
//! * char literals vs lifetimes (`'a'` vs `'a`, `'\''`, `'\u{7D}'`);
//! * nested block comments (`/* outer /* inner */ still out */`);
//! * raw identifiers (`r#type`);
//! * float vs integer literals vs ranges and method calls
//!   (`1.5`, `1.`, `1..2`, `1.max(2)`, `1e9`, `2f64`).
//!
//! Comments are preserved (with positions) so the rule engine can parse
//! `vr-analyze::allow(...)` suppression directives out of them.

/// What a token is, as far as the rule engine needs to know.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`HashMap`, `as`, `unwrap`). Raw
    /// identifiers are normalised: `r#type` lexes as `type`.
    Ident,
    /// A lifetime, without the quote: `'a` lexes as `a`.
    Lifetime,
    /// A char or byte literal: `'x'`, `b'\n'`.
    Char,
    /// Any string literal flavour: `"s"`, `r#"s"#`, `b"s"`, `c"s"`.
    Str,
    /// An integer literal, including suffixed and based forms.
    Int,
    /// A float literal: contains `.`, an exponent, or an `f32`/`f64` suffix.
    Float,
    /// Punctuation. Multi-char operators relevant to the rules are joined
    /// into one token: `::`, `==`, `!=`, `<=`, `>=`, `->`, `=>`.
    Punct,
}

/// One lexed token with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

impl Tok {
    /// `true` if this is an identifier with exactly this text.
    pub fn is_ident(&self, text: &str) -> bool {
        self.kind == TokKind::Ident && self.text == text
    }

    /// `true` if this is punctuation with exactly this text.
    pub fn is_punct(&self, text: &str) -> bool {
        self.kind == TokKind::Punct && self.text == text
    }
}

/// One comment with its 1-based source position.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Body text, without the `//` / `/*` delimiters.
    pub text: String,
    pub line: u32,
    pub col: u32,
}

/// The result of lexing one source file.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Tok>,
    pub comments: Vec<Comment>,
}

struct Cursor {
    chars: Vec<char>,
    i: usize,
    line: u32,
    col: u32,
}

impl Cursor {
    fn new(src: &str) -> Self {
        Cursor {
            chars: src.chars().collect(),
            i: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.i + ahead).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = *self.chars.get(self.i)?;
        self.i += 1;
        if c == '\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    /// Bumps while `pred` holds, appending to `out`.
    fn take_while(&mut self, out: &mut String, pred: impl Fn(char) -> bool) {
        while let Some(c) = self.peek(0) {
            if !pred(c) {
                break;
            }
            out.push(c);
            self.bump();
        }
    }
}

fn is_ident_start(c: char) -> bool {
    c == '_' || c.is_alphabetic()
}

fn is_ident_continue(c: char) -> bool {
    c == '_' || c.is_alphanumeric()
}

/// Lexes `src` into tokens and comments. Never fails: malformed input
/// (e.g. an unterminated string) produces a best-effort token ending at EOF.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Lexed::default();
    while let Some(c) = cur.peek(0) {
        let (line, col) = (cur.line, cur.col);
        if c.is_whitespace() {
            cur.bump();
            continue;
        }
        // Comments.
        if c == '/' && cur.peek(1) == Some('/') {
            cur.bump();
            cur.bump();
            let mut text = String::new();
            cur.take_while(&mut text, |c| c != '\n');
            out.comments.push(Comment { text, line, col });
            continue;
        }
        if c == '/' && cur.peek(1) == Some('*') {
            cur.bump();
            cur.bump();
            let mut text = String::new();
            let mut depth = 1usize;
            while depth > 0 {
                match (cur.peek(0), cur.peek(1)) {
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        cur.bump();
                        cur.bump();
                        text.push_str("/*");
                    }
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        cur.bump();
                        cur.bump();
                        if depth > 0 {
                            text.push_str("*/");
                        }
                    }
                    (Some(_), _) => {
                        let ch = cur.bump().unwrap_or('\0');
                        text.push(ch);
                    }
                    (None, _) => break, // unterminated
                }
            }
            out.comments.push(Comment { text, line, col });
            continue;
        }
        // Char literal or lifetime.
        if c == '\'' {
            lex_quote(&mut cur, &mut out, line, col);
            continue;
        }
        // Strings, raw strings, raw identifiers, plain identifiers.
        if is_ident_start(c) {
            if let Some(tok) = try_lex_string_prefix(&mut cur, line, col) {
                out.tokens.push(tok);
                continue;
            }
            let mut text = String::new();
            // Raw identifier r#foo: skip the prefix, keep the name.
            if c == 'r' && cur.peek(1) == Some('#') && cur.peek(2).is_some_and(is_ident_start) {
                cur.bump();
                cur.bump();
            }
            cur.take_while(&mut text, is_ident_continue);
            out.tokens.push(Tok {
                kind: TokKind::Ident,
                text,
                line,
                col,
            });
            continue;
        }
        if c == '"' {
            let text = lex_plain_string(&mut cur);
            out.tokens.push(Tok {
                kind: TokKind::Str,
                text,
                line,
                col,
            });
            continue;
        }
        if c.is_ascii_digit() {
            let tok = lex_number(&mut cur, line, col);
            out.tokens.push(tok);
            continue;
        }
        // Punctuation, joining the few multi-char operators the rules need.
        cur.bump();
        let joined = match (c, cur.peek(0)) {
            (':', Some(':')) => Some("::"),
            ('=', Some('=')) => Some("=="),
            ('!', Some('=')) => Some("!="),
            ('<', Some('=')) => Some("<="),
            ('>', Some('=')) => Some(">="),
            ('-', Some('>')) => Some("->"),
            ('=', Some('>')) => Some("=>"),
            _ => None,
        };
        let text = match joined {
            Some(two) => {
                cur.bump();
                two.to_owned()
            }
            None => c.to_string(),
        };
        out.tokens.push(Tok {
            kind: TokKind::Punct,
            text,
            line,
            col,
        });
    }
    out
}

/// Lexes from a leading `'`: either a char literal or a lifetime.
fn lex_quote(cur: &mut Cursor, out: &mut Lexed, line: u32, col: u32) {
    cur.bump(); // the opening quote
    match cur.peek(0) {
        // Escape: definitely a char literal. Consume the backslash and the
        // escaped char (which may itself be a quote), then run to the
        // terminating quote — escapes like \u{7D} contain no quotes.
        Some('\\') => {
            let mut text = String::from("\\");
            cur.bump();
            if let Some(e) = cur.bump() {
                text.push(e);
            }
            while let Some(c) = cur.peek(0) {
                cur.bump();
                if c == '\'' {
                    break;
                }
                text.push(c);
            }
            out.tokens.push(Tok {
                kind: TokKind::Char,
                text,
                line,
                col,
            });
        }
        // `'a'` is a char; `'a` (no closing quote right after) a lifetime.
        Some(c) if is_ident_continue(c) => {
            if cur.peek(1) == Some('\'') {
                cur.bump();
                cur.bump();
                out.tokens.push(Tok {
                    kind: TokKind::Char,
                    text: c.to_string(),
                    line,
                    col,
                });
            } else {
                let mut text = String::new();
                cur.take_while(&mut text, is_ident_continue);
                out.tokens.push(Tok {
                    kind: TokKind::Lifetime,
                    text,
                    line,
                    col,
                });
            }
        }
        // A non-identifier char like '(' or '€': char literal.
        Some(c) => {
            cur.bump();
            if cur.peek(0) == Some('\'') {
                cur.bump();
            }
            out.tokens.push(Tok {
                kind: TokKind::Char,
                text: c.to_string(),
                line,
                col,
            });
        }
        None => {}
    }
}

/// If the cursor sits on a string-literal prefix (`r"`, `r#"`, `b"`, `b'`,
/// `br"`, `c"`, `cr#"` ...), lexes the whole literal and returns its token.
fn try_lex_string_prefix(cur: &mut Cursor, line: u32, col: u32) -> Option<Tok> {
    let c0 = cur.peek(0)?;
    // How many prefix chars before the raw-marker / quote?
    let (skip, raw) = match c0 {
        'r' => (1, true),
        'b' | 'c' => match cur.peek(1) {
            Some('"') => (1, false),
            Some('\'') if c0 == 'b' => {
                // Byte char literal b'x' / b'\n'.
                cur.bump(); // b
                let start = Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line,
                    col,
                };
                let mut lexed = Lexed::default();
                lex_quote(cur, &mut lexed, line, col);
                return Some(lexed.tokens.pop().unwrap_or(start));
            }
            Some('r') => (2, true),
            _ => return None,
        },
        _ => return None,
    };
    // After the prefix: `#`* then `"` for raw; `"` for cooked.
    let mut hashes = 0usize;
    while cur.peek(skip + hashes) == Some('#') {
        hashes += 1;
    }
    if raw && hashes == 0 && cur.peek(skip) != Some('"') {
        return None; // plain identifier starting with r/br/cr
    }
    if !raw && hashes > 0 {
        return None;
    }
    if cur.peek(skip + hashes) != Some('"') {
        return None; // e.g. raw identifier r#foo — handled by the caller
    }
    for _ in 0..skip + hashes + 1 {
        cur.bump();
    }
    let mut text = String::new();
    if raw {
        // Scan for `"` followed by `hashes` hashes.
        'scan: while let Some(c) = cur.peek(0) {
            if c == '"' {
                let mut ok = true;
                for k in 0..hashes {
                    if cur.peek(1 + k) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    for _ in 0..hashes + 1 {
                        cur.bump();
                    }
                    break 'scan;
                }
            }
            text.push(c);
            cur.bump();
        }
    } else {
        text = lex_string_body(cur);
    }
    Some(Tok {
        kind: TokKind::Str,
        text,
        line,
        col,
    })
}

/// Lexes a cooked string starting at its opening quote.
fn lex_plain_string(cur: &mut Cursor) -> String {
    cur.bump(); // opening quote
    lex_string_body(cur)
}

/// Lexes a cooked string body after the opening quote, handling escapes.
fn lex_string_body(cur: &mut Cursor) -> String {
    let mut text = String::new();
    while let Some(c) = cur.peek(0) {
        match c {
            '"' => {
                cur.bump();
                break;
            }
            '\\' => {
                text.push(c);
                cur.bump();
                if let Some(e) = cur.bump() {
                    text.push(e);
                }
            }
            _ => {
                text.push(c);
                cur.bump();
            }
        }
    }
    text
}

/// Lexes a numeric literal starting at an ASCII digit.
fn lex_number(cur: &mut Cursor, line: u32, col: u32) -> Tok {
    let mut text = String::new();
    let mut float = false;
    // Based integers: 0x / 0o / 0b — no float forms.
    if cur.peek(0) == Some('0') && matches!(cur.peek(1), Some('x' | 'o' | 'b')) {
        text.push(cur.bump().unwrap_or('0'));
        text.push(cur.bump().unwrap_or('x'));
        cur.take_while(&mut text, is_ident_continue);
        return Tok {
            kind: TokKind::Int,
            text,
            line,
            col,
        };
    }
    cur.take_while(&mut text, |c| c.is_ascii_digit() || c == '_');
    // A `.` continues the literal only when it cannot be a range (`1..2`)
    // or a method/field access (`1.max(2)`).
    if cur.peek(0) == Some('.') {
        match cur.peek(1) {
            Some(c) if c.is_ascii_digit() => {
                float = true;
                text.push('.');
                cur.bump();
                cur.take_while(&mut text, |c| c.is_ascii_digit() || c == '_');
            }
            Some('.') => {}
            Some(c) if is_ident_start(c) => {}
            _ => {
                // `1.` at the end of an expression is a float literal.
                float = true;
                text.push('.');
                cur.bump();
            }
        }
    }
    // Exponent.
    if matches!(cur.peek(0), Some('e' | 'E')) {
        let after_sign = matches!(cur.peek(1), Some('+' | '-'));
        let digit_at = if after_sign { 2 } else { 1 };
        if cur.peek(digit_at).is_some_and(|c| c.is_ascii_digit()) {
            float = true;
            text.push(cur.bump().unwrap_or('e'));
            if after_sign {
                text.push(cur.bump().unwrap_or('+'));
            }
            cur.take_while(&mut text, |c| c.is_ascii_digit() || c == '_');
        }
    }
    // Suffix (u32, f64, usize ...).
    let mut suffix = String::new();
    cur.take_while(&mut suffix, is_ident_continue);
    if suffix.starts_with('f') {
        float = true;
    }
    text.push_str(&suffix);
    Tok {
        kind: if float { TokKind::Float } else { TokKind::Int },
        text,
        line,
        col,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokKind, String)> {
        lex(src)
            .tokens
            .into_iter()
            .map(|t| (t.kind, t.text))
            .collect()
    }

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_hide_their_contents() {
        // Nothing inside a string may surface as an identifier.
        assert_eq!(idents(r#"let s = "HashMap :: unwrap // x";"#), ["let", "s"]);
        assert_eq!(idents(r#"let s = "a \" HashMap";"#), ["let", "s"]);
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r###"let s = r#"contains " quote and HashMap"#; let t = 1;"###;
        assert_eq!(idents(src), ["let", "s", "let", "t"]);
        let src = r###"let s = r##"nested "# marker"##; HashMap"###;
        assert_eq!(idents(src), ["let", "s", "HashMap"]);
        // Zero-hash raw string.
        assert_eq!(idents(r#"r"no \ escapes HashMap" x"#), ["x"]);
    }

    #[test]
    fn byte_and_c_strings() {
        assert_eq!(idents(r##"b"HashMap" br#"HashMap"# c"HashMap" x"##), ["x"]);
        let toks = kinds("b'a' b'\\n' y");
        assert_eq!(toks[0].0, TokKind::Char);
        assert_eq!(toks[1].0, TokKind::Char);
        assert_eq!(toks[2], (TokKind::Ident, "y".to_owned()));
    }

    #[test]
    fn nested_block_comments() {
        let lexed = lex("a /* x /* deeper */ still comment */ b");
        let names: Vec<_> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
        assert_eq!(lexed.comments.len(), 1);
        assert!(lexed.comments[0].text.contains("deeper"));
    }

    #[test]
    fn unterminated_block_comment_ends_at_eof() {
        let lexed = lex("a /* open forever");
        let names: Vec<_> = lexed.tokens.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(names, ["a"]);
    }

    #[test]
    fn char_vs_lifetime() {
        let toks = kinds("'a' 'a 'static '_ '_' '\\'' '\\u{7D}' '(' x");
        assert_eq!(
            toks,
            vec![
                (TokKind::Char, "a".to_owned()),
                (TokKind::Lifetime, "a".to_owned()),
                (TokKind::Lifetime, "static".to_owned()),
                (TokKind::Lifetime, "_".to_owned()),
                (TokKind::Char, "_".to_owned()),
                (TokKind::Char, "\\'".to_owned()),
                (TokKind::Char, "\\u{7D}".to_owned()),
                (TokKind::Char, "(".to_owned()),
                (TokKind::Ident, "x".to_owned()),
            ]
        );
    }

    #[test]
    fn lifetime_in_generics() {
        let toks = kinds("fn f<'a>(x: &'a str) {}");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Lifetime)
            .collect();
        assert_eq!(lifetimes.len(), 2);
    }

    #[test]
    fn raw_identifiers_normalise() {
        assert_eq!(idents("r#type r#fn regular"), ["type", "fn", "regular"]);
    }

    #[test]
    fn numbers_ints_floats_ranges_methods() {
        assert_eq!(
            kinds("1 1.5 1. 1..2 1.max(2) 1e9 1E-3 2f64 3usize 0xff 1_000.5"),
            vec![
                (TokKind::Int, "1".to_owned()),
                (TokKind::Float, "1.5".to_owned()),
                (TokKind::Float, "1.".to_owned()),
                (TokKind::Int, "1".to_owned()),
                (TokKind::Punct, ".".to_owned()),
                (TokKind::Punct, ".".to_owned()),
                (TokKind::Int, "2".to_owned()),
                (TokKind::Int, "1".to_owned()),
                (TokKind::Punct, ".".to_owned()),
                (TokKind::Ident, "max".to_owned()),
                (TokKind::Punct, "(".to_owned()),
                (TokKind::Int, "2".to_owned()),
                (TokKind::Punct, ")".to_owned()),
                (TokKind::Float, "1e9".to_owned()),
                (TokKind::Float, "1E-3".to_owned()),
                (TokKind::Float, "2f64".to_owned()),
                (TokKind::Int, "3usize".to_owned()),
                (TokKind::Int, "0xff".to_owned()),
                (TokKind::Float, "1_000.5".to_owned()),
            ]
        );
    }

    #[test]
    fn joined_operators() {
        let toks = kinds("a == b != c :: d -> e => f <= g >= h = i ! j");
        let puncts: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokKind::Punct)
            .map(|(_, t)| t.as_str())
            .collect();
        assert_eq!(puncts, ["==", "!=", "::", "->", "=>", "<=", ">=", "=", "!"]);
    }

    #[test]
    fn positions_are_one_based_and_track_lines() {
        let lexed = lex("ab\n  cd \"s\"\n'x'");
        let t = &lexed.tokens;
        assert_eq!((t[0].line, t[0].col), (1, 1));
        assert_eq!((t[1].line, t[1].col), (2, 3));
        assert_eq!((t[2].line, t[2].col), (2, 6));
        assert_eq!((t[3].line, t[3].col), (3, 1));
    }

    #[test]
    fn comment_positions() {
        let lexed = lex("x // trailing note\n/* block */ y");
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[0].col, 3);
        assert_eq!(lexed.comments[0].text, " trailing note");
        assert_eq!(lexed.comments[1].line, 2);
    }

    #[test]
    fn doc_comments_are_comments() {
        let lexed = lex("/// uses HashMap internally\nfn f() {}");
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.is_ident("HashMap"))
                .count(),
            0
        );
        assert_eq!(lexed.comments.len(), 1);
    }

    #[test]
    fn string_with_comment_markers_inside() {
        assert_eq!(
            idents(r#"let s = "// not a comment"; x"#),
            ["let", "s", "x"]
        );
        let lexed = lex(r#""/* not a block */" y"#);
        assert!(lexed.comments.is_empty());
        assert_eq!(lexed.tokens[1].text, "y");
    }
}
