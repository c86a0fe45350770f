//! A small dependency-free argument parser.
//!
//! Supports `--key value`, `--flag`, and positional arguments. No external
//! crates are available offline, so this is hand-rolled and fully tested.

use std::collections::HashMap;
use std::fmt;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    positional: Vec<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Error produced while parsing or validating arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// `known_flags` lists the valueless options; everything else starting
    /// with `--` consumes the next token as its value.
    ///
    /// # Errors
    ///
    /// Returns an error for an option missing its value or a repeated
    /// option.
    pub fn parse<I, S>(raw: I, known_flags: &[&str]) -> Result<Args, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut out = Args::default();
        let mut iter = raw.into_iter().map(Into::into).peekable();
        while let Some(token) = iter.next() {
            if let Some(name) = token.strip_prefix("--") {
                if known_flags.contains(&name) {
                    if !out.flags.iter().any(|f| f == name) {
                        out.flags.push(name.to_owned());
                    }
                    continue;
                }
                let value = iter
                    .next()
                    .ok_or_else(|| ArgError(format!("--{name} requires a value")))?;
                if out.options.insert(name.to_owned(), value).is_some() {
                    return Err(ArgError(format!("--{name} given more than once")));
                }
            } else {
                out.positional.push(token);
            }
        }
        Ok(out)
    }

    /// Positional arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The value of `--name`, if given.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// The value of `--name` or a default.
    pub fn opt_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.opt(name).unwrap_or(default)
    }

    /// `true` if `--name` was given as a flag.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Parses `--name` as a value of type `T`.
    ///
    /// # Errors
    ///
    /// Returns an error if present but unparsable.
    pub fn opt_parse<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, ArgError> {
        match self.opt(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| ArgError(format!("--{name}: cannot parse {raw:?}"))),
        }
    }

    /// Of the options given that are not in `options` and the flags given
    /// that are not in `flags`, the name that sorts first, if any.
    pub fn first_unknown(&self, options: &[&str], flags: &[&str]) -> Option<&str> {
        let options = self
            .options
            .keys()
            .map(String::as_str)
            .filter(|name| !options.contains(name));
        let flags = self
            .flags
            .iter()
            .map(String::as_str)
            .filter(|name| !flags.contains(name));
        options.chain(flags).min()
    }

    /// Exactly one positional argument, or an error naming it.
    ///
    /// # Errors
    ///
    /// Returns an error if the count differs.
    pub fn single_positional(&self, what: &str) -> Result<&str, ArgError> {
        match self.positional.as_slice() {
            [one] => Ok(one),
            [] => Err(ArgError(format!("missing {what}"))),
            _ => Err(ArgError(format!("expected exactly one {what}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgError> {
        Args::parse(tokens.iter().copied(), &["verbose", "netram"])
    }

    #[test]
    fn mixed_arguments() {
        let a = parse(&[
            "trace.vrt",
            "--seed",
            "42",
            "--verbose",
            "--policy",
            "vrecon",
        ])
        .unwrap();
        assert_eq!(a.positional(), &["trace.vrt"]);
        assert_eq!(a.opt("seed"), Some("42"));
        assert_eq!(a.opt("policy"), Some("vrecon"));
        assert!(a.flag("verbose"));
        assert!(!a.flag("netram"));
        assert_eq!(a.opt_parse::<u64>("seed").unwrap(), Some(42));
        assert_eq!(a.opt_or("missing", "dflt"), "dflt");
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = parse(&["--seed"]).unwrap_err();
        assert!(err.0.contains("requires a value"));
    }

    #[test]
    fn duplicate_option_is_an_error() {
        let err = parse(&["--seed", "1", "--seed", "2"]).unwrap_err();
        assert!(err.0.contains("more than once"));
    }

    #[test]
    fn bad_parse_is_an_error() {
        let a = parse(&["--seed", "not-a-number"]).unwrap();
        assert!(a.opt_parse::<u64>("seed").is_err());
    }

    #[test]
    fn single_positional_validation() {
        assert!(parse(&[]).unwrap().single_positional("trace").is_err());
        assert!(parse(&["a", "b"])
            .unwrap()
            .single_positional("trace")
            .is_err());
        assert_eq!(
            parse(&["a"]).unwrap().single_positional("trace").unwrap(),
            "a"
        );
    }

    #[test]
    fn first_unknown_names_the_least_stray_option_or_flag() {
        let a = parse(&["--seed", "1", "--zeta", "2", "--beta", "3", "--verbose"]).unwrap();
        assert_eq!(a.first_unknown(&["seed"], &["verbose"]), Some("beta"));
        assert_eq!(
            a.first_unknown(&["seed", "beta", "zeta"], &[]),
            Some("verbose")
        );
        assert_eq!(
            a.first_unknown(&["seed", "beta", "zeta"], &["verbose"]),
            None
        );
    }

    #[test]
    fn repeated_flag_is_idempotent() {
        let a = parse(&["--verbose", "--verbose"]).unwrap();
        assert!(a.flag("verbose"));
    }
}
