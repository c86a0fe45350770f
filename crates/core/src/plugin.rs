//! The policy registry: one table naming every family, and the typed
//! parameter bag its builders take.
//!
//! Each [`PolicyKind`] has exactly one [`PolicyEntry`] row carrying all of
//! its spellings — the kebab-case registry name, the short token reports
//! and the CLI use, and the display name of tables and spec files — plus
//! the parameter keys it accepts and its builder. [`kind_of`] resolves any
//! of the three spellings; [`entry`] goes the other way. The design mirrors
//! dslab's `Scheduler`/`SchedulerParams` pair: a policy is constructed from
//! its row plus a [`ParamBag`] of `key=value` strings, validated up front
//! (unknown keys are rejected).

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::policy::{
    CpuOnly, Fractional, FractionalParams, GLoadSharing, Malleable, MalleableParams, NoLoadSharing,
    Policy, PolicyKind, Random, SuspendLargest, VReconfiguration, WeightedCpuMem,
};

/// A typed `key=value` parameter bag for policy construction.
///
/// Keys and values are stored as strings in a deterministic order
/// (`BTreeMap`); typed access happens at policy build time via
/// [`ParamBag::get`], so a malformed value is a build error, not a silent
/// default. The wire grammar is `key=value[,key=value...]` — the CLI's
/// `--policy name:k=v,...` suffix and the fuzzer's `policy-params` line
/// both parse with [`ParamBag::parse`] and re-render byte-identically
/// with [`ParamBag::render`].
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamBag {
    entries: BTreeMap<String, String>,
}

impl ParamBag {
    /// An empty bag.
    pub fn new() -> Self {
        ParamBag::default()
    }

    /// Parses the `key=value[,key=value...]` grammar. The empty string is
    /// the empty bag.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed or duplicate entry.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut bag = ParamBag::new();
        for part in text.split(',') {
            if part.is_empty() {
                continue;
            }
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("parameter `{part}` is not of the form key=value"))?;
            if key.is_empty() {
                return Err(format!("parameter `{part}` has an empty key"));
            }
            if bag
                .entries
                .insert(key.to_owned(), value.to_owned())
                .is_some()
            {
                return Err(format!("duplicate parameter key `{key}`"));
            }
        }
        Ok(bag)
    }

    /// Renders the canonical `key=value[,key=value...]` form (keys in
    /// sorted order); parsing it back yields an equal bag.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (key, value) in &self.entries {
            if !out.is_empty() {
                out.push(',');
            }
            out.push_str(key);
            out.push('=');
            out.push_str(value);
        }
        out
    }

    /// `true` if the bag holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sets one parameter (builder-style).
    pub fn with(mut self, key: &str, value: impl fmt::Display) -> Self {
        self.entries.insert(key.to_owned(), value.to_string());
        self
    }

    /// The value of `key` parsed as `T`, if present.
    ///
    /// # Errors
    ///
    /// Returns a description when the value fails to parse.
    pub fn get<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.entries.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse::<T>()
                .map(Some)
                .map_err(|_| format!("parameter `{key}={raw}` is not a valid value")),
        }
    }

    /// The keys present in the bag, in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Rejects any key outside `known` — policies call this first so a
    /// typo'd parameter fails construction instead of being ignored.
    ///
    /// # Errors
    ///
    /// Names the first unknown key and the accepted set.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), String> {
        for key in self.entries.keys() {
            if !known.contains(&key.as_str()) {
                return Err(if known.is_empty() {
                    format!("unknown parameter `{key}` (this policy takes no parameters)")
                } else {
                    format!("unknown parameter `{key}` (accepted: {})", known.join(", "))
                });
            }
        }
        Ok(())
    }
}

/// One registry row: a family's name in every spelling, the parameter
/// keys it accepts, and its builder.
pub struct PolicyEntry {
    /// The policy family the row builds.
    pub kind: PolicyKind,
    /// The stable registry name (kebab-case, e.g. `g-loadsharing`).
    pub name: &'static str,
    /// The short token (`gls`, `vrecon`, …) written into encoded reports.
    pub token: &'static str,
    /// The display name (`G-Loadsharing`, …) of tables, labels and specs.
    pub display: &'static str,
    /// Parameter keys the builder accepts (empty = takes no parameters).
    pub known_keys: &'static [&'static str],
    build: fn(&ParamBag) -> Result<Box<dyn Policy>, String>,
}

/// Every family, in [`PolicyKind::ALL`] order.
static REGISTRY: [PolicyEntry; 9] = [
    PolicyEntry {
        kind: PolicyKind::NoLoadSharing,
        name: "no-loadsharing",
        token: "none",
        display: "No-Loadsharing",
        known_keys: &[],
        build: |_| Ok(Box::new(NoLoadSharing)),
    },
    PolicyEntry {
        kind: PolicyKind::Random,
        name: "random",
        token: "random",
        display: "Random",
        known_keys: &[],
        build: |_| Ok(Box::new(Random)),
    },
    PolicyEntry {
        kind: PolicyKind::CpuOnly,
        name: "cpu-only",
        token: "cpu",
        display: "CPU-Only",
        known_keys: &[],
        build: |_| Ok(Box::new(CpuOnly)),
    },
    PolicyEntry {
        kind: PolicyKind::WeightedCpuMem,
        name: "weighted-cpu-mem",
        token: "weighted",
        display: "Weighted-CPU-Mem",
        known_keys: &[],
        build: |_| Ok(Box::new(WeightedCpuMem)),
    },
    PolicyEntry {
        kind: PolicyKind::GLoadSharing,
        name: "g-loadsharing",
        token: "gls",
        display: "G-Loadsharing",
        known_keys: &[],
        build: |_| Ok(Box::new(GLoadSharing)),
    },
    PolicyEntry {
        kind: PolicyKind::SuspendLargest,
        name: "suspend-largest",
        token: "suspend",
        display: "Suspend-Largest",
        known_keys: &[],
        build: |_| Ok(Box::new(SuspendLargest)),
    },
    PolicyEntry {
        kind: PolicyKind::VReconfiguration,
        name: "v-reconfiguration",
        token: "vrecon",
        display: "V-Reconfiguration",
        known_keys: &[],
        build: |_| Ok(Box::new(VReconfiguration)),
    },
    PolicyEntry {
        kind: PolicyKind::Malleable,
        name: "malleable",
        token: "malleable",
        display: "Malleable",
        known_keys: MalleableParams::KNOWN_KEYS,
        build: |bag| {
            Ok(Box::new(Malleable {
                params: MalleableParams::from_bag(bag)?,
            }))
        },
    },
    PolicyEntry {
        kind: PolicyKind::Fractional,
        name: "fractional",
        token: "fractional",
        display: "Fractional",
        known_keys: FractionalParams::KNOWN_KEYS,
        build: |bag| {
            Ok(Box::new(Fractional {
                params: FractionalParams::from_bag(bag)?,
            }))
        },
    },
];

/// The policy registry: one row per [`PolicyKind`], in
/// [`PolicyKind::ALL`] order (the fuzzer draws rows by index).
pub fn registry() -> &'static [PolicyEntry; 9] {
    &REGISTRY
}

/// The registry row of `kind`.
pub fn entry(kind: PolicyKind) -> &'static PolicyEntry {
    REGISTRY
        .iter()
        .find(|e| e.kind == kind)
        // vr-lint::allow(panic-in-lib, reason = "REGISTRY has one row per PolicyKind variant by construction, pinned by the registry_covers_every_kind test")
        .expect("every PolicyKind has a registry row")
}

/// Resolves any spelling of a family — registry name, short token, or
/// display name — to its [`PolicyKind`].
pub fn kind_of(name: &str) -> Option<PolicyKind> {
    REGISTRY
        .iter()
        .find(|e| [e.name, e.token, e.display].contains(&name))
        .map(|e| e.kind)
}

/// Builds the plugin for `kind` with `params`.
///
/// # Errors
///
/// Names the policy and the first unknown key, unparsable value, or
/// out-of-range value in `params`.
pub fn build_policy(kind: PolicyKind, params: &ParamBag) -> Result<Box<dyn Policy>, String> {
    let row = entry(kind);
    params
        .reject_unknown(row.known_keys)
        .and_then(|()| (row.build)(params))
        .map_err(|e| format!("policy `{}`: {e}", row.name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_kind() {
        // Every spelling resolving to its row is checked, with the CLI, the
        // report and the spec wire format, by the CLI's table test.
        for (row, kind) in registry().iter().zip(PolicyKind::ALL) {
            assert_eq!(row.kind, kind, "rows follow PolicyKind::ALL order");
            assert!(build_policy(kind, &ParamBag::new()).is_ok());
        }
        assert_eq!(kind_of("magic"), None);
    }

    #[test]
    fn param_bag_parse_render_round_trip() {
        for text in ["", "a=1", "a=1,b=two", "oversub=1.5,max_step=2"] {
            let bag = ParamBag::parse(text).unwrap();
            let rendered = bag.render();
            assert_eq!(ParamBag::parse(&rendered).unwrap(), bag, "{text}");
            // Canonical render is sorted, so re-rendering is a fixpoint.
            assert_eq!(ParamBag::parse(&rendered).unwrap().render(), rendered);
        }
        let bag = ParamBag::parse("b=2,a=1").unwrap();
        assert_eq!(bag.render(), "a=1,b=2");
    }

    #[test]
    fn param_bag_rejects_malformed_and_duplicate() {
        assert!(ParamBag::parse("noequals").is_err());
        assert!(ParamBag::parse("=v").is_err());
        assert!(ParamBag::parse("a=1,a=2").is_err());
        // Empty value is allowed (key present, value empty string).
        let bag = ParamBag::parse("a=").unwrap();
        assert_eq!(bag.get::<String>("a"), Ok(Some(String::new())));
    }

    #[test]
    fn unknown_keys_are_rejected_per_policy() {
        let bag = ParamBag::new().with("bogus", 1);
        for kind in PolicyKind::ALL {
            let err = build_policy(kind, &bag).unwrap_err();
            assert!(err.contains("unknown parameter `bogus`"), "{kind:?}: {err}");
        }
        // Known keys of one family are unknown to another.
        let oversub = ParamBag::new().with("oversub", 1.5);
        assert!(build_policy(PolicyKind::Fractional, &oversub).is_ok());
        assert!(build_policy(PolicyKind::Malleable, &oversub).is_err());
        assert!(build_policy(PolicyKind::GLoadSharing, &oversub).is_err());
    }

    #[test]
    fn parameter_values_are_validated() {
        assert!(build_policy(
            PolicyKind::Fractional,
            &ParamBag::new().with("oversub", 0.5)
        )
        .is_err());
        assert!(build_policy(
            PolicyKind::Fractional,
            &ParamBag::new().with("oversub", "NaN")
        )
        .is_err());
        assert!(build_policy(PolicyKind::Malleable, &ParamBag::new().with("max_step", 0)).is_err());
        assert!(build_policy(
            PolicyKind::Malleable,
            &ParamBag::new().with("max_step", "many")
        )
        .is_err());
    }

    #[test]
    fn built_capabilities_follow_the_family() {
        let built = |kind| build_policy(kind, &ParamBag::new()).unwrap();
        assert!(built(PolicyKind::VReconfiguration).reconfigures());
        assert!(built(PolicyKind::SuspendLargest).suspends_on_blocking());
        assert!(built(PolicyKind::Malleable).resizes());
        assert!(built(PolicyKind::Malleable).migrates_on_overload());
        assert!(built(PolicyKind::Fractional).commit_aware_placement());
        assert_eq!(built(PolicyKind::Fractional).slot_cap(4), 8);
        assert!(!built(PolicyKind::NoLoadSharing).migrates_on_overload());
        for kind in PolicyKind::ALL {
            let p = built(kind);
            assert!(!(p.reconfigures() && p.suspends_on_blocking()), "{kind}");
        }
    }
}
