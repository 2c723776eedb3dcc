//! Diagnostic types shared by every lint pass.

use std::fmt;

/// How bad a finding is. Every finding gates the build regardless of
/// severity (the ratchet allows no new findings of either level); severity
/// exists so reports and the JSON output can rank what to fix first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Severity {
    /// Style/robustness issue: fix when touching the code.
    Warning,
    /// Correctness or privacy hazard: fix before merging.
    Error,
}

impl Severity {
    /// The lowercase name used in diagnostics and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The lint that produced a finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lint {
    /// Panic-capable construct in an untrusted-input crate.
    NoPanic,
    /// `unsafe` without a `// SAFETY:` justification.
    UnsafeAudit,
    /// Public fallible API returning a stringly-typed error.
    ErrorTaxonomy,
    /// Raw `eprintln!`/`eprint!` bypassing the structured logger.
    NoBareEprintln,
    /// Process-global mutable state (`static mut`, module statics holding
    /// `OnceLock`/atomics/locks, `thread_local!`) or ambient env/CWD reads.
    GlobalState,
    /// Raw payload bytes reaching a log/trace/export sink without passing
    /// through a redaction or summary function.
    Redaction,
    /// Forbidden operation inside a `par_map*` worker closure (blocking
    /// I/O, global-registry metric writes, trace-stream emission).
    ParDiscipline,
    /// Metric/span name built dynamically (`format!`, `.to_string()`,
    /// `String::from`) instead of a static literal or registry constant.
    MetricDiscipline,
    /// Malformed `// lint:allow(...)` annotation.
    Annotation,
}

impl Lint {
    /// The name used in diagnostics and in `lint:allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Lint::NoPanic => "no-panic",
            Lint::UnsafeAudit => "unsafe-audit",
            Lint::ErrorTaxonomy => "error-taxonomy",
            Lint::NoBareEprintln => "no-bare-eprintln",
            Lint::GlobalState => "global-state",
            Lint::Redaction => "redaction",
            Lint::ParDiscipline => "par-discipline",
            Lint::MetricDiscipline => "metric-discipline",
            Lint::Annotation => "annotation",
        }
    }

    /// Parse a `lint:allow` target name. `annotation` is not allowable —
    /// a broken annotation cannot excuse itself.
    pub fn from_allow_name(name: &str) -> Option<Lint> {
        match name {
            "no-panic" => Some(Lint::NoPanic),
            "unsafe-audit" => Some(Lint::UnsafeAudit),
            "error-taxonomy" => Some(Lint::ErrorTaxonomy),
            "no-bare-eprintln" => Some(Lint::NoBareEprintln),
            "global-state" => Some(Lint::GlobalState),
            "redaction" => Some(Lint::Redaction),
            "par-discipline" => Some(Lint::ParDiscipline),
            "metric-discipline" => Some(Lint::MetricDiscipline),
            _ => None,
        }
    }

    /// The severity a finding from this lint carries unless the pass says
    /// otherwise (e.g. `static mut` upgrades `global-state` to error).
    pub fn default_severity(self) -> Severity {
        match self {
            Lint::NoPanic | Lint::UnsafeAudit | Lint::Redaction | Lint::ParDiscipline => {
                Severity::Error
            }
            Lint::ErrorTaxonomy
            | Lint::NoBareEprintln
            | Lint::GlobalState
            | Lint::MetricDiscipline
            | Lint::Annotation => Severity::Warning,
        }
    }
}

impl fmt::Display for Lint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a lint fired at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which lint fired.
    pub lint: Lint,
    /// How bad it is (informational; all findings gate).
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// A finding carrying the lint's default severity.
    pub fn new(file: impl Into<String>, line: usize, lint: Lint, message: String) -> Finding {
        Finding {
            file: file.into(),
            line,
            lint,
            severity: lint.default_severity(),
            message,
        }
    }

    /// The identity used by the baseline ratchet: `(file, lint, message)`
    /// — line numbers shift on unrelated edits, so they are excluded.
    pub fn baseline_key(&self) -> (String, &'static str, String) {
        (self.file.clone(), self.lint.name(), self.message.clone())
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}[{}]: {}",
            self.file, self.line, self.severity, self.lint, self.message
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_matches_rustc_style() {
        let finding = Finding::new(
            "crates/nettrace/src/pcap.rs",
            154,
            Lint::NoPanic,
            "`.unwrap()` on untrusted input path".into(),
        );
        assert_eq!(
            finding.to_string(),
            "crates/nettrace/src/pcap.rs:154: error[no-panic]: `.unwrap()` on untrusted input path"
        );
    }

    #[test]
    fn allow_names_round_trip() {
        for lint in [
            Lint::NoPanic,
            Lint::UnsafeAudit,
            Lint::ErrorTaxonomy,
            Lint::NoBareEprintln,
            Lint::GlobalState,
            Lint::Redaction,
            Lint::ParDiscipline,
            Lint::MetricDiscipline,
        ] {
            assert_eq!(Lint::from_allow_name(lint.name()), Some(lint));
        }
        assert_eq!(Lint::from_allow_name("annotation"), None);
        assert_eq!(Lint::from_allow_name("bogus"), None);
    }

    #[test]
    fn severity_ordering_and_defaults() {
        assert!(Severity::Error > Severity::Warning);
        assert_eq!(Lint::NoPanic.default_severity(), Severity::Error);
        assert_eq!(Lint::Redaction.default_severity(), Severity::Error);
        assert_eq!(Lint::ParDiscipline.default_severity(), Severity::Error);
        assert_eq!(Lint::GlobalState.default_severity(), Severity::Warning);
        assert_eq!(Lint::NoBareEprintln.default_severity(), Severity::Warning);
        assert_eq!(Lint::MetricDiscipline.default_severity(), Severity::Warning);
    }

    #[test]
    fn baseline_key_ignores_line() {
        let a = Finding::new("f.rs", 1, Lint::NoPanic, "m".into());
        let b = Finding::new("f.rs", 99, Lint::NoPanic, "m".into());
        assert_eq!(a.baseline_key(), b.baseline_key());
    }
}
