//! The `metric-discipline` pass: metric names must be static.
//!
//! PR 8 gave the daemon a Prometheus-style `/metrics` exposition endpoint.
//! That surface is only operable if the set of series the process can emit
//! is *bounded and auditable*: a name built with `format!` at a call site
//! can mint a fresh series per request/user/path, which blows up scrape
//! size, defeats dashboards keyed on known names, and hides the full
//! series set from review. The rule this pass enforces: every name handed
//! to a metric- or span-recording API must be a `&'static str` literal or
//! a constant from a name registry (see `crates/serve/src/names.rs`, where
//! even labeled series are closed matches over literals).
//!
//! Mechanics: every call to a recording entry point — method form
//! (`scope.add(…)`, `rec.observe(…)`) or qualified free-fn form
//! (`obs::add(…)`, `diffaudit_obs::span(…)`, `crate::span(…)`) — is
//! located, its *first argument* is extracted (up to the depth-0 comma),
//! and the pass warns if that argument builds the name dynamically with
//! `format!`, `.to_string()`, or `String::from`. Plain variables and
//! constants pass: the point is to push name construction to a declared
//! registry, not to forbid indirection.
//!
//! Legitimate dynamic names exist — the obs recorder itself derives the
//! `{span}.us` latency histogram from the span name, and the salvage
//! mirror writes `salvage.<stage>.*` counters from a closed stage enum.
//! Those sites carry `lint:allow(metric-discipline)` annotations with
//! their justification; the severity is `warning` (a name-hygiene issue,
//! not a correctness bug).

use crate::annotations::Allows;
use crate::findings::{Finding, Lint};
use crate::lexer::{self, is_ident};
use crate::parser::matching_close;
use crate::passes::SourceFile;

/// Recording entry points whose first argument is a metric/span name.
/// (`error`/`warn`/`info`/`debug` are deliberately absent — event
/// *messages* are prose, not series names.)
pub const METRIC_ENTRY_POINTS: [&str; 10] = [
    "add",
    "observe",
    "span",
    "time",
    "enter",
    "gauge_set",
    "gauge_add",
    "gauge_sub",
    "window_add",
    "window_observe",
];

/// Qualified-path prefixes under which the entry points are the obs API.
/// (`crate::` covers the obs crate's own internal forwarding.)
const PATH_PREFIXES: [&str; 3] = ["diffaudit_obs::", "obs::", "crate::"];

/// Textual evidence that the name is constructed at the call site.
const DYNAMIC_PATTERNS: [(&str, &str); 3] = [
    ("format!", "`format!`"),
    (".to_string()", "`.to_string()`"),
    ("String::from(", "`String::from`"),
];

/// Run the pass over one file.
pub fn metric_discipline(file: &SourceFile, allows: &Allows, findings: &mut Vec<Finding>) {
    let stripped = file.stripped();
    let bytes = stripped.as_bytes();
    for (at, name) in call_sites(stripped) {
        let line = lexer::line_of(file.line_starts(), at);
        if file.in_test_code(line) || allows.allows(Lint::MetricDiscipline, line) {
            continue;
        }
        let Some(open_rel) = stripped[at..].find('(') else {
            continue;
        };
        let open = at + open_rel;
        let Some(close) = matching_close(bytes, open) else {
            continue;
        };
        let Some(arg) = first_argument(stripped, open, close) else {
            continue;
        };
        for (pattern, shown) in DYNAMIC_PATTERNS {
            if arg.contains(pattern) {
                findings.push(Finding::new(
                    file.path.clone(),
                    line,
                    Lint::MetricDiscipline,
                    format!(
                        "metric name passed to `{name}` is built with {shown}; use a \
                         `&'static str` literal or a name-registry constant so the \
                         exposition series set stays bounded and auditable"
                    ),
                ));
                break;
            }
        }
    }
}

/// Offsets of `<entry>(` call sites, paired with the entry-point name.
/// Matches method calls (`.add(`) and qualified free functions
/// (`obs::add(`); a bare `add(` is some other function and is skipped.
fn call_sites(stripped: &str) -> Vec<(usize, &'static str)> {
    let bytes = stripped.as_bytes();
    let mut sites = Vec::new();
    for entry in METRIC_ENTRY_POINTS {
        let mut from = 0usize;
        while let Some(rel) = stripped[from..].find(entry) {
            let at = from + rel;
            from = at + 1;
            if at > 0 && is_ident(bytes[at - 1]) {
                continue;
            }
            let ident_end = at + entry.len();
            if ident_end < stripped.len() && is_ident(bytes[ident_end]) {
                continue;
            }
            // Must be a call, not a definition or a doc path.
            if !stripped[ident_end..].trim_start().starts_with('(') {
                continue;
            }
            let qualified = (at > 0 && bytes[at - 1] == b'.')
                || PATH_PREFIXES
                    .iter()
                    .any(|prefix| stripped[..at].ends_with(prefix));
            if !qualified {
                continue;
            }
            sites.push((at, entry));
        }
    }
    sites.sort_by_key(|&(at, _)| at);
    sites
}

/// The first argument of the call whose parens span `open..=close`: the
/// text up to the first depth-0 comma (or the close paren for a one-arg
/// call). `None` for an empty argument list.
fn first_argument(stripped: &str, open: usize, close: usize) -> Option<&str> {
    let mut depth = 0usize;
    let mut end = close;
    for (idx, byte) in stripped[open + 1..close].bytes().enumerate() {
        match byte {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth = depth.saturating_sub(1),
            b',' if depth == 0 => {
                end = open + 1 + idx;
                break;
            }
            _ => {}
        }
    }
    let arg = stripped[open + 1..end].trim();
    (!arg.is_empty()).then_some(arg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::new("t.rs", src);
        let mut findings = Vec::new();
        let allows = annotations::parse("t.rs", src, file.stripped(), &mut findings);
        metric_discipline(&file, &allows, &mut findings);
        findings
    }

    #[test]
    fn format_built_name_flagged() {
        let src = "\
fn record(user: &str) {
    obs::add(&format!(\"requests.{user}\"), 1);
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].lint, Lint::MetricDiscipline);
        assert_eq!(findings[0].line, 2);
        assert!(findings[0].message.contains("format!"));
    }

    #[test]
    fn to_string_and_string_from_flagged() {
        let src = "\
fn record(name: &str) {
    let _span = crate::span(name.to_string());
    scope.observe(String::from(name), &BOUNDS, 1);
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert!(findings[0].message.contains("to_string"));
        assert!(findings[1].message.contains("String::from"));
    }

    #[test]
    fn literals_constants_and_variables_pass() {
        let src = "\
fn record(dynamic_but_declared: &'static str) {
    obs::add(\"serve.jobs.finished\", 1);
    obs::gauge_set(names::QUEUE_DEPTH, 3);
    scope.window_observe(HTTP_LATENCY, &BOUNDS, 12);
    rec.add(dynamic_but_declared, 1);
}
";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn only_the_name_argument_is_judged() {
        // A format! in a later argument (or inside a timed closure) is fine.
        let src = "\
fn record(scope: &Scope) {
    obs::error(\"load failed\", &[obs::field(\"path\", format!(\"{dir}/x\"))]);
    scope.time(\"serve.job.load\", || format!(\"{a}{b}\"));
}
";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn unqualified_calls_are_not_metric_apis() {
        let src = "\
fn own_helpers() {
    add(&format!(\"not the obs api\"), 1);
    set.insert(format!(\"hash set entry\"));
}
";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = "\
fn span_histogram(name: &str, dur_us: u64) {
    self.metrics
        // lint:allow(metric-discipline): derived `{span}.us` histogram, span names are static
        .observe(&format!(\"{name}.us\"), &BOUNDS, dur_us);
}
";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        obs::add(&format!(\"test.{n}\"), 1);
    }
}
";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }
}
