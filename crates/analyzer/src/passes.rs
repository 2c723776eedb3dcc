//! The per-file lint passes (`no-panic`, `unsafe-audit`, `error-taxonomy`,
//! `no-bare-eprintln`) and the driver that sequences them with the
//! item-level passes (`global-state`, `redaction`, `par-discipline`,
//! `metric-discipline`).
//!
//! Every pass operates on a [`SourceFile`] — the raw text plus its
//! lexer-stripped twin — so matches never fire inside comments or string
//! literals, and `#[cfg(test)]` modules are excluded where the policy says
//! production-only. The item-level passes additionally consume the
//! [`crate::parser::FileModel`] and (for redaction) the crate-wide
//! [`crate::dataflow::CrateModel`].

use crate::annotations::{self, Allows};
use crate::dataflow::CrateModel;
use crate::findings::{Finding, Lint};
use crate::global_state::global_state;
use crate::lexer::{self, is_ident, occurrences};
use crate::metric_discipline::metric_discipline;
use crate::par_discipline::par_discipline;
use crate::parser::FileModel;
use crate::redaction::redaction;

/// Which passes apply to a file (decided per crate/directory by the driver).
#[derive(Debug, Clone, Copy)]
pub struct Policy {
    /// Enforce panic-freedom (designated untrusted-input crates only).
    pub no_panic: bool,
    /// Require `// SAFETY:` on `unsafe` (all files).
    pub unsafe_audit: bool,
    /// Forbid stringly-typed errors on `pub fn` (designated crates only).
    pub error_taxonomy: bool,
    /// Forbid raw `eprintln!`/`eprint!` (all production sources; sink
    /// modules are allowlisted by path in the driver).
    pub no_bare_eprintln: bool,
    /// Flag process-global state and ambient env/CWD reads (all production
    /// sources).
    pub global_state: bool,
    /// Taint-check payload-to-sink flows (all production sources).
    pub redaction: bool,
    /// Enforce worker-closure hygiene around `par_map*` (all production
    /// sources).
    pub par_discipline: bool,
    /// Require static metric/span names at recording call sites (all
    /// production sources).
    pub metric_discipline: bool,
}

impl Policy {
    /// Policy for untrusted-input parser crates' production sources. The
    /// item-level passes are off here; the workspace driver switches them
    /// on for production files via [`Policy::with_item_passes`].
    pub fn parser_crate() -> Policy {
        Policy {
            no_panic: true,
            unsafe_audit: true,
            error_taxonomy: true,
            no_bare_eprintln: false,
            global_state: false,
            redaction: false,
            par_discipline: false,
            metric_discipline: false,
        }
    }

    /// Policy for everything else (tests, benches, ordinary crates).
    pub fn default_crate() -> Policy {
        Policy {
            no_panic: false,
            unsafe_audit: true,
            error_taxonomy: false,
            no_bare_eprintln: false,
            global_state: false,
            redaction: false,
            par_discipline: false,
            metric_discipline: false,
        }
    }

    /// Enable the item-level dataflow passes (production sources only).
    pub fn with_item_passes(mut self) -> Policy {
        self.global_state = true;
        self.redaction = true;
        self.par_discipline = true;
        self.metric_discipline = true;
        self
    }
}

/// A source file prepared for analysis.
pub struct SourceFile {
    /// Workspace-relative display path.
    pub path: String,
    raw: String,
    stripped: String,
    line_starts: Vec<usize>,
    /// 1-based line ranges covered by `#[cfg(test)]` items.
    test_ranges: Vec<(usize, usize)>,
}

impl SourceFile {
    /// Lex and index `raw`.
    pub fn new(path: impl Into<String>, raw: impl Into<String>) -> SourceFile {
        let raw = raw.into();
        let stripped = lexer::strip(&raw);
        let line_starts = lexer::line_starts(&raw);
        let test_ranges = cfg_test_ranges(&stripped, &line_starts);
        SourceFile {
            path: path.into(),
            raw,
            stripped,
            line_starts,
            test_ranges,
        }
    }

    fn line_of(&self, offset: usize) -> usize {
        lexer::line_of(&self.line_starts, offset)
    }

    /// The lexer-stripped twin (same length as the raw text).
    pub fn stripped(&self) -> &str {
        &self.stripped
    }

    /// The original source text.
    pub fn raw(&self) -> &str {
        &self.raw
    }

    /// 0-based byte offsets of each line start (see [`lexer::line_starts`]).
    pub fn line_starts(&self) -> &[usize] {
        &self.line_starts
    }

    /// Is this 1-based line inside a `#[cfg(test)]` item?
    pub fn in_test_code(&self, line: usize) -> bool {
        self.test_ranges
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
    }
}

/// One file prepared for crate-level analysis.
pub struct FileUnit<'a> {
    /// The prepared source.
    pub source: &'a SourceFile,
    /// Its item-level model.
    pub model: &'a FileModel,
    /// Which passes apply.
    pub policy: Policy,
    /// File is on the env/CWD-read allowlist (CLI entry points).
    pub env_allowed: bool,
}

/// Run all passes enabled by `policy` over a single standalone file.
/// Crate-wide carrier propagation sees only this file; the workspace driver
/// uses [`analyze_units`] to share a crate model across files.
pub fn analyze_source(file: &SourceFile, policy: Policy) -> Vec<Finding> {
    let model = FileModel::parse(file.stripped());
    let unit = FileUnit {
        source: file,
        model: &model,
        policy,
        env_allowed: false,
    };
    analyze_units(std::slice::from_ref(&unit))
}

/// Run all passes over one crate's files: per-file passes first, then the
/// crate-wide redaction pass (sharing one carrier fixpoint), then the
/// stale-escape audit — so an annotation used by *any* pass is not stale.
pub fn analyze_units(units: &[FileUnit<'_>]) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut allows: Vec<Allows> = Vec::with_capacity(units.len());
    for unit in units {
        let file = unit.source;
        allows.push(annotations::parse(
            &file.path,
            file.raw(),
            file.stripped(),
            &mut findings,
        ));
    }
    let crate_model = CrateModel::build(
        units
            .iter()
            .filter(|u| u.policy.redaction)
            .map(|u| (u.source.path.as_str(), u.model, u.source.stripped()))
            .collect(),
    );
    for (unit, allow) in units.iter().zip(&allows) {
        let file = unit.source;
        let policy = unit.policy;
        if policy.no_panic {
            no_panic(file, allow, &mut findings);
        }
        if policy.unsafe_audit {
            unsafe_audit(file, allow, &mut findings);
        }
        if policy.error_taxonomy {
            error_taxonomy(file, allow, &mut findings);
        }
        if policy.no_bare_eprintln {
            no_bare_eprintln(file, allow, &mut findings);
        }
        if policy.global_state {
            global_state(file, unit.model, allow, unit.env_allowed, &mut findings);
        }
        if policy.par_discipline {
            par_discipline(file, unit.model, allow, &mut findings);
        }
        if policy.metric_discipline {
            metric_discipline(file, allow, &mut findings);
        }
        if policy.redaction {
            redaction(file, unit.model, &crate_model, allow, &mut findings);
        }
    }
    // An escape that suppressed nothing is stale — but only judge lints whose
    // pass actually ran here, otherwise the pass never had a chance to use it.
    for (unit, allow) in units.iter().zip(&allows) {
        let policy = unit.policy;
        for (lint, line) in allow.stale() {
            let pass_ran = match lint {
                Lint::NoPanic => policy.no_panic,
                Lint::UnsafeAudit => policy.unsafe_audit,
                Lint::ErrorTaxonomy => policy.error_taxonomy,
                Lint::NoBareEprintln => policy.no_bare_eprintln,
                Lint::GlobalState => policy.global_state,
                Lint::Redaction => policy.redaction,
                Lint::ParDiscipline => policy.par_discipline,
                Lint::MetricDiscipline => policy.metric_discipline,
                Lint::Annotation => false,
            };
            if !pass_ran {
                continue;
            }
            findings.push(Finding::new(
                unit.source.path.clone(),
                line,
                Lint::Annotation,
                format!("stale lint:allow({lint}): it suppresses no finding; remove it"),
            ));
        }
    }
    findings.sort_by(|a, b| {
        a.file
            .cmp(&b.file)
            .then(a.line.cmp(&b.line))
            .then_with(|| a.message.cmp(&b.message))
    });
    findings
}

// ---------------------------------------------------------------- no-panic

fn no_panic(file: &SourceFile, allows: &Allows, findings: &mut Vec<Finding>) {
    let stripped = &file.stripped;
    let mut hits: Vec<(usize, String)> = Vec::new();

    for at in occurrences(stripped, ".unwrap()") {
        hits.push((
            at,
            "`.unwrap()` can panic; return a typed error instead".into(),
        ));
    }
    for at in occurrences(stripped, ".expect(") {
        hits.push((
            at,
            "`.expect(..)` can panic; return a typed error instead".into(),
        ));
    }
    for macro_name in ["panic", "todo", "unimplemented"] {
        let needle = format!("{macro_name}!");
        for at in occurrences(stripped, &needle) {
            // Word boundary: `should_panic!`-style identifiers must not match.
            if at > 0 && is_ident(stripped.as_bytes()[at - 1]) {
                continue;
            }
            hits.push((
                at,
                format!("`{macro_name}!` is forbidden on untrusted-input paths"),
            ));
        }
    }
    for at in index_expression_sites(stripped) {
        hits.push((
            at,
            "slice/array indexing (`[..]`) can panic; use `.get(..)` or a checked reader".into(),
        ));
    }

    for (at, message) in hits {
        let line = file.line_of(at);
        if file.in_test_code(line) || allows.allows(Lint::NoPanic, line) {
            continue;
        }
        findings.push(Finding::new(
            file.path.clone(),
            line,
            Lint::NoPanic,
            message,
        ));
    }
}

/// Offsets of `[` tokens that open an *index expression* (as opposed to an
/// attribute, macro invocation, array literal/type, or slice pattern).
///
/// Heuristic: a `[` indexes when the previous non-whitespace character is an
/// identifier character, `)`, or `]` — i.e. it follows a value — except when
/// that identifier is a keyword (`for x in [..]`, `return [..]`, …).
fn index_expression_sites(stripped: &str) -> Vec<usize> {
    const KEYWORDS: [&str; 14] = [
        "for", "in", "if", "else", "match", "return", "break", "while", "loop", "let", "mut",
        "ref", "move", "as",
    ];
    let bytes = stripped.as_bytes();
    let mut sites = Vec::new();
    for (at, &byte) in bytes.iter().enumerate() {
        if byte != b'[' {
            continue;
        }
        let Some(prev_at) = stripped[..at].rfind(|c: char| !c.is_whitespace()) else {
            continue;
        };
        let prev = bytes[prev_at];
        if prev == b')' || prev == b']' {
            sites.push(at);
            continue;
        }
        if !is_ident(prev) {
            continue;
        }
        let ident_start = stripped[..=prev_at]
            .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map(|i| i + 1)
            .unwrap_or(0);
        let ident = &stripped[ident_start..=prev_at];
        if KEYWORDS.contains(&ident) {
            continue;
        }
        // A lifetime (`&'a [u8]`) is a type, not an indexable expression.
        if ident_start > 0 && bytes[ident_start - 1] == b'\'' {
            continue;
        }
        sites.push(at);
    }
    sites
}

// ------------------------------------------------------ no-bare-eprintln

/// Flag raw `eprintln!` / `eprint!` invocations. In the instrumented crates
/// every operator-facing stderr line must flow through the leveled
/// `diffaudit-obs` event API so `--log-level` filters it and `--trace-out`
/// records it; a bare macro call bypasses both sinks.
fn no_bare_eprintln(file: &SourceFile, allows: &Allows, findings: &mut Vec<Finding>) {
    let stripped = &file.stripped;
    let bytes = stripped.as_bytes();
    for needle in ["eprintln!", "eprint!"] {
        for at in occurrences(stripped, needle) {
            // Word boundary: `my_eprintln!`-style identifiers must not match.
            if at > 0 && is_ident(bytes[at - 1]) {
                continue;
            }
            let line = file.line_of(at);
            if file.in_test_code(line) || allows.allows(Lint::NoBareEprintln, line) {
                continue;
            }
            findings.push(Finding::new(
                file.path.clone(),
                line,
                Lint::NoBareEprintln,
                format!(
                    "`{needle}` bypasses the structured logger; emit a diffaudit-obs event instead"
                ),
            ));
        }
    }
}

// ------------------------------------------------------------ unsafe-audit

fn unsafe_audit(file: &SourceFile, allows: &Allows, findings: &mut Vec<Finding>) {
    let stripped = &file.stripped;
    let bytes = stripped.as_bytes();
    let raw_lines: Vec<&str> = file.raw.lines().collect();
    for at in occurrences(stripped, "unsafe") {
        // Word boundaries on both sides.
        if at > 0 && is_ident(bytes[at - 1]) {
            continue;
        }
        if bytes
            .get(at + "unsafe".len())
            .copied()
            .is_some_and(is_ident)
        {
            continue;
        }
        let line = file.line_of(at);
        if allows.allows(Lint::UnsafeAudit, line) {
            continue;
        }
        // Accept a SAFETY comment on the same line or up to 3 lines above.
        let justified = (line.saturating_sub(4)..line)
            .filter_map(|idx| raw_lines.get(idx))
            .any(|l| l.contains("// SAFETY:") || l.contains("//! SAFETY:"));
        if justified {
            continue;
        }
        findings.push(Finding::new(
            file.path.clone(),
            line,
            Lint::UnsafeAudit,
            "`unsafe` without a `// SAFETY:` comment justifying it".to_string(),
        ));
    }
}

// --------------------------------------------------------- error-taxonomy

fn error_taxonomy(file: &SourceFile, allows: &Allows, findings: &mut Vec<Finding>) {
    let stripped = &file.stripped;
    let bytes = stripped.as_bytes();
    for at in occurrences(stripped, "pub") {
        if at > 0 && is_ident(bytes[at - 1]) {
            continue;
        }
        if bytes.get(at + 3).copied().is_some_and(is_ident) {
            continue;
        }
        let Some((sig_end, ret)) = fn_return_type(stripped, at) else {
            continue;
        };
        let _ = sig_end;
        let Some(error_type) = result_error_type(&ret) else {
            continue;
        };
        let stringly = error_type == "String"
            || error_type.contains("&str")
            || error_type.contains("& str")
            || error_type.contains("&'static str")
            || error_type == "str";
        if !stringly {
            continue;
        }
        let line = file.line_of(at);
        if file.in_test_code(line) || allows.allows(Lint::ErrorTaxonomy, line) {
            continue;
        }
        findings.push(Finding::new(
            file.path.clone(),
            line,
            Lint::ErrorTaxonomy,
            format!(
                "pub fallible API returns `Result<_, {error_type}>`; use the crate's typed error"
            ),
        ));
    }
}

/// If a `pub` token at `at` heads a `fn` item with a `->` return type,
/// return `(signature_end, return_type_text)`.
fn fn_return_type(stripped: &str, at: usize) -> Option<(usize, String)> {
    let mut rest = &stripped[at + 3..];
    let mut base = at + 3;
    // Optional visibility argument `(crate)` / `(super)` / `(in path)`.
    let trimmed = rest.trim_start();
    base += rest.len() - trimmed.len();
    rest = trimmed;
    if let Some(inner) = rest.strip_prefix('(') {
        let close = inner.find(')')?;
        base += close + 2;
        rest = &inner[close + 1..];
    }
    // Optional qualifiers.
    loop {
        let trimmed = rest.trim_start();
        base += rest.len() - trimmed.len();
        rest = trimmed;
        let mut advanced = false;
        for q in ["const", "async", "unsafe", "extern"] {
            if let Some(after) = rest.strip_prefix(q) {
                if after.starts_with(|c: char| c.is_whitespace() || c == '"') {
                    base += q.len();
                    rest = after;
                    advanced = true;
                    break;
                }
            }
        }
        if !advanced {
            break;
        }
    }
    rest = rest.trim_start();
    let fn_kw = rest.strip_prefix("fn")?;
    if !fn_kw.starts_with(|c: char| c.is_whitespace()) {
        return None;
    }
    let _ = base;
    // Find the parameter list: first `(` after the name/generics, then its
    // matching `)` (tracking nested parens/brackets).
    let fn_at = stripped[at..].find("fn")? + at;
    let open = stripped[fn_at..].find('(')? + fn_at;
    let mut depth = 0usize;
    let mut close = None;
    for (idx, byte) in stripped[open..].bytes().enumerate() {
        match byte {
            b'(' => depth += 1,
            b')' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(open + idx);
                    break;
                }
            }
            _ => {}
        }
    }
    let close = close?;
    let after_params = &stripped[close + 1..];
    let arrow_rel = after_params.find("->")?;
    // The arrow must come before the body/terminator.
    let body_rel = after_params.find(['{', ';']).unwrap_or(after_params.len());
    if arrow_rel > body_rel {
        return None;
    }
    let ret_start = close + 1 + arrow_rel + 2;
    let ret_end = close + 1 + body_rel;
    // Trim a trailing `where` clause.
    let ret_text = &stripped[ret_start..ret_end];
    let ret_text = ret_text
        .split_once(" where")
        .map_or(ret_text, |(head, _)| head);
    Some((ret_end, ret_text.trim().to_string()))
}

/// If `ret` is `Result<T, E>` (std or crate alias), return `E` normalized.
fn result_error_type(ret: &str) -> Option<String> {
    let result_at = ret.find("Result")?;
    // Word boundary on the left (e.g. `MyResult<` should not match… unless
    // it *ends* with Result, which we accept as an alias convention).
    let after = &ret[result_at + "Result".len()..];
    let generics = after.trim_start().strip_prefix('<')?;
    // Find matching `>` at depth 0, then the top-level comma.
    let mut depth = 1usize;
    let mut comma = None;
    let mut end = None;
    for (idx, ch) in generics.char_indices() {
        match ch {
            '<' => depth += 1,
            '>' => {
                depth -= 1;
                if depth == 0 {
                    end = Some(idx);
                    break;
                }
            }
            ',' if depth == 1 && comma.is_none() => comma = Some(idx),
            _ => {}
        }
    }
    let end = end?;
    let comma = comma?;
    if comma > end {
        return None;
    }
    Some(normalize_ws(generics[comma + 1..end].trim()))
}

fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// 1-based line ranges of `#[cfg(test)]` items (usually `mod tests { … }`).
fn cfg_test_ranges(stripped: &str, line_starts: &[usize]) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    for at in occurrences(stripped, "#[cfg(test)]") {
        let after = at + "#[cfg(test)]".len();
        // Find the item's opening brace, then its matching close.
        let Some(open_rel) = stripped[after..].find('{') else {
            continue;
        };
        // If a `;` (e.g. `#[cfg(test)] use …;`) appears first, exempt just
        // the attribute's own line span.
        if let Some(semi_rel) = stripped[after..].find(';') {
            if semi_rel < open_rel {
                let lo = lexer::line_of(line_starts, at);
                let hi = lexer::line_of(line_starts, after + semi_rel);
                ranges.push((lo, hi));
                continue;
            }
        }
        let open = after + open_rel;
        let mut depth = 0usize;
        let mut close = open;
        for (idx, byte) in stripped[open..].bytes().enumerate() {
            match byte {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = open + idx;
                        break;
                    }
                }
                _ => {}
            }
        }
        ranges.push((
            lexer::line_of(line_starts, at),
            lexer::line_of(line_starts, close),
        ));
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parser_findings(src: &str) -> Vec<Finding> {
        analyze_source(&SourceFile::new("test.rs", src), Policy::parser_crate())
    }

    // ---------------------------------------------------------- no-panic

    #[test]
    fn flags_unwrap_expect_and_macros() {
        let src = "\
fn f(v: Vec<u8>) {
    let a = v.first().unwrap();
    let b = v.first().expect(\"x\");
    panic!(\"boom\");
    todo!();
    unimplemented!();
}
";
        let findings = parser_findings(src);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4, 5, 6], "{findings:#?}");
        assert!(findings.iter().all(|f| f.lint == Lint::NoPanic));
    }

    #[test]
    fn unwrap_or_and_expect_byte_do_not_match() {
        let src = "\
fn f(v: Option<u8>, p: &mut P) {
    let a = v.unwrap_or(0);
    let b = v.unwrap_or_default();
    p.expect_byte(b'x');
}
";
        assert!(parser_findings(src).is_empty());
    }

    #[test]
    fn flags_index_expressions_only() {
        let src = "\
fn f(v: &[u8], w: [u8; 4]) -> u8 {
    let a = v[0];
    let b = foo(v)[1];
    let c = w[2];
    let arr = [1, 2, 3];
    let t: [u8; 2] = [0; 2];
    #[derive(Debug)]
    struct S;
    let m = vec![1];
    for x in [1, 2] { let _ = x; }
    a
}
";
        let findings = parser_findings(src);
        let lines: Vec<usize> = findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 4], "{findings:#?}");
    }

    #[test]
    fn lifetime_slice_types_are_not_indexing() {
        let src = "\
struct Parser<'a> {
    bytes: &'a [u8],
    more: &'static [u8],
}
fn f<'b>(x: &'b [u8]) -> &'b [u8] {
    x
}
";
        assert!(parser_findings(src).is_empty());
    }

    #[test]
    fn chained_and_range_indexing_flagged() {
        let src = "fn f(v: &[Vec<u8>]) { let a = v[0][1]; let b = &v[1][..2]; }\n";
        let findings = parser_findings(src);
        assert_eq!(findings.len(), 4, "{findings:#?}");
    }

    #[test]
    fn comments_strings_and_tests_are_exempt() {
        let src = "\
// v[0].unwrap() in a comment
fn f() { let s = \"v[0].unwrap()\"; let _ = s; }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let v = vec![1];
        assert_eq!(v[0], 1);
        v.first().unwrap();
    }
}
";
        assert!(parser_findings(src).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = "\
fn f(w: &[u8]) -> u8 {
    w[0] // lint:allow(no-panic): caller guarantees non-empty
}
";
        assert!(parser_findings(src).is_empty());
    }

    #[test]
    fn stale_allow_annotation_flagged() {
        let src = "\
fn f(w: &[u8]) -> Option<u8> {
    w.first().copied() // lint:allow(no-panic): outdated — code was fixed
}
";
        let findings = parser_findings(src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].lint, Lint::Annotation);
        assert_eq!(findings[0].line, 2);
        assert!(
            findings[0].message.contains("stale"),
            "{}",
            findings[0].message
        );
    }

    #[test]
    fn stale_allow_not_judged_when_pass_disabled() {
        // no-panic is off under the default policy, so the pass never had a
        // chance to use the escape — it must not be called stale.
        let src = "fn f(w: &[u8]) -> u8 {\n    w[0] // lint:allow(no-panic): hot path\n}\n";
        let findings = analyze_source(&SourceFile::new("t.rs", src), Policy::default_crate());
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn default_policy_skips_no_panic() {
        let src = "fn f(v: &[u8]) -> u8 { v[0] }\n";
        let findings = analyze_source(&SourceFile::new("t.rs", src), Policy::default_crate());
        assert!(findings.is_empty());
    }

    // ------------------------------------------- no-bare-eprintln

    fn eprintln_policy() -> Policy {
        Policy {
            no_bare_eprintln: true,
            ..Policy::default_crate()
        }
    }

    #[test]
    fn bare_eprintln_and_eprint_flagged() {
        let src = "\
fn f(e: &str) {
    eprintln!(\"error: {e}\");
    eprint!(\"partial\");
}
";
        let findings = analyze_source(&SourceFile::new("t.rs", src), eprintln_policy());
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert!(findings.iter().all(|f| f.lint == Lint::NoBareEprintln));
        assert_eq!(findings[0].line, 2);
        assert_eq!(findings[1].line, 3);
    }

    #[test]
    fn eprintln_in_tests_comments_and_strings_exempt() {
        let src = "\
// eprintln!(\"in a comment\")
fn f() { let s = \"eprintln!(hi)\"; let _ = s; }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { eprintln!(\"debugging a test is fine\"); }
}
";
        let findings = analyze_source(&SourceFile::new("t.rs", src), eprintln_policy());
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn eprintln_allow_annotation_suppresses_and_goes_stale() {
        let allowed = "\
fn f() {
    eprintln!(\"x\"); // lint:allow(no-bare-eprintln): the sink itself
}
";
        let findings = analyze_source(&SourceFile::new("t.rs", allowed), eprintln_policy());
        assert!(findings.is_empty(), "{findings:#?}");

        let stale = "fn f() {} // lint:allow(no-bare-eprintln): nothing here\n";
        let findings = analyze_source(&SourceFile::new("t.rs", stale), eprintln_policy());
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].lint, Lint::Annotation);
        // And with the pass off, the unused escape is not judged.
        let findings = analyze_source(&SourceFile::new("t.rs", stale), Policy::default_crate());
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn eprintln_off_by_default_everywhere() {
        let src = "fn f() { eprintln!(\"x\"); }\n";
        for policy in [Policy::default_crate(), Policy::parser_crate()] {
            let findings = analyze_source(&SourceFile::new("t.rs", src), policy);
            assert!(findings.is_empty(), "{findings:#?}");
        }
    }

    // ------------------------------------------------------ unsafe-audit

    #[test]
    fn unsafe_without_safety_comment_flagged() {
        let src = "fn f(p: *const u8) -> u8 { unsafe { *p } }\n";
        let findings = analyze_source(&SourceFile::new("t.rs", src), Policy::default_crate());
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].lint, Lint::UnsafeAudit);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn unsafe_with_safety_comment_passes() {
        let src = "\
fn f(p: *const u8) -> u8 {
    // SAFETY: p is non-null and valid for reads by construction.
    unsafe { *p }
}
";
        let findings = analyze_source(&SourceFile::new("t.rs", src), Policy::default_crate());
        assert!(findings.is_empty(), "{findings:#?}");
    }

    #[test]
    fn unsafe_in_identifier_does_not_match() {
        let src = "fn f() { let unsafe_count = 1; let _ = unsafe_count; }\n";
        let findings = analyze_source(&SourceFile::new("t.rs", src), Policy::default_crate());
        assert!(findings.is_empty());
    }

    // --------------------------------------------------- error-taxonomy

    #[test]
    fn pub_fn_returning_string_error_flagged() {
        let src = "pub fn parse(s: &str) -> Result<u32, String> { s.parse().map_err(|_| \"no\".into()) }\n";
        let findings = parser_findings(src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].lint, Lint::ErrorTaxonomy);
        assert!(findings[0].message.contains("String"));
    }

    #[test]
    fn pub_fn_returning_str_error_flagged() {
        let src = "pub fn check(x: u8) -> Result<(), &'static str> { let _ = x; Ok(()) }\n";
        let findings = parser_findings(src);
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn typed_errors_and_private_fns_pass() {
        let src = "\
pub fn parse(s: &str) -> Result<u32, ParseError> { imp(s) }
fn imp(s: &str) -> Result<u32, String> { s.parse().map_err(|_| String::new()) }
pub fn infallible(x: u32) -> u32 { x }
pub fn optionish(x: u32) -> Option<String> { Some(x.to_string()) }
";
        assert!(parser_findings(src).is_empty());
    }

    #[test]
    fn multiline_signature_handled() {
        let src = "\
pub fn parse(
    input: &str,
    limit: usize,
) -> Result<Vec<u8>, String> {
    let _ = (input, limit);
    Ok(Vec::new())
}
";
        let findings = parser_findings(src);
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].line, 1);
    }

    #[test]
    fn nested_generic_error_not_confused() {
        let src =
            "pub fn f() -> Result<HashMap<String, Vec<u8>>, IoError> { Ok(HashMap::new()) }\n";
        assert!(parser_findings(src).is_empty());
    }
}
