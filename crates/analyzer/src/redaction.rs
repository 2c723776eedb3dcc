//! The `redaction` pass: raw payload must not reach log/trace sinks.
//!
//! DiffAudit's captures contain the very thing the paper is about — raw
//! request/response payloads carrying children's personal data. Our own
//! tooling must therefore never copy payload bytes into its diagnostic
//! surfaces. This pass implements an approximate taint analysis:
//!
//! - **Sources** — `.body`/`.plaintext` field reads and calls to the
//!   payload-decoding API ([`crate::dataflow::SOURCE_FNS`]), extended by
//!   the intra-crate carrier fixpoint ([`crate::dataflow::CrateModel`]).
//! - **Propagation** — a `let` binding whose initializer contains a source
//!   (or an already-tainted identifier) becomes tainted, unless the
//!   initializer passes through a sanitizer ([`crate::dataflow::SANITIZERS`]
//!   — aggregate shapes like `.len()`, or a named redaction/summary/
//!   fingerprint function). Propagation iterates to a fixpoint per body.
//! - **Sinks** — `eprintln!`/`println!` (and `eprint!`/`print!`),
//!   `diffaudit-obs` events (`error`/`warn`/`info`/`debug`, which feed the
//!   stderr sink *and* the JSONL trace), and `write_stderr_block`. A sink
//!   argument region containing a source expression or tainted identifier,
//!   with no sanitizer in the region, is a finding.
//! - **Escape** — `// lint:allow(redaction): <reason>` for deliberate
//!   flows (there are none today; fixtures exercise the machinery).

use crate::annotations::Allows;
use crate::dataflow::{contains_ident, is_sanitized, CrateModel, SOURCE_FIELDS};
use crate::findings::{Finding, Lint};
use crate::lexer::{self, is_ident};
use crate::parser::{matching_close, FileModel, FnItem};
use crate::passes::SourceFile;

/// Sink macros (argument region = everything inside the parens).
const SINK_MACROS: [&str; 4] = ["eprintln!", "eprint!", "println!", "print!"];

/// Sink functions: `diffaudit_obs` event emitters plus the raw stderr
/// block writer. Matched as the last path segment of a non-method call.
const SINK_FNS: [&str; 5] = ["error", "warn", "info", "debug", "write_stderr_block"];

/// Run the pass over one file, with crate-wide carrier knowledge.
pub fn redaction(
    file: &SourceFile,
    model: &FileModel,
    crate_model: &CrateModel<'_>,
    allows: &Allows,
    findings: &mut Vec<Finding>,
) {
    for f in &model.fns {
        let Some(body) = f.body else {
            continue;
        };
        if file.in_test_code(f.line) {
            continue;
        }
        let sources = source_sites(file.stripped(), body, f, crate_model);
        let tainted = tainted_idents(file.stripped(), body, &sources);
        if sources.is_empty() && tainted.is_empty() {
            continue;
        }
        for (sink_name, region) in sink_regions(file.stripped(), body, f) {
            let text = &file.stripped()[region.0..region.1];
            if is_sanitized(text) {
                continue;
            }
            let direct = sources.iter().any(|&at| region.0 <= at && at < region.1);
            let via_ident = tainted.iter().find(|id| contains_ident(text, id));
            if !direct && via_ident.is_none() {
                continue;
            }
            let line = lexer::line_of(file.line_starts(), region.0);
            if file.in_test_code(line) || allows.allows(Lint::Redaction, line) {
                continue;
            }
            let carrier = match via_ident {
                Some(id) if !direct => format!("tainted binding `{id}`"),
                _ => "a payload expression".to_string(),
            };
            findings.push(Finding::new(
                file.path.clone(),
                line,
                Lint::Redaction,
                format!(
                    "raw payload ({carrier}) reaches `{sink_name}` without redaction; \
                     pass it through a redaction/summary fn or annotate \
                     lint:allow(redaction) with a reason"
                ),
            ));
        }
    }
}

/// Byte offsets of source expressions inside `body`: payload field reads
/// and calls to carrier functions.
fn source_sites(
    stripped: &str,
    (lo, hi): (usize, usize),
    f: &FnItem,
    crate_model: &CrateModel<'_>,
) -> Vec<usize> {
    let region = &stripped[lo..hi];
    let mut sites = Vec::new();
    for field in SOURCE_FIELDS {
        let mut from = 0usize;
        while let Some(rel) = region[from..].find(field) {
            let at = from + rel;
            from = at + 1;
            // Word boundary after: `.body_len` is not `.body`.
            if region
                .as_bytes()
                .get(at + field.len())
                .copied()
                .is_some_and(|b| b == b'_' || b.is_ascii_alphanumeric())
            {
                continue;
            }
            sites.push(lo + at);
        }
    }
    for call in &f.calls {
        if crate_model.is_carrier(&call.name) {
            sites.push(call.at);
        }
    }
    sites.sort_unstable();
    sites
}

/// Identifiers bound by `let` whose initializer carries taint. Fixpoint
/// over the body so `let a = src(); let b = a;` taints both.
fn tainted_idents(stripped: &str, (lo, hi): (usize, usize), sources: &[usize]) -> Vec<String> {
    // Collect `let <ident> = <expr up to top-level ;>` statements.
    let region = &stripped[lo..hi];
    let bytes = region.as_bytes();
    let mut lets: Vec<(String, usize, usize)> = Vec::new(); // (name, expr_lo, expr_hi) absolute
    let mut from = 0usize;
    while let Some(rel) = region[from..].find("let") {
        let at = from + rel;
        from = at + 1;
        if at > 0 && is_ident(bytes[at - 1]) {
            continue;
        }
        let after = &region[at + 3..];
        if !after.starts_with(|c: char| c.is_whitespace()) {
            continue;
        }
        let mut rest = after.trim_start();
        if let Some(r) = rest.strip_prefix("mut ") {
            rest = r.trim_start();
        }
        let name_end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let name = rest[..name_end].to_string();
        if name.is_empty() || name == "_" {
            continue;
        }
        // Initializer: from `=` (skipping type ascription) to the matching
        // `;` at bracket depth 0.
        let stmt = &region[at..];
        let Some(eq_rel) = find_init_eq(stmt) else {
            continue;
        };
        let expr_lo = at + eq_rel + 1;
        let mut depth = 0i64;
        let mut expr_hi = hi - lo;
        for (idx, &b) in region.as_bytes().iter().enumerate().skip(expr_lo) {
            match b {
                b'(' | b'[' | b'{' => depth += 1,
                b')' | b']' | b'}' => depth -= 1,
                b';' if depth <= 0 => {
                    expr_hi = idx;
                    break;
                }
                _ => {}
            }
        }
        lets.push((name, lo + expr_lo, lo + expr_hi));
    }

    let mut tainted: Vec<String> = Vec::new();
    loop {
        let mut changed = false;
        for (name, expr_lo, expr_hi) in &lets {
            if tainted.contains(name) {
                continue;
            }
            let expr = &stripped[*expr_lo..*expr_hi];
            if is_sanitized(expr) {
                continue;
            }
            let has_source = sources.iter().any(|&at| *expr_lo <= at && at < *expr_hi);
            let has_tainted = tainted.iter().any(|id| contains_ident(expr, id));
            if has_source || has_tainted {
                tainted.push(name.clone());
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    tainted
}

/// `=` of the initializer in a `let` statement slice, skipping `==`/`=>`
/// and the `=` inside a type ascription's generics is impossible (no `=`
/// in types before the initializer).
fn find_init_eq(stmt: &str) -> Option<usize> {
    let bytes = stmt.as_bytes();
    for (idx, &b) in bytes.iter().enumerate() {
        match b {
            b'=' => {
                if bytes.get(idx + 1) == Some(&b'=') || bytes.get(idx + 1) == Some(&b'>') {
                    return None; // not a plain initializer
                }
                return Some(idx);
            }
            b';' => return None,
            _ => {}
        }
    }
    None
}

/// Sink argument regions inside `body`: `(lo, hi)` byte ranges of the sink
/// call's parens content, labeled with the sink's display name.
fn sink_regions(
    stripped: &str,
    (lo, hi): (usize, usize),
    f: &FnItem,
) -> Vec<(String, (usize, usize))> {
    let bytes = stripped.as_bytes();
    let region = &stripped[lo..hi];
    let mut sinks = Vec::new();
    for needle in SINK_MACROS {
        let mut from = 0usize;
        while let Some(rel) = region[from..].find(needle) {
            let at = from + rel;
            from = at + 1;
            if at > 0 && is_ident(region.as_bytes()[at - 1]) {
                continue;
            }
            let open_abs = lo + at + needle.len();
            if bytes.get(open_abs) != Some(&b'(') {
                continue;
            }
            if let Some(close) = matching_close(bytes, open_abs) {
                sinks.push((needle.to_string(), (open_abs + 1, close)));
            }
        }
    }
    for call in &f.calls {
        if call.method || !SINK_FNS.contains(&call.name.as_str()) {
            continue;
        }
        // Obs events must be path-qualified (`diffaudit_obs::warn`/
        // `obs::warn`) so ordinary local fns named `info` don't count;
        // `write_stderr_block` is unambiguous.
        let qualified = call.path.contains("obs::") || call.name == "write_stderr_block";
        if !qualified {
            continue;
        }
        let Some(open_rel) = stripped[call.at..].find('(') else {
            continue;
        };
        let open = call.at + open_rel;
        if let Some(close) = matching_close(bytes, open) {
            sinks.push((call.path.clone(), (open + 1, close)));
        }
    }
    sinks
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations;
    use crate::parser::FileModel;

    fn run(src: &str) -> Vec<Finding> {
        let file = SourceFile::new("t.rs", src);
        let model = FileModel::parse(file.stripped());
        let mut findings = Vec::new();
        let allows = annotations::parse("t.rs", src, file.stripped(), &mut findings);
        let crate_model = CrateModel::build(vec![("t.rs", &model)]);
        redaction(&file, &model, &crate_model, &allows, &mut findings);
        findings
    }

    #[test]
    fn body_to_eprintln_flagged() {
        let src = "\
fn leak(ex: &Exchange) {
    let payload = ex.request.body.clone();
    eprintln!(\"payload: {:?}\", payload);
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].lint, Lint::Redaction);
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("payload"));
    }

    #[test]
    fn direct_source_in_sink_flagged() {
        let src = "\
fn leak(ex: &Exchange) {
    println!(\"{:?}\", ex.response.body);
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
    }

    #[test]
    fn carrier_call_to_obs_event_flagged() {
        let src = "\
fn leak(text: &str) {
    let exchanges = har_to_exchanges(text);
    diffaudit_obs::debug(\"loaded\", &[diffaudit_obs::field(\"first\", exchanges)]);
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("exchanges"));
    }

    #[test]
    fn sanitized_flows_pass() {
        let src = "\
fn fine(ex: &Exchange, text: &str) {
    let n = ex.request.body.len();
    eprintln!(\"bytes: {n}\");
    let exchanges = har_to_exchanges(text);
    diffaudit_obs::debug(\"loaded\", &[diffaudit_obs::field(\"count\", exchanges.len())]);
    let summary = redact_body(&ex.request.body);
    println!(\"{summary}\");
}
";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn taint_propagates_through_bindings() {
        let src = "\
fn leak(ex: &Exchange) {
    let a = ex.request.body.clone();
    let b = a;
    let c = b;
    eprintln!(\"{:?}\", c);
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = "\
fn deliberate(ex: &Exchange) {
    // lint:allow(redaction): debug build only, gated by --dump-payloads
    eprintln!(\"{:?}\", ex.request.body);
}
";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn untainted_logging_is_untouched() {
        let src = "\
fn fine(name: &str, count: usize) {
    eprintln!(\"{name}: {count}\");
    diffaudit_obs::info(\"stage\", &[diffaudit_obs::field(\"service\", name)]);
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn local_fn_named_info_is_not_a_sink() {
        let src = "\
fn info(x: u8) -> u8 { x }
fn fine(ex: &Exchange) {
    let payload = ex.request.body.clone();
    let _ = info(payload[0]);
}
";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }
}
