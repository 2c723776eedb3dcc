//! Approximate intra-crate dataflow: call graph + payload-carrier
//! propagation for the redaction taint lint.
//!
//! A function is a **payload carrier** when calling it can hand the caller
//! raw payload bytes or extracted data-type values. The seed set is the
//! known source API (HAR/pcap decoding, body accessors — see
//! [`SOURCE_FNS`]); carrier status then propagates along the intra-crate
//! call graph: a fn that calls a carrier *and* returns data (not unit, not
//! a count) is itself a carrier. The fixpoint is monotone over a finite
//! set, so it terminates.
//!
//! Resolution is by name (last path segment) within one crate — the same
//! approximation the parser makes. Cross-crate carriers are covered by the
//! seed list naming the public source API of `nettrace` and
//! `core::pipeline`.

use crate::parser::FileModel;
use std::collections::{HashMap, HashSet};

/// Functions whose return value IS raw payload or extracted data-type
/// values, regardless of where they are defined. Matched by last path
/// segment at call sites.
pub const SOURCE_FNS: [&str; 7] = [
    "har_to_exchanges",
    "har_to_exchanges_salvage",
    "har_to_exchanges_salvage_ctl",
    "har_json_to_exchanges",
    "decode_auto_salvage",
    "decode_auto_salvage_ctl",
    "extract_request",
];

/// Field accesses whose value is raw payload. `.body` covers
/// `HttpRequest::body` / `HttpResponse::body` (the raw bytes the paper's
/// data types are extracted from).
pub const SOURCE_FIELDS: [&str; 2] = [".body", ".plaintext"];

/// Substrings that mark an expression as *sanitized*: aggregate shapes
/// (lengths, counts) and named redaction/summary functions. Taint does not
/// flow through an expression containing one of these.
pub const SANITIZERS: [&str; 10] = [
    ".len()",
    ".count()",
    ".is_empty()",
    "redact",
    "summar",
    "fingerprint",
    "digest",
    "hash",
    "category",
    "status",
];

/// Return-type shapes that can carry payload out of a fn. A carrier must
/// return one of these (a fn that returns `usize` cannot leak bytes).
const DATA_RETURNS: [&str; 10] = [
    "Vec<u8>", "String", "&str", "& str", "&[u8]", "& [u8]", "Exchange", "Json", "Cow<", "Value",
];

/// The per-crate model: every production file's [`FileModel`] plus the
/// crate-wide carrier set.
pub struct CrateModel<'a> {
    /// `(workspace-relative path, model)` for each production file.
    pub files: Vec<(&'a str, &'a FileModel)>,
    carriers: HashSet<String>,
}

impl<'a> CrateModel<'a> {
    /// Build the model and run the carrier fixpoint.
    pub fn build(files: Vec<(&'a str, &'a FileModel)>) -> CrateModel<'a> {
        let mut model = CrateModel {
            files,
            carriers: HashSet::new(),
        };
        model.carriers = model.carrier_fixpoint();
        model
    }

    /// Is a call to `name` (last path segment) payload-carrying?
    pub fn is_carrier(&self, name: &str) -> bool {
        SOURCE_FNS.contains(&name) || self.carriers.contains(name)
    }

    /// Names of intra-crate fns promoted to carrier by the fixpoint
    /// (excluding the [`SOURCE_FNS`] seeds). Sorted for determinism.
    pub fn derived_carriers(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.carriers.iter().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    fn carrier_fixpoint(&self) -> HashSet<String> {
        // name -> (returns data?, called carrier-ish names)
        let mut fns: HashMap<&str, (bool, Vec<&str>)> = HashMap::new();
        for (_, model) in &self.files {
            for f in &model.fns {
                let returns_data = DATA_RETURNS.iter().any(|t| f.ret.contains(t));
                let callees: Vec<&str> = f.calls.iter().map(|c| c.name.as_str()).collect();
                // First definition wins; duplicate method names merge their
                // callee lists (over-approximation is fine here).
                let entry = fns.entry(f.name.as_str()).or_insert((false, Vec::new()));
                entry.0 |= returns_data;
                entry.1.extend(callees);
            }
        }
        let mut carriers: HashSet<String> = HashSet::new();
        loop {
            let mut changed = false;
            for (name, (returns_data, callees)) in &fns {
                if !returns_data || carriers.contains(*name) {
                    continue;
                }
                let calls_carrier = callees
                    .iter()
                    .any(|c| SOURCE_FNS.contains(c) || carriers.contains(*c));
                if calls_carrier {
                    carriers.insert((*name).to_string());
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        carriers
    }
}

/// Does `expr` contain a sanitizer marker (see [`SANITIZERS`])? Matching is
/// case-insensitive on the named-function markers so `Redact`/`redact`
/// types and fns both count.
pub fn is_sanitized(expr: &str) -> bool {
    let lower = expr.to_ascii_lowercase();
    SANITIZERS.iter().any(|s| lower.contains(s))
}

/// Does the region contain `ident` as a standalone word?
pub fn contains_ident(region: &str, ident: &str) -> bool {
    let bytes = region.as_bytes();
    let mut from = 0usize;
    while let Some(rel) = region[from..].find(ident) {
        let at = from + rel;
        let before_ok = at == 0 || !is_ident_byte(bytes[at - 1]);
        let after_ok = bytes
            .get(at + ident.len())
            .copied()
            .is_none_or(|b| !is_ident_byte(b));
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b == b'_' || b.is_ascii_alphanumeric()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn model(src: &str) -> FileModel {
        FileModel::parse(&lexer::strip(src))
    }

    #[test]
    fn seed_sources_are_carriers() {
        let m = CrateModel::build(Vec::new());
        assert!(m.is_carrier("har_to_exchanges"));
        assert!(m.is_carrier("decode_auto_salvage_ctl"));
        assert!(!m.is_carrier("format_table"));
    }

    #[test]
    fn carrier_status_propagates_through_data_returning_fns() {
        let src = "\
fn load(text: &str) -> Vec<Exchange> {
    har_to_exchanges(text)
}
fn relay(text: &str) -> Vec<Exchange> {
    load(text)
}
fn count(text: &str) -> usize {
    load(text).len()
}
";
        let fm = model(src);
        let m = CrateModel::build(vec![("a.rs", &fm)]);
        assert!(m.is_carrier("load"));
        assert!(m.is_carrier("relay"), "two-hop propagation");
        // `count` calls a carrier but returns usize — payload cannot leave.
        assert!(!m.is_carrier("count"));
        assert_eq!(m.derived_carriers(), ["load", "relay"]);
    }

    #[test]
    fn non_data_fn_breaks_the_chain() {
        let src = "\
fn measure(text: &str) -> usize {
    har_to_exchanges(text).len()
}
fn report(text: &str) -> String {
    format_n(measure(text))
}
fn format_n(n: usize) -> String {
    n.to_string()
}
";
        let fm = model(src);
        let m = CrateModel::build(vec![("a.rs", &fm)]);
        assert!(!m.is_carrier("measure"));
        assert!(!m.is_carrier("report"), "chain broken at measure");
    }

    #[test]
    fn sanitizer_and_ident_matching() {
        assert!(is_sanitized("exchanges.len()"));
        assert!(is_sanitized("redact_body(x)"));
        assert!(is_sanitized("Summarizer::run(x)"));
        assert!(!is_sanitized("request.body.clone()"));
        assert!(contains_ident("print(body)", "body"));
        assert!(!contains_ident("print(bodyguard)", "body"));
        assert!(!contains_ident("print(antibody)", "body"));
    }
}
