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
//! The decoders also hand payload *into* a closure: each decoded exchange
//! goes to the sink argument of [`SINK_SOURCE_FNS`]. A fn that forwards its
//! own closure parameter into such a call is a **sink source** too (a
//! second fixpoint), and the parameters of a closure literal passed to any
//! sink source are payload inside that closure.
//!
//! Resolution is by name (last path segment) within one crate — the same
//! approximation the parser makes. Cross-crate carriers are covered by the
//! seed list naming the public source API of `nettrace` and
//! `core::pipeline`.

use crate::lexer::is_ident;
use crate::parser::{call_args, FileModel};
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

/// Functions that hand raw payload to a closure argument: the salvage
/// decoders call their sink with each decoded `Exchange` instead of
/// returning them. Matched by last path segment at call sites.
pub const SINK_SOURCE_FNS: [&str; 2] = ["har_to_exchanges_salvage_ctl", "decode_auto_salvage_ctl"];

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
/// crate-wide carrier and sink-source sets.
pub struct CrateModel<'a> {
    /// `(workspace-relative path, model, stripped text)` for each
    /// production file.
    pub files: Vec<(&'a str, &'a FileModel, &'a str)>,
    carriers: HashSet<String>,
    sink_sources: HashSet<String>,
}

impl<'a> CrateModel<'a> {
    /// Build the model and run the carrier and sink-source fixpoints.
    pub fn build(files: Vec<(&'a str, &'a FileModel, &'a str)>) -> CrateModel<'a> {
        let mut model = CrateModel {
            files,
            carriers: HashSet::new(),
            sink_sources: HashSet::new(),
        };
        model.carriers = model.carrier_fixpoint();
        model.sink_sources = model.sink_source_fixpoint();
        model
    }

    /// Is a call to `name` (last path segment) payload-carrying?
    pub fn is_carrier(&self, name: &str) -> bool {
        SOURCE_FNS.contains(&name) || self.carriers.contains(name)
    }

    /// Does a call to `name` hand payload to the closures it is passed?
    pub fn is_sink_source(&self, name: &str) -> bool {
        SINK_SOURCE_FNS.contains(&name) || self.sink_sources.contains(name)
    }

    /// Intra-crate fns that pass one of their own closure-typed parameters
    /// (`Fn`/`FnMut`/`FnOnce`) into a call to a sink source, so the closure
    /// their callers hand them receives payload.
    fn sink_source_fixpoint(&self) -> HashSet<String> {
        let mut sink_sources: HashSet<String> = HashSet::new();
        loop {
            let mut changed = false;
            for (_, model, stripped) in &self.files {
                for f in &model.fns {
                    if sink_sources.contains(&f.name) || SINK_SOURCE_FNS.contains(&f.name.as_str())
                    {
                        continue;
                    }
                    let closures: Vec<&str> = f
                        .param_list()
                        .into_iter()
                        .filter(|(name, ty)| !name.is_empty() && is_closure_type(ty))
                        .map(|(name, _)| name)
                        .collect();
                    let forwards = f.calls.iter().any(|call| {
                        let is_sink_source = SINK_SOURCE_FNS.contains(&call.name.as_str())
                            || sink_sources.contains(&call.name);
                        is_sink_source
                            && stripped[call.at..].find('(').is_some_and(|rel| {
                                call_args(stripped, call.at + rel).iter().any(|&(lo, hi)| {
                                    closures
                                        .iter()
                                        .any(|c| contains_ident(&stripped[lo..hi], c))
                                })
                            })
                    });
                    if forwards {
                        sink_sources.insert(f.name.clone());
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        sink_sources
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
        for (_, model, _) in &self.files {
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

/// Is `ty` a closure type (`impl FnMut(..)`, `&dyn Fn(..)`, ..)?
fn is_closure_type(ty: &str) -> bool {
    ["Fn(", "FnMut(", "FnOnce("].iter().any(|f| ty.contains(f))
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
        let before_ok = at == 0 || !is_ident(bytes[at - 1]);
        let after_ok = bytes
            .get(at + ident.len())
            .copied()
            .is_none_or(|b| !is_ident(b));
        if before_ok && after_ok {
            return true;
        }
        from = at + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer;

    fn model(src: &str) -> (String, FileModel) {
        let stripped = lexer::strip(src);
        let fm = FileModel::parse(&stripped);
        (stripped, fm)
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
        let (stripped, fm) = model(src);
        let m = CrateModel::build(vec![("a.rs", &fm, &stripped)]);
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
        let (stripped, fm) = model(src);
        let m = CrateModel::build(vec![("a.rs", &fm, &stripped)]);
        assert!(!m.is_carrier("measure"));
        assert!(!m.is_carrier("report"), "chain broken at measure");
    }

    #[test]
    fn forwarding_a_closure_parameter_makes_a_sink_source() {
        let src = "\
fn decode_into(text: &str, sink: &mut dyn FnMut(Exchange)) -> usize {
    har_to_exchanges_salvage_ctl(text, log, rec, ctl, sink)
}
fn relay(text: &str, mut each: impl FnMut(Exchange)) {
    decode_into(text, &mut |exchange| each(exchange));
}
fn with_text(text: &str, log: &mut SalvageLog) -> usize {
    decode_into(text, &mut |_| {})
}
";
        let (stripped, fm) = model(src);
        let m = CrateModel::build(vec![("a.rs", &fm, &stripped)]);
        assert!(m.is_sink_source("decode_auto_salvage_ctl"));
        assert!(m.is_sink_source("decode_into"));
        assert!(m.is_sink_source("relay"), "two-hop propagation");
        // `with_text` passes its plain parameters along, but no closure.
        assert!(!m.is_sink_source("with_text"));
        assert!(!m.is_carrier("decode_into"), "a count is not payload");
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
