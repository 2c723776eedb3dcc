//! A lightweight item-level parser over [`crate::lexer`]-stripped source.
//!
//! Still no `syn`/`proc-macro`: the parser recovers just enough structure
//! for the dataflow passes — function items (name, parameter text, body
//! byte-range), `static` items (name, type text, `mut`-ness, module vs.
//! function scope), `thread_local!` sites, and the calls made inside each
//! function body — from the same-length stripped text, so every offset maps
//! 1:1 onto the original source and line numbers come for free.
//!
//! The recovered model is approximate by design (macro-generated items are
//! invisible, trait-object dispatch is unresolved), which is the right
//! trade-off for audit lints: the passes that consume it treat "unknown" as
//! "not flagged" and rely on the fixture corpus to keep true positives true.

use crate::lexer::{self, is_ident, occurrences};

/// One recovered `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// The function's name (last identifier before the parameter list).
    pub name: String,
    /// Byte offset of the `fn` keyword.
    pub at: usize,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Parameter-list text (stripped, between the signature parens).
    pub params: String,
    /// Return-type text after `->` (empty when the fn returns `()`).
    pub ret: String,
    /// Byte range of the body *between* its braces, when the item has one
    /// (trait-method signatures do not).
    pub body: Option<(usize, usize)>,
    /// Calls made inside the body, in source order.
    pub calls: Vec<Call>,
}

impl FnItem {
    /// Does `offset` fall inside this fn's body?
    pub fn contains(&self, offset: usize) -> bool {
        self.body
            .is_some_and(|(lo, hi)| lo <= offset && offset < hi)
    }

    /// `(name, type)` of each parameter, in order: the identifier a simple
    /// `name: Type` parameter binds (`mut` stripped), and `self` for a
    /// receiver. Pattern parameters (`(a, b): (u8, u8)`) yield an empty
    /// name, so positions still line up with call arguments.
    pub fn param_list(&self) -> Vec<(&str, &str)> {
        split_top_level(&self.params, 0, true)
            .into_iter()
            .map(|(lo, hi)| {
                let param = self.params[lo..hi].trim();
                let (pattern, ty) = param.split_once(':').unwrap_or((param, ""));
                let pattern = pattern.trim();
                let name = pattern.strip_prefix("mut ").unwrap_or(pattern).trim();
                let name = if name.ends_with("self") {
                    "self"
                } else if name.bytes().all(is_ident) {
                    name
                } else {
                    ""
                };
                (name, ty.trim())
            })
            .filter(|&(name, ty)| !(name.is_empty() && ty.is_empty()))
            .collect()
    }
}

/// Comma-separated top-level pieces of `text`, as byte ranges offset by
/// `base`. Brackets nest, and so do `<..>` when `types` says the text is a
/// parameter list (`->` is not a closer; in expressions `<` compares). A
/// closure's `|a, b|` parameter list at the start of a piece is not split.
fn split_top_level(text: &str, base: usize, types: bool) -> Vec<(usize, usize)> {
    let bytes = text.as_bytes();
    let mut pieces = Vec::new();
    let (mut depth, mut start, mut i) = (0i64, 0usize, 0usize);
    while i < bytes.len() {
        match bytes[i] {
            b'(' | b'[' | b'{' => depth += 1,
            b')' | b']' | b'}' => depth -= 1,
            b'<' if types => depth += 1,
            b'>' if types && (i == 0 || bytes[i - 1] != b'-') => depth -= 1,
            b'|' if depth == 0 && closure_may_start(&text[start..i]) => {
                // Skip the closure's parameter list (`||` has none).
                let close = bytes[i + 1..].iter().position(|&b| b == b'|');
                i += close.map_or(0, |c| c + 1);
            }
            b',' if depth == 0 => {
                pieces.push((base + start, base + i));
                start = i + 1;
            }
            _ => {}
        }
        i += 1;
    }
    if !text[start..].trim().is_empty() {
        pieces.push((base + start, base + bytes.len()));
    }
    pieces
}

/// Can a `|` that follows `before` (the text since the start of an
/// argument) open a closure? Only modifiers may precede it.
fn closure_may_start(before: &str) -> bool {
    before
        .split_whitespace()
        .all(|w| matches!(w, "&" | "&mut" | "mut" | "move"))
}

/// Top-level argument ranges of the call whose argument list opens at
/// `open` (the `(`), as absolute byte ranges into `stripped`; empty when
/// the parens do not balance.
pub fn call_args(stripped: &str, open: usize) -> Vec<(usize, usize)> {
    match matching_close(stripped.as_bytes(), open) {
        Some(close) => split_top_level(&stripped[open + 1..close], open + 1, false),
        None => Vec::new(),
    }
}

/// Names the closure literals inside `stripped[lo..hi]` bind as their
/// parameters (`|exchange| ..`, `move |(i, x): (usize, u8)| ..`), type
/// annotations and `mut`/`ref`/`_` left out.
pub fn closure_params(stripped: &str, (lo, hi): (usize, usize)) -> Vec<String> {
    let region = &stripped[lo..hi];
    let bytes = region.as_bytes();
    let mut names = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        if bytes[i] != b'|' {
            i += 1;
            continue;
        }
        let before = region[..i].trim_end();
        let opens = before.is_empty()
            || before.ends_with(['(', ',', '&', '=', '{', ';'])
            || before.ends_with("mut")
            || before.ends_with("move");
        let close = bytes[i + 1..].iter().position(|&b| b == b'|');
        let Some(close) = close.filter(|_| opens) else {
            i += 1;
            continue;
        };
        let params = &region[i + 1..i + 1 + close];
        for (plo, phi) in split_top_level(params, 0, true) {
            let pattern = params[plo..phi].split(':').next().unwrap_or("");
            for word in pattern.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
                if !word.is_empty() && !matches!(word, "mut" | "ref" | "_") {
                    names.push(word.to_string());
                }
            }
        }
        i += close + 2;
    }
    names
}

/// One call site inside a function body: `path(` or `expr.name(`.
#[derive(Debug, Clone)]
pub struct Call {
    /// Byte offset of the called name's first character.
    pub at: usize,
    /// Full `::`-separated path as written (e.g. `diffaudit_obs::add`);
    /// for method calls, just the method name.
    pub path: String,
    /// Last path segment (the function/method name itself).
    pub name: String,
    /// Whether the call is a method call (`receiver.name(..)`).
    pub method: bool,
}

/// One recovered `static` item.
#[derive(Debug, Clone)]
pub struct StaticItem {
    /// Byte offset of the `static` keyword.
    pub at: usize,
    /// 1-based line.
    pub line: usize,
    /// The static's name.
    pub name: String,
    /// Type text between `:` and `=` (stripped, whitespace-normalized).
    pub ty: String,
    /// `static mut` — always a finding.
    pub is_mut: bool,
    /// Declared inside a function body (`fn`-scoped lazy init) rather than
    /// at module scope. Both are process-global state; the distinction is
    /// only reported in the message.
    pub fn_scoped: bool,
}

/// One `thread_local!` invocation site.
#[derive(Debug, Clone)]
pub struct ThreadLocalSite {
    /// Byte offset of the macro name.
    pub at: usize,
    /// 1-based line.
    pub line: usize,
}

/// The item-level model of one source file.
#[derive(Debug, Default)]
pub struct FileModel {
    /// Every recovered `fn` item (free functions and impl/trait methods
    /// alike — the passes resolve by name, which is approximate but
    /// sufficient for intra-crate audit lints).
    pub fns: Vec<FnItem>,
    /// Every `static` item, module- and fn-scoped.
    pub statics: Vec<StaticItem>,
    /// Every `thread_local!` site.
    pub thread_locals: Vec<ThreadLocalSite>,
}

impl FileModel {
    /// Build the model from stripped text (see [`lexer::strip`]).
    pub fn parse(stripped: &str) -> FileModel {
        let line_starts = lexer::line_starts(stripped);
        let mut model = FileModel {
            fns: parse_fns(stripped, &line_starts),
            statics: Vec::new(),
            thread_locals: Vec::new(),
        };
        model.statics = parse_statics(stripped, &line_starts, &model.fns);
        model.thread_locals = parse_thread_locals(stripped, &line_starts);
        model
    }

    /// The fn whose body contains `offset`, if any (innermost wins when
    /// items nest, e.g. a closure-defining helper inside an impl block).
    pub fn enclosing_fn(&self, offset: usize) -> Option<&FnItem> {
        self.fns
            .iter()
            .filter(|f| f.contains(offset))
            .min_by_key(|f| f.body.map_or(usize::MAX, |(lo, hi)| hi - lo))
    }

    /// Look up a fn by name (first match in source order).
    pub fn fn_named(&self, name: &str) -> Option<&FnItem> {
        self.fns.iter().find(|f| f.name == name)
    }
}

/// Is the keyword `kw` at `at` a standalone token (word boundaries both
/// sides, not a lifetime like `'static`)?
fn is_keyword_at(bytes: &[u8], at: usize, kw: &str) -> bool {
    if at > 0 && (is_ident(bytes[at - 1]) || bytes[at - 1] == b'\'') {
        return false;
    }
    bytes
        .get(at + kw.len())
        .copied()
        .is_none_or(|b| !is_ident(b))
}

/// Index of the byte matching the opener at `open` (`(`↔`)`, `{`↔`}`),
/// or `None` when unbalanced.
pub fn matching_close(bytes: &[u8], open: usize) -> Option<usize> {
    let (op, cl) = match bytes.get(open)? {
        b'(' => (b'(', b')'),
        b'{' => (b'{', b'}'),
        b'[' => (b'[', b']'),
        _ => return None,
    };
    let mut depth = 0usize;
    for (idx, &b) in bytes.iter().enumerate().skip(open) {
        if b == op {
            depth += 1;
        } else if b == cl {
            depth -= 1;
            if depth == 0 {
                return Some(idx);
            }
        }
    }
    None
}

fn parse_fns(stripped: &str, line_starts: &[usize]) -> Vec<FnItem> {
    let bytes = stripped.as_bytes();
    let mut fns = Vec::new();
    for at in occurrences(stripped, "fn") {
        if !is_keyword_at(bytes, at, "fn") {
            continue;
        }
        let after = &stripped[at + 2..];
        // `fn` must be followed by whitespace then the name.
        if !after.starts_with(|c: char| c.is_whitespace()) {
            continue;
        }
        let name_rel = after.find(|c: char| !c.is_whitespace()).unwrap_or(0);
        let name_start = at + 2 + name_rel;
        let name_end = stripped[name_start..]
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .map(|n| name_start + n)
            .unwrap_or(stripped.len());
        let name = &stripped[name_start..name_end];
        if name.is_empty() || name.as_bytes()[0].is_ascii_digit() {
            continue;
        }
        // Parameter list: first `(` after the name (skipping generics).
        let Some(open_rel) = stripped[name_end..].find('(') else {
            continue;
        };
        let open = name_end + open_rel;
        // Reject when a `{`/`;` intervenes (e.g. `fn` inside a string was
        // already blanked, but `fn` as last token before EOF etc.).
        if stripped[name_end..open].contains(['{', ';', '}']) {
            continue;
        }
        let Some(close) = matching_close(bytes, open) else {
            continue;
        };
        let params = stripped[open + 1..close].to_string();
        // Body or `;` terminator. The return type is everything between
        // `->` and that terminator.
        let after_params = &stripped[close + 1..];
        let term_rel = after_params.find(['{', ';']).unwrap_or(after_params.len());
        let ret = match after_params[..term_rel].find("->") {
            Some(arrow) => {
                let text = normalize_ws(after_params[arrow + 2..term_rel].trim());
                // Trim a trailing `where` clause (its bounds may carry their
                // own `->`, e.g. `F: Fn(T) -> T`).
                match text.split_once(" where") {
                    Some((head, _)) => head.trim().to_string(),
                    None => text,
                }
            }
            None => String::new(),
        };
        let body = if after_params.as_bytes().get(term_rel) == Some(&b'{') {
            let body_open = close + 1 + term_rel;
            matching_close(bytes, body_open).map(|body_close| (body_open + 1, body_close))
        } else {
            None
        };
        let calls = body
            .map(|(lo, hi)| parse_calls(stripped, lo, hi))
            .unwrap_or_default();
        fns.push(FnItem {
            name: name.to_string(),
            at,
            line: lexer::line_of(line_starts, at),
            params,
            ret,
            body,
            calls,
        });
    }
    fns
}

/// Calls inside `stripped[lo..hi]`: every identifier directly followed by
/// `(` (allowing `::<turbofish>`), with its leading `::`-path and an
/// is-method flag. Keywords and macro names are excluded by the caller's
/// patterns where it matters; control-flow keywords are excluded here.
fn parse_calls(stripped: &str, lo: usize, hi: usize) -> Vec<Call> {
    const NOT_CALLS: [&str; 12] = [
        "if", "while", "for", "match", "return", "loop", "else", "let", "fn", "move", "in", "as",
    ];
    let mut calls = Vec::new();
    let region = &stripped[lo..hi];
    let mut i = 0usize;
    while i < region.len() {
        let b = region.as_bytes()[i];
        if !(b == b'_' || b.is_ascii_alphabetic()) {
            i += 1;
            continue;
        }
        // Scan the identifier.
        let start = i;
        while i < region.len() && is_ident(region.as_bytes()[i]) {
            i += 1;
        }
        let ident_end = i;
        // Word-start check: previous byte must not be ident (it cannot be,
        // since we advance through whole idents) — but `'lifetime` must be
        // skipped.
        if start > 0 && region.as_bytes()[start - 1] == b'\'' {
            continue;
        }
        // Skip whitespace and an optional turbofish before `(`.
        let mut j = ident_end;
        while j < region.len() && region.as_bytes()[j].is_ascii_whitespace() {
            j += 1;
        }
        if region[j..].starts_with("::<") {
            if let Some(gt) = region[j..].find('>') {
                j += gt + 1;
                while j < region.len() && region.as_bytes()[j].is_ascii_whitespace() {
                    j += 1;
                }
            }
        }
        if region.as_bytes().get(j) != Some(&b'(') {
            continue;
        }
        let name = &region[start..ident_end];
        if NOT_CALLS.contains(&name) {
            continue;
        }
        // Macro invocation `name!(` is not a call (the passes match macros
        // by their own patterns); `name !(` does not occur in practice.
        if region.as_bytes().get(ident_end) == Some(&b'!') {
            continue;
        }
        // Walk the `::` path backwards from `start`.
        let mut path_start = start;
        loop {
            if path_start >= 2 && &region[path_start - 2..path_start] == "::" {
                let mut k = path_start - 2;
                while k > 0 && is_ident(region.as_bytes()[k - 1]) {
                    k -= 1;
                }
                if k < path_start - 2 {
                    path_start = k;
                    continue;
                }
            }
            break;
        }
        let method =
            path_start == start && path_start > 0 && region.as_bytes()[path_start - 1] == b'.';
        calls.push(Call {
            at: lo + start,
            path: region[path_start..ident_end].to_string(),
            name: name.to_string(),
            method,
        });
    }
    calls
}

fn parse_statics(stripped: &str, line_starts: &[usize], fns: &[FnItem]) -> Vec<StaticItem> {
    let bytes = stripped.as_bytes();
    let mut statics = Vec::new();
    for at in occurrences(stripped, "static") {
        if !is_keyword_at(bytes, at, "static") {
            continue;
        }
        let after = &stripped[at + "static".len()..];
        if !after.starts_with(|c: char| c.is_whitespace()) {
            continue;
        }
        let mut rest = after.trim_start();
        let is_mut = if let Some(r) = rest.strip_prefix("mut") {
            if r.starts_with(|c: char| c.is_whitespace()) {
                rest = r.trim_start();
                true
            } else {
                false
            }
        } else {
            false
        };
        let name_end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        let name = &rest[..name_end];
        if name.is_empty() {
            continue;
        }
        let after_name = rest[name_end..].trim_start();
        let Some(ty_text) = after_name.strip_prefix(':') else {
            continue; // `&'static str` positions won't have `name:` shape
        };
        let ty_end = ty_text.find(['=', ';']).unwrap_or(ty_text.len());
        let ty = normalize_ws(ty_text[..ty_end].trim());
        statics.push(StaticItem {
            at,
            line: lexer::line_of(line_starts, at),
            name: name.to_string(),
            ty,
            is_mut,
            fn_scoped: fns.iter().any(|f| f.contains(at)),
        });
    }
    statics
}

fn parse_thread_locals(stripped: &str, line_starts: &[usize]) -> Vec<ThreadLocalSite> {
    let bytes = stripped.as_bytes();
    let mut sites = Vec::new();
    for at in occurrences(stripped, "thread_local!") {
        if at > 0 && is_ident(bytes[at - 1]) {
            continue;
        }
        sites.push(ThreadLocalSite {
            at,
            line: lexer::line_of(line_starts, at),
        });
    }
    sites
}

fn normalize_ws(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel {
        FileModel::parse(&lexer::strip(src))
    }

    #[test]
    fn params_arguments_and_closure_parameters() {
        let src = "\
fn queue(mut items: Vec<(u8, u8)>, (a, b): (u8, u8), load: impl Fn(&mut Ctx, Q<T, U>) -> R + Sync) {
    run(a < b, &mut |ctx, (i, x): (usize, u8)| load(ctx, x), move || done(), f(1, 2));
}
";
        let stripped = lexer::strip(src);
        let m = FileModel::parse(&stripped);
        let f = m.fn_named("queue").unwrap();
        let params: Vec<&str> = f.param_list().into_iter().map(|(n, _)| n).collect();
        assert_eq!(params, ["items", "", "load"]);
        let run = f.calls.iter().find(|c| c.name == "run").unwrap();
        let open = run.at + stripped[run.at..].find('(').unwrap();
        let args: Vec<&str> = call_args(&stripped, open)
            .into_iter()
            .map(|(lo, hi)| stripped[lo..hi].trim())
            .collect();
        assert_eq!(
            args,
            [
                "a < b",
                "&mut |ctx, (i, x): (usize, u8)| load(ctx, x)",
                "move || done()",
                "f(1, 2)"
            ]
        );
        let body = f.body.unwrap();
        assert_eq!(closure_params(&stripped, body), ["ctx", "i", "x"]);
    }

    #[test]
    fn recovers_fn_items_with_bodies_and_returns() {
        let src = "\
pub fn alpha(x: u8) -> Result<u8, Error> {
    beta(x)
}
fn beta(x: u8) -> Result<u8, Error> { Ok(x) }
trait T { fn sig_only(&self) -> u8; }
";
        let m = model(src);
        let names: Vec<&str> = m.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["alpha", "beta", "sig_only"]);
        assert_eq!(m.fns[0].ret, "Result<u8, Error>");
        assert!(m.fns[0].body.is_some());
        assert!(m.fns[2].body.is_none());
        assert_eq!(m.fns[0].line, 1);
        assert_eq!(m.fns[1].line, 4);
    }

    #[test]
    fn recovers_calls_with_paths_and_methods() {
        let src = "\
fn run(v: &[u8]) {
    let x = crate::util::helper(v);
    let y = x.finish();
    diffaudit_obs::add(\"n\", 1);
    if cond(x) { nested::deep::call(y); }
}
";
        let m = model(src);
        let calls: Vec<(&str, bool)> = m.fns[0]
            .calls
            .iter()
            .map(|c| (c.path.as_str(), c.method))
            .collect();
        assert_eq!(
            calls,
            [
                ("crate::util::helper", false),
                ("finish", true),
                ("diffaudit_obs::add", false),
                ("cond", false),
                ("nested::deep::call", false),
            ]
        );
    }

    #[test]
    fn macro_invocations_and_keywords_are_not_calls() {
        let src =
            "fn f(x: u8) { if (x) > 0 { println!(\"{x}\"); } for i in (0..x) { let _ = i; } }\n";
        let m = model(src);
        assert!(m.fns[0].calls.is_empty(), "{:#?}", m.fns[0].calls);
    }

    #[test]
    fn recovers_statics_and_scope() {
        let src = "\
static GLOBAL: OnceLock<Recorder> = OnceLock::new();
static COUNT: AtomicUsize = AtomicUsize::new(0);
static mut RAW: u8 = 0;
fn lazy() -> &'static List {
    static LIST: OnceLock<List> = OnceLock::new();
    LIST.get_or_init(List::new)
}
fn uses_lifetime(x: &'static str) -> &'static str { x }
";
        let m = model(src);
        let names: Vec<(&str, bool, bool)> = m
            .statics
            .iter()
            .map(|s| (s.name.as_str(), s.is_mut, s.fn_scoped))
            .collect();
        assert_eq!(
            names,
            [
                ("GLOBAL", false, false),
                ("COUNT", false, false),
                ("RAW", true, false),
                ("LIST", false, true),
            ]
        );
        assert_eq!(m.statics[0].ty, "OnceLock<Recorder>");
        assert_eq!(m.statics[2].line, 3);
    }

    #[test]
    fn thread_local_sites_found() {
        let src = "thread_local! { static TL: RefCell<u8> = RefCell::new(0); }\n";
        let m = model(src);
        assert_eq!(m.thread_locals.len(), 1);
        assert_eq!(m.thread_locals[0].line, 1);
        // The inner static is also recovered; the global-state pass
        // deduplicates by skipping statics inside thread_local! blocks.
        assert_eq!(m.statics.len(), 1);
    }

    #[test]
    fn enclosing_fn_picks_innermost() {
        let src = "\
fn outer() {
    helper();
}
fn helper() {
    target();
}
";
        let m = model(src);
        let at = src.find("target").unwrap();
        assert_eq!(m.enclosing_fn(at).unwrap().name, "helper");
    }

    #[test]
    fn generics_and_where_clauses_do_not_confuse() {
        let src = "\
pub fn map<T, F>(items: Vec<T>, f: F) -> Vec<T>
where
    F: Fn(T) -> T,
{
    items.into_iter().map(f).collect()
}
";
        let m = model(src);
        assert_eq!(m.fns.len(), 1);
        assert_eq!(m.fns[0].name, "map");
        assert_eq!(m.fns[0].ret, "Vec<T>");
        assert!(m.fns[0].body.is_some());
    }
}
