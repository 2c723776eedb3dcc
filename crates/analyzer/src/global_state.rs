//! The `global-state` pass: process-global mutable state and ambient
//! environment reads.
//!
//! The ROADMAP's pipeline-as-a-library refactor requires that library code
//! carry no process-global state — a `diffaudit-serve` process must be able
//! to run two audits with different configurations concurrently. This pass
//! turns that requirement into a checked property:
//!
//! - `static mut` is always an **error** (it is also unsound under the
//!   workspace's `unsafe_code = "forbid"`, so this is belt and braces);
//! - `static` items holding interior-mutable types (`OnceLock`, `Once`,
//!   atomics, `Mutex`/`RwLock`, `LazyLock`, cells) are **warnings** at
//!   module *and* function scope — both are process lifetime state;
//!   plain immutable data statics (`static NAMES: &[&str]`) are fine;
//! - `thread_local!` is a warning (hidden per-thread globals defeat the
//!   explicit worker-context discipline `util::par` establishes);
//! - reads of ambient process state (`env::var`, `env::current_dir`, …)
//!   outside the explicit allowlist are warnings — configuration must
//!   arrive through arguments, not ambience.
//!
//! Deliberate globals (the `diffaudit-obs` recorder, embedded-data caches)
//! carry `// lint:allow(global-state): <reason>` annotations.

use crate::annotations::Allows;
use crate::findings::{Finding, Lint, Severity};
use crate::lexer::occurrences;
use crate::parser::{matching_close, FileModel};
use crate::passes::SourceFile;

/// Type substrings that make a `static` process-global *state* rather than
/// immutable data.
pub const GLOBAL_STATE_TYPES: [&str; 8] = [
    "OnceLock", "LazyLock", "Once", "Atomic", "Mutex", "RwLock", "RefCell", "Cell",
];

/// `std::env` functions that read or mutate ambient process state. `args`
/// is deliberately absent: argv is the one sanctioned input of a binary's
/// entry point.
pub const ENV_FNS: [&str; 8] = [
    "var",
    "var_os",
    "vars",
    "vars_os",
    "set_var",
    "remove_var",
    "current_dir",
    "set_current_dir",
];

/// Run the pass. `env_allowed` exempts the ambient-read rule (CLI entry
/// points on the explicit allowlist); statics are always judged.
pub fn global_state(
    file: &SourceFile,
    model: &FileModel,
    allows: &Allows,
    env_allowed: bool,
    findings: &mut Vec<Finding>,
) {
    let stripped = file.stripped();

    // `thread_local!` blocks: the macro site is the finding; the statics it
    // declares are part of the same diagnostic, not separate ones.
    let mut tl_regions: Vec<(usize, usize)> = Vec::new();
    for site in &model.thread_locals {
        if let Some(open_rel) = stripped[site.at..].find('{') {
            let open = site.at + open_rel;
            let close = matching_close(stripped.as_bytes(), open).unwrap_or(stripped.len());
            tl_regions.push((site.at, close));
        }
        if file.in_test_code(site.line) || allows.allows(Lint::GlobalState, site.line) {
            continue;
        }
        findings.push(Finding::new(
            file.path.clone(),
            site.line,
            Lint::GlobalState,
            "`thread_local!` hides per-thread global state; pass an explicit worker context \
             (see `util::par::par_map_ctx`)"
                .to_string(),
        ));
    }

    for item in &model.statics {
        if file.in_test_code(item.line) {
            continue;
        }
        if tl_regions
            .iter()
            .any(|&(lo, hi)| lo <= item.at && item.at < hi)
        {
            continue;
        }
        if item.is_mut {
            if allows.allows(Lint::GlobalState, item.line) {
                continue;
            }
            let mut finding = Finding::new(
                file.path.clone(),
                item.line,
                Lint::GlobalState,
                format!(
                    "`static mut {}` is process-global mutable state; \
                     thread it through explicit arguments",
                    item.name
                ),
            );
            finding.severity = Severity::Error;
            findings.push(finding);
            continue;
        }
        let stateful = GLOBAL_STATE_TYPES.iter().any(|t| item.ty.contains(t));
        if !stateful {
            continue;
        }
        if allows.allows(Lint::GlobalState, item.line) {
            continue;
        }
        let scope = if item.fn_scoped {
            "fn-scoped"
        } else {
            "module-scope"
        };
        findings.push(Finding::new(
            file.path.clone(),
            item.line,
            Lint::GlobalState,
            format!(
                "{scope} `static {}: {}` is process-global state; the pipeline-as-a-library \
                 refactor requires explicit ownership (or lint:allow(global-state) with a reason)",
                item.name, item.ty
            ),
        ));
    }

    if env_allowed {
        return;
    }
    for at in occurrences(stripped, "env::") {
        // Must be a path segment: preceded by start, non-ident, or `std::`.
        if at > 0 {
            let prev = stripped.as_bytes()[at - 1];
            if prev == b'_' || prev.is_ascii_alphanumeric() {
                continue;
            }
        }
        let after = &stripped[at + "env::".len()..];
        let ident_end = after
            .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .unwrap_or(after.len());
        let name = &after[..ident_end];
        if !ENV_FNS.contains(&name) {
            continue;
        }
        let line = crate::lexer::line_of(file.line_starts(), at);
        if file.in_test_code(line) || allows.allows(Lint::GlobalState, line) {
            continue;
        }
        findings.push(Finding::new(
            file.path.clone(),
            line,
            Lint::GlobalState,
            format!(
                "`env::{name}` reads ambient process state; accept configuration through \
                 arguments (or add this file to the env allowlist)"
            ),
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotations;
    use crate::parser::FileModel;

    fn run(src: &str) -> Vec<Finding> {
        run_env(src, false)
    }

    fn run_env(src: &str, env_allowed: bool) -> Vec<Finding> {
        let file = SourceFile::new("t.rs", src);
        let model = FileModel::parse(file.stripped());
        let mut findings = Vec::new();
        let allows = annotations::parse("t.rs", src, file.stripped(), &mut findings);
        global_state(&file, &model, &allows, env_allowed, &mut findings);
        findings
    }

    #[test]
    fn static_mut_is_an_error() {
        let findings = run("static mut COUNTER: u64 = 0;\n");
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].lint, Lint::GlobalState);
        assert_eq!(findings[0].severity, Severity::Error);
        assert!(findings[0].message.contains("static mut"));
    }

    #[test]
    fn oncelock_and_atomics_flagged_at_both_scopes() {
        let src = "\
static GLOBAL: OnceLock<Recorder> = OnceLock::new();
static N: AtomicUsize = AtomicUsize::new(0);
fn cache() -> &'static List {
    static LIST: OnceLock<List> = OnceLock::new();
    LIST.get_or_init(List::new)
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 3, "{findings:#?}");
        assert!(findings[0].message.contains("module-scope"));
        assert!(findings[2].message.contains("fn-scoped"));
        assert!(findings.iter().all(|f| f.severity == Severity::Warning));
    }

    #[test]
    fn immutable_data_statics_pass() {
        let src = "\
static NAMES: &[&str] = &[\"a\", \"b\"];
static LIMIT: usize = 1024;
const TABLE: [u8; 4] = [0; 4];
fn f(x: &'static str) -> &'static str { x }
";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn thread_local_flagged_once() {
        let src = "thread_local! {\n    static TL: RefCell<u8> = RefCell::new(0);\n}\n";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("thread_local"));
    }

    #[test]
    fn env_reads_flagged_unless_allowlisted() {
        let src = "\
fn config() -> String {
    std::env::var(\"DIFFAUDIT_MODE\").unwrap_or_default()
}
fn cwd() -> std::path::PathBuf {
    std::env::current_dir().unwrap_or_default()
}
fn argv() -> Vec<String> {
    std::env::args().collect()
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert!(findings[0].message.contains("env::var"));
        assert!(findings[1].message.contains("env::current_dir"));
        assert!(run_env(src, true).is_empty());
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = "\
// lint:allow(global-state): the one sanctioned process-global recorder
static GLOBAL: OnceLock<Recorder> = OnceLock::new();
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    static SEEN: AtomicUsize = AtomicUsize::new(0);
    fn t() { let _ = std::env::var(\"X\"); }
}
";
        assert!(run(src).is_empty());
    }
}
