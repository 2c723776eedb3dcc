//! The `par-discipline` pass: worker-closure hygiene for `util::par`.
//!
//! PR 5 established hard-won invariants for the scoped-thread executor:
//! worker closures must not touch the process-global `diffaudit-obs`
//! registry (per-item lock contention, and trace lines interleave
//! non-deterministically), must not emit to the trace/stderr streams, and
//! must not block on I/O or sockets (a stalled worker starves the
//! work-stealing queue). Metrics belong in a per-worker `LocalRecorder`
//! absorbed at join. This pass machine-checks those rules.
//!
//! Mechanics: every call to a `par_map*` entry point is located, its full
//! argument region (including the closures) is scanned for forbidden
//! patterns, and — one hop deep — so are the bodies of same-file functions
//! called from inside that region. When the region calls a closure
//! parameter of its enclosing function (a queue runner's `load`), the
//! closures its same-file callers pass in that position run on the worker
//! too: each such argument is scanned, plus one hop into the same-file
//! functions it calls. `diffaudit_obs::absorb`,
//! `diffaudit_obs::field`, and everything on `LocalRecorder` (method
//! calls) stay allowed.
//!
//! The serve daemon added a second kind of scanned region: `catch_unwind`
//! job boundaries ([`GUARD_ENTRY_POINTS`]). The no-global-registry and
//! no-print rules apply there too — a panic midway through a registry
//! write poisons the global lock for every job the containment was meant
//! to protect — but the blocking-I/O rule does not (a contained job owns
//! its own I/O budget; its deadline cuts a stall off).

use crate::annotations::Allows;
use crate::findings::{Finding, Lint};
use crate::lexer::{self, is_ident};
use crate::parser::{call_args, matching_close, Call, FileModel};
use crate::passes::SourceFile;

/// The executor's entry points (callable as `par::par_map*` or fully
/// qualified).
pub const PAR_ENTRY_POINTS: [&str; 3] = ["par_map", "par_map_ctx", "par_map_ctx_cancel"];

/// Panic-containment guards whose closure is a job boundary — the serve
/// daemon's worker wraps each job in `catch_unwind` so a poisoned job
/// cannot take the worker down. Inside that region the same no-global-
/// registry / no-print rules apply, for a sharper reason: a panic midway
/// through a global-registry write poisons the registry lock for every
/// *surviving* job, which defeats the containment. Jobs record into their
/// private `Scope` and the worker merges after the guard returns.
pub const GUARD_ENTRY_POINTS: [&str; 1] = ["catch_unwind"];

/// `diffaudit_obs` free functions that hit the process-global registry or
/// the trace stream. (`absorb` and `field` are deliberately absent — the
/// former is the sanctioned join-merge, the latter builds values.)
const FORBIDDEN_OBS: [&str; 10] = [
    "add", "observe", "span", "error", "warn", "info", "debug", "flush", "global", "snapshot",
];

/// Textual patterns for blocking I/O inside a worker.
const BLOCKING_PATTERNS: [(&str, &str); 8] = [
    ("std::fs::", "filesystem I/O"),
    ("fs::read", "filesystem read"),
    ("fs::write", "filesystem write"),
    ("File::open", "file open"),
    ("File::create", "file create"),
    ("stdin()", "stdin read"),
    ("TcpStream", "network I/O"),
    ("UdpSocket", "network I/O"),
];

/// Stderr/stdout macros double as trace emission from a worker.
const PRINT_MACROS: [&str; 4] = ["eprintln!", "eprint!", "println!", "print!"];

/// Which kind of scanned region a finding sits in; selects the applicable
/// rules and the message wording.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Region {
    /// A `par_map*` worker-closure argument region: all three rules
    /// (no global registry, no blocking I/O, no prints).
    Worker,
    /// A `catch_unwind` panic-contained job region: no global registry
    /// (a mid-write panic poisons the lock for surviving jobs) and no
    /// prints; blocking I/O is the *job's* business there.
    PanicGuard,
}

/// Run the pass over one file.
pub fn par_discipline(
    file: &SourceFile,
    model: &FileModel,
    allows: &Allows,
    findings: &mut Vec<Finding>,
) {
    let stripped = file.stripped();
    let bytes = stripped.as_bytes();
    let sites = call_sites(stripped, &PAR_ENTRY_POINTS, Region::Worker)
        .into_iter()
        .chain(call_sites(
            stripped,
            &GUARD_ENTRY_POINTS,
            Region::PanicGuard,
        ));
    for (entry_at, kind) in sites {
        let entry_line = lexer::line_of(file.line_starts(), entry_at);
        if file.in_test_code(entry_line) {
            continue;
        }
        let Some(open_rel) = stripped[entry_at..].find('(') else {
            continue;
        };
        let open = entry_at + open_rel;
        let Some(close) = matching_close(bytes, open) else {
            continue;
        };
        let region = (open + 1, close);
        let site = Site {
            file,
            model,
            allows,
            kind,
            entry_line,
        };
        site.scan(region, "", findings);

        // One hop: same-file functions called from inside the region run on
        // the worker thread (or inside the containment boundary) too.
        let Some(enclosing) = model.enclosing_fn(entry_at) else {
            continue;
        };
        let mut visited = vec![enclosing.name.clone()];
        site.hop(region, &enclosing.calls, "", &mut visited, findings);

        // A closure parameter the region calls runs whatever each same-file
        // caller passes in that position: scan it, and one hop from there.
        let params = enclosing.param_list();
        for call in &enclosing.calls {
            if call.at < region.0 || call.at >= region.1 || call.method {
                continue;
            }
            let Some(position) = params.iter().position(|&(name, _)| name == call.name) else {
                continue;
            };
            for caller in &model.fns {
                for passing in &caller.calls {
                    if passing.method || passing.name != enclosing.name {
                        continue;
                    }
                    if file.in_test_code(lexer::line_of(file.line_starts(), passing.at)) {
                        continue;
                    }
                    let Some(open_rel) = stripped[passing.at..].find('(') else {
                        continue;
                    };
                    let args = call_args(stripped, passing.at + open_rel);
                    let Some(&arg) = args.get(position) else {
                        continue;
                    };
                    let passed = format!(
                        "`{}`, the closure `{}` passes to `{}`",
                        call.name, caller.name, enclosing.name
                    );
                    let via = format!("via {passed}");
                    site.scan(arg, &via, findings);
                    let from = format!(" from {passed}");
                    site.hop(arg, &caller.calls, &from, &mut visited, findings);
                }
            }
        }
    }
}

/// One scanned `par_map*`/`catch_unwind` site: what each scan of the code
/// it reaches needs.
struct Site<'a> {
    file: &'a SourceFile,
    model: &'a FileModel,
    allows: &'a Allows,
    kind: Region,
    entry_line: usize,
}

impl Site<'_> {
    /// Scan the bodies of the same-file functions `calls` makes from inside
    /// `region`, each once per site (`visited`). `from` ends the message's
    /// account of how the region is reached.
    fn hop(
        &self,
        region: (usize, usize),
        calls: &[Call],
        from: &str,
        visited: &mut Vec<String>,
        findings: &mut Vec<Finding>,
    ) {
        for call in calls {
            if call.at < region.0 || call.at >= region.1 || call.method {
                continue;
            }
            if visited.contains(&call.name) {
                continue;
            }
            visited.push(call.name.clone());
            let Some(body) = self.model.fn_named(&call.name).and_then(|f| f.body) else {
                continue;
            };
            let via = format!("via `{}`{from}", call.name);
            self.scan(body, &via, findings);
        }
    }

    /// Scan one region for forbidden patterns. `via` says how the region is
    /// reached from the par_map closure (empty for the closure itself).
    fn scan(&self, (lo, hi): (usize, usize), via: &str, findings: &mut Vec<Finding>) {
        let (file, kind, entry_line, allows) = (self.file, self.kind, self.entry_line, self.allows);
        let stripped = file.stripped();
        let region = &stripped[lo..hi];
        let mut hits: Vec<(usize, String)> = Vec::new();

        // Global obs registry / trace-stream writes.
        for prefix in ["diffaudit_obs::", "obs::"] {
            let mut from = 0usize;
            while let Some(rel) = region[from..].find(prefix) {
                let at = from + rel;
                from = at + 1;
                if at > 0 && is_ident(region.as_bytes()[at - 1]) {
                    continue;
                }
                let after = &region[at + prefix.len()..];
                let ident_end = after
                    .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .unwrap_or(after.len());
                let name = &after[..ident_end];
                if !FORBIDDEN_OBS.contains(&name) {
                    continue;
                }
                let message = match kind {
                    Region::Worker => format!(
                        "`{prefix}{name}` hits the process-global obs registry from a worker; \
                         record into the per-worker `LocalRecorder` and `absorb` at join"
                    ),
                    Region::PanicGuard => format!(
                        "`{prefix}{name}` hits the process-global obs registry inside a \
                         panic-contained job region; a panic mid-write poisons the registry \
                         for surviving jobs — record into the job's private `Scope` and merge \
                         after the guard returns"
                    ),
                };
                hits.push((lo + at, message));
            }
        }

        // Blocking I/O — a worker-closure rule only: inside a panic guard the
        // job itself owns its I/O budget (the deadline cuts a stall off).
        if kind == Region::Worker {
            for (pattern, what) in BLOCKING_PATTERNS {
                let mut from = 0usize;
                while let Some(rel) = region[from..].find(pattern) {
                    let at = from + rel;
                    from = at + 1;
                    if at > 0 && is_ident(region.as_bytes()[at - 1]) {
                        continue;
                    }
                    // `std::fs::` subsumes `fs::read`/`fs::write`; report once.
                    if pattern.starts_with("fs::") && at >= 5 && &region[at - 5..at] == "std::" {
                        continue;
                    }
                    hits.push((
                        lo + at,
                        format!("blocking {what} (`{pattern}…`) inside a worker closure stalls the work-stealing queue"),
                    ));
                }
            }
        }

        // Stderr/stdout emission.
        for needle in PRINT_MACROS {
            let mut from = 0usize;
            while let Some(rel) = region[from..].find(needle) {
                let at = from + rel;
                from = at + 1;
                if at > 0 && is_ident(region.as_bytes()[at - 1]) {
                    continue;
                }
                let message = match kind {
                    Region::Worker => format!(
                        "`{needle}` emits to a shared stream from a worker closure; \
                         workers must stay silent (merge diagnostics at join)"
                    ),
                    Region::PanicGuard => format!(
                        "`{needle}` emits to a shared stream inside a panic-contained job \
                         region; jobs must stay silent (report through the job completion)"
                    ),
                };
                hits.push((lo + at, message));
            }
        }

        // Hits were gathered pattern-by-pattern; report in source order.
        hits.sort_by_key(|&(at, _)| at);
        let mut seen_lines: Vec<usize> = Vec::new();
        for (at, mut message) in hits {
            let line = lexer::line_of(file.line_starts(), at);
            if seen_lines.contains(&line) {
                continue;
            }
            seen_lines.push(line);
            if file.in_test_code(line)
                || allows.allows(Lint::ParDiscipline, line)
                || allows.allows(Lint::ParDiscipline, entry_line)
            {
                continue;
            }
            if !via.is_empty() {
                message.push_str(&format!(" (reached from the par_map closure {via})"));
            }
            findings.push(Finding::new(
                file.path.clone(),
                line,
                Lint::ParDiscipline,
                message,
            ));
        }
    }
}

/// Offsets of `<entry>(` call sites for the given entry-point names,
/// tagged with the region kind they open.
fn call_sites(stripped: &str, entries: &[&str], kind: Region) -> Vec<(usize, Region)> {
    let bytes = stripped.as_bytes();
    let mut sites = Vec::new();
    for entry in entries {
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
            let after = stripped[ident_end..].trim_start();
            if !after.starts_with('(') {
                continue;
            }
            // `fn par_map…(` is the definition site in util::par itself.
            let before = stripped[..at].trim_end();
            if before.ends_with("fn") {
                continue;
            }
            sites.push((at, kind));
        }
    }
    sites.sort_by_key(|&(at, _)| at);
    sites
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
        par_discipline(&file, &model, &allows, &mut findings);
        findings
    }

    #[test]
    fn global_metric_write_in_closure_flagged() {
        let src = "\
fn run(items: Vec<u8>) -> Vec<u8> {
    par_map(4, items, |_, x| {
        diffaudit_obs::add(\"items\", 1);
        x
    })
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].lint, Lint::ParDiscipline);
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("LocalRecorder"));
    }

    #[test]
    fn local_recorder_and_absorb_allowed() {
        let src = "\
fn run(items: Vec<u8>) -> Vec<u8> {
    par_map_ctx(
        4,
        items,
        || diffaudit_obs::LocalRecorder::new(),
        |rec, _, x| {
            rec.add(\"items\", 1);
            rec.observe(\"bytes\", &BOUNDS, 1);
            x
        },
        diffaudit_obs::absorb,
    )
}
";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn blocking_io_and_prints_flagged() {
        let src = "\
fn run(paths: Vec<String>) -> Vec<String> {
    diffaudit_util::par::par_map(4, paths, |_, p| {
        eprintln!(\"loading {p}\");
        std::fs::read_to_string(&p).unwrap_or_default()
    })
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert!(findings[0].message.contains("eprintln"));
        assert!(findings[1].message.contains("filesystem"));
    }

    #[test]
    fn one_hop_into_same_file_callee() {
        let src = "\
fn run(items: Vec<u8>) -> Vec<u8> {
    par_map(4, items, |_, x| helper(x))
}
fn helper(x: u8) -> u8 {
    diffaudit_obs::observe(\"x\", &BOUNDS, u64::from(x));
    x
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].line, 5);
        assert!(findings[0].message.contains("via `helper`"));
    }

    #[test]
    fn closure_passed_to_the_enclosing_fn_is_scanned() {
        let src = "\
fn run_queue(items: Vec<u8>, threads: usize, load: impl Fn(u8) -> u8 + Sync) -> Vec<u8> {
    par_map(threads, items, |_, x| load(x))
}
fn load_all(items: Vec<u8>) -> Vec<u8> {
    run_queue(items, 2, |x| {
        diffaudit_obs::add(\"loaded\", 1);
        read_one(x)
    })
}
fn read_one(x: u8) -> u8 {
    std::fs::read(\"f\").map_or(x, |b| b[0])
}
fn serial(items: Vec<u8>) -> Vec<u8> {
    items.into_iter().map(|x| { diffaudit_obs::add(\"fine\", 1); x }).collect()
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 2, "{findings:#?}");
        assert_eq!(findings[0].line, 6);
        assert!(findings[0]
            .message
            .contains("via `load`, the closure `load_all` passes to `run_queue`"));
        assert_eq!(findings[1].line, 11);
        assert!(findings[1]
            .message
            .contains("via `read_one` from `load`, the closure `load_all` passes to `run_queue`"));
    }

    #[test]
    fn code_outside_par_regions_is_untouched() {
        let src = "\
fn serial() {
    diffaudit_obs::add(\"fine\", 1);
    std::fs::read_to_string(\"ok\").ok();
}
";
        assert!(run(src).is_empty());
    }

    #[test]
    fn allow_on_entry_line_suppresses() {
        let src = "\
fn run(items: Vec<u8>) -> Vec<u8> {
    // lint:allow(par-discipline): workers read capture files by design
    par_map(4, items, |_, x| { std::fs::read(\"f\").ok(); x })
}
";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn global_registry_write_inside_catch_unwind_flagged() {
        let src = "\
fn worker(job: Job) -> Outcome {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        diffaudit_obs::add(\"jobs.started\", 1);
        run_job(job)
    }));
    outcome.unwrap_or_default()
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].line, 3);
        assert!(findings[0].message.contains("panic-contained"));
        assert!(findings[0].message.contains("poisons"));
    }

    #[test]
    fn print_inside_catch_unwind_flagged_but_blocking_io_is_not() {
        // A contained job may read files (its deadline bounds the stall);
        // it may not write shared streams.
        let src = "\
fn worker(p: String) -> String {
    catch_unwind(|| {
        println!(\"running {p}\");
        std::fs::read_to_string(&p).unwrap_or_default()
    })
    .unwrap_or_default()
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert!(findings[0].message.contains("shared stream"));
        assert!(findings[0].message.contains("job completion"));
    }

    #[test]
    fn clean_catch_unwind_job_boundary_passes() {
        // The serve worker's actual shape: the contained closure only calls
        // the runner; the merge and the counters happen after the guard.
        let src = "\
fn worker_loop(job: Job) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(job)));
    if let Ok(output) = outcome {
        diffaudit_obs::global().merge(output.metrics);
        diffaudit_obs::add(\"serve.jobs.finished\", 1);
    }
}
";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }

    #[test]
    fn one_hop_into_callee_from_catch_unwind_region() {
        let src = "\
fn worker(job: Job) -> Outcome {
    catch_unwind(|| contained(job)).unwrap_or_default()
}
fn contained(job: Job) -> Outcome {
    diffaudit_obs::warn(\"starting\", &[]);
    run(job)
}
";
        let findings = run(src);
        assert_eq!(findings.len(), 1, "{findings:#?}");
        assert_eq!(findings[0].line, 5);
        assert!(findings[0].message.contains("via `contained`"));
    }

    #[test]
    fn definition_site_in_util_par_is_not_a_call() {
        let src = "\
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R> {
    std::fs::read(\"not actually here\").ok();
    Vec::new()
}
";
        assert!(run(src).is_empty(), "{:#?}", run(src));
    }
}
