#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # diffaudit-analyzer
//!
//! A std-only static-analysis suite over the workspace's own Rust sources.
//!
//! DiffAudit's pipeline decodes adversarial bytes end to end — pcap/pcapng
//! records, reassembled TCP, HTTP and JSON payloads captured from live
//! services — so a reachable panic in a decoder is a denial-of-service
//! against the whole audit. This crate enforces, at build time (the lint
//! run is a tier-1 integration test), three rules:
//!
//! - **`no-panic`** — `unwrap()`, `expect(`, `panic!`, `todo!`,
//!   `unimplemented!`, and `[...]` index expressions are forbidden in the
//!   designated untrusted-input crates (`diffaudit-nettrace`,
//!   `diffaudit-json`, `diffaudit-domains`) and in the individually
//!   designated salvage-path files (`crates/core/src/loader.rs`,
//!   `crates/core/src/salvage.rs`). Escape hatch:
//!   `// lint:allow(no-panic): <reason>`; test modules and `tests/`/
//!   `benches/` targets are exempt.
//! - **`unsafe-audit`** — every `unsafe` token must carry a nearby
//!   `// SAFETY:` comment (the workspace additionally sets
//!   `unsafe_code = "forbid"`, so this pass is a second line of defense).
//! - **`error-taxonomy`** — `pub` fallible APIs in the designated crates
//!   must return the crate's typed error, not `Result<_, String>` or
//!   `Result<_, &str>`.
//! - **`no-bare-eprintln`** — every crate's production sources must route
//!   stderr output through the `diffaudit-obs` structured logger; only the
//!   obs sink itself and the analyzer CLI are path-allowlisted.
//! - **`global-state`** — `static mut` (error), statics holding
//!   `OnceLock`/atomics/locks/cells, `thread_local!`, and ambient
//!   env/CWD reads outside the binary-entry-point allowlist.
//! - **`redaction`** — raw payload bytes (HAR/pcap bodies, extracted
//!   data-type values) must not reach a log/trace sink without passing
//!   through a named redaction/summary function. Built on an item-level
//!   parser ([`parser::FileModel`]) and an intra-crate payload-carrier
//!   fixpoint ([`dataflow::CrateModel`]).
//! - **`par-discipline`** — closures handed to `util::par::par_map*` must
//!   not block on I/O, write global-registry metrics (use
//!   `LocalRecorder`), or emit to shared streams.
//! - **`metric-discipline`** — names handed to metric/span recording APIs
//!   must be `&'static str` literals or name-registry constants, never
//!   built with `format!`/`.to_string()` at the call site, so the
//!   `/metrics` exposition's series set stays bounded and auditable.
//!
//! The passes are textual but comment/string-aware: a small lexer
//! ([`lexer::strip`]) blanks comments and string literals (preserving byte
//! offsets) before any pattern is matched; the item-level passes then
//! recover fns, statics, and an approximate call graph from the stripped
//! text — no `syn`, no proc-macros, std only.
//!
//! Run it as `cargo run -p diffaudit-analyzer` (human output),
//! `-- --format json` (machine output), or
//! `-- --format json --baseline analyzer_baseline.json` (the ratchet gate
//! `scripts/check.sh` runs: new findings fail, the baseline only shrinks).

pub mod annotations;
pub mod baseline;
pub mod dataflow;
pub mod findings;
pub mod global_state;
pub mod lexer;
pub mod metric_discipline;
pub mod par_discipline;
pub mod parser;
pub mod passes;
pub mod redaction;
pub mod report;
pub mod workspace;

pub use findings::{Finding, Lint, Severity};
pub use passes::{analyze_source, analyze_units, FileUnit, Policy, SourceFile};
pub use workspace::{
    analyze_workspace, find_root, Config, DESIGNATED_CRATES, DESIGNATED_FILES, ENV_ALLOWLIST,
    EPRINTLN_ALLOWLIST,
};
