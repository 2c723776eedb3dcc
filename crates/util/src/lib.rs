#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # diffaudit-util
//!
//! Shared low-level utilities for the DiffAudit workspace.
//!
//! The entire reproduction must be *bit-stable*: every table and figure in
//! the paper is regenerated from seeded synthetic workloads, so the random
//! number generator, hashes, and encodings used throughout the workspace are
//! implemented here rather than pulled from external crates whose output
//! could drift across versions.
//!
//! Modules:
//! - [`rng`] — `SplitMix64` seeding and `Xoshiro256StarStar`, plus sampling
//!   helpers (ranges, choices, shuffles, weighted selection).
//! - [`hash`] — FNV-1a 64-bit hashing for stable, platform-independent
//!   string digests.
//! - [`hex`] — hexadecimal encoding/decoding (used by the TLS key log).
//! - [`base64`] — standard-alphabet base64 (used by HAR payload encoding).
//! - [`bytes`] — checked binary readers (`Option`-returning) for decoding
//!   untrusted length-prefixed formats without panic-capable indexing.
//! - [`stats`] — small descriptive-statistics helpers for the benchmark
//!   harness (means, percentiles, histograms).
//! - [`fmt`] — human-readable duration/byte formatting for reports and logs.
//! - [`par`] — std-only scoped-thread fork-join executor with ordered
//!   result merge (three entry points on one worker loop), the
//!   [`par::available_threads`] default behind the `--threads` flag, and
//!   the hash-consed [`par::KeyInterner`].
//! - [`cancel`] — cooperative cancellation ([`cancel::CancelToken`]),
//!   wall-clock [`cancel::Deadline`]s, and the combined [`cancel::Ctl`]
//!   handle the serve daemon threads through pipeline and loader loops.
//! - [`prop`] — the seeded, shrink-free property runner ([`prop::check`])
//!   every crate's `tests/properties.rs` runs on, plus its shared input
//!   generators (byte vectors, arbitrary text, strings over an alphabet).

pub mod base64;
pub mod bytes;
pub mod cancel;
pub mod fmt;
pub mod hash;
pub mod hex;
pub mod par;
pub mod prop;
pub mod rng;
pub mod stats;

pub use cancel::{CancelToken, Ctl, Deadline, Interrupt};
pub use hash::{fnv1a64, Fnv64};
pub use par::{Key, KeyInterner};
pub use rng::Rng;
