#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_docs)]

//! # diffaudit-json
//!
//! A small, self-contained JSON engine.
//!
//! DiffAudit's extraction step ("we extract key-value pairs from the
//! JSON-structured data, and the keys serve as the raw data types", §3.2.2)
//! needs full control over JSON traversal: object key order must be
//! preserved for deterministic trace generation, and the flattener must
//! surface *every* key at every nesting depth, including keys inside
//! stringified-JSON values, which real trackers love to nest.
//!
//! Rather than depending on an external JSON crate, this module implements:
//!
//! - [`Json`] — the value model (order-preserving objects);
//! - [`parse`] — a recursive-descent parser with precise error positions and
//!   a configurable depth limit;
//! - [`Json::to_string`] / [`Json::to_pretty_string`] — serializers;
//! - [`Cursor`] — the pull reader that holds the grammar, for callers that
//!   pick a few members out of a large document;
//! - [`flatten`] — the key-value pair extractor;
//! - [`visit_keys`] — the keys `flatten` would report, without building the
//!   tree or copying values, which is what the pipeline extracts;
//! - [`Json::pointer`] — RFC 6901 JSON-pointer lookup for tests and tools.

mod flatten;
mod parse;
mod scan;
mod ser;
mod value;

pub use flatten::{flatten, flatten_with, visit_keys, visit_keys_bytes, FlatEntry, FlattenOptions};
pub use parse::{parse, parse_with_limit, Cursor, JsonError, Kind, DEFAULT_DEPTH_LIMIT};
pub use value::{Json, Number};
