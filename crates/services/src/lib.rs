#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # diffaudit-services
//!
//! Deterministic simulators of the six general-audience services the paper
//! audits (Duolingo, Minecraft, Quizlet, Roblox, TikTok, YouTube/YouTube
//! Kids).
//!
//! The real study captured live traffic; we cannot. Instead, each service is
//! a [`ServiceSpec`] whose *behavior matrix* encodes, for every trace
//! category (child / adolescent / adult / logged-out) and every level-2 data
//! group, which destination classes receive that data and on which platforms
//! — reconstructed from the paper's Table 4 and the per-service prose in
//! §4.1.2. The [`session`] generator turns a spec into realistic HTTP
//! exchanges (JSON/form/query/cookie payloads, real-world tracker
//! destinations), and [`dataset`] packages full captures (HAR for web and
//! desktop, pcap + key log for mobile) together with the ground truth —
//! which the pipeline's integration tests then recover.
//!
//! Because ground truth is known by construction, this substrate turns the
//! paper's unverifiable measurement into a closed-loop test: if the pipeline
//! reports a flow the spec did not encode (or misses one it did), that is a
//! bug, not noise.

pub mod catalog;
pub mod dataset;
pub mod keys;
pub mod policy;
pub mod profile;
pub mod session;
pub mod spec;

pub use catalog::{all_services, service_by_slug};
pub use dataset::{
    generate_dataset, generate_dataset_threads, DatasetOptions, GeneratedDataset, ServiceCapture,
    TraceArtifact,
};
pub use keys::KeyFactory;
pub use policy::{PolicyDisclosure, PrivacyPolicy};
pub use profile::{AgeGroup, MemoryArtifact, MemoryUnit, Platform, TraceCategory, TraceKind};
pub use spec::{CellPresence, FlowAction, ServiceSpec, TraceProfile};
