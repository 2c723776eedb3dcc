#![forbid(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![warn(missing_docs)]

//! # diffaudit-nettrace
//!
//! The network-capture substrate.
//!
//! The paper collects traffic three ways: PCAPdroid on a rooted Android
//! device (PCAP + TLS key log, decrypted via Wireshark/editcap), Chrome
//! DevTools on the web (HAR export), and Proxyman on desktop (HAR export).
//! This crate reimplements the file formats and the decode pipeline so that
//! the rest of DiffAudit operates on exactly the artifacts a real deployment
//! would produce:
//!
//! - [`http`] — the HTTP request/response model shared by all formats;
//! - [`har`] — HAR 1.2 serialization and parsing (DevTools/Proxyman path);
//! - [`pcap`] — the libpcap file format, writer and salvage reader;
//! - [`packet`] — Ethernet II / IPv4 / TCP codecs with real checksums;
//! - [`tcp`] — TCP flow tracking and stream reassembly (out-of-order
//!   tolerant), plus the flow counts reported in the paper's Table 1;
//! - [`tls`] — a simulated TLS record layer: handshake with client random,
//!   keyed-stream "encryption", and an `SSLKEYLOGFILE`-format key log; data
//!   captured without a logged key stays opaque, exactly like a
//!   certificate-pinned app in the paper's setup;
//! - [`keylog`] — key-log file parsing/serialization;
//! - [`pcapng`] — the pcapng subset Wireshark's editcap produces when
//!   embedding TLS secrets (SHB/IDB/EPB + Decryption Secrets Block), its
//!   salvage reader, and the `inject_secrets` editcap simulation;
//! - [`capture`] — end-to-end capture sessions: HTTP exchanges → pcap
//!   bytes with a key log (the PCAPdroid side) or → HAR (the DevTools
//!   side), and the one decode pipeline back from pcap/pcapng bytes to
//!   exchanges, [`decode_auto_salvage`];
//! - [`salvage`] — the per-stage ledger every decoder records damage into:
//!   the capture readers and flow loop skip and record a damaged record
//!   instead of aborting, so an undamaged capture is one with a clean log.

pub mod capture;
pub mod fault;
pub mod har;
pub mod http;
pub mod keylog;
pub mod packet;
pub mod pcap;
pub mod pcapng;
pub mod salvage;
pub mod tcp;
pub mod tls;

pub use capture::{
    decode_auto_salvage, decode_auto_salvage_ctl, CaptureOptions, CaptureSession, DecodedTrace,
};
pub use fault::{FaultOp, FaultSpec};
pub use har::{
    har_from_exchanges, har_to_exchanges, har_to_exchanges_salvage, har_to_exchanges_salvage_ctl,
    HarError,
};
pub use http::{Exchange, HeaderMap, HttpRequest, HttpResponse, Method};
pub use keylog::KeyLog;
pub use pcap::{PcapError, PcapPacket, PcapReader, PcapWriter};
pub use pcapng::{inject_secrets, PcapngError, PcapngReader, PcapngWriter};
pub use salvage::{DropRecord, SalvageLog, Stage, StageCounts};
