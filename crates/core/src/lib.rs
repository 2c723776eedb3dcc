#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! # diffaudit
//!
//! The DiffAudit auditing pipeline: a platform-agnostic, differential
//! privacy-practice auditor for general-audience online services, after
//! *"DiffAudit: Auditing Privacy Practices of Online Services for Children
//! and Adolescents"* (IMC 2024).
//!
//! The pipeline mirrors the paper's Figure 1:
//!
//! 1. **Capture** — traces arrive as HAR documents (web/desktop) or pcap
//!    bytes + TLS key log (mobile); `diffaudit-nettrace` decodes both into
//!    HTTP exchanges.
//! 2. **Extraction** ([`extract`]) — every outgoing request's JSON body,
//!    form body, query string and cookies are flattened into raw key/value
//!    pairs; the keys are the raw data types.
//! 3. **Classification** — raw data types map to the COPPA/CCPA ontology via
//!    a pluggable [`pipeline::ClassificationMode`]: the GPT-4-simulator
//!    majority ensemble at a confidence threshold (the paper's
//!    configuration) or an oracle label map (for closed-loop verification).
//! 4. **Destination analysis** ([`dest`]) — each destination FQDN gets an
//!    eSLD, an owning organization, and a four-way first/third-party × ATS
//!    classification.
//! 5. **Data flows** ([`flow`]) — `<data type category, destination>` pairs,
//!    aggregated into the Table 4 grid.
//! 6. **Differential audit** ([`diff`], [`audit`]) — compare age groups and
//!    consent states, check observed flows against the privacy policy, and
//!    emit findings with statutory citations.
//! 7. **Linkability** ([`linkability`]) — third parties receiving both
//!    identifiers and personal information (Figures 3–5).
//!
//! [`run`] takes loaded services to a verdict for both front ends (the
//! batch CLI and the serve daemon); [`report`] renders the paper's tables;
//! [`stats`] computes the dataset summary (Table 1).

pub mod audit;
pub mod dest;
pub mod diff;
pub mod export;
pub mod extract;
pub mod flow;
pub mod linkability;
pub mod loader;
pub mod pipeline;
pub mod report;
pub mod run;
pub mod salvage;
pub mod stats;

pub use audit::{AuditFinding, AuditRule, Severity};
pub use dest::DestinationInfo;
pub use diff::{ObservedGrid, PlatformDiff};
pub use extract::{extract_request, visit_request_keys, RawEntry, RawSource};
pub use flow::{DataFlow, FlowTable4};
pub use pipeline::{
    AuditOutcome, ClassificationMode, ObservedExchange, ObservedService, ObservedUnit, Pipeline,
};
pub use run::{run_audit, AuditRun, AuditSettings};
pub use salvage::{DegradationLedger, RunStatus, SalvagePolicy, ServiceLedger, UnitLedger};
pub use stats::{DatasetSummary, ServiceSummary};
