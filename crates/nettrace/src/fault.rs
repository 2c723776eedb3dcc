//! Deterministic fault injection for chaos-testing the decode pipeline.
//!
//! Every operator is seeded and **nested by rate**: whether record/byte `i`
//! is corrupted depends only on `(seed, i)` being hashed below `rate`, so
//! the damage at a higher rate is a strict superset of the damage at a lower
//! rate with the same seed. That makes "recovered ground truth degrades
//! monotonically with corruption rate" a testable invariant rather than a
//! statistical hope.
//!
//! Operators model the faults field captures actually exhibit: tail
//! truncation (killed capture process), bit flips (storage rot), lying
//! record/length fields and record desync (tooling bugs), TCP segment
//! loss/reorder/duplication/overlap (radio loss and retransmission),
//! key-log entry removal (partial `SSLKEYLOGFILE`), and malformed HAR
//! entries (DevTools export glitches).

use crate::packet::TcpSegment;
use diffaudit_util::fnv1a64;

/// A corruption operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Remove the trailing `rate` fraction of the payload.
    TailTruncate,
    /// XOR selected bytes with `0xFF`.
    BitFlip,
    /// Overwrite selected pcap records' `incl_len` with a lie.
    LyingLength,
    /// Insert garbage bytes before selected pcap record boundaries.
    RecordDesync,
    /// Delete selected pcap packet records (TCP segment loss).
    SegmentDrop,
    /// Swap selected pcap records with their successors (reordering).
    SegmentReorder,
    /// Duplicate selected pcap records (retransmission).
    SegmentDuplicate,
    /// Replace selected data segments with two overlapping retransmissions.
    SegmentOverlap,
    /// Remove selected key-log lines.
    KeylogDrop,
    /// Malform selected HAR entries (break their `request` field).
    HarMangle,
}

impl FaultOp {
    /// Every operator.
    pub const ALL: [FaultOp; 10] = [
        FaultOp::TailTruncate,
        FaultOp::BitFlip,
        FaultOp::LyingLength,
        FaultOp::RecordDesync,
        FaultOp::SegmentDrop,
        FaultOp::SegmentReorder,
        FaultOp::SegmentDuplicate,
        FaultOp::SegmentOverlap,
        FaultOp::KeylogDrop,
        FaultOp::HarMangle,
    ];

    /// Operators whose damage is contained to the selected units, so the
    /// records surviving a higher rate are a subset of those surviving a
    /// lower rate — the set for which recovery degrades *monotonically*
    /// with rate. `LyingLength` and `RecordDesync` destroy data too, but
    /// through parser misalignment: a corrupted length field can make the
    /// reader swallow or resurrect neighbouring records, so their recovery
    /// is jittery rather than monotone (like real-world pcap repair).
    pub const LOSSY: [FaultOp; 5] = [
        FaultOp::TailTruncate,
        FaultOp::BitFlip,
        FaultOp::SegmentDrop,
        FaultOp::KeylogDrop,
        FaultOp::HarMangle,
    ];

    /// Stable label for reporting.
    pub fn label(&self) -> &'static str {
        match self {
            FaultOp::TailTruncate => "tail-truncate",
            FaultOp::BitFlip => "bit-flip",
            FaultOp::LyingLength => "lying-length",
            FaultOp::RecordDesync => "record-desync",
            FaultOp::SegmentDrop => "segment-drop",
            FaultOp::SegmentReorder => "segment-reorder",
            FaultOp::SegmentDuplicate => "segment-duplicate",
            FaultOp::SegmentOverlap => "segment-overlap",
            FaultOp::KeylogDrop => "keylog-drop",
            FaultOp::HarMangle => "har-mangle",
        }
    }
}

impl std::fmt::Display for FaultOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One seeded, rated application of a [`FaultOp`].
#[derive(Debug, Clone, Copy)]
pub struct FaultSpec {
    /// The operator.
    pub op: FaultOp,
    /// Selection seed (same seed + higher rate ⇒ superset of damage).
    pub seed: u64,
    /// Corruption rate in `[0, 1]`.
    pub rate: f64,
}

impl FaultSpec {
    /// Hash `(seed, index)` into `[0, 1)` — the nested selection function.
    fn unit(&self, index: u64) -> f64 {
        let mut bytes = [0u8; 16];
        for (slot, byte) in bytes.iter_mut().zip(
            self.seed
                .to_le_bytes()
                .into_iter()
                .chain(index.to_le_bytes()),
        ) {
            *slot = byte;
        }
        (fnv1a64(&bytes) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn selected(&self, index: u64) -> bool {
        self.unit(index) < self.rate
    }

    /// Deterministic garbage byte for position `index`.
    fn garbage(&self, index: u64) -> u8 {
        (fnv1a64(&index.to_le_bytes()) ^ self.seed.rotate_left(17)) as u8
    }

    /// Apply the fault to capture-container bytes (legacy pcap). The
    /// record-aware operators require an intact little-endian pcap layout to
    /// locate record boundaries; on anything else they fall back to
    /// returning the input unchanged. `TailTruncate`/`BitFlip` are
    /// container-agnostic.
    pub fn apply_pcap(&self, data: &[u8]) -> Vec<u8> {
        match self.op {
            FaultOp::TailTruncate => tail_truncate(data, self.rate),
            FaultOp::BitFlip => self.bit_flip(data),
            FaultOp::LyingLength => self.lying_length(data),
            FaultOp::RecordDesync => self.record_desync(data),
            FaultOp::SegmentDrop => self.record_edit(data, RecordEdit::Drop),
            FaultOp::SegmentReorder => self.record_edit(data, RecordEdit::SwapWithNext),
            FaultOp::SegmentDuplicate => self.record_edit(data, RecordEdit::Duplicate),
            FaultOp::SegmentOverlap => self.record_edit(data, RecordEdit::Overlap),
            FaultOp::KeylogDrop | FaultOp::HarMangle => data.to_vec(),
        }
    }

    /// Apply the fault to `SSLKEYLOGFILE` text. Only `KeylogDrop`,
    /// `TailTruncate`, and `BitFlip` are meaningful; others are identity.
    pub fn apply_keylog(&self, text: &str) -> String {
        match self.op {
            FaultOp::KeylogDrop => {
                let kept: Vec<&str> = text
                    .lines()
                    .enumerate()
                    .filter(|(i, _)| !self.selected(*i as u64))
                    .map(|(_, line)| line)
                    .collect();
                let mut out = kept.join("\n");
                if !out.is_empty() {
                    out.push('\n');
                }
                out
            }
            FaultOp::TailTruncate => {
                String::from_utf8_lossy(&tail_truncate(text.as_bytes(), self.rate)).into_owned()
            }
            FaultOp::BitFlip => {
                String::from_utf8_lossy(&self.bit_flip(text.as_bytes())).into_owned()
            }
            _ => text.to_string(),
        }
    }

    /// Apply the fault to HAR text. `HarMangle` breaks selected entries'
    /// `"request"` key (entry-level damage inside a still-valid JSON
    /// document); `TailTruncate`/`BitFlip` damage the document itself.
    pub fn apply_har(&self, text: &str) -> String {
        match self.op {
            FaultOp::HarMangle => {
                let needle = "\"request\"";
                let mut out = String::with_capacity(text.len());
                let mut rest = text;
                let mut index = 0u64;
                while let Some(at) = rest.find(needle) {
                    let (head, tail) = rest.split_at(at);
                    out.push_str(head);
                    if self.selected(index) {
                        out.push_str("\"reques_\"");
                    } else {
                        out.push_str(needle);
                    }
                    rest = tail.get(needle.len()..).unwrap_or("");
                    index += 1;
                }
                out.push_str(rest);
                out
            }
            FaultOp::TailTruncate => {
                String::from_utf8_lossy(&tail_truncate(text.as_bytes(), self.rate)).into_owned()
            }
            FaultOp::BitFlip => {
                String::from_utf8_lossy(&self.bit_flip(text.as_bytes())).into_owned()
            }
            _ => text.to_string(),
        }
    }

    fn bit_flip(&self, data: &[u8]) -> Vec<u8> {
        data.iter()
            .enumerate()
            .map(|(i, &b)| if self.selected(i as u64) { b ^ 0xFF } else { b })
            .collect()
    }

    fn lying_length(&self, data: &[u8]) -> Vec<u8> {
        let Some(spans) = pcap_record_spans(data) else {
            return data.to_vec();
        };
        let mut out = data.to_vec();
        for (i, span) in spans.iter().enumerate() {
            if !self.selected(i as u64) {
                continue;
            }
            // Alternate between an oversized lie (beyond the snaplen) and a
            // short lie (desyncs the next record into this one's payload).
            let lie: u32 = if fnv1a64(&(i as u64).to_le_bytes()) & 1 == 0 {
                u32::MAX
            } else {
                (span.incl_len / 2).max(1)
            };
            let field = span.start + 8;
            for (slot, byte) in out.iter_mut().skip(field).take(4).zip(lie.to_le_bytes()) {
                *slot = byte;
            }
        }
        out
    }

    fn record_desync(&self, data: &[u8]) -> Vec<u8> {
        let Some(spans) = pcap_record_spans(data) else {
            return data.to_vec();
        };
        let mut out = Vec::with_capacity(data.len() + 64);
        out.extend_from_slice(data.get(..PCAP_HEADER_LEN).unwrap_or(data));
        for (i, span) in spans.iter().enumerate() {
            if self.selected(i as u64) {
                // 1–16 garbage bytes ahead of the record boundary.
                let n = (fnv1a64(&(i as u64).to_le_bytes()) % 16) as usize + 1;
                out.extend((0..n).map(|k| self.garbage((i * 31 + k) as u64)));
            }
            if let Some(bytes) = data.get(span.start..span.end()) {
                out.extend_from_slice(bytes);
            }
        }
        out
    }

    fn record_edit(&self, data: &[u8], edit: RecordEdit) -> Vec<u8> {
        let Some(spans) = pcap_record_spans(data) else {
            return data.to_vec();
        };
        let mut out = Vec::with_capacity(data.len());
        out.extend_from_slice(data.get(..PCAP_HEADER_LEN).unwrap_or(data));
        let mut skip_next = false;
        for (i, span) in spans.iter().enumerate() {
            if skip_next {
                skip_next = false;
                continue;
            }
            let Some(bytes) = data.get(span.start..span.end()) else {
                continue;
            };
            if !self.selected(i as u64) {
                out.extend_from_slice(bytes);
                continue;
            }
            match edit {
                RecordEdit::Drop => {}
                RecordEdit::Duplicate => {
                    out.extend_from_slice(bytes);
                    out.extend_from_slice(bytes);
                }
                RecordEdit::SwapWithNext => {
                    if let Some(next) = spans.get(i + 1).and_then(|s| data.get(s.start..s.end())) {
                        out.extend_from_slice(next);
                        out.extend_from_slice(bytes);
                        skip_next = true;
                    } else {
                        out.extend_from_slice(bytes);
                    }
                }
                RecordEdit::Overlap => match overlap_record(span, data) {
                    Some(replacement) => out.extend_from_slice(&replacement),
                    None => out.extend_from_slice(bytes),
                },
            }
        }
        out
    }
}

#[derive(Clone, Copy)]
enum RecordEdit {
    Drop,
    Duplicate,
    SwapWithNext,
    Overlap,
}

const PCAP_HEADER_LEN: usize = 24;

/// One pcap record's location within the file.
#[derive(Debug, Clone, Copy)]
struct RecordSpan {
    /// Offset of the 16-byte record header.
    start: usize,
    /// Captured length from the header.
    incl_len: u32,
}

impl RecordSpan {
    fn end(&self) -> usize {
        self.start + 16 + self.incl_len as usize
    }
}

/// Walk a little-endian legacy pcap and return each record's span. `None`
/// when the bytes are not a well-formed LE pcap (the fault operators then
/// leave the input untouched rather than guessing).
fn pcap_record_spans(data: &[u8]) -> Option<Vec<RecordSpan>> {
    use diffaudit_util::bytes::read_u32_le;

    if read_u32_le(data, 0)? != 0xA1B2_C3D4 {
        return None;
    }
    let snaplen = read_u32_le(data, 16)?;
    let mut spans = Vec::new();
    let mut pos = PCAP_HEADER_LEN;
    while pos < data.len() {
        let incl_len = read_u32_le(data, pos + 8)?;
        if incl_len > snaplen {
            return None;
        }
        let span = RecordSpan {
            start: pos,
            incl_len,
        };
        if span.end() > data.len() {
            return None;
        }
        pos = span.end();
        spans.push(span);
    }
    Some(spans)
}

/// Truncate the trailing `rate` fraction of `data`.
fn tail_truncate(data: &[u8], rate: f64) -> Vec<u8> {
    let cut = (data.len() as f64 * rate.clamp(0.0, 1.0)).floor() as usize;
    let keep = data.len().saturating_sub(cut);
    data.get(..keep).unwrap_or(data).to_vec()
}

/// Replace a data-carrying record with two overlapping retransmissions of
/// the same TCP payload (classic partial-retransmit overlap). Returns `None`
/// when the frame does not decode or carries too little payload, in which
/// case the caller keeps the original record.
fn overlap_record(span: &RecordSpan, data: &[u8]) -> Option<Vec<u8>> {
    use diffaudit_util::bytes::read_u32_le;

    let frame = data.get(span.start + 16..span.end())?;
    let segment = TcpSegment::decode(frame).ok()?;
    if segment.payload.len() < 4 {
        return None;
    }
    let ts_sec = read_u32_le(data, span.start)?;
    let ts_usec = read_u32_le(data, span.start + 4)?;
    let split = segment.payload.len() * 2 / 3;
    let resend_from = split / 2;

    let first = TcpSegment {
        payload: segment.payload.get(..split)?,
        ..segment
    };
    let second = TcpSegment {
        seq: segment.seq.wrapping_add(resend_from as u32),
        payload: segment.payload.get(resend_from..)?,
        ..segment
    };

    let mut out = Vec::new();
    for part in [first, second] {
        let frame = part.encode();
        out.extend_from_slice(&ts_sec.to_le_bytes());
        out.extend_from_slice(&ts_usec.to_le_bytes());
        out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        out.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        out.extend_from_slice(&frame);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::{PcapReader, PcapWriter};
    use crate::salvage::{SalvageLog, Stage};

    /// Parse pcap bytes whose records are intact (maybe rearranged): the
    /// salvage log must stay clean.
    fn parse_clean(data: &[u8]) -> PcapReader<'_> {
        let mut log = SalvageLog::new();
        let r = PcapReader::parse_salvage(data, &mut log).unwrap();
        assert!(log.is_clean(), "{:?}", log.drops());
        r
    }

    fn sample_pcap() -> Vec<u8> {
        let mut w = PcapWriter::new();
        for i in 0..10u64 {
            w.write_packet(
                1_700_000_000_000 + i,
                format!("frame-{i:02}-payload").as_bytes(),
            );
        }
        w.finish()
    }

    #[test]
    fn zero_rate_is_identity() {
        let data = sample_pcap();
        for op in FaultOp::ALL {
            let spec = FaultSpec {
                op,
                seed: 7,
                rate: 0.0,
            };
            assert_eq!(spec.apply_pcap(&data), data, "{op} at rate 0 changed bytes");
        }
        let text = "CLIENT_RANDOM aa bb\n";
        for op in FaultOp::ALL {
            let spec = FaultSpec {
                op,
                seed: 7,
                rate: 0.0,
            };
            assert_eq!(spec.apply_keylog(text), text);
        }
    }

    #[test]
    fn damage_is_deterministic() {
        let data = sample_pcap();
        for op in FaultOp::ALL {
            let spec = FaultSpec {
                op,
                seed: 11,
                rate: 0.4,
            };
            assert_eq!(spec.apply_pcap(&data), spec.apply_pcap(&data));
        }
    }

    #[test]
    fn selection_is_nested_by_rate() {
        let spec_lo = FaultSpec {
            op: FaultOp::BitFlip,
            seed: 3,
            rate: 0.2,
        };
        let spec_hi = FaultSpec {
            op: FaultOp::BitFlip,
            seed: 3,
            rate: 0.7,
        };
        for i in 0..10_000u64 {
            if spec_lo.selected(i) {
                assert!(spec_hi.selected(i), "index {i} selected at 0.2 but not 0.7");
            }
        }
    }

    #[test]
    fn segment_drop_removes_records() {
        let data = sample_pcap();
        let spec = FaultSpec {
            op: FaultOp::SegmentDrop,
            seed: 5,
            rate: 0.5,
        };
        let out = spec.apply_pcap(&data);
        let orig = parse_clean(&data).packets.len();
        let kept = parse_clean(&out).packets.len();
        assert!(kept < orig, "{kept} vs {orig}");
    }

    #[test]
    fn reorder_and_duplicate_preserve_payload_multiset() {
        let data = sample_pcap();
        let orig = parse_clean(&data);
        for op in [FaultOp::SegmentReorder, FaultOp::SegmentDuplicate] {
            let spec = FaultSpec {
                op,
                seed: 9,
                rate: 0.6,
            };
            let damaged = spec.apply_pcap(&data);
            let out = parse_clean(&damaged);
            let mut orig_payloads: Vec<&[u8]> = orig.packets.iter().map(|p| p.data).collect();
            let mut new_payloads: Vec<&[u8]> = out.packets.iter().map(|p| p.data).collect();
            orig_payloads.sort();
            new_payloads.sort();
            new_payloads.dedup();
            orig_payloads.dedup();
            assert_eq!(orig_payloads, new_payloads, "{op} lost or invented frames");
        }
    }

    #[test]
    fn lying_length_drops_records() {
        let data = sample_pcap();
        let spec = FaultSpec {
            op: FaultOp::LyingLength,
            seed: 2,
            rate: 0.9,
        };
        let mut log = SalvageLog::new();
        PcapReader::parse_salvage(&spec.apply_pcap(&data), &mut log).unwrap();
        assert!(
            log.stage(Stage::PcapRecord).dropped >= 1,
            "{:?}",
            log.stage(Stage::PcapRecord)
        );
        assert!(log.conserved());
    }

    #[test]
    fn keylog_drop_removes_lines() {
        let text = "CLIENT_RANDOM aa bb\nCLIENT_RANDOM cc dd\nCLIENT_RANDOM ee ff\n";
        let spec = FaultSpec {
            op: FaultOp::KeylogDrop,
            seed: 1,
            rate: 1.0,
        };
        assert_eq!(spec.apply_keylog(text), "");
    }

    #[test]
    fn har_mangle_keeps_document_json_valid() {
        let har =
            r#"{"log":{"entries":[{"request":{"method":"GET"}},{"request":{"method":"POST"}}]}}"#;
        let spec = FaultSpec {
            op: FaultOp::HarMangle,
            seed: 4,
            rate: 1.0,
        };
        let out = spec.apply_har(har);
        assert!(diffaudit_json::parse(&out).is_ok());
        assert!(!out.contains("\"request\""));
    }

    #[test]
    fn tail_truncate_fraction() {
        let data = vec![0u8; 100];
        let spec = FaultSpec {
            op: FaultOp::TailTruncate,
            seed: 0,
            rate: 0.25,
        };
        assert_eq!(spec.apply_pcap(&data).len(), 75);
    }
}
