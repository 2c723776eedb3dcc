//! The pcapng file format with Decryption Secrets Blocks.
//!
//! The paper's actual decryption step is `editcap --inject-secrets
//! tls,<keylog> trace.pcap trace-dsb.pcapng` — Wireshark's editcap embeds
//! the TLS key log into a **pcapng** file as a Decryption Secrets Block
//! (DSB), producing a single self-contained decryptable capture (§3.2:
//! "We use the Wireshark functionality editcap to embed the TLS keys into
//! the PCAP file"). This module implements the needed pcapng subset:
//!
//! - Section Header Block (SHB), Interface Description Block (IDB),
//!   Enhanced Packet Block (EPB), and Decryption Secrets Block (DSB) with
//!   the `TLSK` (TLS key log) secrets type;
//! - [`inject_secrets`] — the editcap simulation: legacy pcap + key log →
//!   pcapng with an embedded DSB;
//! - [`PcapngReader`] — parses packets *and* recovers the embedded key log,
//!   so a DSB-carrying capture decrypts with no side files; a damaged block
//!   is skipped and recorded in a [`SalvageLog`], not fatal.

use crate::keylog::KeyLog;
use crate::pcap::{PcapError, PcapPacket, PcapReader};
use crate::salvage::{SalvageLog, Stage};

const BT_SHB: u32 = 0x0A0D_0D0A;
const BT_IDB: u32 = 0x0000_0001;
const BT_EPB: u32 = 0x0000_0006;
const BT_DSB: u32 = 0x0000_000A;
const BYTE_ORDER_MAGIC: u32 = 0x1A2B_3C4D;
/// Secrets type for a TLS key log ("TLSK").
const SECRETS_TLS_KEYLOG: u32 = 0x544C_534B;

/// pcapng parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcapngError {
    /// File does not start with a Section Header Block.
    NotPcapng,
    /// Big-endian sections are not produced by our tooling.
    BigEndianUnsupported,
    /// The file ended mid-block.
    Truncated {
        /// Offset where data ran out.
        offset: usize,
    },
}

impl std::fmt::Display for PcapngError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapngError::NotPcapng => write!(f, "not a pcapng file"),
            PcapngError::BigEndianUnsupported => write!(f, "big-endian pcapng unsupported"),
            PcapngError::Truncated { offset } => write!(f, "truncated block at offset {offset}"),
        }
    }
}

impl std::error::Error for PcapngError {}

fn pad4(n: usize) -> usize {
    n.div_ceil(4) * 4
}

/// Writes a pcapng section (SHB + IDB up front, then DSBs/EPBs).
#[derive(Debug)]
pub struct PcapngWriter {
    buf: Vec<u8>,
    packets: usize,
}

impl PcapngWriter {
    /// Start a section with one Ethernet interface.
    pub fn new() -> Self {
        let mut w = Self {
            buf: Vec::with_capacity(4096),
            packets: 0,
        };
        // SHB body: magic, version 1.0, section length -1 (unknown).
        let mut body = Vec::new();
        body.extend_from_slice(&BYTE_ORDER_MAGIC.to_le_bytes());
        body.extend_from_slice(&1u16.to_le_bytes());
        body.extend_from_slice(&0u16.to_le_bytes());
        body.extend_from_slice(&(-1i64).to_le_bytes());
        w.block(BT_SHB, &body);
        // IDB body: linktype ethernet, reserved, snaplen 0 (no limit).
        let mut body = Vec::new();
        body.extend_from_slice(&1u16.to_le_bytes());
        body.extend_from_slice(&0u16.to_le_bytes());
        body.extend_from_slice(&0u32.to_le_bytes());
        w.block(BT_IDB, &body);
        w
    }

    fn block(&mut self, block_type: u32, body: &[u8]) {
        let padded = pad4(body.len());
        let total = (12 + padded) as u32;
        self.buf.extend_from_slice(&block_type.to_le_bytes());
        self.buf.extend_from_slice(&total.to_le_bytes());
        self.buf.extend_from_slice(body);
        self.buf
            .extend(std::iter::repeat_n(0u8, padded - body.len()));
        self.buf.extend_from_slice(&total.to_le_bytes());
    }

    /// Embed a TLS key log as a Decryption Secrets Block. Per the pcapng
    /// spec, DSBs should precede the packets that need them.
    pub fn write_secrets(&mut self, keylog: &KeyLog) {
        let data = keylog.to_file_string().into_bytes();
        let mut body = Vec::with_capacity(8 + data.len());
        body.extend_from_slice(&SECRETS_TLS_KEYLOG.to_le_bytes());
        body.extend_from_slice(&(data.len() as u32).to_le_bytes());
        body.extend_from_slice(&data);
        self.block(BT_DSB, &body);
    }

    /// Append one packet as an Enhanced Packet Block.
    pub fn write_packet(&mut self, timestamp_ms: u64, frame: &[u8]) {
        let ts_us = timestamp_ms * 1000; // default if_tsresol = microseconds
        let mut body = Vec::with_capacity(20 + frame.len());
        body.extend_from_slice(&0u32.to_le_bytes()); // interface 0
        body.extend_from_slice(&((ts_us >> 32) as u32).to_le_bytes());
        body.extend_from_slice(&(ts_us as u32).to_le_bytes());
        body.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        body.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        body.extend_from_slice(frame);
        self.block(BT_EPB, &body);
        self.packets += 1;
    }

    /// Packets written.
    pub fn packet_count(&self) -> usize {
        self.packets
    }

    /// Finish and return the file bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for PcapngWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// A parsed pcapng section; its packets borrow the input buffer.
#[derive(Debug)]
pub struct PcapngReader<'a> {
    /// Packets, in file order.
    pub packets: Vec<PcapPacket<'a>>,
    /// TLS key log assembled from every DSB in the section.
    pub keylog: KeyLog,
}

impl<'a> PcapngReader<'a> {
    /// `true` when the bytes start with a pcapng SHB.
    pub fn sniff(data: &[u8]) -> bool {
        diffaudit_util::bytes::read_u32_le(data, 0) == Some(BT_SHB)
    }

    /// Parse an entire section, salvaging around damage: a damaged block is
    /// skipped and recorded in `log` instead of aborting. Unknown block
    /// types are skipped (per spec). Resync scans forward (4-byte stride —
    /// blocks we write are always aligned) for a block whose leading and
    /// trailing length fields agree, a redundancy garbage almost never
    /// reproduces. Only an unusable SHB is an error; an undamaged section
    /// leaves the log clean.
    pub fn parse_salvage(
        data: &'a [u8],
        log: &mut SalvageLog,
    ) -> Result<PcapngReader<'a>, PcapngError> {
        use diffaudit_util::bytes::{read_u32_le, slice_at};

        if !Self::sniff(data) {
            return Err(PcapngError::NotPcapng);
        }
        let magic = read_u32_le(data, 8).ok_or(PcapngError::Truncated { offset: 0 })?;
        if magic == BYTE_ORDER_MAGIC.swap_bytes() {
            return Err(PcapngError::BigEndianUnsupported);
        }
        if magic != BYTE_ORDER_MAGIC {
            return Err(PcapngError::NotPcapng);
        }

        // A block boundary is plausible when its length fields are sane and
        // the trailing copy agrees with the leading one.
        let plausible = |pos: usize| -> bool {
            let Some(total) = read_u32_le(data, pos + 4).map(|t| t as usize) else {
                return false;
            };
            if total < 12 || !total.is_multiple_of(4) || pos + total > data.len() {
                return false;
            }
            read_u32_le(data, pos + total - 4).map(|t| t as usize) == Some(total)
        };

        let mut packets = Vec::new();
        let mut keylog = KeyLog::new();
        let mut pos = 0usize;
        while pos < data.len() {
            let bad = |reason: &str, log: &mut SalvageLog| -> Option<usize> {
                let resync = (pos + 4..data.len().saturating_sub(12))
                    .step_by(4)
                    .find(|&p| plausible(p));
                match resync {
                    Some(next) => {
                        log.dropped(
                            Stage::PcapngBlock,
                            format!("{reason}; resynced after {} bytes", next - pos),
                            Some(pos as u64),
                        );
                    }
                    None => {
                        log.dropped(
                            Stage::PcapngBlock,
                            format!(
                                "{reason}; {} trailing bytes unrecoverable",
                                data.len() - pos
                            ),
                            Some(pos as u64),
                        );
                    }
                }
                resync
            };
            let header = read_u32_le(data, pos)
                .zip(read_u32_le(data, pos + 4))
                .map(|(t, total)| (t, total as usize));
            let Some((block_type, total)) = header else {
                match bad("truncated block header", log) {
                    Some(next) => {
                        pos = next;
                        continue;
                    }
                    None => break,
                }
            };
            if total < 12 || !total.is_multiple_of(4) {
                match bad("impossible block length", log) {
                    Some(next) => {
                        pos = next;
                        continue;
                    }
                    None => break,
                }
            }
            let Some(block) = slice_at(data, pos, total) else {
                match bad("block extends past end of file", log) {
                    Some(next) => {
                        pos = next;
                        continue;
                    }
                    None => break,
                }
            };
            if read_u32_le(block, total - 4).map(|t| t as usize) != Some(total) {
                match bad("block length fields disagree", log) {
                    Some(next) => {
                        pos = next;
                        continue;
                    }
                    None => break,
                }
            }
            let body = slice_at(block, 8, total - 12).unwrap_or(&[]);
            match block_type {
                BT_EPB => match parse_epb_body(body) {
                    Some(packet) => {
                        packets.push(packet);
                        log.ok(Stage::PcapngBlock);
                    }
                    None => {
                        log.dropped(
                            Stage::PcapngBlock,
                            "packet block body malformed",
                            Some(pos as u64),
                        );
                    }
                },
                BT_DSB => {
                    let parsed = read_u32_le(body, 0).zip(read_u32_le(body, 4)).and_then(
                        |(secrets_type, len)| {
                            let secrets = slice_at(body, 8, len as usize)?;
                            if secrets_type == SECRETS_TLS_KEYLOG {
                                std::str::from_utf8(secrets).ok().map(KeyLog::parse)
                            } else {
                                Some(KeyLog::new()) // non-TLS secrets: valid, ignored
                            }
                        },
                    );
                    match parsed {
                        Some(extra) => {
                            keylog.extend(extra);
                            log.ok(Stage::PcapngBlock);
                        }
                        None => {
                            log.dropped(
                                Stage::PcapngBlock,
                                "secrets block body malformed",
                                Some(pos as u64),
                            );
                        }
                    }
                }
                // SHB, IDB, and anything else: structurally valid, skipped.
                _ => log.ok(Stage::PcapngBlock),
            }
            pos += total;
        }
        Ok(PcapngReader { packets, keylog })
    }
}

/// Decode an Enhanced Packet Block body (checked; `None` on any lie).
fn parse_epb_body(body: &[u8]) -> Option<PcapPacket<'_>> {
    use diffaudit_util::bytes::{read_u32_le, slice_at};
    let ts_high = read_u32_le(body, 4)? as u64;
    let ts_low = read_u32_le(body, 8)? as u64;
    let cap_len = read_u32_le(body, 12)? as usize;
    let orig_len = read_u32_le(body, 16)?;
    let captured = slice_at(body, 20, cap_len)?;
    let ts_us = (ts_high << 32) | ts_low;
    Some(PcapPacket {
        ts_sec: (ts_us / 1_000_000) as u32,
        ts_usec: (ts_us % 1_000_000) as u32,
        orig_len,
        data: captured,
    })
}

/// The editcap simulation: `editcap --inject-secrets tls,<keylog>` — takes
/// legacy pcap bytes plus a key log and produces a self-contained pcapng
/// capture with the secrets embedded ahead of the packets.
///
/// A damaged input is refused, never rewritten into a shorter capture:
/// any record the reader drops is an error naming the index of the first
/// one (the records before it are contiguous from the global header).
pub fn inject_secrets(pcap_bytes: &[u8], keylog: &KeyLog) -> Result<Vec<u8>, PcapError> {
    let mut log = SalvageLog::new();
    let legacy = PcapReader::parse_salvage(pcap_bytes, &mut log)?;
    if let Some(first) = log.drops().first() {
        let at = first.offset.unwrap_or(0);
        let mut pos = 24u64;
        let index = legacy
            .packets
            .iter()
            .take_while(|p| {
                pos += 16 + p.data.len() as u64;
                pos <= at
            })
            .count();
        return Err(PcapError::TruncatedPacket { index });
    }
    let mut writer = PcapngWriter::new();
    writer.write_secrets(keylog);
    for packet in &legacy.packets {
        writer.write_packet(packet.timestamp_ms(), packet.data);
    }
    Ok(writer.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcap::PcapWriter;

    fn sample_keylog() -> KeyLog {
        let mut log = KeyLog::new();
        log.insert([1u8; 32], [2u8; 32]);
        log.insert([3u8; 32], [4u8; 32]);
        log
    }

    /// Parse an undamaged section: the salvage log must stay clean.
    fn parse_clean(bytes: &[u8]) -> PcapngReader<'_> {
        let mut log = SalvageLog::new();
        let r = PcapngReader::parse_salvage(bytes, &mut log).unwrap();
        assert!(log.is_clean(), "undamaged section: {:?}", log.drops());
        r
    }

    #[test]
    fn write_read_round_trip_with_secrets() {
        let mut w = PcapngWriter::new();
        w.write_secrets(&sample_keylog());
        w.write_packet(1_700_000_000_123, b"frame-one");
        w.write_packet(1_700_000_000_456, b"frame-two!!");
        let bytes = w.finish();
        assert!(PcapngReader::sniff(&bytes));
        let mut log = SalvageLog::new();
        let r = PcapngReader::parse_salvage(&bytes, &mut log).unwrap();
        assert!(log.is_clean());
        // SHB + IDB + DSB + 2 EPBs.
        assert_eq!(log.stage(Stage::PcapngBlock).processed, 5);
        assert_eq!(r.packets.len(), 2);
        assert_eq!(r.packets[0].data, b"frame-one");
        assert_eq!(r.packets[0].timestamp_ms(), 1_700_000_000_123);
        assert_eq!(r.packets[1].data, b"frame-two!!");
        assert_eq!(r.keylog.len(), 2);
        assert_eq!(r.keylog.secret_for(&[1u8; 32]), Some(&[2u8; 32]));
    }

    #[test]
    fn inject_secrets_is_editcap() {
        let mut legacy = PcapWriter::new();
        legacy.write_packet(42, b"abc");
        legacy.write_packet(43, b"defg");
        let pcap = legacy.finish();
        let pcapng = inject_secrets(&pcap, &sample_keylog()).unwrap();
        let r = parse_clean(&pcapng);
        assert_eq!(r.packets.len(), 2);
        assert_eq!(r.packets[1].data, b"defg");
        assert_eq!(r.keylog.len(), 2);
        // A damaged record is refused, naming the first damaged index.
        assert_eq!(
            inject_secrets(&pcap[..pcap.len() - 1], &sample_keylog()),
            Err(PcapError::TruncatedPacket { index: 1 })
        );
    }

    #[test]
    fn sniff_rejects_legacy_pcap() {
        let legacy = PcapWriter::new().finish();
        assert!(!PcapngReader::sniff(&legacy));
        assert!(matches!(
            PcapngReader::parse_salvage(&legacy, &mut SalvageLog::new()),
            Err(PcapngError::NotPcapng)
        ));
    }

    /// Salvage-parse a one-EPB section whose EPB is damaged: the EPB (after
    /// the 28-byte SHB and the 20-byte IDB) is the one drop, for `reason`.
    fn assert_epb_dropped(bytes: &[u8], reason: &str) {
        let mut log = SalvageLog::new();
        let r = PcapngReader::parse_salvage(bytes, &mut log).unwrap();
        assert!(r.packets.is_empty());
        assert!(log.conserved());
        assert_eq!(log.stage(Stage::PcapngBlock).dropped, 1);
        let drop = &log.drops()[0];
        assert_eq!(drop.offset, Some(48), "{}", drop.reason);
        assert!(drop.reason.starts_with(reason), "{}", drop.reason);
    }

    #[test]
    fn rejects_corruption() {
        let mut w = PcapngWriter::new();
        w.write_packet(1, b"xyz");
        let bytes = w.finish();
        // Corrupt a trailing length field.
        let mut flipped = bytes.clone();
        let n = flipped.len();
        flipped[n - 1] ^= 0xFF;
        assert_epb_dropped(&flipped, "block length fields disagree");
        // Truncate mid-block.
        assert_epb_dropped(&bytes[..bytes.len() - 6], "block extends past end of file");
    }

    #[test]
    fn unknown_blocks_are_skipped() {
        let mut w = PcapngWriter::new();
        w.write_packet(5, b"keep-me");
        let mut bytes = w.finish();
        // Append a custom block (type 0x0BAD) — readers must skip it.
        let body = [0u8; 4];
        let total = (12 + body.len()) as u32;
        bytes.extend_from_slice(&0x0BADu32.to_le_bytes());
        bytes.extend_from_slice(&total.to_le_bytes());
        bytes.extend_from_slice(&body);
        bytes.extend_from_slice(&total.to_le_bytes());
        let r = parse_clean(&bytes);
        assert_eq!(r.packets.len(), 1);
    }

    #[test]
    fn salvage_resyncs_past_corrupt_block() {
        let mut w = PcapngWriter::new();
        w.write_packet(1, b"first");
        w.write_packet(2, b"second");
        w.write_packet(3, b"third");
        let mut bytes = w.finish();
        // Find the first EPB and corrupt its leading length field.
        let epb_at = (0..bytes.len() - 4)
            .step_by(4)
            .find(|&p| diffaudit_util::bytes::read_u32_le(&bytes, p) == Some(6))
            .unwrap();
        bytes[epb_at + 4..epb_at + 8].copy_from_slice(&13u32.to_le_bytes()); // not mult of 4
        let mut log = SalvageLog::new();
        let r = PcapngReader::parse_salvage(&bytes, &mut log).unwrap();
        assert_eq!(r.packets.len(), 2);
        assert_eq!(r.packets[0].data, b"second");
        assert!(log.conserved());
        assert_eq!(log.stage(Stage::PcapngBlock).dropped, 1);
        assert_eq!(log.drops()[0].offset, Some(epb_at as u64));
    }

    #[test]
    fn salvage_accounts_for_truncated_tail() {
        let mut w = PcapngWriter::new();
        w.write_packet(1, b"kept");
        w.write_packet(2, b"lost");
        let bytes = w.finish();
        let mut log = SalvageLog::new();
        let r = PcapngReader::parse_salvage(&bytes[..bytes.len() - 6], &mut log).unwrap();
        assert_eq!(r.packets.len(), 1);
        assert_eq!(log.stage(Stage::PcapngBlock).dropped, 1);
    }

    #[test]
    fn packets_borrow_the_capture() {
        let mut w = PcapngWriter::new();
        w.write_secrets(&sample_keylog());
        for i in 0..4u64 {
            w.write_packet(1_700_000_000_000 + i, format!("frame-{i}").as_bytes());
        }
        let bytes = w.finish();
        let range = bytes.as_ptr_range();
        let r = parse_clean(&bytes);
        assert_eq!(r.packets.len(), 4);
        for packet in &r.packets {
            let view = packet.data.as_ptr_range();
            assert!(range.start <= view.start && view.end <= range.end);
        }
    }

    #[test]
    fn multiple_dsbs_merge() {
        let mut a = KeyLog::new();
        a.insert([5u8; 32], [6u8; 32]);
        let mut b = KeyLog::new();
        b.insert([7u8; 32], [8u8; 32]);
        let mut w = PcapngWriter::new();
        w.write_secrets(&a);
        w.write_secrets(&b);
        let bytes = w.finish();
        let r = parse_clean(&bytes);
        assert_eq!(r.keylog.len(), 2);
    }
}
