//! The libpcap file format (the classic `.pcap`, not pcapng).
//!
//! Layout (https://wiki.wireshark.org/Development/LibpcapFileFormat):
//! a 24-byte global header (magic `0xa1b2c3d4`, version 2.4, snaplen,
//! link type) followed by per-packet records (`ts_sec`, `ts_usec`,
//! `incl_len`, `orig_len`, data). The reader accepts both byte orders by
//! dispatching on the magic, exactly like tcpdump.

/// Link type: Ethernet.
pub const LINKTYPE_ETHERNET: u32 = 1;
/// Our writer's snaplen (packets are never truncated in simulation).
pub const DEFAULT_SNAPLEN: u32 = 262_144;

const MAGIC_LE: u32 = 0xA1B2_C3D4; // written little-endian by us
const MAGIC_SWAPPED: u32 = 0xD4C3_B2A1;

/// Errors from [`PcapReader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PcapError {
    /// File shorter than the global header.
    TruncatedHeader,
    /// Unknown magic number.
    BadMagic(u32),
    /// Unsupported version.
    BadVersion(u16, u16),
    /// A packet record was cut short.
    TruncatedPacket {
        /// Index of the bad record.
        index: usize,
    },
    /// A record claimed more captured bytes than the snaplen allows.
    OversizedPacket {
        /// Index of the bad record.
        index: usize,
        /// Claimed capture length.
        incl_len: u32,
    },
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::TruncatedHeader => write!(f, "pcap file shorter than global header"),
            PcapError::BadMagic(m) => write!(f, "unknown pcap magic {m:#010x}"),
            PcapError::BadVersion(major, minor) => {
                write!(f, "unsupported pcap version {major}.{minor}")
            }
            PcapError::TruncatedPacket { index } => {
                write!(f, "truncated packet record at index {index}")
            }
            PcapError::OversizedPacket { index, incl_len } => {
                write!(f, "packet {index} claims {incl_len} bytes > snaplen")
            }
        }
    }
}

impl std::error::Error for PcapError {}

/// One captured packet: a view into the capture buffer it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PcapPacket<'a> {
    /// Seconds since the Unix epoch.
    pub ts_sec: u32,
    /// Microseconds within the second.
    pub ts_usec: u32,
    /// Original length on the wire (equals `data.len()` in simulation).
    pub orig_len: u32,
    /// Captured bytes, borrowed from the capture buffer.
    pub data: &'a [u8],
}

impl PcapPacket<'_> {
    /// Capture timestamp in milliseconds since the epoch.
    pub fn timestamp_ms(&self) -> u64 {
        self.ts_sec as u64 * 1000 + (self.ts_usec / 1000) as u64
    }
}

/// Serializes packets into pcap bytes.
#[derive(Debug)]
pub struct PcapWriter {
    buf: Vec<u8>,
    snaplen: u32,
    count: usize,
}

impl PcapWriter {
    /// Start a new capture file (Ethernet link type, little-endian).
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&MAGIC_LE.to_le_bytes());
        buf.extend_from_slice(&2u16.to_le_bytes()); // version major
        buf.extend_from_slice(&4u16.to_le_bytes()); // version minor
        buf.extend_from_slice(&0i32.to_le_bytes()); // thiszone
        buf.extend_from_slice(&0u32.to_le_bytes()); // sigfigs
        buf.extend_from_slice(&DEFAULT_SNAPLEN.to_le_bytes());
        buf.extend_from_slice(&LINKTYPE_ETHERNET.to_le_bytes());
        Self {
            buf,
            snaplen: DEFAULT_SNAPLEN,
            count: 0,
        }
    }

    /// Append one packet. Frames longer than the snaplen are truncated with
    /// `orig_len` preserved, as a real capture would.
    pub fn write_packet(&mut self, timestamp_ms: u64, frame: &[u8]) {
        let ts_sec = (timestamp_ms / 1000) as u32;
        let ts_usec = ((timestamp_ms % 1000) * 1000) as u32;
        let incl = frame.len().min(self.snaplen as usize);
        self.buf.extend_from_slice(&ts_sec.to_le_bytes());
        self.buf.extend_from_slice(&ts_usec.to_le_bytes());
        self.buf.extend_from_slice(&(incl as u32).to_le_bytes());
        self.buf
            .extend_from_slice(&(frame.len() as u32).to_le_bytes());
        self.buf
            .extend_from_slice(frame.get(..incl).unwrap_or(frame));
        self.count += 1;
    }

    /// Packets written so far.
    pub fn packet_count(&self) -> usize {
        self.count
    }

    /// Finish and return the file bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

impl Default for PcapWriter {
    fn default() -> Self {
        Self::new()
    }
}

/// Parses pcap bytes into packets that borrow the input buffer.
#[derive(Debug)]
pub struct PcapReader<'a> {
    /// Link type from the global header.
    pub link_type: u32,
    /// Snaplen from the global header.
    pub snaplen: u32,
    /// All parsed packets.
    pub packets: Vec<PcapPacket<'a>>,
}

impl<'a> PcapReader<'a> {
    /// Parse an entire capture file.
    ///
    /// All reads go through checked helpers, so truncation at any byte and
    /// lying length fields surface as [`PcapError`] values, never panics.
    pub fn parse(data: &'a [u8]) -> Result<PcapReader<'a>, PcapError> {
        use diffaudit_util::bytes::{read_u16_be, read_u16_le, read_u32_be, read_u32_le, slice_at};

        if data.len() < 24 {
            return Err(PcapError::TruncatedHeader);
        }
        let magic = read_u32_le(data, 0).ok_or(PcapError::TruncatedHeader)?;
        let swapped = match magic {
            MAGIC_LE => false,
            MAGIC_SWAPPED => true,
            other => return Err(PcapError::BadMagic(other)),
        };
        let read_u16 = |offset: usize| -> Option<u16> {
            if swapped {
                read_u16_be(data, offset)
            } else {
                read_u16_le(data, offset)
            }
        };
        let read_u32 = |offset: usize| -> Option<u32> {
            if swapped {
                read_u32_be(data, offset)
            } else {
                read_u32_le(data, offset)
            }
        };
        let major = read_u16(4).ok_or(PcapError::TruncatedHeader)?;
        let minor = read_u16(6).ok_or(PcapError::TruncatedHeader)?;
        if major != 2 {
            return Err(PcapError::BadVersion(major, minor));
        }
        let snaplen = read_u32(16).ok_or(PcapError::TruncatedHeader)?;
        let link_type = read_u32(20).ok_or(PcapError::TruncatedHeader)?;
        let mut packets = Vec::new();
        let mut pos = 24usize;
        let mut index = 0usize;
        while pos < data.len() {
            let truncated = PcapError::TruncatedPacket { index };
            let ts_sec = read_u32(pos).ok_or(truncated.clone())?;
            let ts_usec = read_u32(pos + 4).ok_or(truncated.clone())?;
            let incl_len = read_u32(pos + 8).ok_or(truncated.clone())?;
            let orig_len = read_u32(pos + 12).ok_or(truncated.clone())?;
            if incl_len > snaplen {
                return Err(PcapError::OversizedPacket { index, incl_len });
            }
            let start = pos + 16;
            let payload = slice_at(data, start, incl_len as usize).ok_or(truncated)?;
            packets.push(PcapPacket {
                ts_sec,
                ts_usec,
                orig_len,
                data: payload,
            });
            pos = start + incl_len as usize;
            index += 1;
        }
        Ok(PcapReader {
            link_type,
            snaplen,
            packets,
        })
    }

    /// Salvage parse: per-record damage is skipped-and-recorded instead of
    /// aborting. The reader resyncs by scanning forward for the next
    /// plausible record boundary (sane microsecond field, capture length
    /// within the snaplen, record fits in the file). Only an unusable
    /// global header is still an error. On undamaged input this accepts
    /// exactly what [`PcapReader::parse`] accepts, with a clean log.
    pub fn parse_salvage(
        data: &'a [u8],
        log: &mut crate::salvage::SalvageLog,
    ) -> Result<PcapReader<'a>, PcapError> {
        use crate::salvage::Stage;
        use diffaudit_util::bytes::{read_u16_be, read_u16_le, read_u32_be, read_u32_le};

        if data.len() < 24 {
            return Err(PcapError::TruncatedHeader);
        }
        let magic = read_u32_le(data, 0).ok_or(PcapError::TruncatedHeader)?;
        let swapped = match magic {
            MAGIC_LE => false,
            MAGIC_SWAPPED => true,
            other => return Err(PcapError::BadMagic(other)),
        };
        let read_u16 = |offset: usize| -> Option<u16> {
            if swapped {
                read_u16_be(data, offset)
            } else {
                read_u16_le(data, offset)
            }
        };
        let read_u32 = |offset: usize| -> Option<u32> {
            if swapped {
                read_u32_be(data, offset)
            } else {
                read_u32_le(data, offset)
            }
        };
        let major = read_u16(4).ok_or(PcapError::TruncatedHeader)?;
        let minor = read_u16(6).ok_or(PcapError::TruncatedHeader)?;
        if major != 2 {
            return Err(PcapError::BadVersion(major, minor));
        }
        let snaplen = read_u32(16).ok_or(PcapError::TruncatedHeader)?;
        let link_type = read_u32(20).ok_or(PcapError::TruncatedHeader)?;

        // Strict per-record read, identical to `parse`'s loop body.
        let read_record = |pos: usize| -> Result<(PcapPacket<'a>, usize), PcapError> {
            use diffaudit_util::bytes::slice_at;
            let truncated = PcapError::TruncatedPacket { index: 0 };
            let ts_sec = read_u32(pos).ok_or(truncated.clone())?;
            let ts_usec = read_u32(pos + 4).ok_or(truncated.clone())?;
            let incl_len = read_u32(pos + 8).ok_or(truncated.clone())?;
            let orig_len = read_u32(pos + 12).ok_or(truncated.clone())?;
            if incl_len > snaplen {
                return Err(PcapError::OversizedPacket { index: 0, incl_len });
            }
            let start = pos + 16;
            let payload = slice_at(data, start, incl_len as usize).ok_or(truncated)?;
            Ok((
                PcapPacket {
                    ts_sec,
                    ts_usec,
                    orig_len,
                    data: payload,
                },
                start + incl_len as usize,
            ))
        };
        // A position looks like a record boundary when the header fields
        // pass sanity checks a garbage window would almost never pass.
        let plausible = |pos: usize| -> bool {
            let Some(ts_usec) = read_u32(pos + 4) else {
                return false;
            };
            let Some(incl_len) = read_u32(pos + 8) else {
                return false;
            };
            let Some(orig_len) = read_u32(pos + 12) else {
                return false;
            };
            ts_usec < 1_000_000
                && incl_len <= snaplen
                && orig_len >= incl_len
                && pos + 16 + incl_len as usize <= data.len()
        };

        let mut packets = Vec::new();
        let mut pos = 24usize;
        while pos < data.len() {
            match read_record(pos) {
                Ok((packet, next)) => {
                    packets.push(packet);
                    log.ok(Stage::PcapRecord);
                    pos = next;
                }
                Err(e) => {
                    let what = match &e {
                        PcapError::OversizedPacket { incl_len, .. } => {
                            format!("record claims {incl_len} bytes > snaplen")
                        }
                        _ => "truncated record".to_string(),
                    };
                    let resync = (pos + 1..data.len().saturating_sub(16)).find(|&p| plausible(p));
                    match resync {
                        Some(next) => {
                            log.dropped(
                                Stage::PcapRecord,
                                format!("{what}; resynced after {} bytes", next - pos),
                                Some(pos as u64),
                            );
                            pos = next;
                        }
                        None => {
                            log.dropped(
                                Stage::PcapRecord,
                                format!(
                                    "{what}; {} trailing bytes unrecoverable",
                                    data.len() - pos
                                ),
                                Some(pos as u64),
                            );
                            break;
                        }
                    }
                }
            }
        }
        Ok(PcapReader {
            link_type,
            snaplen,
            packets,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_read_round_trip() {
        let mut w = PcapWriter::new();
        w.write_packet(1_700_000_000_123, b"frame-one");
        w.write_packet(1_700_000_000_456, b"frame-two-longer");
        assert_eq!(w.packet_count(), 2);
        let bytes = w.finish();
        let r = PcapReader::parse(&bytes).unwrap();
        assert_eq!(r.link_type, LINKTYPE_ETHERNET);
        assert_eq!(r.packets.len(), 2);
        assert_eq!(r.packets[0].data, b"frame-one");
        assert_eq!(r.packets[0].timestamp_ms(), 1_700_000_000_123);
        assert_eq!(r.packets[1].data, b"frame-two-longer");
        assert_eq!(r.packets[1].orig_len, 16);
    }

    #[test]
    fn reads_big_endian_files() {
        // Hand-build a big-endian capture with one 3-byte packet.
        let mut buf = Vec::new();
        buf.extend_from_slice(&MAGIC_LE.to_be_bytes()); // BE writer stores magic in its order
        buf.extend_from_slice(&2u16.to_be_bytes());
        buf.extend_from_slice(&4u16.to_be_bytes());
        buf.extend_from_slice(&0i32.to_be_bytes());
        buf.extend_from_slice(&0u32.to_be_bytes());
        buf.extend_from_slice(&65535u32.to_be_bytes());
        buf.extend_from_slice(&1u32.to_be_bytes());
        buf.extend_from_slice(&100u32.to_be_bytes()); // ts_sec
        buf.extend_from_slice(&5000u32.to_be_bytes()); // ts_usec
        buf.extend_from_slice(&3u32.to_be_bytes()); // incl
        buf.extend_from_slice(&3u32.to_be_bytes()); // orig
        buf.extend_from_slice(b"abc");
        let r = PcapReader::parse(&buf).unwrap();
        assert_eq!(r.packets.len(), 1);
        assert_eq!(r.packets[0].ts_sec, 100);
        assert_eq!(r.packets[0].data, b"abc");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = PcapWriter::new().finish();
        bytes[0] = 0xFF;
        assert!(matches!(
            PcapReader::parse(&bytes),
            Err(PcapError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_truncations() {
        assert!(matches!(
            PcapReader::parse(&[0u8; 10]),
            Err(PcapError::TruncatedHeader)
        ));
        let mut w = PcapWriter::new();
        w.write_packet(0, b"abcdef");
        let bytes = w.finish();
        assert!(matches!(
            PcapReader::parse(&bytes[..bytes.len() - 2]),
            Err(PcapError::TruncatedPacket { index: 0 })
        ));
        // Record header cut mid-way.
        assert!(matches!(
            PcapReader::parse(&bytes[..30]),
            Err(PcapError::TruncatedPacket { index: 0 })
        ));
    }

    #[test]
    fn empty_capture_is_valid() {
        let bytes = PcapWriter::new().finish();
        let r = PcapReader::parse(&bytes).unwrap();
        assert!(r.packets.is_empty());
    }

    #[test]
    fn salvage_matches_strict_on_clean_input() {
        let mut w = PcapWriter::new();
        for i in 0..5u64 {
            w.write_packet(1_700_000_000_000 + i, format!("frame-{i}").as_bytes());
        }
        let bytes = w.finish();
        let strict = PcapReader::parse(&bytes).unwrap();
        let mut log = crate::salvage::SalvageLog::new();
        let salvaged = PcapReader::parse_salvage(&bytes, &mut log).unwrap();
        assert_eq!(strict.packets, salvaged.packets);
        assert!(log.is_clean());
        assert_eq!(log.stage(crate::salvage::Stage::PcapRecord).processed, 5);
    }

    #[test]
    fn salvage_resyncs_past_lying_length() {
        let mut w = PcapWriter::new();
        w.write_packet(1_700_000_000_000, b"first-frame");
        w.write_packet(1_700_000_000_001, b"second-frame");
        w.write_packet(1_700_000_000_002, b"third-frame");
        let mut bytes = w.finish();
        // Overwrite record 0's incl_len with an oversized lie.
        bytes[24 + 8..24 + 12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(PcapReader::parse(&bytes).is_err());
        let mut log = crate::salvage::SalvageLog::new();
        let r = PcapReader::parse_salvage(&bytes, &mut log).unwrap();
        // Records 1 and 2 recovered; record 0 dropped with its offset.
        assert_eq!(r.packets.len(), 2);
        assert_eq!(r.packets[0].data, b"second-frame");
        assert!(log.conserved());
        let counts = log.stage(crate::salvage::Stage::PcapRecord);
        assert_eq!((counts.processed, counts.dropped), (2, 1));
        assert_eq!(log.drops()[0].offset, Some(24));
    }

    #[test]
    fn salvage_accounts_for_truncated_tail() {
        let mut w = PcapWriter::new();
        w.write_packet(1_700_000_000_000, b"kept-frame");
        w.write_packet(1_700_000_000_001, b"lost-frame");
        let bytes = w.finish();
        let mut log = crate::salvage::SalvageLog::new();
        let r = PcapReader::parse_salvage(&bytes[..bytes.len() - 4], &mut log).unwrap();
        assert_eq!(r.packets.len(), 1);
        assert_eq!(log.stage(crate::salvage::Stage::PcapRecord).dropped, 1);
        assert!(log.drops()[0].reason.contains("unrecoverable"));
    }

    #[test]
    fn packets_borrow_the_capture() {
        let mut w = PcapWriter::new();
        for i in 0..4u64 {
            w.write_packet(1_700_000_000_000 + i, format!("frame-{i}").as_bytes());
        }
        let bytes = w.finish();
        let range = bytes.as_ptr_range();
        let strict = PcapReader::parse(&bytes).unwrap();
        let mut log = crate::salvage::SalvageLog::new();
        let salvaged = PcapReader::parse_salvage(&bytes, &mut log).unwrap();
        assert_eq!(strict.packets.len() + salvaged.packets.len(), 8);
        for packet in strict.packets.iter().chain(&salvaged.packets) {
            let view = packet.data.as_ptr_range();
            assert!(range.start <= view.start && view.end <= range.end);
        }
    }

    #[test]
    fn salvage_still_rejects_unusable_header() {
        assert!(matches!(
            PcapReader::parse_salvage(&[0u8; 10], &mut crate::salvage::SalvageLog::new()),
            Err(PcapError::TruncatedHeader)
        ));
        let mut bytes = PcapWriter::new().finish();
        bytes[0] = 0xFF;
        assert!(matches!(
            PcapReader::parse_salvage(&bytes, &mut crate::salvage::SalvageLog::new()),
            Err(PcapError::BadMagic(_))
        ));
    }
}
