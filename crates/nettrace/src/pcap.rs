//! The libpcap file format (the classic `.pcap`, not pcapng).
//!
//! Layout (https://wiki.wireshark.org/Development/LibpcapFileFormat):
//! a 24-byte global header (magic `0xa1b2c3d4`, version 2.4, snaplen,
//! link type) followed by per-packet records (`ts_sec`, `ts_usec`,
//! `incl_len`, `orig_len`, data). The reader accepts both byte orders by
//! dispatching on the magic, exactly like tcpdump, and salvages around
//! damaged records (skip, record in the [`crate::salvage::SalvageLog`],
//! resync) instead of rejecting the file.

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
    /// Parse an entire capture file, salvaging around damage: a damaged
    /// record is skipped and recorded in `log` instead of aborting. The
    /// reader resyncs by scanning forward for the next plausible record
    /// boundary (sane microsecond field, capture length within the snaplen,
    /// record fits in the file). Only an unusable global header is an
    /// error; an undamaged file leaves the log clean.
    ///
    /// All reads go through checked helpers, so truncation at any byte and
    /// lying length fields surface as drop records, never panics.
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

        // One record at `pos`, read as its header declares it.
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
    use crate::salvage::{SalvageLog, Stage};

    /// Parse undamaged capture bytes: the salvage log must stay clean.
    fn parse_clean(bytes: &[u8]) -> PcapReader<'_> {
        let mut log = SalvageLog::new();
        let r = PcapReader::parse_salvage(bytes, &mut log).unwrap();
        assert!(log.is_clean(), "undamaged capture: {:?}", log.drops());
        assert_eq!(
            log.stage(Stage::PcapRecord).processed,
            r.packets.len() as u64
        );
        r
    }

    /// Parse damaged record bytes: exactly one record drop, at `offset`.
    fn parse_one_drop(bytes: &[u8], offset: u64) -> PcapReader<'_> {
        let mut log = SalvageLog::new();
        let r = PcapReader::parse_salvage(bytes, &mut log).unwrap();
        assert!(log.conserved());
        assert_eq!(log.stage(Stage::PcapRecord).dropped, 1, "{:?}", log.drops());
        assert_eq!(log.drops()[0].offset, Some(offset));
        r
    }

    #[test]
    fn write_read_round_trip() {
        let mut w = PcapWriter::new();
        w.write_packet(1_700_000_000_123, b"frame-one");
        w.write_packet(1_700_000_000_456, b"frame-two-longer");
        assert_eq!(w.packet_count(), 2);
        let bytes = w.finish();
        let r = parse_clean(&bytes);
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
        let r = parse_clean(&buf);
        assert_eq!(r.packets.len(), 1);
        assert_eq!(r.packets[0].ts_sec, 100);
        assert_eq!(r.packets[0].data, b"abc");
    }

    #[test]
    fn rejects_bad_magic() {
        let mut bytes = PcapWriter::new().finish();
        bytes[0] = 0xFF;
        assert!(matches!(
            PcapReader::parse_salvage(&bytes, &mut SalvageLog::new()),
            Err(PcapError::BadMagic(_))
        ));
    }

    #[test]
    fn rejects_truncations() {
        assert!(matches!(
            PcapReader::parse_salvage(&[0u8; 10], &mut SalvageLog::new()),
            Err(PcapError::TruncatedHeader)
        ));
        let mut w = PcapWriter::new();
        w.write_packet(0, b"abcdef");
        let bytes = w.finish();
        // Record 0 (at byte 24) cut short in its data, then mid-header.
        assert!(parse_one_drop(&bytes[..bytes.len() - 2], 24)
            .packets
            .is_empty());
        assert!(parse_one_drop(&bytes[..30], 24).packets.is_empty());
    }

    #[test]
    fn empty_capture_is_valid() {
        let bytes = PcapWriter::new().finish();
        let r = parse_clean(&bytes);
        assert!(r.packets.is_empty());
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
        // Records 1 and 2 recovered; record 0 dropped with its offset.
        let r = parse_one_drop(&bytes, 24);
        assert_eq!(r.packets.len(), 2);
        assert_eq!(r.packets[0].data, b"second-frame");
    }

    #[test]
    fn salvage_accounts_for_truncated_tail() {
        let mut w = PcapWriter::new();
        w.write_packet(1_700_000_000_000, b"kept-frame");
        w.write_packet(1_700_000_000_001, b"lost-frame");
        let bytes = w.finish();
        let mut log = SalvageLog::new();
        let r = PcapReader::parse_salvage(&bytes[..bytes.len() - 4], &mut log).unwrap();
        assert_eq!(r.packets.len(), 1);
        assert_eq!(log.stage(Stage::PcapRecord).dropped, 1);
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
        let r = parse_clean(&bytes);
        assert_eq!(r.packets.len(), 4);
        for packet in &r.packets {
            let view = packet.data.as_ptr_range();
            assert!(range.start <= view.start && view.end <= range.end);
        }
    }

    #[test]
    fn salvage_still_rejects_unusable_header() {
        let bytes = PcapWriter::new().finish();
        assert!(matches!(
            PcapReader::parse_salvage(&bytes[..23], &mut SalvageLog::new()),
            Err(PcapError::TruncatedHeader)
        ));
        let mut bytes = bytes;
        bytes[4] = 3; // version 3.4
        assert!(matches!(
            PcapReader::parse_salvage(&bytes, &mut SalvageLog::new()),
            Err(PcapError::BadVersion(3, 4))
        ));
    }
}
