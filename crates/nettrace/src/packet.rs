//! Ethernet II / IPv4 / TCP frame codecs with real checksums.
//!
//! These are honest codecs in the smoltcp spirit — simple, robust, no
//! shortcuts: the IPv4 header checksum and the TCP checksum (over the
//! pseudo-header) are computed on encode and *verified* on decode, so a
//! corrupted capture is detected rather than silently misparsed.

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN flag.
    pub const FIN: u8 = 0x01;
    /// SYN flag.
    pub const SYN: u8 = 0x02;
    /// RST flag.
    pub const RST: u8 = 0x04;
    /// PSH flag.
    pub const PSH: u8 = 0x08;
    /// ACK flag.
    pub const ACK: u8 = 0x10;

    /// `true` if the SYN bit is set.
    pub fn syn(&self) -> bool {
        self.0 & Self::SYN != 0
    }
    /// `true` if the ACK bit is set.
    pub fn ack(&self) -> bool {
        self.0 & Self::ACK != 0
    }
    /// `true` if the FIN bit is set.
    pub fn fin(&self) -> bool {
        self.0 & Self::FIN != 0
    }
    /// `true` if the RST bit is set.
    pub fn rst(&self) -> bool {
        self.0 & Self::RST != 0
    }
}

/// A decoded TCP/IPv4/Ethernet frame (the only shape our captures contain).
/// The payload is a view into the frame it was decoded from (or, on the
/// encode side, into the stream being segmented).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpSegment<'a> {
    /// Source MAC address.
    pub src_mac: [u8; 6],
    /// Destination MAC address.
    pub dst_mac: [u8; 6],
    /// Source IPv4 address.
    pub src_ip: [u8; 4],
    /// Destination IPv4 address.
    pub dst_ip: [u8; 4],
    /// Source TCP port.
    pub src_port: u16,
    /// Destination TCP port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// TCP payload bytes.
    pub payload: &'a [u8],
}

/// Frame decode failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Frame shorter than the headers require.
    Truncated(&'static str),
    /// EtherType other than IPv4.
    NotIpv4(u16),
    /// IP protocol other than TCP.
    NotTcp(u8),
    /// IPv4 header checksum mismatch.
    BadIpChecksum,
    /// TCP checksum mismatch.
    BadTcpChecksum,
    /// IPv4 header options unsupported (IHL > 5 never appears in our
    /// captures).
    UnsupportedIpOptions,
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated(what) => write!(f, "frame truncated in {what}"),
            FrameError::NotIpv4(et) => write!(f, "ethertype {et:#06x} is not IPv4"),
            FrameError::NotTcp(p) => write!(f, "IP protocol {p} is not TCP"),
            FrameError::BadIpChecksum => write!(f, "IPv4 header checksum mismatch"),
            FrameError::BadTcpChecksum => write!(f, "TCP checksum mismatch"),
            FrameError::UnsupportedIpOptions => write!(f, "IPv4 options unsupported"),
        }
    }
}

impl std::error::Error for FrameError {}

const ETHERTYPE_IPV4: u16 = 0x0800;
const IP_PROTO_TCP: u8 = 6;

/// RFC 1071 ones'-complement checksum, summed over big-endian 32-bit
/// words. A 32-bit word is congruent to the sum of its two 16-bit halves
/// modulo 0xFFFF, so one fold of the `u64` total gives the 16-bit sum.
/// Each chunk's tail (1–3 bytes) is zero-padded on its own, as a 16-bit
/// sum pads an odd chunk.
fn ones_complement_sum(chunks: &[&[u8]]) -> u16 {
    let mut sum: u64 = 0;
    for chunk in chunks {
        let mut words = chunk.chunks_exact(4);
        for word in &mut words {
            if let Ok(word) = <[u8; 4]>::try_from(word) {
                sum += u64::from(u32::from_be_bytes(word));
            }
        }
        let mut tail = [0u8; 4];
        for (t, b) in tail.iter_mut().zip(words.remainder()) {
            *t = *b;
        }
        sum += u64::from(u32::from_be_bytes(tail));
    }
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

impl<'a> TcpSegment<'a> {
    /// Encode to a complete Ethernet frame with valid checksums.
    // lint:allow(no-panic): encode writes constant offsets into fixed-size
    // stack arrays ([u8; 20]); every range is a compile-time-visible bound.
    pub fn encode(&self) -> Vec<u8> {
        let tcp_len = 20 + self.payload.len();
        let ip_total = 20 + tcp_len;
        let mut frame = Vec::with_capacity(14 + ip_total);

        // Ethernet II.
        frame.extend_from_slice(&self.dst_mac);
        frame.extend_from_slice(&self.src_mac);
        frame.extend_from_slice(&ETHERTYPE_IPV4.to_be_bytes());

        // IPv4 header (IHL=5, no options).
        let mut ip = [0u8; 20];
        ip[0] = 0x45; // version 4, IHL 5
        ip[1] = 0; // DSCP/ECN
        ip[2..4].copy_from_slice(&(ip_total as u16).to_be_bytes());
        ip[4..6].copy_from_slice(&0u16.to_be_bytes()); // identification
        ip[6..8].copy_from_slice(&0x4000u16.to_be_bytes()); // DF
        ip[8] = 64; // TTL
        ip[9] = IP_PROTO_TCP;
        // checksum at [10..12] stays zero for computation
        ip[12..16].copy_from_slice(&self.src_ip);
        ip[16..20].copy_from_slice(&self.dst_ip);
        let ip_csum = ones_complement_sum(&[&ip]);
        ip[10..12].copy_from_slice(&ip_csum.to_be_bytes());
        frame.extend_from_slice(&ip);

        // TCP header (data offset 5, no options).
        let mut tcp = [0u8; 20];
        tcp[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        tcp[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        tcp[4..8].copy_from_slice(&self.seq.to_be_bytes());
        tcp[8..12].copy_from_slice(&self.ack.to_be_bytes());
        tcp[12] = 5 << 4; // data offset
        tcp[13] = self.flags.0;
        tcp[14..16].copy_from_slice(&0xFFFFu16.to_be_bytes()); // window
                                                               // checksum [16..18] zero for computation; urgent pointer [18..20] zero
        let pseudo = pseudo_header(&self.src_ip, &self.dst_ip, tcp_len as u16);
        let tcp_csum = ones_complement_sum(&[&pseudo, &tcp, self.payload]);
        tcp[16..18].copy_from_slice(&tcp_csum.to_be_bytes());
        frame.extend_from_slice(&tcp);
        frame.extend_from_slice(self.payload);
        frame
    }

    /// Decode and verify a frame.
    ///
    /// Every offset is bounds-checked through `diffaudit_util::bytes`, so a
    /// truncated frame or a lying IPv4 total-length field yields
    /// [`FrameError::Truncated`] rather than a panic.
    pub fn decode(frame: &'a [u8]) -> Result<TcpSegment<'a>, FrameError> {
        use diffaudit_util::bytes::{array_at, read_u16_be, read_u32_be, slice_at, u8_at};

        let eth = FrameError::Truncated("ethernet header");
        let dst_mac = array_at::<6>(frame, 0).ok_or(eth.clone())?;
        let src_mac = array_at::<6>(frame, 6).ok_or(eth.clone())?;
        let ethertype = read_u16_be(frame, 12).ok_or(eth)?;
        if ethertype != ETHERTYPE_IPV4 {
            return Err(FrameError::NotIpv4(ethertype));
        }
        let ip = frame.get(14..).unwrap_or(&[]);
        let ip_header = slice_at(ip, 0, 20).ok_or(FrameError::Truncated("ipv4 header"))?;
        let version_ihl = u8_at(ip, 0).ok_or(FrameError::Truncated("ipv4 header"))?;
        if version_ihl >> 4 != 4 {
            return Err(FrameError::NotIpv4(0));
        }
        if version_ihl & 0x0F != 5 {
            return Err(FrameError::UnsupportedIpOptions);
        }
        if ones_complement_sum(&[ip_header]) != 0 {
            return Err(FrameError::BadIpChecksum);
        }
        let total_len = read_u16_be(ip, 2).ok_or(FrameError::Truncated("ipv4 header"))? as usize;
        let proto = u8_at(ip, 9).ok_or(FrameError::Truncated("ipv4 header"))?;
        if proto != IP_PROTO_TCP {
            return Err(FrameError::NotTcp(proto));
        }
        let src_ip = array_at::<4>(ip, 12).ok_or(FrameError::Truncated("ipv4 header"))?;
        let dst_ip = array_at::<4>(ip, 16).ok_or(FrameError::Truncated("ipv4 header"))?;
        // A total length shorter than the IPv4 header itself is a lying
        // length field, not a short buffer — but both decode to Truncated.
        let tcp_len = total_len
            .checked_sub(20)
            .ok_or(FrameError::Truncated("ipv4 total length"))?;
        let tcp = slice_at(ip, 20, tcp_len).ok_or(FrameError::Truncated("ipv4 total length"))?;
        if tcp.len() < 20 {
            return Err(FrameError::Truncated("tcp header"));
        }
        let tcp_err = FrameError::Truncated("tcp header");
        let data_offset = (u8_at(tcp, 12).ok_or(tcp_err.clone())? >> 4) as usize * 4;
        if data_offset < 20 {
            return Err(FrameError::Truncated("tcp options"));
        }
        let payload = tcp
            .get(data_offset..)
            .ok_or(FrameError::Truncated("tcp options"))?;
        let pseudo = pseudo_header(&src_ip, &dst_ip, tcp.len() as u16);
        if ones_complement_sum(&[&pseudo, tcp]) != 0 {
            return Err(FrameError::BadTcpChecksum);
        }
        Ok(TcpSegment {
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            src_port: read_u16_be(tcp, 0).ok_or(tcp_err.clone())?,
            dst_port: read_u16_be(tcp, 2).ok_or(tcp_err.clone())?,
            seq: read_u32_be(tcp, 4).ok_or(tcp_err.clone())?,
            ack: read_u32_be(tcp, 8).ok_or(tcp_err.clone())?,
            flags: TcpFlags(u8_at(tcp, 13).ok_or(tcp_err)?),
            payload,
        })
    }
}

// lint:allow(no-panic): writes constant offsets into a fixed [u8; 12] array.
fn pseudo_header(src: &[u8; 4], dst: &[u8; 4], tcp_len: u16) -> [u8; 12] {
    let mut p = [0u8; 12];
    p[0..4].copy_from_slice(src);
    p[4..8].copy_from_slice(dst);
    p[9] = IP_PROTO_TCP;
    p[10..12].copy_from_slice(&tcp_len.to_be_bytes());
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(payload: &[u8]) -> TcpSegment<'_> {
        TcpSegment {
            src_mac: [2, 0, 0, 0, 0, 1],
            dst_mac: [2, 0, 0, 0, 0, 2],
            src_ip: [192, 168, 1, 10],
            dst_ip: [93, 184, 216, 34],
            src_port: 49152,
            dst_port: 443,
            seq: 1000,
            ack: 2000,
            flags: TcpFlags(TcpFlags::PSH | TcpFlags::ACK),
            payload,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let seg = sample(b"hello tls world");
        let frame = seg.encode();
        let decoded = TcpSegment::decode(&frame).unwrap();
        assert_eq!(decoded, seg);
    }

    #[test]
    fn empty_payload_round_trip() {
        let mut seg = sample(b"");
        seg.flags = TcpFlags(TcpFlags::SYN);
        let frame = seg.encode();
        let decoded = TcpSegment::decode(&frame).unwrap();
        assert_eq!(decoded, seg);
        assert!(decoded.flags.syn());
        assert!(!decoded.flags.ack());
    }

    #[test]
    fn odd_length_payload_checksums() {
        // Odd-length payloads exercise the checksum padding path.
        let seg = sample(b"odd");
        assert_eq!(TcpSegment::decode(&seg.encode()).unwrap().payload, b"odd");
    }

    #[test]
    fn detects_ip_corruption() {
        let mut frame = sample(b"data").encode();
        frame[14 + 8] ^= 0xFF; // flip TTL inside IP header
        assert_eq!(TcpSegment::decode(&frame), Err(FrameError::BadIpChecksum));
    }

    #[test]
    fn detects_payload_corruption() {
        let mut frame = sample(b"data").encode();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        assert_eq!(TcpSegment::decode(&frame), Err(FrameError::BadTcpChecksum));
    }

    #[test]
    fn rejects_non_ipv4() {
        let mut frame = sample(b"x").encode();
        frame[12] = 0x86; // 0x86DD = IPv6
        frame[13] = 0xDD;
        assert!(matches!(
            TcpSegment::decode(&frame),
            Err(FrameError::NotIpv4(0x86DD))
        ));
    }

    #[test]
    fn rejects_truncated() {
        let frame = sample(b"payload").encode();
        assert!(matches!(
            TcpSegment::decode(&frame[..10]),
            Err(FrameError::Truncated(_))
        ));
        assert!(TcpSegment::decode(&frame[..frame.len() - 3]).is_err());
    }

    #[test]
    fn checksum_reference() {
        // RFC 1071 example: checksum of 00 01 f2 03 f4 f5 f6 f7 is 0x220d
        // (ones' complement of 0xddf2).
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(ones_complement_sum(&[&data]), !0xddf2u16);
        assert_eq!(ones_complement_sum_16(&[&data]), !0xddf2u16);
    }

    /// The 16-bit-word checksum: the reference the 32-bit word loop of
    /// [`ones_complement_sum`] must match.
    fn ones_complement_sum_16(chunks: &[&[u8]]) -> u16 {
        let mut sum: u32 = 0;
        for chunk in chunks {
            let mut iter = chunk.chunks_exact(2);
            for pair in &mut iter {
                sum += u16::from_be_bytes([pair[0], pair[1]]) as u32;
            }
            if let [last] = iter.remainder() {
                sum += u16::from_be_bytes([*last, 0]) as u32;
            }
        }
        while sum > 0xFFFF {
            sum = (sum & 0xFFFF) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn word_checksum_matches_16_bit_reference() {
        use diffaudit_util::prop::{self, check};
        check("word_checksum_matches_16_bit_reference", 512, |rng| {
            // Long runs of 0xFF push the sum through many carries.
            let mut data = prop::bytes(rng, 0..=1600);
            if rng.range(0, 4) == 0 {
                data.iter_mut().for_each(|b| *b = 0xFF);
            }
            let mut cuts: Vec<usize> = (0..rng.range(0, 3))
                .map(|_| rng.range(0, data.len() + 1))
                .collect();
            cuts.sort_unstable();
            let mut chunks = Vec::new();
            let mut start = 0;
            for cut in cuts {
                chunks.push(&data[start..cut]);
                start = cut;
            }
            chunks.push(&data[start..]);
            assert_eq!(
                ones_complement_sum(&chunks),
                ones_complement_sum_16(&chunks),
                "len {} chunks {:?}",
                data.len(),
                chunks.iter().map(|c| c.len()).collect::<Vec<_>>()
            );
        });
    }
}
