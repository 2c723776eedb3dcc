//! TCP flow tracking and stream reassembly.
//!
//! The decode pipeline feeds every captured [`TcpSegment`] into a
//! [`FlowTable`], which groups segments into bidirectional flows by
//! canonical 4-tuple, identifies the initiator from the bare-SYN, and
//! reassembles each direction's byte stream from sequence numbers —
//! tolerating out-of-order arrival and duplicate segments (retransmissions).
//! The resulting per-flow client→server streams are what the HTTP parser and
//! TLS decryptor consume, and the flow count is the "TCP Flows" column of
//! the paper's Table 1.

use crate::packet::TcpSegment;
use std::collections::{BTreeMap, HashMap};

/// One endpoint of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Endpoint {
    /// IPv4 address.
    pub ip: [u8; 4],
    /// TCP port.
    pub port: u16,
}

/// Canonical (order-independent) flow key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// The lexicographically smaller endpoint.
    pub a: Endpoint,
    /// The larger endpoint.
    pub b: Endpoint,
}

impl FlowKey {
    fn canonical(x: Endpoint, y: Endpoint) -> FlowKey {
        if x <= y {
            FlowKey { a: x, b: y }
        } else {
            FlowKey { a: y, b: x }
        }
    }
}

/// A reassembly gap: the point where contiguous data ran out while later
/// segments were still buffered (lost segment in the capture).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamGap {
    /// Stream offset at which contiguous data ends.
    pub at_offset: u32,
    /// Bytes buffered beyond the gap that could not be assembled.
    pub stranded_bytes: u64,
}

/// One direction of a flow's data, reassembled lazily.
#[derive(Debug, Default)]
struct DirectionBuf<'a> {
    /// Relative-seq → payload, borrowed from the segment's frame. BTreeMap
    /// gives in-order walk regardless of arrival order.
    segments: BTreeMap<u32, &'a [u8]>,
    /// Initial sequence number (seq of SYN, or first data seq when the
    /// handshake was not captured).
    isn: Option<u32>,
    /// Whether the ISN came from a SYN (data starts at isn+1) or from a
    /// mid-stream guess (data starts at isn).
    isn_from_syn: bool,
}

impl<'a> DirectionBuf<'a> {
    fn record(&mut self, seq: u32, payload: &'a [u8], syn: bool) {
        let base = if syn {
            self.isn = Some(seq);
            self.isn_from_syn = true;
            seq
        } else {
            *self.isn.get_or_insert(seq)
        };
        if !payload.is_empty() {
            let offset = seq
                .wrapping_sub(base)
                .wrapping_sub(if self.isn_from_syn { 1 } else { 0 });
            // First copy wins: a retransmission never overwrites data.
            self.segments.entry(offset).or_insert(payload);
        }
    }

    /// Contiguous reassembly from offset zero plus gap accounting: when a
    /// sequence hole stops assembly, report where and how many buffered
    /// bytes were stranded beyond it instead of discarding them silently.
    fn assemble_report(&self) -> (Vec<u8>, Option<StreamGap>) {
        let mut out = Vec::new();
        let mut expected: u32 = 0;
        let mut iter = self.segments.iter();
        for (&offset, data) in iter.by_ref() {
            if offset > expected {
                // Gap — everything from here on is not contiguous.
                let stranded = data.len() as u64 + iter.map(|(_, d)| d.len() as u64).sum::<u64>();
                return (
                    out,
                    Some(StreamGap {
                        at_offset: expected,
                        stranded_bytes: stranded,
                    }),
                );
            }
            // Overlap: skip the already-assembled prefix.
            let skip = (expected - offset) as usize;
            if let Some(rest) = data.get(skip..).filter(|r| !r.is_empty()) {
                out.extend_from_slice(rest);
                expected = offset + data.len() as u32;
            }
        }
        (out, None)
    }
}

/// A tracked bidirectional flow. Its buffered segments borrow the frames
/// they were decoded from.
#[derive(Debug)]
pub struct TcpFlow<'a> {
    /// Canonical key.
    pub key: FlowKey,
    /// The initiating endpoint (sender of the bare SYN, or of the first
    /// observed segment when the handshake is missing).
    pub client: Endpoint,
    /// The responding endpoint.
    pub server: Endpoint,
    /// Timestamp of the first segment (ms since epoch).
    pub first_ts_ms: u64,
    /// Whether a FIN or RST was seen in either direction.
    pub closed: bool,
    c2s: DirectionBuf<'a>,
    s2c: DirectionBuf<'a>,
    /// Total segments attributed to this flow.
    pub segment_count: usize,
}

impl TcpFlow<'_> {
    /// Reassembled client→server byte stream (the outgoing data DiffAudit
    /// analyzes), up to the first gap, with that gap's report.
    pub fn client_stream_report(&self) -> (Vec<u8>, Option<StreamGap>) {
        self.c2s.assemble_report()
    }

    /// Reassembled server→client byte stream, up to the first gap.
    pub fn server_stream(&self) -> Vec<u8> {
        self.s2c.assemble_report().0
    }

    /// The server's TCP port — used to pick the scheme (443 ⇒ TLS).
    pub fn server_port(&self) -> u16 {
        self.server.port
    }
}

/// Groups segments into flows.
#[derive(Debug, Default)]
pub struct FlowTable<'a> {
    flows: Vec<TcpFlow<'a>>,
    index: HashMap<FlowKey, usize>,
}

impl<'a> FlowTable<'a> {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingest one segment.
    pub fn push(&mut self, seg: &TcpSegment<'a>, timestamp_ms: u64) {
        let src = Endpoint {
            ip: seg.src_ip,
            port: seg.src_port,
        };
        let dst = Endpoint {
            ip: seg.dst_ip,
            port: seg.dst_port,
        };
        let key = FlowKey::canonical(src, dst);
        let idx = match self.index.get(&key) {
            Some(&i) => i,
            None => {
                // New flow. The bare SYN identifies the client; if we join
                // mid-stream, assume the first sender is the client.
                let (client, server) = if seg.flags.syn() && seg.flags.ack() {
                    (dst, src) // SYN-ACK arrives from the server
                } else {
                    (src, dst)
                };
                let i = self.flows.len();
                self.flows.push(TcpFlow {
                    key,
                    client,
                    server,
                    first_ts_ms: timestamp_ms,
                    closed: false,
                    c2s: DirectionBuf::default(),
                    s2c: DirectionBuf::default(),
                    segment_count: 0,
                });
                self.index.insert(key, i);
                i
            }
        };
        let Some(flow) = self.flows.get_mut(idx) else {
            return; // unreachable: idx comes from the map or the push above
        };
        flow.segment_count += 1;
        if seg.flags.fin() || seg.flags.rst() {
            flow.closed = true;
        }
        let from_client = src == flow.client;
        let dir = if from_client {
            &mut flow.c2s
        } else {
            &mut flow.s2c
        };
        // A SYN-ACK still carries the ISN for its direction.
        dir.record(seg.seq, seg.payload, seg.flags.syn());
    }

    /// All tracked flows in first-seen order.
    pub fn flows(&self) -> &[TcpFlow<'a>] {
        &self.flows
    }

    /// Number of distinct flows (Table 1's "TCP Flows").
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::TcpFlags;

    const CLIENT_IP: [u8; 4] = [10, 0, 0, 2];
    const SERVER_IP: [u8; 4] = [93, 184, 216, 34];

    fn seg(from_client: bool, seq: u32, ack: u32, flags: u8, payload: &[u8]) -> TcpSegment<'_> {
        let (src_ip, dst_ip, src_port, dst_port) = if from_client {
            (CLIENT_IP, SERVER_IP, 50000, 443)
        } else {
            (SERVER_IP, CLIENT_IP, 443, 50000)
        };
        TcpSegment {
            src_mac: [2, 0, 0, 0, 0, 1],
            dst_mac: [2, 0, 0, 0, 0, 2],
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            seq,
            ack,
            flags: TcpFlags(flags),
            payload,
        }
    }

    /// The client stream up to its first gap.
    fn client_stream(flow: &TcpFlow<'_>) -> Vec<u8> {
        flow.client_stream_report().0
    }

    /// A full handshake + two data segments + FIN.
    fn run_flow(table: &mut FlowTable, order: &[usize]) {
        let packets = [
            seg(true, 100, 0, TcpFlags::SYN, b""),
            seg(false, 500, 101, TcpFlags::SYN | TcpFlags::ACK, b""),
            seg(true, 101, 501, TcpFlags::ACK, b""),
            seg(true, 101, 501, TcpFlags::PSH | TcpFlags::ACK, b"hello "),
            seg(true, 107, 501, TcpFlags::PSH | TcpFlags::ACK, b"world"),
            seg(false, 501, 112, TcpFlags::PSH | TcpFlags::ACK, b"response"),
            seg(true, 112, 509, TcpFlags::FIN | TcpFlags::ACK, b""),
        ];
        for &i in order {
            table.push(&packets[i], 1000 + i as u64);
        }
    }

    #[test]
    fn in_order_reassembly() {
        let mut table = FlowTable::new();
        run_flow(&mut table, &[0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(table.flow_count(), 1);
        let flow = &table.flows()[0];
        assert_eq!(client_stream(flow), b"hello world");
        assert_eq!(flow.server_stream(), b"response");
        assert_eq!(flow.server_port(), 443);
        assert!(flow.closed);
        assert_eq!(flow.client.ip, CLIENT_IP);
    }

    #[test]
    fn out_of_order_reassembly() {
        let mut table = FlowTable::new();
        // Data segment 4 arrives before 3.
        run_flow(&mut table, &[0, 1, 2, 4, 3, 5, 6]);
        assert_eq!(client_stream(&table.flows()[0]), b"hello world");
    }

    #[test]
    fn duplicate_segments_ignored() {
        let mut table = FlowTable::new();
        run_flow(&mut table, &[0, 1, 2, 3, 3, 4, 4, 5, 6]);
        assert_eq!(client_stream(&table.flows()[0]), b"hello world");
    }

    #[test]
    fn gap_stops_assembly() {
        let mut table = FlowTable::new();
        // Omit the first data segment: assembly stops before "world".
        run_flow(&mut table, &[0, 1, 2, 4, 5, 6]);
        assert_eq!(client_stream(&table.flows()[0]), b"");
    }

    #[test]
    fn gap_is_reported_with_stranded_bytes() {
        let mut table = FlowTable::new();
        run_flow(&mut table, &[0, 1, 2, 4, 5, 6]);
        let flow = &table.flows()[0];
        let (data, gap) = flow.client_stream_report();
        assert_eq!(data, b"");
        let gap = gap.unwrap();
        assert_eq!(gap.at_offset, 0);
        assert_eq!(gap.stranded_bytes, 5); // "world"
        assert_eq!(flow.server_stream(), b"response");
    }

    #[test]
    fn complete_flow_reports_no_gap() {
        let mut table = FlowTable::new();
        run_flow(&mut table, &[0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(
            table.flows()[0].client_stream_report(),
            (b"hello world".to_vec(), None)
        );
    }

    #[test]
    fn midstream_join_without_handshake() {
        let mut table = FlowTable::new();
        table.push(
            &seg(true, 5000, 1, TcpFlags::PSH | TcpFlags::ACK, b"late data"),
            1,
        );
        let flow = &table.flows()[0];
        assert_eq!(client_stream(flow), b"late data");
        assert_eq!(flow.client.port, 50000, "first sender assumed client");
    }

    #[test]
    fn multiple_flows_separate() {
        let mut table = FlowTable::new();
        run_flow(&mut table, &[0, 1, 2, 3, 4, 5, 6]);
        // Second flow: different client port.
        let mut s = seg(true, 100, 0, TcpFlags::SYN, b"");
        s.src_port = 50001;
        table.push(&s, 2000);
        let mut d = seg(true, 101, 0, TcpFlags::PSH | TcpFlags::ACK, b"flow2");
        d.src_port = 50001;
        table.push(&d, 2001);
        assert_eq!(table.flow_count(), 2);
        assert_eq!(client_stream(&table.flows()[1]), b"flow2");
    }

    #[test]
    fn syn_ack_first_still_identifies_server() {
        let mut table = FlowTable::new();
        // Capture starts at the SYN-ACK (client SYN lost).
        table.push(&seg(false, 500, 101, TcpFlags::SYN | TcpFlags::ACK, b""), 1);
        table.push(
            &seg(true, 101, 501, TcpFlags::PSH | TcpFlags::ACK, b"req"),
            2,
        );
        let flow = &table.flows()[0];
        assert_eq!(flow.client.ip, CLIENT_IP);
        assert_eq!(client_stream(flow), b"req");
    }

    #[test]
    fn buffered_segments_borrow_their_frames() {
        let frames: Vec<Vec<u8>> = [
            seg(true, 100, 0, TcpFlags::SYN, b""),
            seg(true, 101, 0, TcpFlags::ACK, b"abcdef"),
            seg(true, 104, 0, TcpFlags::ACK, b"defGHI"),
            seg(false, 500, 107, TcpFlags::ACK, b"reply"),
        ]
        .iter()
        .map(TcpSegment::encode)
        .collect();
        let mut table = FlowTable::new();
        for (i, frame) in frames.iter().enumerate() {
            table.push(&TcpSegment::decode(frame).unwrap(), i as u64);
        }
        let flow = &table.flows[0];
        let buffered: Vec<&[u8]> = flow
            .c2s
            .segments
            .values()
            .chain(flow.s2c.segments.values())
            .copied()
            .collect();
        assert_eq!(buffered.len(), 3);
        for data in buffered {
            let view = data.as_ptr_range();
            assert!(frames.iter().any(|frame| {
                let range = frame.as_ptr_range();
                range.start <= view.start && view.end <= range.end
            }));
        }
        assert_eq!(client_stream(flow), b"abcdefGHI");
    }

    #[test]
    fn overlapping_retransmission_handled() {
        let mut table = FlowTable::new();
        table.push(&seg(true, 100, 0, TcpFlags::SYN, b""), 0);
        table.push(&seg(true, 101, 0, TcpFlags::ACK, b"abcdef"), 1);
        // Retransmission covering old+new range.
        table.push(&seg(true, 104, 0, TcpFlags::ACK, b"defGHI"), 2);
        assert_eq!(client_stream(&table.flows()[0]), b"abcdefGHI");
    }
}
