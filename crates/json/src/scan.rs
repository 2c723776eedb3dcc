//! The run scanner shared by the parser and the serializer.
//!
//! A JSON string is mostly *plain* bytes, which both directions copy
//! unchanged: everything except `"`, `\` and the control bytes below 0x20.
//! [`string_run`] measures a leading run of plain bytes a word at a time, so
//! the parser and the serializer can copy each run with one `push_str` and
//! handle only the byte that ends it.
//!
//! Every byte that ends a run is ASCII, and an ASCII byte is never part of
//! a multi-byte UTF-8 sequence. So when a run starts on a char boundary of a
//! `&str`, it also ends on one, and slicing the `&str` there cannot fail.

/// `0x01` in every byte lane.
const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
/// `0x80` in every byte lane.
const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);

/// Does `b` end a run?
fn ends_run(b: u8) -> bool {
    b == b'"' || b == b'\\' || b < 0x20
}

/// High bit set in the lanes of `word` that hold a byte below `n`
/// (`n <= 0x80`). The lowest flagged lane is exact; lanes above a flagged
/// one may be flagged falsely by the borrow, and no lane is flagged when
/// none is below `n`. Bytes of 0x80 and above are never flagged.
fn lanes_below(word: u64, n: u8) -> u64 {
    word.wrapping_sub(ONES * u64::from(n)) & !word & HIGHS
}

fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes(<[u8; 8]>::try_from(chunk).unwrap_or_default())
}

/// High bit set in some lane of `word` when one of its bytes ends a run,
/// the lowest such lane exactly.
fn run_ends(word: u64) -> u64 {
    lanes_below(word ^ (ONES * u64::from(b'"')), 1)
        | lanes_below(word ^ (ONES * u64::from(b'\\')), 1)
        | lanes_below(word, 0x20)
}

/// Length of the leading run of `bytes` with no `"`, no `\` and no byte
/// below 0x20, and whether every byte in the run is ASCII (so that a reader
/// of unchecked bytes knows which runs it must validate as UTF-8).
pub(crate) fn string_run(bytes: &[u8]) -> (usize, bool) {
    // Long runs (padding, blobs) are checked 32 bytes per branch, then the
    // block holding the end is checked a word at a time.
    let mut len = 0;
    let mut high = 0;
    for block in bytes.chunks_exact(32) {
        let (ends, or) = block
            .chunks_exact(8)
            .map(word)
            .fold((0, 0), |(ends, or), w| (ends | run_ends(w), or | w));
        if ends != 0 {
            break;
        }
        high |= or;
        len += 32;
    }
    for chunk in bytes.get(len..).unwrap_or_default().chunks_exact(8) {
        let w = word(chunk);
        if run_ends(w) != 0 {
            break;
        }
        high |= w;
        len += 8;
    }
    // The word holding the first run-ending byte (or the short tail) is
    // finished one byte at a time.
    let tail = bytes
        .iter()
        .skip(len)
        .take_while(|&&b| !ends_run(b))
        .fold((0, 0), |(n, or), &b| (n + 1, or | b));
    (len + tail.0, high & HIGHS == 0 && tail.1 < 0x80)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(bytes: &[u8]) -> (usize, bool) {
        let len = bytes
            .iter()
            .position(|&b| ends_run(b))
            .unwrap_or(bytes.len());
        (len, bytes[..len].is_ascii())
    }

    #[test]
    fn matches_a_byte_loop_for_every_byte_at_every_offset() {
        for len in 0..=70 {
            for at in 0..len {
                for b in 0..=u8::MAX {
                    let mut bytes = vec![b'a'; len];
                    bytes[at] = b;
                    assert_eq!(
                        string_run(&bytes),
                        naive(&bytes),
                        "{b:#04x} at {at} of {len}"
                    );
                    // A second run-ending byte further on must not matter.
                    bytes.push(b'"');
                    assert_eq!(
                        string_run(&bytes),
                        naive(&bytes),
                        "{b:#04x} at {at} of {len}+"
                    );
                }
            }
        }
    }
}
