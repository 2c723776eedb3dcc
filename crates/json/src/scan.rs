//! The run scanner shared by the parser and the serializer.
//!
//! A JSON string is mostly *plain* bytes, which both directions copy
//! unchanged: everything except `"`, `\` and the control bytes below 0x20.
//! [`string_run`] measures a leading run of plain bytes eight at a time, so
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

/// Length of the leading run of `bytes` with no `"`, no `\` and no byte
/// below 0x20.
pub(crate) fn string_run(bytes: &[u8]) -> usize {
    let mut len = 0;
    for chunk in bytes.chunks_exact(8) {
        let Ok(lanes) = <[u8; 8]>::try_from(chunk) else {
            break;
        };
        let word = u64::from_le_bytes(lanes);
        let hit = lanes_below(word ^ (ONES * u64::from(b'"')), 1)
            | lanes_below(word ^ (ONES * u64::from(b'\\')), 1)
            | lanes_below(word, 0x20);
        if hit != 0 {
            break;
        }
        len += 8;
    }
    // The word holding the first run-ending byte (or the short tail) is
    // finished one byte at a time.
    len + bytes
        .iter()
        .skip(len)
        .take_while(|&&b| !ends_run(b))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(bytes: &[u8]) -> usize {
        bytes
            .iter()
            .position(|&b| ends_run(b))
            .unwrap_or(bytes.len())
    }

    #[test]
    fn matches_a_byte_loop_for_every_byte_at_every_offset() {
        for len in 0..=20 {
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
