//! `SSLKEYLOGFILE`-format TLS key logs.
//!
//! PCAPdroid emits a key log file that Wireshark/editcap uses to decrypt
//! captured TLS; the format is one line per session:
//!
//! ```text
//! CLIENT_RANDOM <64 hex chars> <64 hex chars>
//! ```
//!
//! (client random, then the session secret). Our simulated TLS uses the same
//! format so the decode pipeline mirrors the paper's editcap step.

use diffaudit_util::hex;
use std::collections::HashMap;

/// A parsed key log: client random → session secret.
#[derive(Debug, Clone, Default)]
pub struct KeyLog {
    entries: HashMap<[u8; 32], [u8; 32]>,
}

impl KeyLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a session secret.
    pub fn insert(&mut self, client_random: [u8; 32], secret: [u8; 32]) {
        self.entries.insert(client_random, secret);
    }

    /// Merge `other` into this log; where both hold a client random,
    /// `other`'s secret wins (as when parsing the two files concatenated).
    pub fn extend(&mut self, other: KeyLog) {
        self.entries.extend(other.entries);
    }

    /// Look up the secret for a session.
    pub fn secret_for(&self, client_random: &[u8; 32]) -> Option<&[u8; 32]> {
        self.entries.get(client_random)
    }

    /// Number of logged sessions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no sessions are logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serialize to the `SSLKEYLOGFILE` format (sorted for determinism).
    pub fn to_file_string(&self) -> String {
        let mut lines: Vec<String> = self
            .entries
            .iter()
            .map(|(cr, secret)| {
                format!("CLIENT_RANDOM {} {}", hex::encode(cr), hex::encode(secret))
            })
            .collect();
        lines.sort();
        let mut out = lines.join("\n");
        if !out.is_empty() {
            out.push('\n');
        }
        out
    }

    /// Parse from file contents. Unknown line types and malformed lines are
    /// skipped (real key logs carry comments and other label types).
    pub fn parse(text: &str) -> KeyLog {
        let mut log = KeyLog::new();
        for line in text.lines() {
            if let LineOutcome::Entry(cr, secret) = parse_line(line) {
                log.insert(cr, secret);
            }
        }
        log
    }

    /// Salvage parse: same acceptance as [`KeyLog::parse`], but every
    /// damaged line is accounted for in `log` (stage `KeylogLine`, offset =
    /// 1-based line number) instead of vanishing silently. Comments and
    /// blank lines are neither processed nor dropped.
    pub fn parse_salvage(text: &str, log: &mut crate::salvage::SalvageLog) -> KeyLog {
        use crate::salvage::Stage;
        let mut keylog = KeyLog::new();
        for (i, line) in text.lines().enumerate() {
            match parse_line(line) {
                LineOutcome::Entry(cr, secret) => {
                    keylog.insert(cr, secret);
                    log.ok(Stage::KeylogLine);
                }
                LineOutcome::Ignored => {}
                LineOutcome::Bad(reason) => {
                    log.dropped(Stage::KeylogLine, reason, Some(i as u64 + 1));
                }
            }
        }
        keylog
    }
}

/// What one key-log line amounts to.
enum LineOutcome {
    /// Comment or blank — not an entry, not damage.
    Ignored,
    /// A well-formed `CLIENT_RANDOM` entry.
    Entry([u8; 32], [u8; 32]),
    /// A line that is neither (malformed or unknown label).
    Bad(&'static str),
}

fn parse_line(line: &str) -> LineOutcome {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return LineOutcome::Ignored;
    }
    let mut parts = line.split_whitespace();
    if parts.next() != Some("CLIENT_RANDOM") {
        return LineOutcome::Bad("unknown key-log label");
    }
    let (Some(cr_hex), Some(secret_hex)) = (parts.next(), parts.next()) else {
        return LineOutcome::Bad("CLIENT_RANDOM line missing fields");
    };
    let (Ok(cr), Ok(secret)) = (hex::decode(cr_hex), hex::decode(secret_hex)) else {
        return LineOutcome::Bad("CLIENT_RANDOM fields are not hex");
    };
    let (Ok(cr), Ok(secret)): (Result<[u8; 32], _>, Result<[u8; 32], _>) =
        (cr.try_into(), secret.try_into())
    else {
        return LineOutcome::Bad("CLIENT_RANDOM fields are not 32 bytes");
    };
    LineOutcome::Entry(cr, secret)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let mut log = KeyLog::new();
        log.insert([1u8; 32], [2u8; 32]);
        log.insert([3u8; 32], [4u8; 32]);
        let text = log.to_file_string();
        let parsed = KeyLog::parse(&text);
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.secret_for(&[1u8; 32]), Some(&[2u8; 32]));
        assert_eq!(parsed.secret_for(&[3u8; 32]), Some(&[4u8; 32]));
        assert_eq!(parsed.secret_for(&[9u8; 32]), None);
    }

    #[test]
    fn skips_junk_lines() {
        let text = "\
# comment
CLIENT_HANDSHAKE_TRAFFIC_SECRET aa bb
CLIENT_RANDOM deadbeef tooshort
CLIENT_RANDOM not-hex-at-all also-not-hex

CLIENT_RANDOM 0101010101010101010101010101010101010101010101010101010101010101 0202020202020202020202020202020202020202020202020202020202020202
";
        let log = KeyLog::parse(text);
        assert_eq!(log.len(), 1);
        assert_eq!(log.secret_for(&[1u8; 32]), Some(&[2u8; 32]));
    }

    #[test]
    fn empty_log() {
        assert!(KeyLog::new().is_empty());
        assert_eq!(KeyLog::new().to_file_string(), "");
        assert!(KeyLog::parse("").is_empty());
    }

    #[test]
    fn salvage_parse_accounts_for_damaged_lines() {
        let text = "\
# comment
CLIENT_RANDOM deadbeef tooshort
CLIENT_RANDOM 0101010101010101010101010101010101010101010101010101010101010101 0202020202020202020202020202020202020202020202020202020202020202
garbage line
";
        let mut log = crate::salvage::SalvageLog::new();
        let parsed = KeyLog::parse_salvage(text, &mut log);
        assert_eq!(parsed.len(), 1);
        let counts = log.stage(crate::salvage::Stage::KeylogLine);
        assert_eq!((counts.processed, counts.dropped), (1, 2));
        assert!(log.conserved());
        // Offsets are 1-based line numbers.
        assert_eq!(log.drops()[0].offset, Some(2));
        assert_eq!(log.drops()[1].offset, Some(4));
    }

    #[test]
    fn salvage_parse_clean_on_well_formed_log() {
        let mut source = KeyLog::new();
        source.insert([1u8; 32], [2u8; 32]);
        let mut log = crate::salvage::SalvageLog::new();
        let parsed = KeyLog::parse_salvage(&source.to_file_string(), &mut log);
        assert_eq!(parsed.len(), 1);
        assert!(log.is_clean());
    }

    #[test]
    fn extend_matches_parsing_the_concatenation() {
        let mut a = KeyLog::new();
        a.insert([1u8; 32], [2u8; 32]);
        a.insert([3u8; 32], [4u8; 32]);
        let mut b = KeyLog::new();
        b.insert([3u8; 32], [9u8; 32]); // shared client random: b wins
        b.insert([5u8; 32], [6u8; 32]);
        let reparsed = KeyLog::parse(&format!("{}{}", a.to_file_string(), b.to_file_string()));
        let mut merged = a;
        merged.extend(b);
        assert_eq!(merged.to_file_string(), reparsed.to_file_string());
        assert_eq!(merged.secret_for(&[3u8; 32]), Some(&[9u8; 32]));
        assert_eq!(merged.len(), 3);
    }

    #[test]
    fn deterministic_serialization() {
        let mut a = KeyLog::new();
        let mut b = KeyLog::new();
        a.insert([5u8; 32], [6u8; 32]);
        a.insert([7u8; 32], [8u8; 32]);
        b.insert([7u8; 32], [8u8; 32]);
        b.insert([5u8; 32], [6u8; 32]);
        assert_eq!(a.to_file_string(), b.to_file_string());
    }
}
