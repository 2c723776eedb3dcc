//! A minimal Rust "lexer" that blanks out comments and literal strings.
//!
//! The lint passes work on textual patterns (`.unwrap()`, `panic!`, `[`…),
//! so the first step is to make sure a match is *code* and not the inside of
//! a comment, doc comment, string, or char literal. [`strip`] returns a
//! buffer of **exactly the same length** as the input in which every byte of
//! comment/string/char-literal content is replaced by a space (newlines are
//! preserved), so byte offsets and line numbers in the stripped text map
//! 1:1 onto the original source.
//!
//! Handled syntax: line comments (`//`, `///`, `//!`), nested block comments
//! (`/* /* */ */`), string literals with escapes, raw strings (`r"…"`,
//! `r#"…"#`, any hash depth), byte strings (`b"…"`, `br#"…"#`), char and
//! byte-char literals (`'a'`, `'\n'`, `b'x'`), and lifetimes (`'a`, which is
//! *not* a char literal and must not swallow code).

/// Return a same-length copy of `source` with comment and string/char
/// literal contents blanked to spaces. String delimiters (`"`) are kept so
/// the shape of expressions stays visible; everything between them is
/// blanked. Newlines are always preserved.
pub fn strip(source: &str) -> String {
    strip_impl(source, true)
}

/// Like [`strip`], but comments are *kept* and only string/char literal
/// contents are blanked. Used by the annotation scanner: `lint:allow`
/// markers live in comments, so they must survive, while a marker inside a
/// string literal (e.g. in the analyzer's own tests) must not.
pub fn strip_strings_only(source: &str) -> String {
    strip_impl(source, false)
}

/// Can `byte` appear in an identifier? The passes use it for word-boundary
/// checks around a textual match.
pub(crate) fn is_ident(byte: u8) -> bool {
    byte == b'_' || byte.is_ascii_alphanumeric()
}

/// Byte offsets of every occurrence of `needle` in `haystack`, overlapping
/// matches included.
pub(crate) fn occurrences<'a>(
    haystack: &'a str,
    needle: &'a str,
) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0usize;
    std::iter::from_fn(move || {
        let rel = haystack[from..].find(needle)?;
        let at = from + rel;
        from = at + 1;
        Some(at)
    })
}

fn strip_impl(source: &str, blank_comments: bool) -> String {
    let bytes = source.as_bytes();
    let mut out = bytes.to_vec();
    let mut i = 0;

    // Blank a half-open byte range, preserving newlines (and carriage
    // returns, so CRLF sources keep their line structure).
    fn blank(out: &mut [u8], range: std::ops::Range<usize>) {
        for byte in &mut out[range] {
            if *byte != b'\n' && *byte != b'\r' {
                *byte = b' ';
            }
        }
    }

    while i < bytes.len() {
        let c = bytes[i];
        let next = bytes.get(i + 1).copied();
        let prev_is_ident = i > 0 && is_ident(bytes[i - 1]);
        match c {
            b'/' if next == Some(b'/') => {
                let end = source[i..].find('\n').map(|n| i + n).unwrap_or(bytes.len());
                if blank_comments {
                    blank(&mut out, i..end);
                }
                i = end;
            }
            b'/' if next == Some(b'*') => {
                // Nested block comments.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < bytes.len() && depth > 0 {
                    if bytes[j] == b'/' && bytes.get(j + 1) == Some(&b'*') {
                        depth += 1;
                        j += 2;
                    } else if bytes[j] == b'*' && bytes.get(j + 1) == Some(&b'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                if blank_comments {
                    blank(&mut out, i..j);
                }
                i = j;
            }
            b'"' => {
                let end = skip_string(bytes, i);
                blank(&mut out, i + 1..end.saturating_sub(1).max(i + 1));
                i = end;
            }
            b'r' | b'b' if !prev_is_ident => {
                // Possible raw/byte string prefix: r", r#", b", br", br#".
                if let Some((blank_start, blank_end, resume)) = raw_or_byte_string(bytes, i) {
                    blank(&mut out, blank_start..blank_end);
                    i = resume;
                } else if c == b'b' && next == Some(b'\'') {
                    // Byte-char literal b'x' / b'\n'.
                    let end = skip_char_literal(bytes, i + 1);
                    blank(&mut out, i + 2..end.saturating_sub(1).max(i + 2));
                    i = end;
                } else {
                    i += 1;
                }
            }
            b'\'' => {
                if let Some(end) = char_literal_end(bytes, i) {
                    blank(&mut out, i + 1..end.saturating_sub(1).max(i + 1));
                    i = end;
                } else {
                    // A lifetime ('a) — skip the tick and its identifier.
                    i += 1;
                    while i < bytes.len() && is_ident(bytes[i]) {
                        i += 1;
                    }
                }
            }
            _ => i += 1,
        }
    }
    // Blanking only ever rewrites bytes strictly inside ASCII-delimited
    // regions with ASCII spaces, so the buffer stays valid UTF-8.
    String::from_utf8(out).unwrap_or_else(|e| {
        let mut lossy = String::from_utf8_lossy(e.as_bytes()).into_owned();
        lossy.truncate(source.len());
        lossy
    })
}

/// Index one past the closing quote of a `"…"` string starting at `start`.
fn skip_string(bytes: &[u8], start: usize) -> usize {
    let mut j = start + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return j + 1,
            _ => j += 1,
        }
    }
    bytes.len()
}

/// Index one past the closing quote of a `'…'` char literal whose opening
/// tick is at `start`.
fn skip_char_literal(bytes: &[u8], start: usize) -> usize {
    let mut j = start + 1;
    while j < bytes.len() {
        match bytes[j] {
            b'\\' => j += 2,
            b'\'' => return j + 1,
            _ => j += 1,
        }
    }
    bytes.len()
}

/// If `bytes[i..]` starts a raw or byte string (`r"`, `r#"`, `b"`, `br"`,
/// `br#"` …), return `(blank_start, blank_end, resume_index)`: the content
/// range to blank and the index one past the whole literal.
fn raw_or_byte_string(bytes: &[u8], i: usize) -> Option<(usize, usize, usize)> {
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    let raw = bytes.get(j) == Some(&b'r');
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while raw && bytes.get(j) == Some(&b'#') {
        hashes += 1;
        j += 1;
    }
    if bytes.get(j) != Some(&b'"') {
        return None;
    }
    if !raw && bytes[i] == b'r' {
        return None;
    }
    let content = j + 1;
    if !raw {
        // b"…" behaves like a normal string (escapes allowed).
        let end = skip_string(bytes, j);
        return Some((content, end.saturating_sub(1).max(content), end));
    }
    // Raw string: scan for `"` followed by `hashes` hashes.
    let closer: Vec<u8> = std::iter::once(b'"')
        .chain(std::iter::repeat(b'#').take(hashes))
        .collect();
    let mut k = content;
    while k + closer.len() <= bytes.len() {
        if bytes[k..k + closer.len()] == closer[..] {
            return Some((content, k, k + closer.len()));
        }
        k += 1;
    }
    Some((content, bytes.len(), bytes.len()))
}

/// Decide whether the tick at `i` opens a char literal (vs a lifetime).
/// Returns the end index (one past the closing tick) if it is a literal.
fn char_literal_end(bytes: &[u8], i: usize) -> Option<usize> {
    let next = bytes.get(i + 1)?;
    if *next == b'\\' {
        return Some(skip_char_literal(bytes, i));
    }
    // 'x' — a single char (possibly multibyte) then a closing tick. A
    // lifetime is a tick followed by an identifier *without* a closing tick.
    let mut j = i + 1;
    // Step over one UTF-8 scalar.
    j += utf8_len(bytes[j]);
    if bytes.get(j) == Some(&b'\'') {
        Some(j + 1)
    } else {
        None
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        b if b < 0x80 => 1,
        b if b & 0xE0 == 0xC0 => 2,
        b if b & 0xF0 == 0xE0 => 3,
        _ => 4,
    }
}

/// 0-based byte offsets of each line start; index with `line_of`.
pub fn line_starts(source: &str) -> Vec<usize> {
    let mut starts = vec![0usize];
    for (idx, byte) in source.bytes().enumerate() {
        if byte == b'\n' {
            starts.push(idx + 1);
        }
    }
    starts
}

/// 1-based line number of byte `offset` given `line_starts`.
pub fn line_of(starts: &[usize], offset: usize) -> usize {
    match starts.binary_search(&offset) {
        Ok(i) => i + 1,
        Err(i) => i,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_comments_preserving_length() {
        let src = "let x = 1; // unwrap() here\nlet y = 2;\n";
        let out = strip(src);
        assert_eq!(out.len(), src.len());
        assert!(!out.contains("unwrap"));
        assert!(out.contains("let y = 2;"));
        assert_eq!(out.matches('\n').count(), 2);
    }

    #[test]
    fn strips_doc_comments() {
        let src = "/// call .unwrap() freely\nfn f() {}\n//! panic! docs\n";
        let out = strip(src);
        assert!(!out.contains("unwrap"));
        assert!(!out.contains("panic"));
        assert!(out.contains("fn f() {}"));
    }

    #[test]
    fn strips_nested_block_comments() {
        let src = "a /* outer /* inner unwrap() */ still comment */ b";
        let out = strip(src);
        assert_eq!(out.len(), src.len());
        assert!(!out.contains("unwrap"));
        assert!(out.starts_with('a'));
        assert!(out.ends_with('b'));
    }

    #[test]
    fn strips_string_contents_keeping_quotes() {
        let src = r#"let s = "call .unwrap() or panic!";"#;
        let out = strip(src);
        assert_eq!(out.len(), src.len());
        assert!(!out.contains("unwrap"));
        assert!(out.contains('"'));
    }

    #[test]
    fn handles_escaped_quotes() {
        let src = r#"let s = "a\"b.unwrap()c"; x.unwrap();"#;
        let out = strip(src);
        // The string-literal unwrap is gone, the real one survives.
        assert_eq!(out.matches(".unwrap()").count(), 1);
    }

    #[test]
    fn strips_raw_strings() {
        let src = r##"let s = r#"panic! "quoted" unwrap()"#; y.unwrap();"##;
        let out = strip(src);
        assert!(!out.contains("panic"));
        assert_eq!(out.matches(".unwrap()").count(), 1);
    }

    #[test]
    fn strips_byte_strings_and_byte_chars() {
        let src = r#"let a = b"unwrap()"; let c = b'x'; z.unwrap();"#;
        let out = strip(src);
        assert_eq!(out.matches("unwrap()").count(), 1);
        assert!(!out.contains("b'x'") || !out.contains('x'));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x.trim() }";
        let out = strip(src);
        // Nothing after a lifetime may be swallowed.
        assert!(out.contains("x.trim()"));
        assert_eq!(out.len(), src.len());
    }

    #[test]
    fn char_literal_with_escape() {
        let src = r"let q = '\''; let n = '\n'; m.unwrap();";
        let out = strip(src);
        assert_eq!(out.matches(".unwrap()").count(), 1);
    }

    #[test]
    fn multibyte_char_literal() {
        let src = "let e = 'é'; data.unwrap();";
        let out = strip(src);
        assert_eq!(out.len(), src.len());
        assert_eq!(out.matches(".unwrap()").count(), 1);
    }

    #[test]
    fn identifier_ending_in_r_is_not_raw_string() {
        let src = r#"let var = other"#; // `r` inside idents must not trigger
        let out = strip(src);
        assert_eq!(out, src);
    }

    #[test]
    fn raw_strings_at_any_hash_depth() {
        // Depth 0, 2, and 3 — a lower-depth terminator inside must not
        // close a higher-depth raw string.
        let src = "let a = r\"panic!\"; let b = r##\"x \"# unwrap()\"##; b.len();";
        let out = strip(src);
        assert_eq!(out.len(), src.len());
        assert!(!out.contains("panic"));
        assert!(!out.contains("unwrap"));
        assert!(out.contains("b.len();"));

        let deep = "let c = r###\"inner \"## still .unwrap()\"###; c.unwrap();";
        let out = strip(deep);
        assert_eq!(out.len(), deep.len());
        assert_eq!(out.matches(".unwrap()").count(), 1);
    }

    #[test]
    fn raw_byte_strings() {
        let src = "let a = br#\"panic! \"q\" unwrap()\"#; a.unwrap();";
        let out = strip(src);
        assert_eq!(out.len(), src.len());
        assert!(!out.contains("panic"));
        assert_eq!(out.matches(".unwrap()").count(), 1);
    }

    #[test]
    fn triply_nested_block_comments() {
        let src = "a /* 1 /* 2 /* 3 unwrap() */ panic! */ eprintln! */ b.len();";
        let out = strip(src);
        assert_eq!(out.len(), src.len());
        for needle in ["unwrap", "panic", "eprintln"] {
            assert!(!out.contains(needle), "{needle} survived: {out}");
        }
        assert!(out.contains("b.len();"));
    }

    #[test]
    fn static_lifetime_is_not_a_char_literal() {
        // `'static` must not open a char literal and swallow `.unwrap()`;
        // a real char `'s'` right next to it must still blank.
        let src = "fn f(x: &'static str) { x.unwrap(); let c = 's'; c.is_alphabetic(); }";
        let out = strip(src);
        assert_eq!(out.len(), src.len());
        assert_eq!(out.matches(".unwrap()").count(), 1);
        assert!(out.contains("'static"));
        assert!(out.contains("c.is_alphabetic()"));
        assert!(!out.contains("'s'"));
    }

    #[test]
    fn comment_markers_inside_strings_and_quotes_inside_comments() {
        // A `/*` inside a string is text; a `"` inside a comment is not a
        // string opener — mixing them up desynchronizes everything after.
        let src = "let s = \"/* not a comment\"; /* \" */ tail.unwrap();";
        let out = strip(src);
        assert_eq!(out.len(), src.len());
        assert_eq!(out.matches(".unwrap()").count(), 1);
        assert!(out.contains("tail"));
    }

    #[test]
    fn strip_strings_only_keeps_comments() {
        let src = "x.len(); // note: unwrap() here\nlet s = \"unwrap()\";\n";
        let out = strip_strings_only(src);
        assert_eq!(out.len(), src.len());
        assert!(out.contains("note: unwrap() here"));
        assert_eq!(out.matches("unwrap").count(), 1);
    }

    #[test]
    fn line_numbering() {
        let src = "a\nbb\nccc\n";
        let starts = line_starts(src);
        assert_eq!(line_of(&starts, 0), 1);
        assert_eq!(line_of(&starts, 2), 2);
        assert_eq!(line_of(&starts, 3), 2);
        assert_eq!(line_of(&starts, 5), 3);
        assert_eq!(line_of(&starts, 8), 3);
    }
}
