//! The two event sinks: a human-readable stderr logger and a
//! machine-readable JSONL trace writer.
//!
//! This file is the *only* place in the instrumented crates allowed to call
//! `eprintln!` — the analyzer's `no-bare-eprintln` pass allowlists it — so
//! every operator-facing line flows through one leveled, filterable funnel.

use crate::event::Field;
use crate::level::Level;
use diffaudit_json::Json;
use std::io::Write;

/// Render one event the way the stderr sink prints it.
///
/// `info` events print their message bare (so CLI progress lines look like
/// ordinary tool output); other levels get a `level:` prefix. Fields are
/// appended as space-separated `key=value` pairs.
pub fn render_human(level: Level, msg: &str, fields: &[Field]) -> String {
    let mut line = match level {
        Level::Info => String::new(),
        other => format!("{other}: "),
    };
    line.push_str(msg);
    for (key, value) in fields {
        line.push(' ');
        line.push_str(key);
        line.push('=');
        line.push_str(&value.to_string());
    }
    line
}

/// Print one event to stderr in the human format.
pub fn write_stderr(level: Level, msg: &str, fields: &[Field]) {
    eprintln!("{}", render_human(level, msg, fields));
}

/// Print a preformatted multi-line block (the run report, a degradation
/// table) to stderr verbatim — the sanctioned channel for stderr output
/// that is a document rather than an event.
pub fn write_stderr_block(text: &str) {
    eprint!("{text}");
}

/// A JSON-Lines trace writer: one self-contained JSON object per line,
/// buffered, built on `diffaudit-json` so the schema round-trips through
/// the workspace's own parser.
pub struct JsonlSink {
    out: Box<dyn Write + Send>,
}

impl std::fmt::Debug for JsonlSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("JsonlSink")
    }
}

impl JsonlSink {
    /// Wrap any writer (a file, a test buffer).
    pub fn new(out: Box<dyn Write + Send>) -> JsonlSink {
        JsonlSink { out }
    }

    /// Open a buffered file sink at `path` (truncating).
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlSink> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlSink::new(Box::new(std::io::BufWriter::new(file))))
    }

    /// Append one record. Write errors are swallowed: tracing must never
    /// take down the audit it is observing.
    pub fn write(&mut self, record: &Json) {
        let mut line = record.to_string();
        line.push('\n');
        let _ = self.out.write_all(line.as_bytes());
    }

    /// Flush buffered lines.
    pub fn flush(&mut self) {
        let _ = self.out.flush();
    }
}

/// Build the JSONL record for an event.
pub fn event_record(seq: u64, t_us: u64, level: Level, msg: &str, fields: &[Field]) -> Json {
    let mut obj = Json::obj()
        .with("seq", Json::int(seq.min(i64::MAX as u64) as i64))
        .with("tUs", Json::int(t_us.min(i64::MAX as u64) as i64))
        .with("kind", Json::str("event"))
        .with("level", Json::str(level.label()))
        .with("msg", Json::str(msg));
    if !fields.is_empty() {
        let mut f = Json::obj();
        for (key, value) in fields {
            f.set(*key, value.to_json());
        }
        obj.set("fields", f);
    }
    obj
}

/// Build the JSONL record for a completed span.
pub fn span_record(seq: u64, t_us: u64, name: &str, parent: Option<&str>, dur_us: u64) -> Json {
    Json::obj()
        .with("seq", Json::int(seq.min(i64::MAX as u64) as i64))
        .with("tUs", Json::int(t_us.min(i64::MAX as u64) as i64))
        .with("kind", Json::str("span"))
        .with("name", Json::str(name))
        .with("parent", parent.map_or(Json::Null, Json::str))
        .with("durUs", Json::int(dur_us.min(i64::MAX as u64) as i64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::field;

    #[test]
    fn human_format_prefixes_non_info_levels() {
        assert_eq!(
            render_human(Level::Info, "loaded 3 units", &[]),
            "loaded 3 units"
        );
        assert_eq!(
            render_human(Level::Error, "boom", &[field("file", "a.pcap")]),
            "error: boom file=a.pcap"
        );
        assert_eq!(
            render_human(Level::Debug, "x", &[field("n", 2u64)]),
            "debug: x n=2"
        );
    }

    #[test]
    fn records_parse_back() {
        let ev = event_record(1, 10, Level::Warn, "w", &[field("k", 5u64)]);
        let back = diffaudit_json::parse(&ev.to_string()).unwrap();
        assert_eq!(back.pointer("/kind").and_then(Json::as_str), Some("event"));
        assert_eq!(back.pointer("/level").and_then(Json::as_str), Some("warn"));
        assert_eq!(back.pointer("/fields/k").and_then(Json::as_i64), Some(5));

        let sp = span_record(2, 20, "pipeline.classify", Some("pipeline"), 123);
        let back = diffaudit_json::parse(&sp.to_string()).unwrap();
        assert_eq!(back.pointer("/kind").and_then(Json::as_str), Some("span"));
        assert_eq!(
            back.pointer("/parent").and_then(Json::as_str),
            Some("pipeline")
        );
        assert_eq!(back.pointer("/durUs").and_then(Json::as_i64), Some(123));
    }

    #[test]
    fn span_resources_extend_the_record_with_optional_keys() {
        // A profiled span record carries its resources as one `res`
        // object in the snapshot's own keys.
        let res = crate::ResStats {
            count: 1,
            peak_rss_bytes: 4096,
            rss_delta_bytes: -128,
            cpu_us: 900,
        };
        let sp = span_record(3, 30, "pipeline", None, 500).with("res", res.to_json());
        let back = diffaudit_json::parse(&sp.to_string()).unwrap();
        assert_eq!(
            back.pointer("/res/peakRssB").and_then(Json::as_i64),
            Some(4096)
        );
        assert_eq!(
            back.pointer("/res/rssDeltaB").and_then(Json::as_i64),
            Some(-128)
        );
        assert_eq!(back.pointer("/res/cpuUs").and_then(Json::as_i64), Some(900));
        assert_eq!(
            back.get("res").map(crate::ResStats::from_json),
            Some(Ok(res))
        );
        // The base span keys survive the extension.
        assert_eq!(back.pointer("/durUs").and_then(Json::as_i64), Some(500));
    }

    #[test]
    fn jsonl_sink_writes_one_line_per_record() {
        use std::sync::{Arc, Mutex};
        #[derive(Clone)]
        struct Buf(Arc<Mutex<Vec<u8>>>);
        impl Write for Buf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buf = Buf(Arc::new(Mutex::new(Vec::new())));
        let mut sink = JsonlSink::new(Box::new(buf.clone()));
        sink.write(&event_record(1, 0, Level::Info, "a", &[]));
        sink.write(&span_record(2, 5, "s", None, 7));
        sink.flush();
        let text = String::from_utf8(buf.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            diffaudit_json::parse(line).expect("every line is standalone JSON");
        }
    }
}
