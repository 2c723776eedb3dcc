//! Process resource sampling: RSS and CPU time read from `/proc` by the
//! recorder's background sampler and at span enter/exit. What a span
//! spent is recorded as a [`crate::ResStats`].
//!
//! Everything here is std-only and `forbid(unsafe_code)`-clean: no global
//! allocator hooks, no libc — just `/proc/self/statm` (resident pages) and
//! `/proc/self/stat` (utime/stime ticks), parsed by hand. On a platform
//! without `/proc` every sampling entry point returns `None` and the rest
//! of the stack degrades to "resources unavailable": spans record no
//! resource fields, snapshots omit the `resources` key, and reports print
//! a placeholder instead of numbers. Tier-1 tests therefore never depend
//! on `/proc` existing.
//!
//! ## Unit assumptions
//!
//! `/proc/self/statm` reports pages and `/proc/self/stat` reports clock
//! ticks; std exposes neither the page size nor `USER_HZ`, so this module
//! assumes the ubiquitous [`PAGE_SIZE_BYTES`] = 4096 and [`USER_HZ`] = 100
//! (the values on every mainstream Linux x86-64/aarch64 userspace ABI).
//! A platform where either differs skews absolute numbers by a constant
//! factor but leaves every *relative* comparison — the diff gate, the
//! per-stage attribution shares — intact.

/// Gauge name the sampler maintains for current resident set size. The
/// exposition renderer turns it into `diffaudit_process_resident_bytes`.
pub const PROCESS_RSS_GAUGE: &str = "diffaudit.process.resident.bytes";

/// Gauge name the sampler maintains for cumulative process CPU time in
/// microseconds (utime + stime). The exposition renderer re-exports it in
/// the conventional shape `diffaudit_process_cpu_seconds_total`.
pub const PROCESS_CPU_US_GAUGE: &str = "diffaudit.process.cpu.us";

/// Assumed bytes per page for `/proc/self/statm` (see module docs).
pub const PAGE_SIZE_BYTES: u64 = 4096;

/// Assumed clock ticks per second for `/proc/self/stat` (see module docs).
pub const USER_HZ: u64 = 100;

/// One point-in-time reading of the process's resource usage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResUsage {
    /// Resident set size, bytes.
    pub rss_bytes: u64,
    /// Cumulative CPU time (utime + stime), microseconds.
    pub cpu_us: u64,
}

/// Read the process's current resource usage from `/proc`. `None` when
/// `/proc` is unavailable or unparsable (non-Linux degradation path).
pub fn sample_self() -> Option<ResUsage> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    Some(ResUsage {
        rss_bytes: parse_statm_rss_bytes(&statm)?,
        cpu_us: parse_stat_cpu_us(&stat)?,
    })
}

/// Resident bytes from `/proc/self/statm` text (field 2, pages).
pub fn parse_statm_rss_bytes(text: &str) -> Option<u64> {
    let pages: u64 = text.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages.saturating_mul(PAGE_SIZE_BYTES))
}

/// CPU microseconds (utime + stime) from `/proc/self/stat` text.
///
/// The second field (`comm`) is a parenthesised command name that may
/// itself contain spaces and parentheses, so fields are counted from the
/// *last* `)` — after it, field 3 (`state`) comes first, putting utime and
/// stime (fields 14 and 15) at whitespace-split indices 11 and 12.
pub fn parse_stat_cpu_us(text: &str) -> Option<u64> {
    let after_comm = &text[text.rfind(')')? + 1..];
    let mut fields = after_comm.split_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(
        utime
            .saturating_add(stime)
            .saturating_mul(1_000_000 / USER_HZ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statm_parses_resident_pages_into_bytes() {
        assert_eq!(
            parse_statm_rss_bytes("12345 678 90 1 0 2 0\n"),
            Some(678 * PAGE_SIZE_BYTES)
        );
        assert_eq!(parse_statm_rss_bytes(""), None);
        assert_eq!(parse_statm_rss_bytes("only-one-field"), None);
        assert_eq!(parse_statm_rss_bytes("1 not-a-number"), None);
    }

    #[test]
    fn stat_counts_fields_after_the_last_paren() {
        // comm contains spaces and a nested ')': fields must be counted
        // from the final ')' or utime lands on the wrong column.
        let line = "4242 (weird name) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0 100 1000 2 42\n";
        assert_eq!(
            parse_stat_cpu_us(line),
            Some((250 + 50) * (1_000_000 / USER_HZ))
        );
        let nested = "1 (a (b) c) R 1 2 3 4 5 6 7 8 9 10 7 3 0 0\n";
        assert_eq!(parse_stat_cpu_us(nested), Some(10 * (1_000_000 / USER_HZ)));
        assert_eq!(parse_stat_cpu_us("no parens here"), None);
        assert_eq!(parse_stat_cpu_us("1 (x) S 1 2\n"), None); // too few fields
    }

    #[test]
    fn sampling_either_works_or_degrades_to_none() {
        // Tier-1 must pass with or without /proc: assert only internal
        // consistency, not availability.
        if let Some(usage) = sample_self() {
            assert!(usage.rss_bytes > 0, "a live process has pages resident");
        }
    }
}
