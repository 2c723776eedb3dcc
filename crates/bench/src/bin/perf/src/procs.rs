//! The system under test as child processes: one-shot `diffaudit` CLI runs,
//! timed spawn to exit with their peak RSS, and the long-lived daemon.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, ExitStatus, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

/// How often a running child's `VmHWM` is sampled.
const RSS_POLL: Duration = Duration::from_millis(5);

/// A child still running after this long is killed and counted failed.
const CLI_TIMEOUT: Duration = Duration::from_secs(150);

/// Peak resident set size in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let mut fields = rest.split_whitespace();
    let kb = fields.next()?.parse().ok()?;
    (fields.next() == Some("kB")).then_some(kb)
}

/// `VmHWM` of a live process; `None` once it has exited or without `/proc`.
pub fn vmhwm_kb(pid: u32) -> Option<u64> {
    parse_vmhwm_kb(&std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?)
}

/// One finished CLI run.
pub struct CliRun {
    /// Spawn to exit, in milliseconds.
    pub wall_ms: f64,
    /// Highest `VmHWM` seen while it ran, in KiB.
    pub peak_rss_kb: Option<u64>,
    /// The exit code (`None` when killed by a signal or the timeout).
    pub code: Option<i32>,
    /// Everything it wrote to stdout.
    pub stdout: Vec<u8>,
}

/// Run `bin args…` to completion with stdout captured in `stdout_path`,
/// sampling its `VmHWM` every 5 ms. A waiter thread blocks on the exit so
/// the wall time is not rounded up to the sampling interval.
pub fn run_cli(bin: &Path, args: &[String], stdout_path: &Path) -> Result<CliRun, String> {
    let out = File::create(stdout_path)
        .map_err(|e| format!("cannot create {}: {e}", stdout_path.display()))?;
    let started = Instant::now();
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .spawn()
        .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
    let pid = child.id();
    let (tx, rx) = mpsc::channel();
    let mut peak: Option<u64> = None;
    let mut killed = false;
    let waited = std::thread::scope(|scope| {
        scope.spawn(move || {
            let status = child.wait();
            let _ = tx.send((status, Instant::now()));
        });
        loop {
            if let Some(kb) = vmhwm_kb(pid) {
                peak = Some(peak.map_or(kb, |p| p.max(kb)));
            }
            match rx.recv_timeout(RSS_POLL) {
                Ok(done) => return Ok(done),
                Err(RecvTimeoutError::Timeout) => {
                    if !killed && started.elapsed() > CLI_TIMEOUT {
                        killed = true;
                        kill(pid);
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err("waiter thread ended without a status".to_string())
                }
            }
        }
    })?;
    let (status, ended) = waited;
    let status = status.map_err(|e| format!("wait failed: {e}"))?;
    let stdout = std::fs::read(stdout_path)
        .map_err(|e| format!("cannot read {}: {e}", stdout_path.display()))?;
    Ok(CliRun {
        wall_ms: ended.duration_since(started).as_secs_f64() * 1e3,
        peak_rss_kb: peak,
        code: if killed { None } else { status.code() },
        stdout,
    })
}

/// Kill `pid` with SIGKILL (std can only signal a `Child` it still owns,
/// and the waiter thread owns it).
fn kill(pid: u32) {
    let _ = Command::new("kill")
        .args(["-KILL", &pid.to_string()])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status();
}

/// A running `diffaudit serve`. Dropping it kills and reaps the process.
pub struct Daemon {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// `host:port` it listens on.
    pub addr: String,
}

impl Daemon {
    /// Start `bin args…` and wait for its `listening on http://ADDR` line.
    pub fn start(bin: &Path, args: &[String]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start daemon {}: {e}", bin.display()))?;
        let Some(stdout) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout was not captured".to_string());
        };
        let mut daemon = Daemon {
            child,
            stdout: BufReader::new(stdout),
            addr: String::new(),
        };
        let mut line = String::new();
        match daemon.stdout.read_line(&mut line) {
            Ok(n) if n > 0 => {}
            _ => return Err("daemon exited before reporting its address".to_string()),
        }
        match line.trim().strip_prefix("listening on http://") {
            Some(addr) => daemon.addr = addr.to_string(),
            None => return Err(format!("unexpected daemon banner {:?}", line.trim())),
        }
        Ok(daemon)
    }

    /// The daemon's `VmHWM` in KiB.
    pub fn peak_rss_kb(&self) -> Option<u64> {
        vmhwm_kb(self.child.id())
    }

    /// Ask for a graceful drain and wait (up to `timeout`) for the exit.
    pub fn shutdown(mut self, timeout: Duration) -> Result<ExitStatus, String> {
        let response = crate::http::request(&self.addr, "POST", "/api/v1/shutdown", b"")
            .map_err(|e| format!("shutdown request failed: {e}"))?;
        if response.status != 202 {
            return Err(format!("shutdown answered {}", response.status));
        }
        let deadline = Instant::now() + timeout;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Ok(None) => return Err("daemon did not exit after shutdown".to_string()),
                Err(e) => return Err(format!("wait on daemon failed: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vmhwm_from_proc_status() {
        let status =
            "Name:\tdiffaudit\nVmPeak:\t  900000 kB\nVmHWM:\t  466123 kB\nVmRSS:\t  12 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(466_123));
    }

    #[test]
    fn vmhwm_absent_or_malformed_is_none() {
        // A zombie's status has no memory lines at all.
        assert_eq!(parse_vmhwm_kb("Name:\tx\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t  12 MB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t  lots kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\n"), None);
    }

    #[test]
    fn reads_its_own_vmhwm_when_proc_exists() {
        if Path::new("/proc/self/status").exists() {
            assert!(vmhwm_kb(std::process::id()).is_some_and(|kb| kb > 0));
        }
    }
}
