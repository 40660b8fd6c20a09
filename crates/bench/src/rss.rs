//! Peak-RSS measurement for the giant-tree scale harness.
//!
//! The E15 acceptance criterion is *measured*, not asserted from theory:
//! a chunk-streaming build must keep its transient memory bounded by the
//! chunk size rather than the tree size.  Linux exposes exactly the right
//! counter — `VmHWM` in `/proc/self/status` is the high-water mark of the
//! resident set, and writing `5` to `/proc/self/clear_refs` resets it to the
//! *current* RSS, so the peak of an individual phase can be isolated inside
//! a long-running process.
//!
//! Everything here is best-effort and Linux-gated: on other platforms (or
//! under a hardened procfs) the probes return `None` and callers print `n/a`
//! instead of failing.

/// Reads a `kB` field from `/proc/self/status` and returns it in bytes.
#[cfg(target_os = "linux")]
fn proc_status_bytes(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kb: u64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())?;
    Some(kb * 1024)
}

/// The process-lifetime peak resident set size (`VmHWM`), in bytes, or
/// `None` off Linux / without a readable procfs.
///
/// The value only moves forward — to scope it to a phase, call
/// [`reset_peak_rss`] first and subtract the RSS at the start of the phase.
pub fn peak_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_bytes("VmHWM:")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// The current resident set size (`VmRSS`), in bytes, or `None` off Linux.
pub fn current_rss_bytes() -> Option<u64> {
    #[cfg(target_os = "linux")]
    {
        proc_status_bytes("VmRSS:")
    }
    #[cfg(not(target_os = "linux"))]
    {
        None
    }
}

/// Resets the peak-RSS high-water mark to the current RSS by writing `5` to
/// `/proc/self/clear_refs`.  Returns `false` (without failing) when the
/// procfs knob is unavailable — peaks then accumulate across phases and the
/// per-phase figures degrade to upper bounds.
pub fn reset_peak_rss() -> bool {
    #[cfg(target_os = "linux")]
    {
        std::fs::write("/proc/self/clear_refs", b"5").is_ok()
    }
    #[cfg(not(target_os = "linux"))]
    {
        false
    }
}

/// Runs `f` and returns its result together with the peak RSS *above the
/// starting RSS* during the call, in bytes (`None` when the platform offers
/// no probe).
///
/// The subtraction matters: a giant-tree build already holds the tree and
/// the substrate when packing starts, and the claim under test is about the
/// *transient* memory of the phase, not the resident baseline.
pub fn measure_peak<R>(f: impl FnOnce() -> R) -> (R, Option<u64>) {
    let ok = reset_peak_rss();
    let before = current_rss_bytes();
    let result = f();
    let delta = match (ok, before, peak_rss_bytes()) {
        (true, Some(b), Some(p)) => Some(p.saturating_sub(b)),
        _ => None,
    };
    (result, delta)
}

/// Formats a byte count as mebibytes for table cells, `n/a` when absent.
pub fn fmt_mib(bytes: Option<u64>) -> String {
    match bytes {
        Some(b) => format!("{:.1}", b as f64 / (1024.0 * 1024.0)),
        None => "n/a".to_string(),
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn probes_read_plausible_values() {
        let rss = current_rss_bytes().expect("VmRSS readable on Linux");
        let peak = peak_rss_bytes().expect("VmHWM readable on Linux");
        assert!(rss > 0 && peak >= rss / 2, "rss={rss} peak={peak}");
    }
}
