//! The host and build a result was measured on, the process's peak memory,
//! and the run's private scratch directory.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Peak resident set size (`VmHWM`) of this process in bytes, on Linux.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git; `unknown` outside a git checkout.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let resolve = || {
        let head = read("HEAD")?;
        let head = head.trim();
        let Some(name) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Some(rev) = read(name) {
            return Some(rev.trim().to_string());
        }
        read("packed-refs")?
            .lines()
            .find(|l| l.ends_with(name))
            .and_then(|l| l.split_whitespace().next())
            .map(str::to_string)
    };
    resolve().unwrap_or_else(|| "unknown".to_string())
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The fingerprint every result carries: host (`nproc`, CPU model), build
/// (kernel configuration, features) and source (git revision).
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\":{nproc},\"cpu_model\":{},\"kernel_config\":{},\"features\":{},\"git_revision\":{}}}",
        json_str(&cpu_model()),
        json_str(treelab_bits::simd::kernel_config()),
        // The manifest asks for no optional feature of any treelab crate.
        json_str("default"),
        json_str(&git_revision()),
    )
}

/// A directory of this run's own under `.treebench_tmp` (process id plus a
/// counter, so concurrent runs never share a path), removed on drop.
pub struct PrivateDir {
    path: PathBuf,
}

impl PrivateDir {
    const BASE: &'static str = ".treebench_tmp";

    pub fn create() -> std::io::Result<PrivateDir> {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        std::fs::create_dir_all(Self::BASE)?;
        loop {
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path = Path::new(Self::BASE).join(format!("{}-{n}", std::process::id()));
            match std::fs::create_dir(&path) {
                Ok(()) => return Ok(PrivateDir { path }),
                // A dead run of the same pid left it: take the next name.
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => continue,
                Err(e) => return Err(e),
            }
        }
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for PrivateDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Succeeds only once no other run holds a directory in it.
        let _ = std::fs::remove_dir(Self::BASE);
    }
}
