//! Experiment harness for the PODC 2017 distance-labeling reproduction.
//!
//! This crate turns the paper's summary table (§1) and lower-bound families
//! into runnable experiments:
//!
//! * [`workloads`] — the named tree families every experiment sweeps over;
//! * [`chaos`] — the deterministic fault-injection harness behind the E17
//!   availability experiment and the CI chaos-smoke gate;
//! * [`rss`] — Linux peak-RSS probes (`VmHWM` + `clear_refs`) that let the
//!   giant-tree experiments measure the transient memory of a build phase;
//! * [`experiments`] — functions that measure label sizes / query behaviour and
//!   return printable tables (used by the `experiments` binary, whose output is
//!   recorded in `EXPERIMENTS.md`);
//! * [`golden`] — the golden-frame table pinning every scheme's packed frame
//!   (CRC-64 trailer word) and wire sizes over a seeded corpus.
//!
//! Query, store, router and build timings are measured by the serving
//! benchmark in `treebench/`, not here.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod experiments;
pub mod golden;
pub mod rss;
pub mod workloads;

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A private scratch directory, `temp_dir()/treelab-<tag>-<pid>-<n>/`,
/// unique per call across threads and processes (created with `create_dir`,
/// which fails if the path already exists), removed with everything in
/// it when dropped — so concurrent runs of tests, examples and experiments
/// never share a file and leave nothing behind.
#[derive(Debug)]
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// Creates a fresh directory; `tag` names its user in the path.
    ///
    /// # Panics
    ///
    /// Panics if the directory cannot be created.
    pub fn new(tag: &str) -> Self {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("treelab-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir(&dir).expect("create scratch directory");
        ScratchDir(dir)
    }

    /// The path of the entry `name` inside the directory.
    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A printable table: a title, column headers and rows of cells.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table title (includes the paper artefact it reproduces).
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (same arity as `headers`).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn push_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = format!("### {}\n\n", self.title);
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&fmt_row(&sep));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_markdown_renders_all_rows() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.push_row(vec!["1".into(), "2".into()]);
        t.push_row(vec!["333".into(), "4".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### demo"));
        assert_eq!(md.lines().count(), 2 + 4);
        assert!(md.contains("| 333 | 4  |"));
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn table_rejects_wrong_arity() {
        let mut t = Table::new("demo", &["a"]);
        t.push_row(vec!["1".into(), "2".into()]);
    }
}
