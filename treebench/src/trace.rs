//! Spans the benchmark records around its own calls into the treelab layers.
//!
//! Nothing inside the `treelab-*` crates is instrumented: a span brackets one
//! call into a layer's public functions, carries the request (batch, cycle or
//! set-up) it served and a count of the work it covered.  Spans stay in
//! memory and are written out as JSON lines when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` of a span no other span caused.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The request this span served; spans of one request share it.
    pub request: u32,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// The layer called (`build`, `forest`, `router`, `store`, …).
    pub layer: &'static str,
    /// The operation within the layer.
    pub op: &'static str,
    /// The scheme the call ran, or `""`.
    pub scheme: &'static str,
    /// Work units the call covered (queries, trees, words, …).
    pub count: u64,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The in-memory span log of one run.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    requests: u32,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            requests: 0,
        }
    }

    /// A fresh request id.
    pub fn request(&mut self) -> u32 {
        self.requests += 1;
        self.requests - 1
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts a span and returns its index (for [`Trace::close`] and as the
    /// `parent` of the spans it causes).
    pub fn open(
        &mut self,
        request: u32,
        parent: u32,
        layer: &'static str,
        op: &'static str,
        scheme: &'static str,
        count: u64,
    ) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            request,
            parent,
            layer,
            op,
            scheme,
            count,
            start_ns,
            end_ns: start_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Ends span `id` and returns its duration in seconds.
    pub fn close(&mut self, id: u32) -> f64 {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.secs()
    }

    /// Replaces the work count of span `id` (for spans whose work is known
    /// only once they end).
    pub fn set_count(&mut self, id: u32, count: u64) {
        self.spans[id as usize].count = count;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans of one layer operation, in recording order.
    pub fn select<'a>(
        &'a self,
        layer: &'static str,
        op: &'static str,
    ) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.layer == layer && s.op == op)
    }

    /// Durations in seconds of one layer operation's spans.
    pub fn secs(&self, layer: &'static str, op: &'static str) -> Vec<f64> {
        self.select(layer, op).map(Span::secs).collect()
    }

    /// Writes `header` and then one JSON object per span, one per line.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for s in &self.spans {
            writeln!(
                w,
                "{{\"request\":{},\"parent\":{},\"layer\":\"{}\",\"op\":\"{}\",\"scheme\":\"{}\",\
                 \"count\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.request,
                if s.parent == NO_PARENT {
                    -1
                } else {
                    i64::from(s.parent)
                },
                s.layer,
                s.op,
                s.scheme,
                s.count,
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}
