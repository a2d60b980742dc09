//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is one call (or, for nanosecond primitives, one batch of
//! `calls` identical calls) into a layer's public function. Its name is
//! `<layer>.<operation>`, so a layer's totals are the spans whose name
//! starts with `<layer>.`. Spans stay in memory until
//! [`Tracer::write_jsonl`] writes them out at the end of the run.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    parent: Option<usize>,
    name: &'static str,
    job: Option<u64>,
    calls: u64,
    start_ns: u64,
    end_ns: u64,
}

impl Span {
    fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 * 1e-9
    }
}

/// The span recorder. A span's ID is its position in recording order.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span that encloses later spans; close it with [`close`].
    ///
    /// [`close`]: Self::close
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, job: Option<u64>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            job,
            calls: 1,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` as one call inside a span.
    pub fn record<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        self.record_batch(name, parent, job, 1, f)
    }

    /// Runs `f`, which makes `calls` calls of one operation, inside a
    /// single span.
    pub fn record_batch<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        job: Option<u64>,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            parent,
            name,
            job,
            calls,
            start_ns,
            end_ns,
        });
        out
    }

    /// Per-call durations in seconds of the spans named `name`, each
    /// divided by the span's call count.
    pub fn per_call(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.seconds() / s.calls as f64)
            .collect()
    }

    /// `(calls, seconds)` summed over the spans named `name`.
    pub fn total(&self, name: &str) -> (u64, f64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0.0), |(c, t), s| (c + s.calls, t + s.seconds()))
    }

    /// Mean seconds per call of the spans named `name` (0 if none).
    pub fn mean_per_call(&self, name: &str) -> f64 {
        let (calls, seconds) = self.total(name);
        if calls == 0 {
            0.0
        } else {
            seconds / calls as f64
        }
    }

    /// `(calls, self seconds)` of `layer`: over the spans named
    /// `<layer>.*`, the call counts and each span's duration minus the
    /// part its child spans cover.
    pub fn layer_self(&self, layer: &str) -> (u64, f64) {
        let mut covered = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.seconds();
            }
        }
        self.spans
            .iter()
            .zip(&covered)
            .filter(|(s, _)| s.name.split('.').next() == Some(layer))
            .fold((0, 0.0), |(c, t), (s, child)| {
                (c + s.calls, t + (s.seconds() - child).max(0.0))
            })
    }

    /// Writes one JSON object per span, in recording order:
    /// `{"id","parent","name","job","calls","start_ns","end_ns"}`.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let job = s.job.map_or("null".to_owned(), |j| j.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"job\":{job},\"calls\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.calls, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out).map_err(|e| format!("cannot write `{}`: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tracer = Tracer::new();
        let shard = tracer.open("grid.shard", None, None);
        tracer.record("runner.execute", Some(shard), Some(0), || {
            std::thread::sleep(std::time::Duration::from_millis(20));
        });
        tracer.close(shard);
        let (calls, grid_self) = tracer.layer_self("grid");
        let (_, shard_total) = tracer.total("grid.shard");
        let (_, exec_total) = tracer.total("runner.execute");
        assert_eq!(calls, 1);
        assert!(exec_total >= 0.02);
        assert!((grid_self - (shard_total - exec_total)).abs() < 1e-9);
        assert_eq!(tracer.layer_self("runner").0, 1);
    }
}
