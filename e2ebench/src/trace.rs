//! In-memory span recorder for the traced run.
//!
//! A span is (name, start, end, parent, job id), timed around one public
//! call in the benchmark's own code. Spans are kept in memory and written
//! as JSON lines at exit. A disabled tracer records nothing and reads no
//! clock, so the untraced runs pay only a branch.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span; times are microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based; 0 means "no parent").
    pub id: u64,
    /// Layer-qualified name, e.g. `client.submit`.
    pub name: &'static str,
    /// Start, µs.
    pub start_us: f64,
    /// End, µs.
    pub end_us: f64,
    /// Parent span id, 0 for roots.
    pub parent: u64,
    /// Job (or batch) id the span is about, if any.
    pub job: Option<u64>,
}

struct Inner {
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Cheap-to-clone handle; `Tracer::off()` records nothing.
#[derive(Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Inner>>,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            inner: Some(Arc::new(Inner {
                t0: Instant::now(),
                next: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
            })),
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Reserve a span id for a parent that is still open (0 when off).
    pub fn reserve(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.next.fetch_add(1, Ordering::Relaxed))
    }

    /// Record a finished span under a reserved id (no-op when off).
    pub fn close(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        job: Option<u64>,
        start: Instant,
    ) {
        let Some(inner) = &self.inner else { return };
        let end = Instant::now();
        let us = |t: Instant| t.saturating_duration_since(inner.t0).as_secs_f64() * 1e6;
        inner.spans.lock().expect("trace lock").push(Span {
            id,
            name,
            start_us: us(start),
            end_us: us(end),
            parent,
            job,
        });
    }

    /// Run `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        job: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        if self.inner.is_none() {
            return f();
        }
        let id = self.reserve();
        let start = Instant::now();
        let out = f();
        self.close(id, name, parent, job, start);
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.inner
            .as_ref()
            .map_or(0, |i| i.spans.lock().expect("trace lock").len())
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let spans = inner.spans.lock().expect("trace lock");
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let job = s.job.map_or("null".to_string(), |j| j.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\"parent\":{},\"job\":{job}}}\n",
                s.id, s.name, s.start_us, s.end_us, s.parent
            ));
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_records_nested_spans() {
        let off = Tracer::off();
        assert_eq!(off.span("x", 0, None, || 3), 3);
        assert_eq!(off.len(), 0);
        assert_eq!(off.reserve(), 0);

        let t = Tracer::on();
        let parent = t.reserve();
        let start = Instant::now();
        let v = t.span("child", parent, Some(7), || 5);
        t.close(parent, "parent", 0, None, start);
        assert_eq!(v, 5);
        assert_eq!(t.len(), 2);
        let path =
            std::env::temp_dir().join(format!("e2ebench-trace-{}.jsonl", std::process::id()));
        t.write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"child\"") && lines[0].contains("\"job\":7"));
        assert!(lines[1].contains("\"name\":\"parent\"") && lines[1].contains("\"parent\":0"));
    }
}
