//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, timed from outside: name, start, end,
//! the span that caused it, and a request id. Spans stay in memory while
//! the traced pass runs and are written out as JSON lines afterwards. A
//! layer's self time is its duration minus the time its child spans cover
//! (children never overlap: the traced pass is single-threaded).

use std::io::Write;
use std::time::Instant;

/// Request id: history index (batch) or session id plus request number
/// (stream).
pub type ReqId = (u64, u32);

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub req: ReqId,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    /// A disabled tracer records nothing, so one code path serves the
    /// untraced baseline and the traced run.
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new()
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, req: ReqId) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if self.enabled {
            self.spans[id].end = self.now();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: ReqId,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// Self time of every span, indexed like `spans`.
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.duration());
            }
        }
        own
    }

    /// Total self time of the spans named `name`.
    pub fn self_ns(&self, self_times: &[u64], name: &str) -> u64 {
        self.spans
            .iter()
            .zip(self_times)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &t)| t)
            .sum()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let self_times = self.self_times();
        for (i, (s, own)) in self.spans.iter().zip(&self_times).enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own},\"parent\":{parent},\"req\":\"{}.{}\"}}",
                s.name, s.start, s.end, s.req.0, s.req.1
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let root = t.open("root", None, (0, 0));
        let child = t.open("child", Some(root), (0, 0));
        t.close(child);
        t.close(root);
        t.spans[root].start = 0;
        t.spans[root].end = 100;
        t.spans[child].start = 10;
        t.spans[child].end = 40;
        let own = t.self_times();
        assert_eq!(own, vec![70, 30]);
        assert_eq!(t.self_ns(&own, "child"), 30);
    }
}
