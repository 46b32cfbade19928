//! In-memory span recorder for the traced run.
//!
//! The benchmark opens a span around every call it makes into a layer's public
//! function, so each span is timed from outside the layer. Spans stay in
//! memory until the run ends; [`Tracer::write_jsonl`] then writes them out.
//! With tracing off, [`Tracer::open`] and [`Tracer::close`] do nothing, so
//! the untraced run pays no recording cost.

use std::io::Write as _;
use std::time::Instant;

/// Op id carried by spans that belong to no op (setup).
pub const NO_OP: u64 = u64::MAX;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called, e.g. `Session::run`.
    pub name: &'static str,
    /// Qualifier, e.g. the engine the call ran on (empty if none).
    pub tag: &'static str,
    /// The op this span belongs to, or [`NO_OP`].
    pub op: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[must_use]
pub struct Open(Option<usize>);

/// The recorder.
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; with `on == false` every call is a no-op.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, tag: &'static str, op: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            tag,
            op,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Close a span opened by [`Tracer::open`]; spans close innermost first.
    pub fn close(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Time `f` as a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.open(name, tag, op);
        let r = f();
        self.close(s);
        r
    }

    /// Every closed span, in open order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of the spans called `name`, optionally only those
    /// tagged `tag`, in open order.
    pub fn durations(&self, name: &str, tag: Option<&str>) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && tag.is_none_or(|t| s.tag == t))
            .map(Span::dur_ns)
            .collect()
    }

    /// Self time (ns) of every span called `name`: its duration minus the
    /// durations of its direct children.
    pub fn self_times(&self, name: &str) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| s.dur_ns() - c)
            .collect()
    }

    /// Host cost of recording one span, measured by recording `n` throwaway
    /// spans into a scratch tracer.
    pub fn cost_per_span_ns(n: u32) -> f64 {
        let mut t = Tracer::new(true);
        let start = Instant::now();
        for i in 0..n {
            let s = t.open("probe", "", u64::from(i));
            t.close(s);
        }
        let ns = start.elapsed().as_nanos() as f64;
        std::hint::black_box(t.spans.len());
        ns / f64::from(n.max(1))
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let op = if s.op == NO_OP {
                "null".to_owned()
            } else {
                s.op.to_string()
            };
            writeln!(
                w,
                "{{\"id\":{i},\"name\":\"{}\",\"tag\":\"{}\",\"op\":{op},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.tag, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let mut t = Tracer::new(true);
        let op = t.open("op", "", 0);
        let a = t.open("child", "x", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.close(a);
        t.close(op);
        let s = &t.spans()[0];
        let c = &t.spans()[1];
        assert_eq!(c.parent, Some(0));
        assert_eq!(t.self_times("op"), vec![s.dur_ns() - c.dur_ns()]);
        assert_eq!(t.durations("child", Some("x")).len(), 1);
        assert!(t.durations("child", Some("y")).is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("op", "", 0, || 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
