//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent and the id of the
//! operation it belongs to. Spans are kept in memory while the benchmark
//! runs, written out once at the end, and reduced to per-layer self time:
//! a span's duration minus the part of it its children cover.
//!
//! An untraced run holds a disabled tracer: every call is a branch on a
//! flag and records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<usize>,
    /// The operation (one loop iteration or one set-up step) it serves.
    pub op: u64,
    /// Layer-qualified name, e.g. `stss.query`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start: u64,
    /// End, nanoseconds since the trace began.
    pub end: u64,
}

thread_local! {
    /// Open spans of the current thread, innermost last.
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

/// The span recorder; disabled tracers record nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records iff `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` of operation `op`. The parent
    /// is the innermost span open on this thread, or `parent` when the
    /// call runs on another thread than the span that caused it.
    pub fn span_in<T>(
        &self,
        op: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let parent = STACK.with(|s| s.borrow().last().copied()).or(parent);
        let id = {
            let mut spans = self.spans.lock().expect("span list poisoned");
            let id = spans.len();
            spans.push(Span {
                id,
                parent,
                op,
                name,
                start: self.now(),
                end: 0,
            });
            id
        };
        STACK.with(|s| s.borrow_mut().push(id));
        let out = f();
        STACK.with(|s| s.borrow_mut().pop());
        let end = self.now();
        self.spans.lock().expect("span list poisoned")[id].end = end;
        out
    }

    /// [`span_in`](Self::span_in) with the parent taken from this thread.
    pub fn span<T>(&self, op: u64, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span_in(op, name, None, f)
    }

    /// The innermost span open on this thread (to hand to work that runs
    /// on other threads).
    pub fn current(&self) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        STACK.with(|s| s.borrow().last().copied())
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.op, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }
}

/// Per-name totals derived from a trace.
#[derive(Debug, Default, Clone, Copy)]
pub struct NameTotals {
    /// Spans with this name.
    pub count: u64,
    /// Summed span durations, nanoseconds.
    pub total_ns: u64,
    /// Summed self time: duration minus the union of the children's
    /// intervals, nanoseconds.
    pub self_ns: u64,
}

/// Reduces spans to per-name totals and self times.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let kids = &mut children[s.id];
        kids.sort_unstable();
        // Union of the child intervals, clipped to the parent.
        let mut covered = 0u64;
        let mut reach = s.start;
        for &(a, b) in kids.iter() {
            let (a, b) = (a.max(reach), b.min(s.end));
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            Span {
                id: 0,
                parent: None,
                op: 0,
                name: "a",
                start: 0,
                end: 100,
            },
            Span {
                id: 1,
                parent: Some(0),
                op: 0,
                name: "b",
                start: 10,
                end: 40,
            },
            // Overlaps the first child (another thread).
            Span {
                id: 2,
                parent: Some(0),
                op: 0,
                name: "b",
                start: 30,
                end: 60,
            },
        ];
        let t = totals(&spans);
        assert_eq!(t["a"].self_ns, 50);
        assert_eq!(t["b"].count, 2);
        assert_eq!(t["b"].self_ns, 60);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let tr = Tracer::new(true);
        tr.span(7, "outer", || tr.span(7, "inner", || ()));
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7 && s.end >= s.start));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        assert_eq!(tr.span(1, "x", || 5), 5);
        assert!(tr.spans().is_empty());
    }
}
