//! In-memory spans for the traced run.
//!
//! Each thread keeps a stack of open spans; a span opened on a thread is the
//! child of the innermost span open there. Completed spans go into one list
//! that is written out when the run ends. A span's self time is its duration
//! minus the part of its interval that its children cover.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;
use synrd_store::JsonValue;

/// One completed span. Times are seconds since the tracer was created.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Sub-key within a layer, e.g. the synthesizer of a fit ("" when none).
    pub label: &'static str,
    /// The cell or request the span belongs to.
    pub scope: u64,
    pub thread: u64,
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    label: &'static str,
    scope: u64,
    start: f64,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<Open>> = const { RefCell::new(Vec::new()) };
    static THREAD_NO: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans from every thread of one run.
pub struct Tracer {
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            origin: Instant::now(),
            next_id: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Open a span on this thread as a child of the innermost open one, with
    /// `scope` defaulting to the parent's when `None`.
    pub fn open(&self, name: &'static str, label: &'static str, scope: Option<u64>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let parent = stack.last();
            let scope = scope.or(parent.map(|p| p.scope)).unwrap_or(0);
            let parent = parent.map(|p| p.id);
            stack.push(Open {
                id,
                parent,
                name,
                label,
                scope,
                start,
            });
        });
    }

    /// Close the innermost open span named `name` on this thread together
    /// with every span opened above it. Returns whether one was open.
    pub fn close(&self, name: &str) -> bool {
        self.close_from(name, 0)
    }

    /// Close every span opened above the innermost open `name`.
    pub fn close_above(&self, name: &str) {
        self.close_from(name, 1);
    }

    fn close_from(&self, name: &str, keep: usize) -> bool {
        let end = self.now();
        let closed: Vec<Open> = STACK.with(|s| {
            let mut stack = s.borrow_mut();
            match stack.iter().rposition(|o| o.name == name) {
                Some(at) => stack.split_off(at + keep),
                None => Vec::new(),
            }
        });
        let found = keep == 1 || !closed.is_empty();
        let thread = THREAD_NO.with(|t| *t);
        let mut spans = self.spans.lock().expect("span list poisoned");
        for o in closed {
            spans.push(Span {
                id: o.id,
                parent: o.parent,
                name: o.name,
                label: o.label,
                scope: o.scope,
                thread,
                start: o.start,
                end,
            });
        }
        found
    }

    /// Whether a span named `name` is open on this thread.
    #[cfg(test)]
    pub fn is_open(&self, name: &str) -> bool {
        STACK.with(|s| s.borrow().iter().any(|o| o.name == name))
    }

    /// Every completed span, in completion order.
    pub fn finish(self) -> Vec<Span> {
        self.spans.into_inner().expect("span list poisoned")
    }
}

/// Self time of every span, by id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0.0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut reach = s.start;
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(s.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
            }
            (s.id, (s.duration() - covered).max(0.0))
        })
        .collect()
}

/// Sum of durations of the spans named `name`.
pub fn total(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .sum()
}

/// Sum of self times of the spans named `name`.
pub fn total_self(spans: &[Span], selfs: &HashMap<u64, f64>, name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id])
        .sum()
}

/// Number of spans named `name`.
pub fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

/// Longest span named `name` (0 when there is none).
pub fn longest(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration)
        .fold(0.0, f64::max)
}

/// Write spans as JSON lines, one object per span.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = JsonValue::obj(vec![
            ("id", JsonValue::Uint(s.id)),
            ("parent", s.parent.map_or(JsonValue::Null, JsonValue::Uint)),
            ("name", JsonValue::Str(s.name.to_string())),
            ("label", JsonValue::Str(s.label.to_string())),
            ("scope", JsonValue::Uint(s.scope)),
            ("thread", JsonValue::Uint(s.thread)),
            ("start_s", JsonValue::Num(s.start)),
            ("end_s", JsonValue::Num(s.end)),
        ]);
        writeln!(out, "{}", line.to_text())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            label: "",
            scope: 0,
            thread: 0,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        // 0: [0, 10] with children 1: [1, 4] and 2: [3, 6] (overlapping, so
        // together they cover [1, 6]) and 3: [9, 12] (clipped to [9, 10]).
        // 1 has a grandchild 4: [2, 3], which must not reach 0's self time.
        let spans = vec![
            span(0, None, 0.0, 10.0),
            span(1, Some(0), 1.0, 4.0),
            span(2, Some(0), 3.0, 6.0),
            span(3, Some(0), 9.0, 12.0),
            span(4, Some(1), 2.0, 3.0),
        ];
        let selfs = self_times(&spans);
        assert!((selfs[&0] - 4.0).abs() < 1e-12, "{}", selfs[&0]);
        assert!((selfs[&1] - 2.0).abs() < 1e-12);
        assert!((selfs[&2] - 3.0).abs() < 1e-12);
        assert!((selfs[&4] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stack_nests_and_closes_everything_above() {
        let tracer = Tracer::default();
        tracer.open("cell", "", Some(7));
        tracer.open("fit", "AIM", None);
        assert!(tracer.is_open("fit"));
        tracer.close_above("cell");
        assert!(!tracer.is_open("fit"));
        tracer.open("draw", "", None);
        tracer.open("eval", "", None);
        assert!(tracer.close("cell"));
        assert!(!tracer.close("cell"));
        let spans = tracer.finish();
        let by_name = |n: &str| spans.iter().find(|s| s.name == n).expect("span");
        let cell = by_name("cell");
        assert_eq!(cell.parent, None);
        assert_eq!(by_name("fit").parent, Some(cell.id));
        assert_eq!(by_name("draw").parent, Some(cell.id));
        assert_eq!(by_name("eval").parent, Some(by_name("draw").id));
        assert!(spans.iter().all(|s| s.scope == 7 && s.end >= s.start));
    }
}
