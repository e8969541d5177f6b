//! The benchmark's own spans: pass → operation → layer call.
//!
//! Spans are recorded around calls *into* the simulator's public
//! functions, kept in memory, and written out once at exit. Nothing inside
//! the simulator is instrumented. Times are on the process CPU clock
//! ([`CpuTimer`]), as every time the benchmark reports.

use std::fmt::Write as _;

use crate::host::CpuTimer;

/// One timed interval. `parent` is the span that was open when this one
/// began; a pass has none.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of this span in the trace.
    pub id: usize,
    /// Enclosing span.
    pub parent: Option<usize>,
    /// What was called (`pass`, `op`, or a layer call such as
    /// `core.run_parallel`).
    pub name: &'static str,
    /// Workload the span belongs to.
    pub workload: &'static str,
    /// Operation within the workload (empty for a pass).
    pub op: String,
    /// Start, ns of process CPU time since the tracer was created.
    pub start_ns: u64,
    /// End, ns of process CPU time since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Length of the interval in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// In-memory span recorder for one process.
#[derive(Debug)]
pub struct Tracer {
    epoch: CpuTimer,
    open: Vec<usize>,
    /// Workload stamped on every span entered from now on.
    pub workload: &'static str,
    /// Every span entered so far, in entry order (`spans[i].id == i`).
    pub spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: CpuTimer::start(),
            open: Vec::new(),
            workload: "",
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        (self.epoch.secs() * 1e9) as u64
    }

    /// Open a span under the innermost open one; returns its id for
    /// [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, op: &str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            workload: self.workload,
            op: op.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, and any span still open inside it (a caught panic
    /// skips their exits).
    pub fn exit(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                return;
            }
        }
        panic!("Tracer::exit: span {id} is not open");
    }

    /// One JSON object per line:
    /// `{id, parent, name, workload, op, start_ns, end_ns}`.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Names, workloads and ops are drawn from [A-Za-z0-9_.-]: no
            // JSON escaping is needed.
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"workload\":\"{}\",\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.name, s.workload, s.op, s.start_ns, s.end_ns
            )
            .expect("write to String");
        }
        out
    }
}

/// Self time of span `id` in seconds: its duration minus the part its
/// direct children cover. Children of one span never overlap (one thread
/// records them in sequence), so the covered part is their sum.
pub fn self_secs(spans: &[Span], id: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(Span::secs)
        .sum();
    spans[id].secs() - children
}

/// Share of span `root`'s duration spent in no leaf: the self time of
/// `root` and of every descendant that has children of its own, over the
/// root's duration. With pass → operation → layer call, this is the wall
/// time of a pass that no layer call accounts for.
pub fn unattributed_frac(spans: &[Span], root: usize) -> f64 {
    let mut inside = vec![false; spans.len()];
    let mut has_child = vec![false; spans.len()];
    inside[root] = true;
    // Parents precede children, so one forward sweep marks the subtree.
    for s in &spans[root + 1..] {
        if let Some(p) = s.parent.filter(|&p| inside[p]) {
            inside[s.id] = true;
            has_child[p] = true;
        }
    }
    let own: f64 = spans
        .iter()
        .filter(|s| inside[s.id] && has_child[s.id])
        .map(|s| self_secs(spans, s.id))
        .sum();
    crate::stats::ratio(own, spans[root].secs())
}

/// Run `f` under a leaf span when tracing, and bare when not.
pub fn leaf<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    op: &str,
    f: impl FnOnce() -> T,
) -> T {
    let id = tracer.as_mut().map(|t| t.enter(name, op));
    let out = f();
    if let (Some(t), Some(id)) = (tracer.as_mut(), id) {
        t.exit(id);
    }
    out
}
