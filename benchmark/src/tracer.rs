//! In-memory spans recorded around each public call the traced pass makes.
//!
//! The traced pass is serial, so spans nest strictly: a span's children
//! never overlap, and its self time is its duration minus theirs.

use std::sync::Mutex;
use std::time::Instant;

/// One recorded call.
#[derive(Debug)]
pub struct Span {
    /// `layer.call`, e.g. `svc.decode` or `net.run`.
    pub name: &'static str,
    /// Seconds since the tracer started.
    pub start: f64,
    /// Seconds since the tracer started.
    pub end: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The job the call belongs to (its index in the workload's pass).
    pub job: usize,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// Records spans; shareable across the sweep's closures.
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: crate::now(),
            state: Mutex::new(State::default()),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &'static str, job: usize, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut state = self
                .state
                .lock()
                .expect("tracer lock poisoned by a panicking span");
            let id = state.spans.len();
            let parent = state.open.last().copied();
            let start = self.origin.elapsed().as_secs_f64();
            state.spans.push(Span {
                name,
                start,
                end: start,
                parent,
                job,
            });
            state.open.push(id);
            id
        };
        let out = f();
        let mut state = self
            .state
            .lock()
            .expect("tracer lock poisoned by a panicking span");
        state.spans[id].end = self.origin.elapsed().as_secs_f64();
        let closed = state.open.pop();
        assert_eq!(
            closed,
            Some(id),
            "spans must nest: the traced pass is serial"
        );
        out
    }

    /// The recorded spans, in start order.
    pub fn into_spans(self) -> Vec<Span> {
        self.state
            .into_inner()
            .expect("tracer lock poisoned by a panicking span")
            .spans
    }
}

/// Self time of every span: its duration minus its children's.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::secs).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] -= span.secs();
        }
    }
    own
}
