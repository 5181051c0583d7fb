//! Benchmark-side tracing: wall-clock spans around the public calls the
//! benchmark makes into the library, and wrappers that put spans around
//! every operator and preconditioner application the solvers make.
//!
//! Nothing here reaches inside the library: a layer is timed from the
//! outside, at the call boundary. Spans are kept in memory per rank and
//! written out when the run ends.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use hymv_comm::Comm;
use hymv_la::{LinOp, MultiLinOp, Multivector, Precond};

/// One closed span: wall seconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// The public call the span brackets, e.g. `LinOp::apply`.
    pub name: &'static str,
    /// Start, seconds since the epoch.
    pub start: f64,
    /// End, seconds since the epoch.
    pub end: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// A size attached to the call (multivector width, elements written).
    pub arg: u64,
}

impl Span {
    /// Wall seconds the span covers.
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

/// One rank's span recorder. Single-threaded: each rank thread owns one.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A recorder stamping spans relative to `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Run `f` inside a span named `name`; spans opened inside `f` become
    /// its children.
    pub fn span<R>(&self, name: &'static str, arg: u64, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start: self.epoch.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent: self.open.borrow().last().copied(),
                arg,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// The recorded spans, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans.into_inner()
    }
}

/// [`Tracer::span`] when tracing is on, a plain call when it is off.
pub fn span<R>(tr: Option<&Tracer>, name: &'static str, arg: u64, f: impl FnOnce() -> R) -> R {
    match tr {
        Some(t) => t.span(name, arg, f),
        None => f(),
    }
}

/// Per-span self time: duration minus the durations of direct children.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::dur).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.dur();
        }
    }
    own
}

/// Durations of every span named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur)
        .collect()
}

/// Total duration of spans named `child` whose direct parent is named
/// `parent`.
pub fn child_total(spans: &[Span], parent: &str, child: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == child && s.parent.is_some_and(|p| spans[p].name == parent))
        .map(Span::dur)
        .sum()
}

/// Total self time of spans named `name`.
pub fn self_total(spans: &[Span], name: &str) -> f64 {
    self_times(spans)
        .iter()
        .zip(spans)
        .filter(|(_, s)| s.name == name)
        .map(|(t, _)| t)
        .sum()
}

/// Write spans as JSON lines: `{"rank":..,"id":..,"name":..,"start_s":..,
/// "end_s":..,"parent":..,"arg":..}`.
pub fn write_jsonl(path: &Path, rank: usize, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"rank\":{rank},\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent},\"arg\":{}}}",
            s.name, s.start, s.end, s.arg
        )?;
    }
    w.flush()
}

/// An operator that records a span around every application and
/// forwards everything else, `apply_mv` included, to the wrapped one.
pub struct TracedOp<'a, O: ?Sized> {
    inner: &'a mut O,
    tr: &'a Tracer,
}

impl<'a, O: ?Sized> TracedOp<'a, O> {
    /// Wrap `inner`, recording into `tr`.
    pub fn new(inner: &'a mut O, tr: &'a Tracer) -> Self {
        TracedOp { inner, tr }
    }
}

impl<O: LinOp + ?Sized> LinOp for TracedOp<'_, O> {
    fn n_owned(&self) -> usize {
        self.inner.n_owned()
    }
    fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        let inner = &mut *self.inner;
        self.tr.span("LinOp::apply", 1, || inner.apply(comm, x, y));
    }
    fn flops_per_apply(&self) -> u64 {
        self.inner.flops_per_apply()
    }
    fn storage_bytes(&self) -> usize {
        self.inner.storage_bytes()
    }
    fn repair(&mut self, comm: &mut Comm, dead: &[usize]) {
        self.inner.repair(comm, dead);
    }
}

impl<O: MultiLinOp + ?Sized> MultiLinOp for TracedOp<'_, O> {
    fn apply_mv(&mut self, comm: &mut Comm, x: &Multivector, y: &mut Multivector) {
        let inner = &mut *self.inner;
        self.tr.span("MultiLinOp::apply_mv", x.nvec() as u64, || {
            inner.apply_mv(comm, x, y)
        });
    }
}

/// A preconditioner that records a span around every application.
pub struct TracedPrecond<'a, P: ?Sized> {
    inner: &'a mut P,
    tr: &'a Tracer,
}

impl<'a, P: ?Sized> TracedPrecond<'a, P> {
    /// Wrap `inner`, recording into `tr`.
    pub fn new(inner: &'a mut P, tr: &'a Tracer) -> Self {
        TracedPrecond { inner, tr }
    }
}

impl<P: Precond + ?Sized> Precond for TracedPrecond<'_, P> {
    fn apply(&mut self, comm: &mut Comm, r: &[f64], z: &mut [f64]) {
        let inner = &mut *self.inner;
        self.tr
            .span("Precond::apply", 1, || inner.apply(comm, r, z));
    }
}

/// Hand `f` the operator and preconditioner, wrapped when tracing is on.
pub fn with_linop<R>(
    tr: Option<&Tracer>,
    op: &mut dyn LinOp,
    pc: &mut dyn Precond,
    f: impl FnOnce(&mut dyn LinOp, &mut dyn Precond) -> R,
) -> R {
    match tr {
        Some(t) => f(&mut TracedOp::new(op, t), &mut TracedPrecond::new(pc, t)),
        None => f(op, pc),
    }
}

/// [`with_linop`] for a multivector operator.
pub fn with_multi<R>(
    tr: Option<&Tracer>,
    op: &mut dyn MultiLinOp,
    pc: &mut dyn Precond,
    f: impl FnOnce(&mut dyn MultiLinOp, &mut dyn Precond) -> R,
) -> R {
    match tr {
        Some(t) => f(&mut TracedOp::new(op, t), &mut TracedPrecond::new(pc, t)),
        None => f(op, pc),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let t = Tracer::new(Instant::now());
        t.span("outer", 0, || {
            t.span("inner", 0, || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", 0, || ());
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        let own = self_times(&spans);
        let inner: f64 = durations(&spans, "inner").iter().sum();
        assert!((own[0] - (spans[0].dur() - inner)).abs() < 1e-12);
        assert!(child_total(&spans, "outer", "inner") >= 0.005);
    }
}
