//! The traced run must measure the same program as the untraced one:
//! wrapping the operator and preconditioner in span recorders may not
//! change a single bit of a solution, an iteration count, or the
//! messages and bytes the ranks exchange. In particular the wrapper must
//! forward `MultiLinOp::apply_mv`; the trait's default would silently
//! fall back to one `apply` per column.

use std::time::Instant;

use hymv_comm::{Comm, Universe};
use hymv_core::system::BuildOptions;
use hymv_core::{FemSystem, HymvOperator, Method};
use hymv_la::{Identity, Jacobi, LinOp};
use hymv_serve::{BatchPolicy, SolveService};
use perfbench::common::RANKS;
use perfbench::serve;
use perfbench::solve::{self, SolveSpec, ELAST_HEX20, POISSON_HEX8};
use perfbench::tracer::{self, Span, Tracer};

/// Solutions, iteration counts, messages and bytes sent by this rank,
/// and the recorded spans (empty when bare).
type Run = (Vec<Vec<f64>>, Vec<usize>, u64, u64, Vec<Span>);

fn count(spans: &[Span], name: &str) -> usize {
    spans.iter().filter(|s| s.name == name).count()
}

fn assert_same(bare: &Run, wrapped: &Run) {
    assert_eq!(bare.0, wrapped.0, "solutions differ");
    assert_eq!(bare.1, wrapped.1, "iteration counts differ");
    assert_eq!(bare.2, wrapped.2, "message counts differ");
    assert_eq!(bare.3, wrapped.3, "byte counts differ");
    assert!(bare.4.is_empty());
}

fn cg_run(comm: &mut Comm, sys: &mut FemSystem, traced: bool) -> Run {
    let t = Tracer::new(Instant::now());
    let tr = traced.then_some(&t);
    let mut pc = Jacobi::new(&sys.diag);
    let b = sys.rhs.clone();
    let mut x = vec![0.0; sys.n_owned()];
    let s0 = comm.stats();
    let res = solve::solve(comm, tr, &mut sys.op, &mut pc, &b, &mut x);
    let s1 = comm.stats();
    assert!(res.converged);
    let spans = if traced { t.into_spans() } else { Vec::new() };
    (
        vec![x],
        vec![res.iterations],
        s1.msgs_sent - s0.msgs_sent,
        s1.bytes_sent - s0.bytes_sent,
        spans,
    )
}

#[test]
fn wrapped_cg_solves_match_bare_ones() {
    for spec in [
        SolveSpec {
            n: 6,
            ..POISSON_HEX8
        },
        SolveSpec {
            n: 3,
            ..ELAST_HEX20
        },
    ] {
        let parts = spec.partitions(11);
        Universe::run(RANKS, |comm| {
            let mut sys = FemSystem::build(
                comm,
                &parts[comm.rank()],
                spec.kernel(),
                &spec.dirichlet(),
                BuildOptions::new(Method::Hymv),
            );
            let bare = cg_run(comm, &mut sys, false);
            let wrapped = cg_run(comm, &mut sys, true);
            assert_same(&bare, &wrapped);
            let spans = &wrapped.4;
            assert_eq!(count(spans, "solver::cg"), 1);
            assert_eq!(count(spans, "LinOp::apply"), wrapped.1[0] + 1);
            assert_eq!(count(spans, "Precond::apply"), wrapped.1[0] + 1);
        });
    }
}

fn service_run(comm: &mut Comm, so: &mut serve::ServeOp, traced: bool) -> Run {
    let t = Tracer::new(Instant::now());
    let tr = traced.then_some(&t);
    let mut pc = Jacobi::new(&so.diag);
    let constrained = so.op.constrained().to_vec();
    let node_range = so.node_range;
    let s0 = comm.stats();
    let outs = tracer::with_multi(tr, &mut so.op, &mut pc, |op, pc| {
        let policy = BatchPolicy {
            max_width: 4,
            deadline_s: 1e-3,
        };
        let mut svc = SolveService::new(op, pc, serve::RTOL, 2_000, policy);
        for id in 0..6 {
            svc.submit(comm, serve::load(5, id, node_range, &constrained));
        }
        svc.flush(comm)
    });
    let s1 = comm.stats();
    assert!(outs.iter().all(|o| o.converged && o.fault.is_none()));
    let spans = if traced { t.into_spans() } else { Vec::new() };
    (
        outs.iter().map(|o| o.x.clone()).collect(),
        outs.iter().map(|o| o.iterations).collect(),
        s1.msgs_sent - s0.msgs_sent,
        s1.bytes_sent - s0.bytes_sent,
        spans,
    )
}

#[test]
fn wrapped_service_batches_match_bare_ones() {
    let parts = serve::partitions(6, 12);
    Universe::run(RANKS, |comm| {
        let mut so = serve::setup(comm, None, &parts[comm.rank()]);
        let bare = service_run(comm, &mut so, false);
        let wrapped = service_run(comm, &mut so, true);
        assert_same(&bare, &wrapped);
        // Widths 4 and 2: both batches went through the SpMM path.
        let spans = &wrapped.4;
        assert!(count(spans, "MultiLinOp::apply_mv") > 0);
        assert_eq!(
            count(spans, "LinOp::apply"),
            0,
            "apply_mv was not forwarded"
        );
    });
}

#[test]
fn wrapped_adaptive_applies_match_bare_ones() {
    let parts = perfbench::adaptive::partitions(4, 13);
    Universe::run(RANKS, |comm| {
        let part = &parts[comm.rank()];
        let kernel = hymv_fem::PoissonKernel::new(hymv_mesh::ElementType::Hex8);
        let run = |comm: &mut Comm, traced: bool| -> Run {
            let t = Tracer::new(Instant::now());
            let tr = traced.then_some(&t);
            let (mut op, _) = HymvOperator::setup(comm, part, &kernel);
            for e in (0..part.n_elems()).step_by(3) {
                op.ke_mut(e).iter_mut().for_each(|v| *v *= 0.5);
            }
            let x: Vec<f64> = (0..op.n_owned()).map(|i| (i % 7) as f64 - 3.0).collect();
            let mut y = vec![0.0; op.n_owned()];
            let s0 = comm.stats();
            tracer::with_linop(tr, &mut op, &mut Identity, |op, _| {
                for _ in 0..3 {
                    op.apply(comm, &x, &mut y);
                }
            });
            let s1 = comm.stats();
            let spans = if traced { t.into_spans() } else { Vec::new() };
            (
                vec![y],
                vec![],
                s1.msgs_sent - s0.msgs_sent,
                s1.bytes_sent - s0.bytes_sent,
                spans,
            )
        };
        let bare = run(comm, false);
        let wrapped = run(comm, true);
        assert_same(&bare, &wrapped);
        assert_eq!(count(&wrapped.4, "LinOp::apply"), 3);
    });
}
