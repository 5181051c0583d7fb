//! The serving workload times every request from when it was due. A
//! batch that stalls the service delays the submission of requests that
//! fall due meanwhile; their latency must include that stall, and the
//! generator's lateness must show.

use hymv_comm::{Comm, Universe};
use hymv_la::{Jacobi, LinOp, MultiLinOp, Multivector};
use hymv_serve::{BatchPolicy, SolveService};
use perfbench::common::RANKS;
use perfbench::serve;
use perfbench::stats::{quantile, sorted};

/// Forwards to the real operator but charges `stall_s` virtual seconds
/// on its `at`-th multivector apply, recording when the stall ran.
struct Stall<'a, O> {
    inner: &'a mut O,
    calls: usize,
    at: usize,
    stall_s: f64,
    window: Option<(f64, f64)>,
}

impl<O: LinOp> LinOp for Stall<'_, O> {
    fn n_owned(&self) -> usize {
        self.inner.n_owned()
    }
    fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.inner.apply(comm, x, y);
    }
}

impl<O: MultiLinOp> MultiLinOp for Stall<'_, O> {
    fn apply_mv(&mut self, comm: &mut Comm, x: &Multivector, y: &mut Multivector) {
        self.calls += 1;
        if self.calls == self.at {
            let t0 = comm.vt();
            comm.add_modeled_time(self.stall_s);
            self.window = Some((t0, comm.vt()));
        }
        self.inner.apply_mv(comm, x, y);
    }
}

#[test]
fn latency_counts_from_due_time_through_a_stall() {
    let parts = serve::partitions(5, 21);
    let stall_s = 0.05;
    let out = Universe::run(RANKS, |comm| {
        let mut so = serve::setup(comm, None, &parts[comm.rank()]);
        let constrained = so.op.constrained().to_vec();
        let node_range = so.node_range;
        let make_rhs = |id: u64| serve::load(9, id, node_range, &constrained);
        let mut pc = Jacobi::new(&so.diag);
        let mut op = Stall {
            inner: &mut so.op,
            calls: 0,
            at: 40,
            stall_s,
            window: None,
        };
        let policy = BatchPolicy {
            max_width: 8,
            deadline_s: 1e-3,
        };
        let stream = {
            let mut svc = SolveService::new(&mut op, &mut pc, serve::RTOL, 2_000, policy);
            let arrivals = serve::Arrivals {
                seed: 3,
                rate: 400.0,
                deadline_s: 1e-3,
                keep_every: 1,
            };
            serve::open_loop(comm, None, &mut svc, arrivals, &make_rhs, |_, n| n < 80)
        };
        (stream, op.window.expect("the stall ran"))
    });
    let (stream, (t0, t1)) = &out[0];
    assert_eq!(stream.latency_s.len(), 80);
    assert_eq!(stream.failed_requests, 0);

    let during: Vec<usize> = (0..stream.due_s.len())
        .filter(|&k| stream.due_s[k] >= *t0 && stream.due_s[k] < *t1)
        .collect();
    assert!(
        during.len() >= 5,
        "only {} requests fell due in the stall",
        during.len()
    );
    for &k in &during {
        // Not submittable before the stall ended: the generator ran late,
        // and the request's latency carries the rest of the stall.
        assert!(stream.gen_lag_s[k] >= t1 - stream.due_s[k]);
        assert!(stream.latency_s[k] >= t1 - stream.due_s[k]);
    }
    let lag = sorted(&stream.gen_lag_s);
    assert!(
        quantile(&lag, 0.99) > 0.0,
        "serve.gen_lag_ms_p99 must be positive"
    );
}
