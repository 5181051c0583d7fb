//! Workloads `elast-hex20-solve` and `poisson-hex8-solve`: build a FEM
//! system on a jittered hexahedral mesh, solve it repeatedly with
//! Jacobi-preconditioned CG, then time direct operator applies.

use std::sync::Arc;
use std::time::Instant;

use hymv_comm::{Comm, Universe};
use hymv_core::system::BuildOptions;
use hymv_core::{FemSystem, HymvOperator, Method};
use hymv_fem::analytic::{BarProblem, PoissonProblem};
use hymv_fem::dirichlet::DirichletSpec;
use hymv_fem::{ElasticityKernel, ElementKernel, PoissonKernel};
use hymv_la::solver::{cg, CgResult};
use hymv_la::{Jacobi, LinOp, Precond};
use hymv_mesh::partition::{partition_mesh, PartitionMethod};
use hymv_mesh::{unstructured_hex_mesh, ElementType, MeshPartition};

use crate::common::{self, ApplyBlock, OpFacts, RunCfg, Samples, RANKS};
use crate::host;
use crate::report::Report;
use crate::stats::{median, Summary};
use crate::tracer::{self, span, Span, Tracer};

/// CG relative-residual tolerance of every solve.
pub const RTOL: f64 = 1e-8;
const MAX_ITER: usize = 20_000;
/// Mesh jitter, as a fraction of the element size.
const JITTER: f64 = 0.2;

/// Which manufactured problem a solve workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Physics {
    /// The self-weight elastic bar (`BarProblem`), 3 dofs per node.
    Bar,
    /// The sine-forced Poisson problem, 1 dof per node.
    Poisson,
}

/// One solve workload.
#[derive(Debug, Clone, Copy)]
pub struct SolveSpec {
    /// Element type of the mesh.
    pub elem: ElementType,
    /// Elements per mesh edge.
    pub n: usize,
    /// Manufactured problem.
    pub physics: Physics,
    /// Eigenvector-trap guard: a solve taking fewer CG iterations than
    /// this measures nothing and fails the run (on a uniform grid the
    /// sine load is a discrete eigenvector and CG stops after one).
    pub min_iters: usize,
    /// Largest accepted ∞-norm error against the analytic solution.
    pub err_tol: f64,
    /// `FemSystem::build` calls per run (`setup_s` is their median).
    pub setups: usize,
    /// Share of each round spent on the solve; the rest on applies.
    pub solve_share: f64,
}

/// `elast-hex20-solve`: EMV- and slab-streaming-bound.
pub const ELAST_HEX20: SolveSpec = SolveSpec {
    elem: ElementType::Hex20,
    n: 14,
    physics: Physics::Bar,
    min_iters: 50,
    err_tol: 1e-4,
    setups: 5,
    solve_share: 0.75,
};

/// `poisson-hex8-solve`: exchange-, reduction- and vector-op-heavy.
pub const POISSON_HEX8: SolveSpec = SolveSpec {
    elem: ElementType::Hex8,
    n: 40,
    physics: Physics::Poisson,
    min_iters: 20,
    err_tol: 2e-4,
    setups: 7,
    solve_share: 0.6,
};

impl SolveSpec {
    /// The element kernel of the workload's problem.
    pub fn kernel(&self) -> Arc<dyn ElementKernel> {
        match self.physics {
            Physics::Bar => {
                let bar = BarProblem::default_unit();
                Arc::new(ElasticityKernel::new(
                    self.elem,
                    bar.young,
                    bar.poisson,
                    bar.body_force(),
                ))
            }
            Physics::Poisson => {
                Arc::new(PoissonKernel::with_body(self.elem, PoissonProblem::body()))
            }
        }
    }

    /// The workload's Dirichlet conditions.
    pub fn dirichlet(&self) -> DirichletSpec {
        match self.physics {
            Physics::Bar => BarProblem::default_unit().dirichlet(),
            Physics::Poisson => PoissonProblem::dirichlet(),
        }
    }

    fn exact(&self, x: [f64; 3]) -> Vec<f64> {
        match self.physics {
            Physics::Bar => BarProblem::default_unit().exact(x).to_vec(),
            Physics::Poisson => vec![PoissonProblem::exact(x)],
        }
    }

    /// The jittered mesh for `seed`, partitioned over [`RANKS`] ranks.
    pub fn partitions(&self, seed: u64) -> Vec<MeshPartition> {
        let (lo, hi) = match self.physics {
            Physics::Bar => BarProblem::default_unit().bbox(),
            Physics::Poisson => ([0.0; 3], [1.0; 3]),
        };
        let mesh = unstructured_hex_mesh(self.n, self.n, self.n, self.elem, lo, hi, JITTER, seed);
        partition_mesh(&mesh, RANKS, PartitionMethod::Slabs).parts
    }
}

/// One Jacobi-CG solve from a zero initial guess, wrapped in spans when
/// tracing is on.
pub fn solve(
    comm: &mut Comm,
    tr: Option<&Tracer>,
    op: &mut dyn LinOp,
    pc: &mut dyn Precond,
    b: &[f64],
    x: &mut [f64],
) -> CgResult {
    x.fill(0.0);
    tracer::with_linop(tr, op, pc, |op, pc| {
        span(tr, "solver::cg", 0, || {
            cg(comm, op, pc, b, x, RTOL, MAX_ITER)
        })
    })
}

/// What one rank measured.
struct RankOut {
    setup: Samples,
    emat_s: f64,
    overhead_s: f64,
    elems: usize,
    dofs: usize,
    storage_bytes: usize,
    flops_per_apply: u64,
    slab_bytes: usize,
    model_bytes: usize,
    solve: Samples,
    solve_vt: Vec<f64>,
    iterations: Vec<usize>,
    converged: Vec<bool>,
    reproducible: bool,
    err: f64,
    solve_msgs: u64,
    solve_bytes: u64,
    solve_wait_vt: f64,
    solve_total_vt: f64,
    retries: u64,
    applies: ApplyBlock,
    probe_plain: Vec<f64>,
    probe_traced: Vec<f64>,
    spans: Vec<Span>,
}

fn rank_main(
    comm: &mut Comm,
    spec: &SolveSpec,
    part: &MeshPartition,
    cfg: &RunCfg,
    start: Instant,
) -> RankOut {
    let tracer = cfg.trace.then(|| Tracer::new(start));
    let tr = tracer.as_ref();
    let kernel = spec.kernel();
    let dirichlet = spec.dirichlet();

    // The slab layout is only reachable on the bare operator, so a traced
    // run sets one up on its own (outside every end-to-end timing).
    let (mut slab_bytes, mut model_bytes) = (0, 0);
    if let Some(t) = tr {
        let (op, _) = t.span("HymvOperator::setup", 0, || {
            HymvOperator::setup(comm, part, &*kernel)
        });
        slab_bytes = op.block_plan().map_or(0, |p| p.bytes());
        model_bytes = slab_bytes + 3 * 8 * op.maps().n_total() * op.ndof();
    }

    let mut out = RankOut {
        setup: Samples::default(),
        emat_s: 0.0,
        overhead_s: 0.0,
        elems: part.n_elems(),
        dofs: 0,
        storage_bytes: 0,
        flops_per_apply: 0,
        slab_bytes,
        model_bytes,
        solve: Samples::default(),
        solve_vt: Vec::new(),
        iterations: Vec::new(),
        converged: Vec::new(),
        reproducible: true,
        err: f64::NAN,
        solve_msgs: 0,
        solve_bytes: 0,
        solve_wait_vt: 0.0,
        solve_total_vt: 0.0,
        retries: 0,
        applies: ApplyBlock::default(),
        probe_plain: Vec::new(),
        probe_traced: Vec::new(),
        spans: Vec::new(),
    };

    // Rounds of (set-up, for the first few), one solve, then direct
    // applies filling the apply share of the round: every metric samples
    // the whole run, not one phase of it.
    let apply_ratio = (1.0 - spec.solve_share) / spec.solve_share;
    let mut built: Option<FemSystem> = None;
    let mut x = Vec::new();
    let mut first_x: Option<Vec<f64>> = None;
    let mut round = 0;
    while round < spec.setups || !common::past(comm, start, cfg.seconds) {
        if round < spec.setups {
            drop(built.take());
            let sys = common::timed(comm, &mut out.setup, |comm| {
                span(tr, "FemSystem::build", 0, || {
                    FemSystem::build(
                        comm,
                        part,
                        Arc::clone(&kernel),
                        &dirichlet,
                        BuildOptions::new(Method::Hymv),
                    )
                })
            });
            out.emat_s = sys.setup.emat_s;
            out.overhead_s = sys.setup.overhead_s;
            out.dofs = sys.n_owned();
            out.storage_bytes = sys.storage_bytes;
            out.flops_per_apply = sys.flops_per_apply;
            x = vec![0.0; sys.n_owned()];
            built = Some(sys);
        }
        let sys = built.as_mut().expect("built in round 0");
        let mut pc = Jacobi::new(&sys.diag);

        let s0 = comm.stats();
        let res = common::timed(comm, &mut out.solve, |comm| {
            solve(comm, tr, &mut sys.op, &mut pc, &sys.rhs, &mut x)
        });
        let t = *out.solve.wall.last().expect("just timed");
        let s1 = comm.stats();
        out.solve_vt.push(s1.vt - s0.vt);
        out.iterations.push(res.iterations);
        out.converged.push(res.converged);
        out.solve_msgs += s1.msgs_sent - s0.msgs_sent;
        out.solve_bytes += s1.bytes_sent - s0.bytes_sent;
        out.solve_wait_vt += s1.comm_wait_s - s0.comm_wait_s;
        out.solve_total_vt += s1.vt - s0.vt;
        match &first_x {
            None => {
                out.err = sys.inf_error(comm, &x, |p| spec.exact(p));
                first_x = Some(x.clone());
            }
            Some(x0) => out.reproducible &= *x0 == x,
        }

        let per_apply = match out.applies.samples.wall.last() {
            Some(&a) => a,
            None => t / (res.iterations + 1) as f64,
        };
        let n_applies = common::fill(comm, t * apply_ratio, per_apply);
        out.applies.run(comm, tr, &mut sys.op, n_applies);
        round += 1;
    }
    let mut sys = built.expect("at least one round");
    let mut pc = Jacobi::new(&sys.diag);
    let b = sys.rhs.clone();

    if let Some(t) = tr {
        // Tracing overhead: the same solve, bare and wrapped, alternately.
        let (mut plain, mut traced) = (Samples::default(), Samples::default());
        for _ in 0..2 {
            common::timed(comm, &mut plain, |comm| {
                solve(comm, None, &mut sys.op, &mut pc, &b, &mut x)
            });
            common::timed(comm, &mut traced, |comm| {
                solve(comm, Some(t), &mut sys.op, &mut pc, &b, &mut x)
            });
        }
        out.probe_plain = plain.wall;
        out.probe_traced = traced.wall;
    }

    out.retries = comm.stats().retries;
    out.spans = tracer.map(Tracer::into_spans).unwrap_or_default();
    out
}

/// Run one solve workload.
pub fn run(name: &str, spec: &SolveSpec, cfg: &RunCfg) -> Report {
    let parts = spec.partitions(cfg.seed);
    let cpu0 = host::CpuTimes::now();
    let start = Instant::now();
    let outs = Universe::run(RANKS, |comm| {
        rank_main(comm, spec, &parts[comm.rank()], cfg, start)
    });
    let steal = cpu0.steal_share_until(&host::CpuTimes::now());
    let r0 = &outs[0];
    let mut rep = Report {
        correct: true,
        ..Report::default()
    };

    // End-to-end: busy time gates, wall time is reported beside it.
    let setup_busy = common::busiest(&outs, |o| &o.setup);
    let solve_busy = common::busiest(&outs, |o| &o.solve);
    let spmv_busy = common::busiest(&outs, |o| &o.applies.samples);
    let setup = Summary::of(&setup_busy);
    let solve = Summary::of(&solve_busy);
    let spmv = Summary::of(&spmv_busy);
    let solve_wall = Summary::of(&r0.solve.wall);
    let spmv_wall = Summary::of(&r0.applies.samples.wall);
    let setup_wall = Summary::of(&r0.setup.wall);
    let iters: Vec<f64> = r0.iterations.iter().map(|&i| i as f64).collect();
    let rss = host::peak_rss_mib();
    rep.gated("setup_s", setup.median, setup.n);
    rep.gated("spmv_busy_ms_p10", spmv.p10 * 1e3, spmv.n);
    rep.gated("task_ms", solve.p10 * 1e3, solve.n);
    rep.gated("peak_rss_mb", rss, 1);
    rep.metric("setup_wall_s", setup_wall.median, "s", setup_wall.n);
    rep.metric("solve_s", solve_wall.median, "s", solve_wall.n);
    rep.metric("solve_busy_s", solve.median, "s", solve.n);
    rep.metric("iterations", median(&iters), "count", iters.len());
    rep.metric("spmv_ms_p50", spmv_wall.median * 1e3, "ms", spmv_wall.n);

    // Correctness: every solve converged past the trap floor, repeated
    // solves reproduce the first one's bits, and the first solution
    // matches the analytic field.
    for (&conv, &it) in r0.converged.iter().zip(&r0.iterations) {
        rep.attempt(conv && it >= spec.min_iters);
    }
    rep.attempted += spmv.n as u64;
    let solves_ok = rep.failed == 0;
    rep.check(
        &format!(
            "{} solves converged to rtol {RTOL:e} in >= {} iterations (min {})",
            r0.iterations.len(),
            spec.min_iters,
            r0.iterations.iter().min().copied().unwrap_or(0)
        ),
        solves_ok,
    );
    rep.check(
        "repeated solves reproduce the first solution bitwise",
        outs.iter().all(|o| o.reproducible),
    );
    rep.check(
        &format!("inf-norm error {:.3e} <= {:.1e}", r0.err, spec.err_tol),
        r0.err <= spec.err_tol,
    );
    let failed_ratio = rep.failed as f64 / rep.attempted as f64;
    rep.metric(
        "failed_ratio",
        failed_ratio,
        "fraction",
        rep.attempted as usize,
    );
    rep.spreads(&[
        ("setup_s", setup, 1.0),
        ("setup_wall_s", setup_wall, 1.0),
        ("solve_busy_s", solve, 1.0),
        ("solve_s", solve_wall, 1.0),
        ("solve_vt_s", Summary::of(&r0.solve_vt), 1.0),
        ("spmv_busy_ms", spmv, 1e3),
        ("spmv_ms", spmv_wall, 1e3),
    ]);
    rep.notes.push(format!(
        "counts solve_msgs_per_iter={} apply_msgs={} apply_bytes={}",
        outs.iter().map(|o| o.solve_msgs).sum::<u64>() as f64 / iters.iter().sum::<f64>(),
        outs.iter().map(|o| o.applies.msgs).sum::<u64>(),
        outs.iter().map(|o| o.applies.bytes).sum::<u64>()
    ));
    rep.notes.push(format!("host.steal_share {steal}"));
    rep.notes.push(format!(
        "workload {name}: {:?} n={} dofs={} ranks={RANKS}",
        spec.elem,
        spec.n,
        outs.iter().map(|o| o.dofs).sum::<usize>()
    ));

    if cfg.trace {
        layers(&mut rep, name, cfg, &outs, steal);
    }
    rep
}

fn layers(rep: &mut Report, name: &str, cfg: &RunCfg, outs: &[RankOut], steal: f64) {
    let r0 = &outs[0];
    let sum = |f: &dyn Fn(&RankOut) -> f64| outs.iter().map(f).sum::<f64>();
    let total_iters = r0.iterations.iter().sum::<usize>() as f64;
    let solves = r0.solve.wall.len();
    let spans = &r0.spans;
    let facts: Vec<OpFacts> = outs
        .iter()
        .map(|o| OpFacts {
            elems: o.elems,
            dofs: o.dofs,
            emat_s: o.emat_s,
            overhead_s: o.overhead_s,
            storage_bytes: o.storage_bytes,
            slab_bytes: o.slab_bytes,
            model_bytes: o.model_bytes,
            flops_per_apply: o.flops_per_apply,
        })
        .collect();
    let applies: Vec<&ApplyBlock> = outs.iter().map(|o| &o.applies).collect();
    let retries = outs.iter().map(|o| o.retries).sum();
    common::operator_layers(rep, &facts, &applies, spans, retries);

    let cg_total: f64 = tracer::durations(spans, "solver::cg").iter().sum();
    rep.layer(
        "core.apply_share",
        tracer::child_total(spans, "solver::cg", "LinOp::apply") / cg_total,
        solves,
    );
    rep.layer(
        "comm.msgs_per_iter",
        sum(&|o| o.solve_msgs as f64) / total_iters,
        solves,
    );
    rep.layer(
        "comm.bytes_per_iter",
        sum(&|o| o.solve_bytes as f64) / total_iters,
        solves,
    );
    rep.layer(
        "comm.wait_share_vt",
        sum(&|o| o.solve_wait_vt) / sum(&|o| o.solve_total_vt),
        solves,
    );
    let vt_wall: Vec<f64> = r0
        .solve_vt
        .iter()
        .zip(&r0.solve.wall)
        .map(|(v, w)| v / w)
        .collect();
    rep.layer("comm.vt_over_wall", median(&vt_wall), vt_wall.len());

    let iters: Vec<f64> = r0.iterations.iter().map(|&i| i as f64).collect();
    rep.layer("la.cg_iterations", median(&iters), iters.len());
    rep.layer(
        "la.precond_ms_per_iter",
        tracer::child_total(spans, "solver::cg", "Precond::apply") / total_iters * 1e3,
        solves,
    );
    rep.layer(
        "la.cg_self_ms_per_iter",
        tracer::self_total(spans, "solver::cg") / total_iters * 1e3,
        solves,
    );
    let spans: Vec<Vec<Span>> = outs.iter().map(|o| o.spans.clone()).collect();
    common::finish_layers(
        rep,
        cfg,
        name,
        &spans,
        &r0.probe_plain,
        &r0.probe_traced,
        steal,
    );
}
