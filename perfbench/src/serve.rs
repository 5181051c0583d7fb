//! Workload `serve-open-w8`: the batched solve service under a seeded
//! open-loop Poisson arrival stream, with bursts that measure its
//! capacity and direct applies of its operator between stream segments.
//!
//! Batching deadlines live in the communicator's virtual time, so request
//! latency is virtual too: measured thread-CPU compute plus the α-β
//! communication model, with idle gaps between arrivals advanced on the
//! clock. Every request is timed from when it was **due**, not from when
//! it was submitted, so a long batch that delays later submissions shows
//! in their latency (the generator's lateness is reported as
//! `serve.gen_lag_ms_p99`).

use std::time::Instant;

use hymv_comm::{Comm, Universe};
use hymv_core::assemble::jacobi_diagonal;
use hymv_core::dirichlet_op::owned_constraints;
use hymv_core::{DirichletOp, HymvOperator};
use hymv_fem::analytic::PoissonProblem;
use hymv_fem::dirichlet::{constrained_dofs, DirichletSpec};
use hymv_fem::PoissonKernel;
use hymv_la::{Jacobi, LinOp};
use hymv_mesh::partition::{partition_mesh, PartitionMethod};
use hymv_mesh::{unstructured_hex_mesh, ElementType, MeshPartition};
use hymv_serve::{BatchPolicy, SolveOutcome, SolveService};

use crate::common::{self, hashed_unit, ApplyBlock, OpFacts, Rng, RunCfg, Samples, RANKS};
use crate::host;
use crate::report::Report;
use crate::stats::{median, quantile, sorted, Summary};
use crate::tracer::{self, span, Span, Tracer};

/// Relative-residual tolerance of every request.
pub const RTOL: f64 = 1e-8;
const MAX_ITER: usize = 5_000;
/// Largest accepted true relative residual `‖b − A x‖ / ‖b‖` of a
/// sampled request. Block CG stops on its recurrence residual; the true
/// one drifts from it by rounding, hence the margin over [`RTOL`].
pub const TRUE_RESIDUAL_TOL: f64 = 1e-7;

/// The workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// Elements per mesh edge (jittered Hex8 Poisson).
    pub n: usize,
    /// Requests per multivector batch at most.
    pub max_width: usize,
    /// Virtual seconds the oldest request may wait for a partial batch.
    pub deadline_s: f64,
    /// Offered load, requests per virtual second. Fixed, about half of
    /// the capacity the bursts measured when the workload was defined,
    /// so batches form both by deadline and by width.
    pub offered_rps: f64,
    /// Requests the stream sends at least (p99 then has >= 10 beyond it).
    pub min_requests: usize,
    /// Requests per stream segment. Each round runs one segment through
    /// a fresh service and drains it, then one capacity burst, then
    /// direct applies, so every metric samples the whole run.
    pub segment: usize,
    /// Requests per capacity burst (one burst per round).
    pub burst: usize,
    /// Direct applies per round.
    pub applies_per_round: usize,
    /// Operator set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Every `check_every`-th request's solution (the first 64 of them)
    /// is kept and its true residual checked after the stream.
    pub check_every: u64,
}

/// `serve-open-w8`.
pub const SERVE_OPEN_W8: ServeSpec = ServeSpec {
    n: 16,
    max_width: 8,
    deadline_s: 1e-3,
    offered_rps: 133.0,
    min_requests: 1000,
    segment: 200,
    burst: 32,
    applies_per_round: 500,
    setups: 25,
    check_every: 16,
};

/// Solutions kept for the true-residual check at most, so memory does
/// not grow with the number of requests a run gets through.
const KEPT_MAX: usize = 64;
const STREAM_ARRIVALS: u64 = 1;
const STREAM_LOADS: u64 = 2;

/// The jittered unit-cube Hex8 mesh for `seed`, partitioned.
pub fn partitions(n: usize, seed: u64) -> Vec<MeshPartition> {
    let mesh = unstructured_hex_mesh(n, n, n, ElementType::Hex8, [0.0; 3], [1.0; 3], 0.2, seed);
    partition_mesh(&mesh, RANKS, PartitionMethod::Slabs).parts
}

/// The Dirichlet-wrapped HYMV Poisson operator, its Jacobi diagonal and
/// its set-up timings. Collective.
pub struct ServeOp {
    /// The operator requests are solved against.
    pub op: DirichletOp<HymvOperator>,
    /// Masked Jacobi diagonal.
    pub diag: Vec<f64>,
    /// Owned node range (global ids), for generating loads.
    pub node_range: (u64, u64),
    /// `HymvOperator::setup`'s own timing breakdown.
    pub timings: hymv_core::SetupTimings,
    /// Bytes of the bare operator and of its block slabs.
    pub storage_bytes: usize,
    /// Bytes of the block plan (slabs and gather tables).
    pub slab_bytes: usize,
    /// Computed compulsory bytes of one apply.
    pub model_bytes: usize,
}

/// Set up the service's operator on `part`. Collective.
pub fn setup(comm: &mut Comm, tr: Option<&Tracer>, part: &MeshPartition) -> ServeOp {
    let kernel = PoissonKernel::new(ElementType::Hex8);
    let (op, timings) = span(tr, "HymvOperator::setup", 0, || {
        HymvOperator::setup(comm, part, &kernel)
    });
    let spec: DirichletSpec = PoissonProblem::dirichlet();
    let constrained = owned_constraints(op.maps(), 1, &constrained_dofs(part, &spec));
    let mut diag = jacobi_diagonal(comm, op.maps(), op.exchange(), op.store(), 1);
    let slab_bytes = op.block_plan().map_or(0, |p| p.bytes());
    let model_bytes = slab_bytes + 3 * 8 * op.maps().n_total();
    let storage_bytes = op.storage_bytes();
    let node_range = op.maps().node_range;
    let op = DirichletOp::new(op, constrained);
    op.mask_diagonal(&mut diag);
    ServeOp {
        op,
        diag,
        node_range,
        timings,
        storage_bytes,
        slab_bytes,
        model_bytes,
    }
}

/// The right-hand side of request `id`: seeded values on owned nodes,
/// zero on constrained ones.
pub fn load(seed: u64, id: u64, node_range: (u64, u64), constrained: &[(u32, f64)]) -> Vec<f64> {
    let mut f: Vec<f64> = (node_range.0..node_range.1)
        .map(|g| hashed_unit(seed ^ STREAM_LOADS, id, g))
        .collect();
    for &(d, _) in constrained {
        f[d as usize] = 0.0;
    }
    f
}

/// What the open-loop stream measured.
#[derive(Debug, Clone, Default)]
pub struct StreamOut {
    /// Due time per request, virtual seconds; indexed by request id, as
    /// are the other per-request series.
    pub due_s: Vec<f64>,
    /// Completion minus due time per request, virtual seconds.
    pub latency_s: Vec<f64>,
    /// Dispatch minus due time per request, virtual seconds.
    pub wait_s: Vec<f64>,
    /// Submission minus due time per request: how late the generator ran.
    pub gen_lag_s: Vec<f64>,
    /// Requests still queued, at most.
    pub backlog_max: usize,
    /// Requests whose batch failed, did not converge, or missed `rtol`.
    pub failed_requests: usize,
    /// Solutions kept for a true-residual check, by request id.
    pub kept: Vec<(u64, Vec<f64>)>,
}

impl StreamOut {
    /// Append another segment's record; its request ids are offset by
    /// `id_base` in `kept`.
    pub fn absorb(&mut self, seg: StreamOut, id_base: u64) {
        self.due_s.extend(seg.due_s);
        self.latency_s.extend(seg.latency_s);
        self.wait_s.extend(seg.wait_s);
        self.gen_lag_s.extend(seg.gen_lag_s);
        self.backlog_max = self.backlog_max.max(seg.backlog_max);
        self.failed_requests += seg.failed_requests;
        let room = KEPT_MAX.saturating_sub(self.kept.len());
        self.kept.extend(
            seg.kept
                .into_iter()
                .take(room)
                .map(|(id, x)| (id_base | id, x)),
        );
    }
}

/// The arrival process of an open-loop stream.
#[derive(Debug, Clone, Copy)]
pub struct Arrivals {
    /// Seed of the inter-arrival gaps.
    pub seed: u64,
    /// Mean arrival rate, requests per virtual second.
    pub rate: f64,
    /// The service's batching deadline, virtual seconds (the clock is
    /// advanced to it when no arrival comes first).
    pub deadline_s: f64,
    /// Every `keep_every`-th request's solution is kept.
    pub keep_every: u64,
}

/// Drive `svc` with Poisson arrivals until `keep_going` (a collective
/// decision, asked once per event with the number of requests generated
/// so far) says stop, then drain the queue. `make_rhs` builds request
/// `id`'s load. Collective.
pub fn open_loop(
    comm: &mut Comm,
    tr: Option<&Tracer>,
    svc: &mut SolveService<'_>,
    arrivals: Arrivals,
    make_rhs: &dyn Fn(u64) -> Vec<f64>,
    mut keep_going: impl FnMut(&mut Comm, usize) -> bool,
) -> StreamOut {
    let Arrivals {
        seed,
        rate,
        deadline_s,
        keep_every,
    } = arrivals;
    assert!(
        svc.pending() == 0 && svc.batch_metrics().is_empty(),
        "the stream needs a fresh service (request ids start at 0)"
    );
    let mut rng = Rng::new(seed, STREAM_ARRIVALS);
    let mut gap = move || -(1.0 - rng.uniform()).ln() / rate;
    comm.barrier();
    let mut next_due = comm.vt() + gap();
    let mut completed = 0usize;
    let mut out = StreamOut::default();
    let mut generating = true;

    loop {
        comm.barrier();
        let now = comm.vt();
        while generating && next_due <= now {
            let rhs = make_rhs(out.due_s.len() as u64);
            span(tr, "SolveService::submit", 0, || svc.submit(comm, rhs));
            out.gen_lag_s.push(now - next_due);
            out.due_s.push(next_due);
            next_due += gap();
        }
        out.backlog_max = out.backlog_max.max(svc.pending());
        let done = span(tr, "SolveService::step", 0, || svc.step(comm));
        completed += done.len();
        record(svc, done, keep_every, &mut out);
        if generating && !keep_going(comm, out.due_s.len()) {
            generating = false;
        }
        if !generating {
            let rest = span(tr, "SolveService::flush", 0, || svc.flush(comm));
            record(svc, rest, keep_every, &mut out);
            break;
        }
        // Advance the clock to the next event: an arrival, or the oldest
        // queued request reaching the batching deadline.
        comm.barrier();
        let now = comm.vt();
        let mut target = next_due;
        if svc.pending() > 0 {
            let oldest_submit = out.due_s[completed] + out.gen_lag_s[completed];
            target = target.min(oldest_submit + deadline_s);
        }
        if target > now {
            comm.add_modeled_time(target - now);
        }
    }
    out
}

/// Fold finished requests into the stream's record.
fn record(svc: &SolveService<'_>, done: Vec<SolveOutcome>, keep_every: u64, out: &mut StreamOut) {
    for o in done {
        let b = &svc.batch_metrics()[o.batch];
        let due = out.due_s[o.id as usize];
        out.latency_s.push(b.dispatched_vt + b.solve_s - due);
        out.wait_s.push(b.dispatched_vt - due);
        if o.fault.is_some() || !o.converged || o.rel_residual > RTOL {
            out.failed_requests += 1;
        }
        if o.id % keep_every == 0 && out.kept.len() < KEPT_MAX {
            out.kept.push((o.id, o.x));
        }
    }
}

/// What the capacity bursts measured on one rank.
#[derive(Debug, Default)]
struct Bursts {
    /// Requests per virtual second, one per burst.
    capacity_rps: Vec<f64>,
    /// Wall seconds per burst.
    wall: Vec<f64>,
    /// Virtual seconds per burst.
    vt: Vec<f64>,
    /// Requests that failed.
    failed: usize,
    /// Messages this rank sent.
    msgs: u64,
    /// Bytes this rank sent.
    bytes: u64,
    /// Modelled communication wait, virtual seconds.
    wait_vt: f64,
}

/// What one rank measured.
struct RankOut {
    setup: Samples,
    timings: hymv_core::SetupTimings,
    elems: usize,
    dofs: usize,
    storage_bytes: usize,
    slab_bytes: usize,
    model_bytes: usize,
    flops_per_apply: u64,
    stream: StreamOut,
    stream_batches: Vec<hymv_serve::BatchMetrics>,
    burst_batches: Vec<hymv_serve::BatchMetrics>,
    bursts: Bursts,
    true_residual_max: f64,
    true_residual_checked: usize,
    applies: ApplyBlock,
    probe_plain: Vec<f64>,
    probe_traced: Vec<f64>,
    retries: u64,
    spans: Vec<Span>,
}

fn rank_main(
    comm: &mut Comm,
    spec: &ServeSpec,
    part: &MeshPartition,
    cfg: &RunCfg,
    start: Instant,
) -> RankOut {
    let tracer = cfg.trace.then(|| Tracer::new(start));
    let tr = tracer.as_ref();

    let mut setup = Samples::default();
    let mut built = None;
    for _ in 0..spec.setups {
        drop(built.take());
        built = Some(common::timed(comm, &mut setup, |comm| {
            self::setup(comm, tr, part)
        }));
    }
    let ServeOp {
        mut op,
        diag,
        node_range,
        timings,
        storage_bytes,
        slab_bytes,
        model_bytes,
    } = built.expect("at least one setup");
    let constrained = op.constrained().to_vec();
    let seed = cfg.seed;
    let make_rhs = |id: u64| load(seed, id, node_range, &constrained);
    let mut pc = Jacobi::new(&diag);
    let policy = BatchPolicy {
        max_width: spec.max_width,
        deadline_s: spec.deadline_s,
    };
    let flops_per_apply = op.flops_per_apply();

    let mut bursts = Bursts::default();
    let mut stream = StreamOut::default();
    let (mut stream_batches, mut burst_batches) = (Vec::new(), Vec::new());
    let mut applies = ApplyBlock::default();
    let mut round: u64 = 0;
    while round == 0
        || stream.latency_s.len() < spec.min_requests
        || !common::past(comm, start, cfg.seconds)
    {
        // Request ids restart with every segment's fresh service.
        let seg_rhs = |id: u64| make_rhs(round << 32 | id);
        let seg = tracer::with_multi(tr, &mut op, &mut pc, |op, pc| {
            let mut svc = SolveService::new(op, pc, RTOL, MAX_ITER, policy);
            let arrivals = Arrivals {
                seed: seed ^ common::mix(round),
                rate: spec.offered_rps,
                deadline_s: spec.deadline_s,
                keep_every: spec.check_every,
            };
            let seg = open_loop(comm, tr, &mut svc, arrivals, &seg_rhs, |_, n| {
                n < spec.segment
            });
            let n_stream = svc.batch_metrics().len();

            comm.barrier();
            let s0 = comm.stats();
            let t0 = Instant::now();
            for k in 0..spec.burst {
                let rhs = make_rhs(u64::MAX - k as u64);
                span(tr, "SolveService::submit", 0, || svc.submit(comm, rhs));
            }
            let done = span(tr, "SolveService::flush", 0, || svc.flush(comm));
            let s1 = comm.stats();
            bursts.wall.push(t0.elapsed().as_secs_f64());
            bursts.vt.push(s1.vt - s0.vt);
            bursts
                .capacity_rps
                .push(spec.burst as f64 / (s1.vt - s0.vt));
            bursts.msgs += s1.msgs_sent - s0.msgs_sent;
            bursts.bytes += s1.bytes_sent - s0.bytes_sent;
            bursts.wait_vt += s1.comm_wait_s - s0.comm_wait_s;
            bursts.failed += done
                .iter()
                .filter(|o| o.fault.is_some() || !o.converged || o.rel_residual > RTOL)
                .count();
            let batches = svc.batch_metrics();
            stream_batches.extend_from_slice(&batches[..n_stream]);
            burst_batches.extend_from_slice(&batches[n_stream..]);
            seg
        });
        stream.absorb(seg, round << 32);
        applies.run(comm, tr, &mut op, spec.applies_per_round);
        round += 1;
    }

    // Tracing overhead: the same burst through a bare and a wrapped
    // service, alternately.
    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    if let Some(t) = tr {
        for _ in 0..3 {
            for (tr, probe) in [(None, &mut plain), (Some(t), &mut traced)] {
                tracer::with_multi(tr, &mut op, &mut pc, |op, pc| {
                    let mut svc = SolveService::new(op, pc, RTOL, MAX_ITER, policy);
                    common::timed(comm, probe, |comm| {
                        for k in 0..spec.burst {
                            svc.submit(comm, make_rhs(k as u64));
                        }
                        span(tr, "SolveService::flush", 0, || svc.flush(comm))
                    });
                });
            }
        }
    }

    // True residuals of the kept solutions, on the bare operator.
    let n = op.n_owned();
    let mut ax = vec![0.0; n];
    let mut true_residual_max: f64 = 0.0;
    for (id, x) in &stream.kept {
        let b = make_rhs(*id);
        op.apply(comm, x, &mut ax);
        let rr: f64 = b.iter().zip(&ax).map(|(b, a)| (b - a) * (b - a)).sum();
        let bb: f64 = b.iter().map(|b| b * b).sum();
        let rel = (comm.allreduce_sum_f64(rr) / comm.allreduce_sum_f64(bb)).sqrt();
        true_residual_max = true_residual_max.max(rel);
    }

    RankOut {
        setup,
        timings,
        elems: part.n_elems(),
        dofs: n,
        storage_bytes,
        slab_bytes,
        model_bytes,
        flops_per_apply,
        true_residual_checked: stream.kept.len(),
        stream,
        stream_batches,
        burst_batches,
        bursts,
        true_residual_max,
        applies,
        probe_plain: plain.wall,
        probe_traced: traced.wall,
        retries: comm.stats().retries,
        spans: tracer.map(Tracer::into_spans).unwrap_or_default(),
    }
}

/// Run `serve-open-w8`.
pub fn run(name: &str, spec: &ServeSpec, cfg: &RunCfg) -> Report {
    let parts = partitions(spec.n, cfg.seed);
    let cpu0 = host::CpuTimes::now();
    let start = Instant::now();
    let outs = Universe::run(RANKS, |comm| {
        rank_main(comm, spec, &parts[comm.rank()], cfg, start)
    });
    let steal = cpu0.steal_share_until(&host::CpuTimes::now());
    let r0 = &outs[0];
    let s = &r0.stream;
    let mut rep = Report {
        correct: true,
        ..Report::default()
    };

    let setup = Summary::of(&common::busiest(&outs, |o| &o.setup));
    let spmv = Summary::of(&common::busiest(&outs, |o| &o.applies.samples));
    let setup_wall = Summary::of(&r0.setup.wall);
    let spmv_wall = Summary::of(&r0.applies.samples.wall);
    let lat = sorted(&s.latency_s);
    let (p50, p99) = (quantile(&lat, 0.5), quantile(&lat, 0.99));
    let capacity = median(&r0.bursts.capacity_rps);
    let rss = host::peak_rss_mib();
    rep.gated("setup_s", setup.median, setup.n);
    rep.gated("spmv_busy_ms_p10", spmv.p10 * 1e3, spmv.n);
    rep.gated("task_ms", p50 * 1e3, lat.len());
    rep.gated("peak_rss_mb", rss, 1);
    rep.metric("setup_wall_s", setup_wall.median, "s", setup_wall.n);
    rep.metric("req_ms_p50", p50 * 1e3, "vms", lat.len());
    rep.metric("req_ms_p99", p99 * 1e3, "vms", lat.len());
    rep.metric(
        "capacity_rps",
        capacity,
        "req/vs",
        r0.bursts.capacity_rps.len(),
    );
    rep.metric("spmv_ms_p50", spmv_wall.median * 1e3, "ms", spmv_wall.n);

    let requests = lat.len() + r0.bursts.capacity_rps.len() * spec.burst;
    rep.attempted += (requests + spmv.n) as u64;
    rep.failed += (s.failed_requests + r0.bursts.failed) as u64;
    rep.check(
        &format!(
            "{} requests ({} in the stream) met rtol {RTOL:e}; {} failed",
            requests,
            lat.len(),
            s.failed_requests + r0.bursts.failed
        ),
        s.failed_requests + r0.bursts.failed == 0,
    );
    rep.check(
        &format!(
            "{} sampled solutions have true relative residual {:.3e} <= {TRUE_RESIDUAL_TOL:e}",
            r0.true_residual_checked, r0.true_residual_max
        ),
        r0.true_residual_checked > 0 && r0.true_residual_max <= TRUE_RESIDUAL_TOL,
    );
    rep.check(
        &format!(
            "stream sent {} >= {} requests",
            lat.len(),
            spec.min_requests
        ),
        lat.len() >= spec.min_requests,
    );
    rep.metric(
        "failed_ratio",
        rep.failed as f64 / rep.attempted as f64,
        "fraction",
        rep.attempted as usize,
    );
    rep.spreads(&[
        ("setup_s", setup, 1.0),
        ("setup_wall_s", setup_wall, 1.0),
        ("req_ms", Summary::of(&s.latency_s), 1e3),
        ("capacity_rps", Summary::of(&r0.bursts.capacity_rps), 1.0),
        ("spmv_busy_ms", spmv, 1e3),
        ("spmv_ms", spmv_wall, 1e3),
    ]);
    let block_iters: usize = r0.burst_batches.iter().map(|b| b.iterations).sum();
    rep.notes.push(format!(
        "counts burst_msgs_per_iter={} apply_msgs={} apply_bytes={}",
        outs.iter().map(|o| o.bursts.msgs).sum::<u64>() as f64 / block_iters as f64,
        outs.iter().map(|o| o.applies.msgs).sum::<u64>(),
        outs.iter().map(|o| o.applies.bytes).sum::<u64>()
    ));
    rep.notes.push(format!("host.steal_share {steal}"));
    rep.notes.push(format!(
        "workload {name}: Hex8 Poisson n={} dofs={} ranks={RANKS} width={} deadline={}s offered={} req/vs",
        spec.n,
        outs.iter().map(|o| o.dofs).sum::<usize>(),
        spec.max_width,
        spec.deadline_s,
        spec.offered_rps
    ));

    if cfg.trace {
        layers(&mut rep, name, cfg, &outs, steal);
    }
    rep
}

fn layers(rep: &mut Report, name: &str, cfg: &RunCfg, outs: &[RankOut], steal: f64) {
    let r0 = &outs[0];
    let s = &r0.stream;
    let sum = |f: &dyn Fn(&RankOut) -> f64| outs.iter().map(f).sum::<f64>();
    let spans = &r0.spans;
    let facts: Vec<OpFacts> = outs
        .iter()
        .map(|o| OpFacts {
            elems: o.elems,
            dofs: o.dofs,
            emat_s: o.timings.emat_compute_s,
            overhead_s: o.timings.local_copy_s + o.timings.maps_s + o.timings.comm_maps_s,
            storage_bytes: o.storage_bytes,
            slab_bytes: o.slab_bytes,
            model_bytes: o.model_bytes,
            flops_per_apply: o.flops_per_apply,
        })
        .collect();
    let applies: Vec<&ApplyBlock> = outs.iter().map(|o| &o.applies).collect();
    let retries = outs.iter().map(|o| o.retries).sum();
    common::operator_layers(rep, &facts, &applies, spans, retries);

    let service_total: f64 = ["SolveService::step", "SolveService::flush"]
        .iter()
        .map(|n| tracer::durations(spans, n).iter().sum::<f64>())
        .sum();
    let under_service = |child: &str| {
        tracer::child_total(spans, "SolveService::step", child)
            + tracer::child_total(spans, "SolveService::flush", child)
    };
    rep.layer(
        "core.apply_share",
        under_service("MultiLinOp::apply_mv") / service_total,
        1,
    );
    let per_col: Vec<f64> = spans
        .iter()
        .filter(|sp| sp.name == "MultiLinOp::apply_mv")
        .map(|sp| sp.dur() / sp.arg.max(1) as f64)
        .collect();
    rep.layer(
        "core.apply_mv_ms_per_col",
        median(&per_col) * 1e3,
        per_col.len(),
    );

    let burst_iters: f64 = r0.burst_batches.iter().map(|b| b.iterations as f64).sum();
    rep.layer(
        "comm.msgs_per_iter",
        sum(&|o| o.bursts.msgs as f64) / burst_iters,
        r0.burst_batches.len(),
    );
    rep.layer(
        "comm.bytes_per_iter",
        sum(&|o| o.bursts.bytes as f64) / burst_iters,
        r0.burst_batches.len(),
    );
    rep.layer(
        "comm.wait_share_vt",
        sum(&|o| o.bursts.wait_vt) / sum(&|o| o.bursts.vt.iter().sum::<f64>()),
        r0.bursts.vt.len(),
    );
    let vt_wall: Vec<f64> = r0
        .bursts
        .vt
        .iter()
        .zip(&r0.bursts.wall)
        .map(|(v, w)| v / w)
        .collect();
    rep.layer("comm.vt_over_wall", median(&vt_wall), vt_wall.len());

    let all_batches: Vec<&hymv_serve::BatchMetrics> =
        r0.stream_batches.iter().chain(&r0.burst_batches).collect();
    let iters: f64 = all_batches.iter().map(|b| b.iterations as f64).sum();
    rep.layer(
        "la.precond_ms_per_iter",
        under_service("Precond::apply") / iters * 1e3,
        all_batches.len(),
    );
    rep.layer(
        "la.block_cg_iters_per_batch",
        iters / all_batches.len() as f64,
        all_batches.len(),
    );
    rep.layer(
        "la.block_cg_self_ms_per_iter",
        (tracer::self_total(spans, "SolveService::step")
            + tracer::self_total(spans, "SolveService::flush"))
            / iters
            * 1e3,
        all_batches.len(),
    );

    let submit = tracer::durations(spans, "SolveService::submit");
    rep.layer("serve.submit_us_p50", median(&submit) * 1e6, submit.len());
    let waits = sorted(&s.wait_s);
    rep.layer(
        "serve.wait_ms_p50",
        quantile(&waits, 0.5) * 1e3,
        waits.len(),
    );
    rep.layer(
        "serve.wait_ms_p99",
        quantile(&waits, 0.99) * 1e3,
        waits.len(),
    );
    let solves: Vec<f64> = r0.stream_batches.iter().map(|b| b.solve_s).collect();
    rep.layer(
        "serve.batch_solve_ms_p50",
        median(&solves) * 1e3,
        solves.len(),
    );
    let widths: Vec<usize> = r0.stream_batches.iter().map(|b| b.width).collect();
    rep.layer(
        "serve.batch_width_mean",
        widths.iter().sum::<usize>() as f64 / widths.len() as f64,
        widths.len(),
    );
    rep.layer(
        "serve.width_changes",
        widths.windows(2).filter(|w| w[0] != w[1]).count() as f64,
        widths.len(),
    );
    let lag = sorted(&s.gen_lag_s);
    rep.layer(
        "serve.gen_lag_ms_p99",
        quantile(&lag, 0.99) * 1e3,
        lag.len(),
    );
    rep.layer("serve.backlog_max", s.backlog_max as f64, 1);
    rep.layer(
        "serve.failed_batches",
        all_batches.iter().filter(|b| b.failed).count() as f64,
        all_batches.len(),
    );
    rep.layer("serve.requests", s.latency_s.len() as f64, 1);
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
