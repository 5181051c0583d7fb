//! Workload `adaptive-damage-hex8`: the adaptive-matrix path. Each step
//! writes damaged copies of the pristine element matrices of a seeded,
//! moving band of local elements through `HymvOperator::ke_mut`, then
//! applies the operator ten times (the first apply re-interleaves the
//! dirty slabs). The benchmark supplies the matrices, so the kernel's
//! element-matrix cost does not hide the operator's own write cost.

use std::time::Instant;

use hymv_comm::{Comm, Universe};
use hymv_core::HymvOperator;
use hymv_fem::analytic::BarProblem;
use hymv_fem::ElasticityKernel;
use hymv_la::LinOp;
use hymv_mesh::partition::{partition_mesh, PartitionMethod};
use hymv_mesh::{unstructured_hex_mesh, ElementType, MeshPartition};

use crate::common::{self, hashed_unit, ApplyBlock, OpFacts, Rng, RunCfg, Samples, RANKS};
use crate::host;
use crate::report::Report;
use crate::stats::{median, Summary};
use crate::tracer::{self, span, Span, Tracer};

/// Largest accepted relative ∞-norm difference between the updated
/// operator and a fresh one carrying the same final damage.
pub const MATCH_TOL: f64 = 1e-12;

/// The workload's fixed shape.
#[derive(Debug, Clone, Copy)]
pub struct AdaptSpec {
    /// Elements per mesh edge (jittered Hex8 elastic bar).
    pub n: usize,
    /// Share of local elements one band covers.
    pub band_share: f64,
    /// Applies after each band write.
    pub applies_per_step: usize,
    /// Operator set-ups per run (`setup_s` is their median).
    pub setups: usize,
    /// Share of each round spent on steps; the rest on applies.
    pub step_share: f64,
}

/// `adaptive-damage-hex8`.
pub const ADAPTIVE_HEX8: AdaptSpec = AdaptSpec {
    n: 16,
    band_share: 0.05,
    applies_per_step: 10,
    setups: 9,
    step_share: 0.6,
};

/// Wall seconds of one round of steps and applies.
const ROUND_S: f64 = 0.5;
const STREAM_DIRECTION: u64 = 3;
const STREAM_DAMAGE: u64 = 4;

/// The jittered bar mesh for `seed`, partitioned.
pub fn partitions(n: usize, seed: u64) -> Vec<MeshPartition> {
    let (lo, hi) = BarProblem::default_unit().bbox();
    let mesh = unstructured_hex_mesh(n, n, n, ElementType::Hex8, lo, hi, 0.2, seed);
    partition_mesh(&mesh, RANKS, PartitionMethod::Slabs).parts
}

fn kernel() -> ElasticityKernel {
    let bar = BarProblem::default_unit();
    ElasticityKernel::new(ElementType::Hex8, bar.young, bar.poisson, bar.body_force())
}

/// Local elements ordered along a seeded direction: a band is a window
/// of this order, so it is a slab of the body that moves step by step.
fn band_order(part: &MeshPartition, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed, STREAM_DIRECTION);
    let d = [
        rng.uniform() + 0.1,
        rng.uniform() + 0.1,
        rng.uniform() + 0.1,
    ];
    let key = |e: usize| {
        let c = part.elem_node_coords(e);
        let m = c.len() as f64;
        (0..3)
            .map(|k| d[k] * c.iter().map(|p| p[k]).sum::<f64>() / m)
            .sum::<f64>()
    };
    let mut order: Vec<usize> = (0..part.n_elems()).collect();
    order.sort_by(|&a, &b| key(a).total_cmp(&key(b)).then(a.cmp(&b)));
    order
}

/// Write `scale · pristine` into every element of `band` through
/// `ke_mut`, remembering each element's current scale.
fn write_band(
    op: &mut HymvOperator,
    pristine: &[f64],
    band: &[usize],
    scales: &mut [f64],
    scale_of: impl Fn(usize) -> f64,
) {
    let nd2 = op.store().nd() * op.store().nd();
    for &e in band {
        let s = scale_of(e);
        scales[e] = s;
        let src = &pristine[e * nd2..(e + 1) * nd2];
        for (dst, &v) in op.ke_mut(e).iter_mut().zip(src) {
            *dst = s * v;
        }
    }
}

struct RankOut {
    setup: Samples,
    timings: hymv_core::SetupTimings,
    elems: usize,
    dofs: usize,
    band: usize,
    storage_bytes: usize,
    slab_bytes: usize,
    model_bytes: usize,
    flops_per_apply: u64,
    steps: Samples,
    mismatch: f64,
    applies: ApplyBlock,
    probe_plain: Vec<f64>,
    probe_traced: Vec<f64>,
    retries: u64,
    spans: Vec<Span>,
}

fn rank_main(
    comm: &mut Comm,
    spec: &AdaptSpec,
    part: &MeshPartition,
    cfg: &RunCfg,
    start: Instant,
) -> RankOut {
    let tracer = cfg.trace.then(|| Tracer::new(start));
    let tr = tracer.as_ref();
    let kernel = kernel();

    let mut setup = Samples::default();
    let build = |comm: &mut Comm, setup: &mut Samples| {
        common::timed(comm, setup, |comm| {
            span(tr, "HymvOperator::setup", 0, || {
                HymvOperator::setup(comm, part, &kernel)
            })
        })
    };
    let (mut op, mut timings) = build(comm, &mut setup);
    let pristine = op.store().as_slice().to_vec();
    let n_elems = part.n_elems();
    let order = band_order(part, cfg.seed);
    let band_len = ((n_elems as f64 * spec.band_share).round() as usize).clamp(1, n_elems);
    let mut scales = vec![1.0; n_elems];
    let n = op.n_owned();
    let x: Vec<f64> = (0..n)
        .map(|i| hashed_unit(cfg.seed, comm.rank() as u64, i as u64))
        .collect();
    let mut y = vec![0.0; n];
    let stride = (band_len / 2).max(1);
    let offset = (Rng::new(cfg.seed, STREAM_DIRECTION).next_u64() % n_elems as u64) as usize;

    let step = |op: &mut HymvOperator,
                comm: &mut Comm,
                tr: Option<&Tracer>,
                s: usize,
                scales: &mut [f64],
                y: &mut [f64]| {
        let first = (offset + s * stride) % n_elems;
        let band: Vec<usize> = (0..band_len)
            .map(|k| order[(first + k) % n_elems])
            .collect();
        span(tr, "adaptive step", 0, || {
            span(tr, "HymvOperator::ke_mut", band.len() as u64, || {
                write_band(op, &pristine, &band, scales, |e| {
                    0.2 + 0.6 * (hashed_unit(cfg.seed ^ STREAM_DAMAGE, s as u64, e as u64) + 1.0)
                        / 2.0
                })
            });
            tracer::with_linop(tr, op, &mut hymv_la::Identity, |op, _| {
                for _ in 0..spec.applies_per_step {
                    op.apply(comm, &x, y);
                }
            });
        });
    };

    // Rounds of (a fresh set-up, for the first few), steps, then direct
    // applies: every metric samples the whole run, not one phase of it.
    let mut steps = Samples::default();
    let mut applies = ApplyBlock::default();
    let mut s = 0;
    let mut round = 0;
    while round < spec.setups || !common::past(comm, start, cfg.seconds) {
        if round > 0 && round < spec.setups {
            drop(op);
            (op, timings) = build(comm, &mut setup);
            scales.fill(1.0);
        }
        let per_step = steps.wall.last().copied().unwrap_or(0.01);
        for _ in 0..common::fill(comm, ROUND_S * spec.step_share, per_step) {
            common::timed(comm, &mut steps, |comm| {
                step(&mut op, comm, tr, s, &mut scales, &mut y)
            });
            s += 1;
        }
        let per_apply = applies
            .samples
            .wall
            .last()
            .copied()
            .unwrap_or(per_step / 11.0);
        let n_applies = common::fill(comm, ROUND_S * (1.0 - spec.step_share), per_apply);
        applies.run(comm, tr, &mut op, n_applies);
        round += 1;
    }

    let (mut plain, mut traced) = (Samples::default(), Samples::default());
    if let Some(t) = tr {
        for _ in 0..3 {
            common::timed(comm, &mut plain, |comm| {
                step(&mut op, comm, None, s, &mut scales, &mut y)
            });
            common::timed(comm, &mut traced, |comm| {
                step(&mut op, comm, Some(t), s + 1, &mut scales, &mut y)
            });
            s += 2;
        }
    }

    // The updated operator must act exactly like a fresh one set up with
    // the same final damage.
    let mut y_fresh = vec![0.0; n];
    op.apply(comm, &x, &mut y);
    {
        let (mut fresh, _) = HymvOperator::setup(comm, part, &kernel);
        let damaged: Vec<usize> = (0..n_elems).filter(|&e| scales[e] != 1.0).collect();
        write_band(&mut fresh, &pristine, &damaged, &mut scales.clone(), |e| {
            scales[e]
        });
        fresh.apply(comm, &x, &mut y_fresh);
    }
    let diff = y
        .iter()
        .zip(&y_fresh)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    let scale = y_fresh.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let mismatch = comm.allreduce_max_f64(diff) / comm.allreduce_max_f64(scale);

    let slab_bytes = op.block_plan().map_or(0, |p| p.bytes());
    RankOut {
        setup,
        timings,
        elems: n_elems,
        dofs: n,
        band: band_len,
        storage_bytes: op.storage_bytes(),
        slab_bytes,
        model_bytes: slab_bytes + 3 * 8 * op.maps().n_total() * op.ndof(),
        flops_per_apply: op.flops_per_apply(),
        steps,
        mismatch,
        applies,
        probe_plain: plain.wall,
        probe_traced: traced.wall,
        retries: comm.stats().retries,
        spans: tracer.map(Tracer::into_spans).unwrap_or_default(),
    }
}

/// Run `adaptive-damage-hex8`.
pub fn run(name: &str, spec: &AdaptSpec, cfg: &RunCfg) -> Report {
    let parts = partitions(spec.n, cfg.seed);
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

    let setup = Summary::of(&common::busiest(&outs, |o| &o.setup));
    let steps = Summary::of(&common::busiest(&outs, |o| &o.steps));
    let spmv = Summary::of(&common::busiest(&outs, |o| &o.applies.samples));
    let setup_wall = Summary::of(&r0.setup.wall);
    let steps_wall = Summary::of(&r0.steps.wall);
    let spmv_wall = Summary::of(&r0.applies.samples.wall);
    let rss = host::peak_rss_mib();
    rep.gated("setup_s", setup.median, setup.n);
    rep.gated("spmv_busy_ms_p10", spmv.p10 * 1e3, spmv.n);
    rep.gated("task_ms", steps.p10 * 1e3, steps.n);
    rep.gated("peak_rss_mb", rss, 1);
    rep.metric("setup_wall_s", setup_wall.median, "s", setup_wall.n);
    rep.metric("step_ms_p50", steps_wall.median * 1e3, "ms", steps_wall.n);
    rep.metric("step_busy_ms_p50", steps.median * 1e3, "ms", steps.n);
    rep.metric("spmv_ms_p50", spmv_wall.median * 1e3, "ms", spmv_wall.n);

    rep.attempted += (steps.n + spmv.n) as u64;
    rep.check(
        &format!(
            "updated operator matches a fresh one with the same damage: {:.3e} <= {MATCH_TOL:e}",
            r0.mismatch
        ),
        r0.mismatch <= MATCH_TOL,
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
        ("step_busy_ms", steps, 1e3),
        ("step_ms", steps_wall, 1e3),
        ("spmv_busy_ms", spmv, 1e3),
        ("spmv_ms", spmv_wall, 1e3),
    ]);
    rep.notes.push(format!("host.steal_share {steal}"));
    rep.notes.push(format!(
        "workload {name}: Hex8 bar n={} dofs={} ranks={RANKS} band={} elements/rank, {} applies/step",
        spec.n,
        outs.iter().map(|o| o.dofs).sum::<usize>(),
        r0.band,
        spec.applies_per_step
    ));

    if cfg.trace {
        layers(&mut rep, name, cfg, spec, &outs, steal);
    }
    rep
}

fn layers(
    rep: &mut Report,
    name: &str,
    cfg: &RunCfg,
    spec: &AdaptSpec,
    outs: &[RankOut],
    steal: f64,
) {
    let r0 = &outs[0];
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

    // Applies inside steps come in runs of `applies_per_step`: the first
    // of each run pays the slab refresh.
    let in_steps: Vec<f64> = spans
        .iter()
        .filter(|s| {
            s.name == "LinOp::apply" && s.parent.is_some_and(|p| spans[p].name == "adaptive step")
        })
        .map(Span::dur)
        .collect();

    let updates = tracer::durations(spans, "HymvOperator::ke_mut");
    rep.layer("core.update_ms_p50", median(&updates) * 1e3, updates.len());
    let refresh: Vec<f64> = in_steps
        .chunks(spec.applies_per_step)
        .filter(|c| c.len() == spec.applies_per_step)
        .map(|c| c[0] - median(&c[1..]))
        .collect();
    rep.layer("core.refresh_ms_p50", median(&refresh) * 1e3, refresh.len());
    let step_spans = tracer::durations(spans, "adaptive step");
    rep.layer(
        "core.apply_share",
        in_steps.iter().sum::<f64>() / step_spans.iter().sum::<f64>(),
        step_spans.len(),
    );

    let band: usize = outs.iter().map(|o| o.band).sum();
    rep.layer("adapt.band_elems", band as f64, 1);
    rep.layer("adapt.steps", r0.steps.wall.len() as f64, 1);
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
