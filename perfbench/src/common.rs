//! Pieces every workload shares: run settings, the seeded input
//! generator, collective time budgets, barrier-bracketed timing and the
//! direct-apply block behind `spmv_ms_p50`.

use std::path::PathBuf;
use std::time::Instant;

use hymv_comm::{thread_cpu_time, Comm};
use hymv_la::LinOp;

use crate::report::Report;
use crate::stats::{median, quantile, sorted};
use crate::tracer::{self, Span, Tracer};

/// Rank threads per workload: one per core of the 2-core reference host,
/// so no thread count exceeds the core count.
pub const RANKS: usize = 2;

/// Settings of one run.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Input seed: mesh jitter, loads, arrival gaps, damage bands.
    pub seed: u64,
    /// Wall seconds the run measures.
    pub seconds: f64,
    /// Wrap the library calls in spans and report per-layer metrics.
    pub trace: bool,
    /// Where traced runs write their spans (one JSON-lines file per rank).
    pub spans_dir: Option<PathBuf>,
}

/// SplitMix64: a small, fully specified generator, so the inputs a seed
/// makes never depend on a library's choice of algorithm.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and an independent `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ mix(stream.wrapping_add(0x5851_f42d_4c95_7f2d))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The SplitMix64 finalizer: a bijective 64-bit hash.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform in `[-1, 1)` from a hash of `(seed, a, b)`: a value that
/// depends on a global index only, so every partition sees the same
/// global vector.
pub fn hashed_unit(seed: u64, a: u64, b: u64) -> f64 {
    let h = mix(seed ^ mix(a ^ mix(b.wrapping_add(0x2545_f491_4f6c_dd1d))));
    (h >> 11) as f64 / (1u64 << 52) as f64 - 1.0
}

/// True on every rank once rank 0 has run `until_s` wall seconds past
/// `start`. Collective, so every rank leaves a loop on the same pass.
pub fn past(comm: &mut Comm, start: Instant, until_s: f64) -> bool {
    let mine = if comm.rank() == 0 && start.elapsed().as_secs_f64() >= until_s {
        1.0
    } else {
        0.0
    };
    comm.allreduce_max_f64(mine) > 0.0
}

/// Per-section timings on one rank.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Wall seconds from every rank starting to the slowest finishing.
    pub wall: Vec<f64>,
    /// This rank's thread-CPU seconds: its own work, without the time it
    /// was blocked on the other rank or its CPU was stolen by the host.
    pub busy: Vec<f64>,
}

/// Run `f` between two barriers and record its wall and busy seconds
/// into `samples`. Collective.
pub fn timed<R>(comm: &mut Comm, samples: &mut Samples, f: impl FnOnce(&mut Comm) -> R) -> R {
    comm.barrier();
    let (t0, c0) = (Instant::now(), thread_cpu_time());
    let out = f(comm);
    let c1 = thread_cpu_time();
    comm.barrier();
    samples.wall.push(t0.elapsed().as_secs_f64());
    samples.busy.push(c1 - c0);
    out
}

/// Per-section busy seconds of the slowest rank: the maximum across
/// ranks (`samples` picks each rank's series), section by section.
pub fn busiest<T>(ranks: &[T], samples: impl Fn(&T) -> &Samples) -> Vec<f64> {
    let n = ranks
        .iter()
        .map(|r| samples(r).busy.len())
        .min()
        .unwrap_or(0);
    (0..n)
        .map(|i| {
            ranks
                .iter()
                .map(|r| samples(r).busy[i])
                .fold(f64::MIN, f64::max)
        })
        .collect()
}

/// The direct applies behind `spmv_busy_ms_p50`, as measured on one rank.
#[derive(Debug, Clone, Default)]
pub struct ApplyBlock {
    /// One sample per apply.
    pub samples: Samples,
    /// Messages this rank sent during the timed applies.
    pub msgs: u64,
    /// Bytes this rank sent during the timed applies.
    pub bytes: u64,
}

impl ApplyBlock {
    /// Time `count` more single-vector applies of `op`, each between two
    /// barriers; the first call starts with three untimed warm-up applies.
    /// Collective.
    pub fn run(&mut self, comm: &mut Comm, tr: Option<&Tracer>, op: &mut dyn LinOp, count: usize) {
        let n = op.n_owned();
        let x: Vec<f64> = (0..n).map(|i| ((i % 97) as f64) * 0.01 - 0.5).collect();
        let mut y = vec![0.0; n];
        let warm = if self.samples.wall.is_empty() { 3 } else { 0 };
        tracer::with_linop(tr, op, &mut hymv_la::Identity, |op, _| {
            for _ in 0..warm {
                op.apply(comm, &x, &mut y);
            }
            for _ in 0..count {
                let s0 = comm.stats();
                timed(comm, &mut self.samples, |comm| op.apply(comm, &x, &mut y));
                let s1 = comm.stats();
                self.msgs += s1.msgs_sent - s0.msgs_sent;
                self.bytes += s1.bytes_sent - s0.bytes_sent;
            }
        });
    }
}

/// How many items of about `per_item_s` wall seconds fill `budget_s`
/// (at least one). Rank 0 decides, so every rank gets the same count.
/// Collective.
pub fn fill(comm: &mut Comm, budget_s: f64, per_item_s: f64) -> usize {
    let mine = if comm.rank() == 0 {
        (budget_s / per_item_s.max(1e-7)).ceil().clamp(1.0, 1e5)
    } else {
        0.0
    };
    comm.allreduce_max_f64(mine) as usize
}

/// Element counts of every rank, as `max / mean`.
pub fn imbalance(counts: &[usize]) -> f64 {
    let max = counts.iter().copied().max().unwrap_or(0) as f64;
    let mean = counts.iter().sum::<usize>() as f64 / counts.len().max(1) as f64;
    max / mean
}

/// Size and set-up facts of one rank's operator, from the library's own
/// counters (`SetupTimings`/`SetupBreakdown`, `storage_bytes()`,
/// `block_plan().bytes()`, `flops_per_apply()`).
#[derive(Debug, Clone, Copy)]
pub struct OpFacts {
    /// Local elements.
    pub elems: usize,
    /// Owned dofs.
    pub dofs: usize,
    /// Element-matrix compute, thread-CPU seconds.
    pub emat_s: f64,
    /// Local copy, map and communication-map set-up, thread-CPU seconds.
    pub overhead_s: f64,
    /// Bytes the operator stores.
    pub storage_bytes: usize,
    /// Bytes of the block plan: slabs and gather tables.
    pub slab_bytes: usize,
    /// Computed compulsory bytes of one apply: the block plan plus
    /// 3 × 8 bytes per local dof (read x, read and write y).
    pub model_bytes: usize,
    /// FLOPs of one apply.
    pub flops_per_apply: u64,
}

/// Per-layer metrics every workload reports the same way: partition
/// balance, set-up, storage, the `LinOp::apply` spans on rank 0 with the
/// computed rates, and the traffic of the direct applies. `facts` and
/// `applies` hold one entry per rank.
pub fn operator_layers(
    rep: &mut Report,
    facts: &[OpFacts],
    applies: &[&ApplyBlock],
    spans: &[Span],
    retries: u64,
) {
    let sum = |f: &dyn Fn(&OpFacts) -> f64| facts.iter().map(f).sum::<f64>();
    let max = |f: &dyn Fn(&OpFacts) -> f64| facts.iter().map(f).fold(f64::MIN, f64::max);
    let dofs = sum(&|f| f.dofs as f64);
    let elems: Vec<usize> = facts.iter().map(|f| f.elems).collect();
    rep.layer("mesh.elem_imbalance", imbalance(&elems), 1);
    rep.layer("fem.emat_s", max(&|f| f.emat_s), 1);
    rep.layer(
        "fem.emat_us_per_elem",
        sum(&|f| f.emat_s) / sum(&|f| f.elems as f64) * 1e6,
        1,
    );
    let setups = tracer::durations(spans, "HymvOperator::setup");
    rep.layer("core.operator_setup_s", median(&setups), setups.len());
    rep.layer("core.setup_overhead_s", max(&|f| f.overhead_s), 1);
    rep.layer(
        "core.storage_bytes_per_dof",
        sum(&|f| f.storage_bytes as f64) / dofs,
        1,
    );
    rep.layer(
        "core.slab_bytes_per_dof",
        sum(&|f| f.slab_bytes as f64) / dofs,
        1,
    );

    let durations = sorted(&tracer::durations(spans, "LinOp::apply"));
    let p50 = quantile(&durations, 0.5);
    let n = durations.len();
    rep.layer("core.apply_ms_p50", p50 * 1e3, n);
    rep.layer("core.apply_ms_p95", quantile(&durations, 0.95) * 1e3, n);
    rep.layer("core.apply_samples", n as f64, 1);
    let flops = sum(&|f| f.flops_per_apply as f64);
    let bytes = sum(&|f| f.model_bytes as f64);
    rep.layer("core.flops_per_apply", flops, 1);
    rep.layer("core.bytes_per_apply", bytes, 1);
    rep.layer("core.gflops", flops / p50 / 1e9, n);
    rep.layer("core.gbytes_s", bytes / p50 / 1e9, n);
    rep.layer("core.flop_per_byte", flops / bytes, 1);

    let count = applies[0].samples.wall.len();
    let per_apply = |f: &dyn Fn(&ApplyBlock) -> u64| {
        applies.iter().map(|a| f(a) as f64).sum::<f64>() / count as f64
    };
    rep.layer("comm.msgs_per_apply", per_apply(&|a| a.msgs), count);
    rep.layer("comm.bytes_per_apply", per_apply(&|a| a.bytes), count);
    rep.layer("comm.retries", retries as f64, 1);
}

/// The per-layer metrics that close every traced run: the host's stolen
/// CPU share, the overhead of tracing itself (median traced over median
/// untraced wall time of the same unit of work, minus one) and the span
/// count, with 0 for every metric the workload does not exercise. The
/// spans are written to `cfg.spans_dir` when one is set.
pub fn finish_layers(
    rep: &mut Report,
    cfg: &RunCfg,
    workload: &str,
    spans: &[Vec<Span>],
    untraced: &[f64],
    traced: &[f64],
    steal: f64,
) {
    rep.layer("host.steal_share", steal, 1);
    let ratio = median(traced) / median(untraced) - 1.0;
    rep.layer(
        "trace.overhead_ratio",
        ratio,
        untraced.len().min(traced.len()),
    );
    rep.layer(
        "trace.spans",
        spans.iter().map(Vec::len).sum::<usize>() as f64,
        1,
    );
    if let Some(dir) = &cfg.spans_dir {
        let written = std::fs::create_dir_all(dir).and_then(|()| {
            for (rank, s) in spans.iter().enumerate() {
                let path = dir.join(format!(
                    "spans-{workload}-seed{}-rank{rank}.jsonl",
                    cfg.seed
                ));
                tracer::write_jsonl(&path, rank, s)?;
            }
            Ok(())
        });
        match written {
            Ok(()) => rep
                .notes
                .push(format!("spans written to {}", dir.display())),
            Err(e) => rep.notes.push(format!("spans not written: {e}")),
        }
    }
    rep.zero_unused_layers();
}
