//! Disabled-path overhead guard for `hymv-trace`: with `HYMV_TRACE`
//! unset, every recording entry point is one relaxed atomic (or
//! thread-local flag) load plus a predicted branch. This bench prices
//! that fast path against a matvec's worth of the two hot instrumented
//! operations — the batched EMV block kernel scaled by the block count
//! of the smallest benched mesh, and a ghost scatter/gather round — and
//! (always, not just under criterion) asserts the per-matvec
//! instrumentation budget stays **under 3%** of either. The always-on
//! flight-recorder ring gets its own, tighter bar: a matvec's worth of
//! *armed* ring records must stay **under 2%** of both.
//!
//! `HYMV_BENCH_SMOKE=1` shrinks the criterion budget to a single-pass
//! smoke run (CI); the guard assertion runs in both modes.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hymv_comm::Universe;
use hymv_core::da::DistArray;
use hymv_core::exchange::GhostExchange;
use hymv_core::maps::HymvMaps;
use hymv_la::dense::select_batch_kernel;
use hymv_mesh::partition::{partition_mesh, PartitionMethod};
use hymv_mesh::{ElementType, StructuredHexMesh};
use hymv_trace::{Phase, SpanGuard};

fn smoke() -> bool {
    std::env::var("HYMV_BENCH_SMOKE").is_ok_and(|v| v != "0")
}

/// Instrumentation calls per operator application: the six Algorithm 2
/// phase spans plus the flop/refresh counters (see `HymvOperator::matvec`).
const CALLS_PER_MATVEC: usize = 8;

/// EMV block-kernel applications per operator application on the
/// *smallest* mesh this suite benches (8³ Hex8 at batch width 8:
/// 512 elements / 8 per block). The instrumentation budget is per
/// matvec, so it is priced against a matvec's worth of block kernels —
/// comparing 8 whole-matvec spans against ONE block application would
/// overstate the overhead by this factor.
const BLOCKS_PER_MATVEC: usize = 512 / 8;

/// Best-of-`n` seconds for `reps` executions of `f`.
fn best_of(n: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t0 = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64() / reps as f64);
    }
    best
}

/// Seconds per disabled span-guard open/close plus one counter add —
/// one "instrumentation unit" on the `HYMV_TRACE`-unset fast path.
fn disabled_unit_seconds() -> f64 {
    assert!(
        !hymv_trace::enabled(),
        "overhead guard must run without an open trace session"
    );
    best_of(9, 20_000, || {
        let g = SpanGuard::open(Phase::IndepEmv, 0.0);
        g.close(std::hint::black_box(1.0));
        hymv_trace::counter_add("hymv_bench_guard_total", &[], 1);
    })
}

/// Seconds per batched EMV block application (nd = 24, bw = 8 — the
/// Hex8-elasticity shape the CPU engine runs hottest).
fn emv_block_seconds() -> f64 {
    let (nd, bw) = (24usize, 8usize);
    let mut rng = StdRng::seed_from_u64(7);
    let keb: Vec<f64> = (0..nd * nd * bw)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect();
    let ue: Vec<f64> = (0..nd * bw).map(|_| rng.gen_range(-1.0..1.0)).collect();
    let mut ve = vec![0.0; nd * bw];
    let kernel = select_batch_kernel(bw, 1);
    best_of(9, 2_000, || {
        kernel(
            std::hint::black_box(&keb),
            std::hint::black_box(&ue),
            &mut ve,
            nd,
            bw,
            1,
        );
    })
}

/// Seconds per ghost scatter/gather round on 2 ranks of a 8³ hex mesh
/// (the instrumented exchange path, tracing disabled).
fn exchange_round_seconds() -> f64 {
    let mesh = StructuredHexMesh::unit(8, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 2, PartitionMethod::Slabs);
    let reps = if smoke() { 30 } else { 200 };
    let out = Universe::run(2, |comm| {
        let maps = HymvMaps::build(&pm.parts[comm.rank()]);
        let ex = GhostExchange::build(comm, &maps);
        let mut da = DistArray::new(&maps, 1);
        for (i, v) in da.data.iter_mut().enumerate() {
            *v = i as f64;
        }
        let t0 = Instant::now();
        for _ in 0..reps {
            ex.scatter_begin(comm, &da);
            ex.scatter_end(comm, &mut da);
            ex.gather_begin(comm, &da);
            ex.gather_end(comm, &mut da);
        }
        t0.elapsed().as_secs_f64() / reps as f64
    });
    out.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Seconds per *armed* flight-recorder deposit: a span record plus a
/// comm-tail record into a live per-thread ring (the always-on path
/// every traced site pays even with `HYMV_TRACE` unset).
fn flight_record_unit_seconds() -> f64 {
    let run = hymv_trace::flight::next_run_id();
    hymv_trace::flight::rank_begin(run, 0);
    let both = best_of(9, 20_000, || {
        hymv_trace::flight::record_span(Phase::IndepEmv, 0.0, std::hint::black_box(1.0));
        hymv_trace::flight::record_send(1, 7, 4096, std::hint::black_box(1.0));
    });
    hymv_trace::flight::rank_deposit();
    hymv_trace::flight::discard(run);
    both / 2.0
}

/// The guard: a matvec's worth of disabled instrumentation must cost
/// under 3% of a matvec's worth of EMV block kernels and of one ghost
/// exchange round (both per-matvec quantities), and a matvec's worth of
/// *armed* flight-recorder records must stay **under 2%** of both (the
/// flight ring is always on, so it gets its own, tighter bar).
fn assert_disabled_overhead_bounded() {
    let unit = disabled_unit_seconds();
    let budget = unit * CALLS_PER_MATVEC as f64;
    let flight_unit = flight_record_unit_seconds();
    let flight_budget = flight_unit * CALLS_PER_MATVEC as f64;
    let emv_matvec = emv_block_seconds() * BLOCKS_PER_MATVEC as f64;
    let round = exchange_round_seconds();
    println!(
        "trace_overhead guard: disabled unit {:.1} ns, matvec budget {:.1} ns, \
         flight unit {:.1} ns, flight budget {:.1} ns, \
         emv matvec ({} blocks) {:.2} us, exchange round {:.1} us",
        unit * 1e9,
        budget * 1e9,
        flight_unit * 1e9,
        flight_budget * 1e9,
        BLOCKS_PER_MATVEC,
        emv_matvec * 1e6,
        round * 1e6
    );
    assert!(
        budget < 0.03 * emv_matvec,
        "disabled tracing budget {budget:.3e}s exceeds 3% of a matvec of EMV blocks {emv_matvec:.3e}s"
    );
    assert!(
        budget < 0.03 * round,
        "disabled tracing budget {budget:.3e}s exceeds 3% of an exchange round {round:.3e}s"
    );
    assert!(
        flight_budget < 0.02 * emv_matvec,
        "flight-recorder budget {flight_budget:.3e}s exceeds 2% of a matvec of EMV blocks {emv_matvec:.3e}s"
    );
    assert!(
        flight_budget < 0.02 * round,
        "flight-recorder budget {flight_budget:.3e}s exceeds 2% of an exchange round {round:.3e}s"
    );
}

fn bench_disabled_path(c: &mut Criterion) {
    assert_disabled_overhead_bounded();

    let mut group = c.benchmark_group("trace_overhead");
    if smoke() {
        group
            .sample_size(2)
            .warm_up_time(Duration::from_millis(10))
            .measurement_time(Duration::from_millis(20));
    } else {
        group
            .sample_size(20)
            .warm_up_time(Duration::from_millis(200))
            .measurement_time(Duration::from_millis(500));
    }
    group.bench_function("disabled_span_guard", |b| {
        b.iter(|| {
            let g = SpanGuard::open(Phase::IndepEmv, 0.0);
            g.close(std::hint::black_box(1.0));
        });
    });
    group.bench_function("disabled_counter_add", |b| {
        b.iter(|| hymv_trace::counter_add("hymv_bench_guard_total", &[], 1));
    });
    group.bench_function("armed_flight_record", |b| {
        let run = hymv_trace::flight::next_run_id();
        hymv_trace::flight::rank_begin(run, 0);
        b.iter(|| {
            hymv_trace::flight::record_span(Phase::IndepEmv, 0.0, std::hint::black_box(1.0));
        });
        hymv_trace::flight::rank_deposit();
        hymv_trace::flight::discard(run);
    });
    group.finish();
}

criterion_group!(benches, bench_disabled_path);
criterion_main!(benches);
