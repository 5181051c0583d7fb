//! `BENCH_emv_batch` — the tentpole's acceptance experiment: per-element
//! vs batched element-block EMV loop on a fig4-style Hex8 Poisson
//! workload, swept over batch widths `B ∈ {1, 4, 8, 16, 32}`.
//!
//! Times are **wall-clock** (std::time::Instant, best-of-reps) for the
//! local elemental loop only — the piece the block engine replaces — with
//! the same store, maps, and input vector on both paths. The acceptance
//! bar is batched ≥ 1.5× faster than per-element at the best `B`.
//!
//! `--smoke` shrinks the mesh and rep count to a CI-sized single pass.

use std::time::Instant;

use hymv_bench::{ratio, Reporter};
use hymv_core::block::BlockPlan;
use hymv_core::da::DistArray;
use hymv_core::hybrid::emv_loop_serial;
use hymv_core::maps::HymvMaps;
use hymv_fem::kernel::{ElementKernel, KernelScratch};
use hymv_fem::PoissonKernel;
use hymv_la::dense::{emv_batch_kernel_name, select_batch_kernel};
use hymv_la::ElementMatrixStore;
use hymv_mesh::partition::{partition_mesh, PartitionMethod};
use hymv_mesh::{ElementType, StructuredHexMesh};

const WIDTHS: [usize; 5] = [1, 4, 8, 16, 32];

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    // fig4-style workload: structured Hex8 Poisson at fig4's per-rank
    // granularity (~4K DoFs/rank → 16³ = 4 096 elements, ~2 MiB of element
    // matrices — cache-resident, like one rank's share of the weak-scaling
    // sweep); smoke shrinks to 6³.
    let (n, reps) = if smoke { (6, 2) } else { (16, 50) };
    let mesh = StructuredHexMesh::unit(n, ElementType::Hex8).build();
    let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
    let part = &pm.parts[0];
    let kernel = PoissonKernel::new(ElementType::Hex8);
    let nd = kernel.ndof_elem();

    let maps = HymvMaps::build(part);
    let mut store = ElementMatrixStore::new(nd, maps.n_elems);
    let mut scratch = KernelScratch::default();
    for e in 0..maps.n_elems {
        kernel.compute_ke(part.elem_node_coords(e), store.ke_mut(e), &mut scratch);
    }
    let all: Vec<u32> = (0..maps.n_elems as u32).collect();
    let mut u = DistArray::new(&maps, 1);
    for (i, x) in u.data.iter_mut().enumerate() {
        // Deterministic, sign-varying fill (rand is a dev-dependency only).
        *x = ((i * 2_654_435_761) % 1000) as f64 / 500.0 - 1.0;
    }

    // Per-element baseline: the legacy serial loop.
    let mut v_ref = DistArray::new(&maps, 1);
    let (mut ue1, mut ve1) = (vec![0.0; nd], vec![0.0; nd]);
    let mut per_elem_s = f64::INFINITY;
    for _ in 0..reps {
        v_ref.fill_zero();
        let t0 = Instant::now();
        emv_loop_serial(&maps, &store, &u, &mut v_ref, &all, &mut ue1, &mut ve1);
        per_elem_s = per_elem_s.min(t0.elapsed().as_secs_f64());
    }

    let mut rep = Reporter::new(
        "BENCH_emv_batch",
        &["B", "kernel", "per-elem(s)", "batched(s)", "speedup"],
    );
    let mut best: Option<(usize, f64)> = None;
    for &bw in &WIDTHS {
        let mut plan = BlockPlan::build(&maps, 1, bw);
        plan.attach_with(|e, mut lane| lane.copy_from(store.ke(e)));
        let batch_kernel = select_batch_kernel(bw, 1);
        let pl = plan.nd() * bw;
        let (mut ue, mut ve) = (vec![0.0; pl], vec![0.0; pl]);
        let mut v = DistArray::new(&maps, 1);
        let mut batched_s = f64::INFINITY;
        for _ in 0..reps {
            v.fill_zero();
            let t0 = Instant::now();
            plan.run_serial(false, &u, &mut v, batch_kernel, &mut ue, &mut ve);
            plan.run_serial(true, &u, &mut v, batch_kernel, &mut ue, &mut ve);
            batched_s = batched_s.min(t0.elapsed().as_secs_f64());
        }
        // Guard: both paths must produce the same vector.
        for (a, b) in v_ref.data.iter().zip(&v.data) {
            assert!((a - b).abs() < 1e-12, "batched B={bw} diverged");
        }
        let speedup = per_elem_s / batched_s;
        if best.is_none_or(|(_, s)| speedup > s) {
            best = Some((bw, speedup));
        }
        rep.row(vec![
            bw.to_string(),
            emv_batch_kernel_name(bw, 1).to_string(),
            format!("{per_elem_s:.6}"),
            format!("{batched_s:.6}"),
            ratio(per_elem_s, batched_s),
        ]);
    }
    let (best_bw, best_speedup) = best.expect("nonempty sweep");
    rep.note(format!(
        "fig4-style Hex8 Poisson, {} elements (nd={nd}), serial elemental loop, best-of-{reps} wall clock",
        maps.n_elems
    ));
    rep.note(format!(
        "best B={best_bw}: {best_speedup:.2}x over per-element (acceptance bar: >= 1.5x)"
    ));
    rep.finish();

    if !smoke && best_speedup < 1.5 {
        eprintln!("BENCH_emv_batch: best speedup {best_speedup:.2}x below the 1.5x bar");
        std::process::exit(1);
    }
}
