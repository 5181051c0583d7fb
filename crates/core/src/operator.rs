//! [`HymvOperator`] — the adaptive-matrix SPMV (paper Algorithm 2).

use hymv_comm::Comm;
use hymv_fem::kernel::{ElementKernel, KernelScratch};
use hymv_la::dense::{emv_batch_flops, select_batch_kernel, EmvBatchKernel};
use hymv_la::{LinOp, MultiLinOp, Multivector};
use hymv_mesh::MeshPartition;
use hymv_trace::Phase;

use crate::block::{batch_width_from_env, check_batch_width, BlockPlan, KeLaneMut, KeView};
use crate::da::DistArray;
use crate::exchange::GhostExchange;
use crate::hybrid::ParallelMode;
use crate::maps::HymvMaps;

/// Setup cost breakdown, matching the stacked bars of Figs 5 and 7:
/// element-matrix computation vs everything HYMV adds on top (map builds,
/// communication-map construction, and the local copy into the slabs —
/// there is **no global assembly**).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTimings {
    /// Element-matrix computation (user-operator cost; identical work in
    /// the matrix-assembled baseline).
    pub emat_compute_s: f64,
    /// Local copy of the computed matrices into their slab lanes.
    pub local_copy_s: f64,
    /// E2L map construction (Algorithm 1) — local.
    pub maps_s: f64,
    /// LNSM/GNGM construction — the only communication in HYMV setup.
    pub comm_maps_s: f64,
}

impl SetupTimings {
    /// Total setup seconds.
    pub fn total(&self) -> f64 {
        self.emat_compute_s + self.local_copy_s + self.maps_s + self.comm_maps_s
    }
}

/// The HYMV operator: locally stored element matrices + EBE SPMV with
/// communication/computation overlap.
pub struct HymvOperator {
    maps: HymvMaps,
    exchange: GhostExchange,
    ndof: usize,
    mode: ParallelMode,
    /// Block color classes for the independent / dependent sets (built
    /// lazily when a colored mode is selected).
    colors: Option<(Vec<Vec<u32>>, Vec<Vec<u32>>)>,
    /// The element-block plan. Its batch-interleaved slabs are the only
    /// copy of the element matrices; `B = 1` is a width-1 plan.
    plan: BlockPlan,
    /// `nd²` scratch an updated element matrix is computed into before it
    /// is interleaved into its lane.
    ke: Vec<f64>,
    /// The single-vector apply workspace, built at setup and kept for the
    /// operator's life: single-vector applies on buffers reallocated
    /// after an SpMM measured up to ~25% more CPU (serving workload,
    /// jittered Hex8 Poisson, 2-core Xeon).
    ws1: MvWorkspace,
    /// The workspace of the last `nvec > 1` apply, rebuilt when an apply
    /// asks for a different `nvec`.
    wide: Option<MvWorkspace>,
}

/// Cached state of an apply for one vector count (`nvec = 1` is the
/// single-vector SPMV).
struct MvWorkspace {
    nvec: usize,
    /// The `(bw, nvec)` kernel, resolved once (not per element).
    kernel: EmvBatchKernel,
    u: DistArray,
    v: DistArray,
    /// `nd × bw × nvec` panel scratch.
    ue: Vec<f64>,
    ve: Vec<f64>,
}

impl MvWorkspace {
    fn new(maps: &HymvMaps, plan: &BlockPlan, ndof: usize, nvec: usize) -> Self {
        let pl = plan.nd() * plan.batch_width() * nvec;
        MvWorkspace {
            nvec,
            kernel: select_batch_kernel(plan.batch_width(), nvec),
            u: DistArray::with_nvec(maps, ndof, nvec),
            v: DistArray::with_nvec(maps, ndof, nvec),
            ue: vec![0.0; pl],
            ve: vec![0.0; pl],
        }
    }
}

impl HymvOperator {
    /// HYMV setup (paper §IV-A/§IV-D): build maps, build the communication
    /// plan, compute element matrices once and copy them into local
    /// storage. Collective.
    pub fn setup(
        comm: &mut Comm,
        part: &MeshPartition,
        kernel: &dyn ElementKernel,
    ) -> (Self, SetupTimings) {
        let setup_span = hymv_trace::SpanGuard::open(Phase::Setup, comm.vt());
        let ndof = kernel.ndof_per_node();
        let nd = kernel.ndof_elem();
        let mut t = SetupTimings::default();

        let (maps, dt) = comm.traced(Phase::MapsBuild, |comm| {
            comm.timed_work(|_| HymvMaps::build(part))
        });
        t.maps_s = dt;

        let vt0 = comm.vt();
        let exchange = GhostExchange::build(comm, &maps);
        t.comm_maps_s = comm.vt() - vt0;

        // Block plan tables (`HYMV_EMV_BATCH` selects the width). Charged
        // to the map-construction bar: it is map/layout work, purely local.
        let bw = batch_width_from_env();
        let (mut plan, dt) = comm.traced(Phase::PlanBuild, |comm| {
            comm.timed_work(|_| BlockPlan::build(&maps, ndof, bw))
        });
        t.maps_s += dt;

        // Element matrices: computed into a user-side buffer (the cost any
        // approach pays), then interleaved into their slab lanes (HYMV's
        // "local copy"). The two sub-costs interleave per element, so each
        // leg is charged through its own timed section.
        let mut ke = vec![0.0; nd * nd];
        let mut scratch = KernelScratch::default();
        comm.traced(Phase::EmatCompute, |comm| {
            plan.attach_with(|e, mut lane| {
                let (_, te) = comm.timed_work(|_| {
                    kernel.compute_ke(part.elem_node_coords(e), &mut ke, &mut scratch);
                });
                let (_, tc) = comm.timed_work(|_| lane.copy_from(&ke));
                t.emat_compute_s += te;
                t.local_copy_s += tc;
            });
        });

        let ws1 = MvWorkspace::new(&maps, &plan, ndof, 1);
        let op = HymvOperator {
            maps,
            exchange,
            ndof,
            mode: ParallelMode::Serial,
            colors: None,
            plan,
            ke,
            ws1,
            wide: None,
        };
        setup_span.close(comm.vt());
        (op, t)
    }

    /// Current batch width.
    pub fn batch_width(&self) -> usize {
        self.plan.batch_width()
    }

    /// The block plan. Always `Some`: every batch width, `1` included,
    /// runs through a plan (the `Option` is kept for callers written
    /// against the per-element path).
    pub fn block_plan(&self) -> Option<&BlockPlan> {
        Some(&self.plan)
    }

    /// Rebuild the plan for a different batch width, carrying every
    /// element matrix (including `ke_mut` writes) over lane by lane.
    /// Ablation/test hook; production code sets `HYMV_EMV_BATCH` instead.
    ///
    /// # Panics
    /// On an invalid width (`0` or above `MAX_BATCH_WIDTH`), with the
    /// same message as [`crate::parse_batch_width`] — never a silent
    /// clamp.
    pub fn set_batch_width(&mut self, bw: usize) {
        let bw = check_batch_width(bw).unwrap_or_else(|e| panic!("{e}"));
        if bw == self.batch_width() {
            return;
        }
        let mut plan = BlockPlan::build(&self.maps, self.ndof, bw);
        let old = &self.plan;
        plan.attach_with(|e, mut lane| lane.copy_from(old.ke(e)));
        self.plan = plan;
        // Kernel and panel scratch were chosen for the old width.
        self.ws1 = MvWorkspace::new(&self.maps, &self.plan, self.ndof, 1);
        self.wide = None;
        // Colors were built at the old granularity; rebuild (or fall
        // back) for the new one.
        self.colors = None;
        self.set_parallel_mode(self.mode);
    }

    /// Select the shared-memory parallelization of the elemental loop.
    ///
    /// Coloring runs at block granularity. If the mesh would need more
    /// than 64 colors (a node valence past the color mask), the operator
    /// logs a line and falls back to chunk-private accumulation instead
    /// of aborting the SPMV.
    pub fn set_parallel_mode(&mut self, mode: ParallelMode) {
        self.mode = mode;
        if let ParallelMode::Colored { threads } = mode {
            if self.colors.is_none() {
                let built = self
                    .plan
                    .color_blocks(false)
                    .zip(self.plan.color_blocks(true));
                match built {
                    Some(classes) => self.colors = Some(classes),
                    None => {
                        eprintln!(
                            "hymv: coloring needs more than 64 colors; \
                             falling back to chunk-private accumulation"
                        );
                        self.mode = ParallelMode::ChunkPrivate { threads };
                    }
                }
            }
        }
    }

    /// The adaptive-matrix path: recompute the element matrices of
    /// `local_elems` only (XFEM enrichment / AMR refinement touching a few
    /// elements) and write each straight into its slab lane. Purely local
    /// — no communication, no global reassembly. Returns the update time
    /// in virtual seconds.
    pub fn update_elements(
        &mut self,
        comm: &mut Comm,
        part: &MeshPartition,
        kernel: &dyn ElementKernel,
        local_elems: &[usize],
    ) -> f64 {
        assert_eq!(
            kernel.ndof_elem(),
            self.plan.nd(),
            "kernel/operator dimension mismatch"
        );
        for &e in local_elems {
            assert!(e < self.maps.n_elems, "element {e} out of range");
        }
        let vt0 = comm.vt();
        let (plan, ke) = (&mut self.plan, &mut self.ke);
        comm.work(|| {
            let mut scratch = KernelScratch::default();
            for &e in local_elems {
                kernel.compute_ke(part.elem_node_coords(e), ke, &mut scratch);
                plan.ke_mut(e).copy_from(&*ke);
            }
        });
        comm.vt() - vt0
    }

    /// Direct mutable access to one element matrix, in place in its slab
    /// lane (the API users call when *they* computed the enriched matrix,
    /// e.g. XFEM). The next apply sees the write.
    ///
    /// # Panics
    /// If `local_elem` is not a local element.
    pub fn ke_mut(&mut self, local_elem: usize) -> KeLaneMut<'_> {
        self.plan.ke_mut(local_elem)
    }

    /// The maps (tests, diagnostics).
    pub fn maps(&self) -> &HymvMaps {
        &self.maps
    }

    /// The communication plan.
    pub fn exchange(&self) -> &GhostExchange {
        &self.exchange
    }

    /// Bench/ablation hook: bypass the envelope wire format on the
    /// per-SPMV scatter/gather (see [`GhostExchange::set_raw_transport`]).
    pub fn set_raw_exchange(&mut self, raw: bool) {
        self.exchange.set_raw_transport(raw);
    }

    /// Read-only view of the element matrices (served from the slabs).
    pub fn store(&self) -> KeView<'_> {
        self.plan.matrices()
    }

    /// Dofs per node.
    pub fn ndof(&self) -> usize {
        self.ndof
    }

    /// Decompose into the maps, communication plan, and block plan with
    /// its matrix slabs (the GPU backend reuses them without copying).
    pub fn into_parts(self) -> (HymvMaps, GhostExchange, BlockPlan, usize) {
        (self.maps, self.exchange, self.plan, self.ndof)
    }

    /// One elemental EMV loop over a subset, for the workspace's vector
    /// count, honoring the parallel mode.
    fn run_subset(
        comm: &mut Comm,
        plan: &BlockPlan,
        mode: ParallelMode,
        colors: Option<&(Vec<Vec<u32>>, Vec<Vec<u32>>)>,
        ws: &mut MvWorkspace,
        dependent: bool,
    ) {
        let (u, v, kernel) = (&ws.u, &mut ws.v, ws.kernel);
        match mode {
            ParallelMode::Serial => {
                let (ue, ve) = (&mut ws.ue, &mut ws.ve);
                comm.work(|| plan.run_serial(dependent, u, v, kernel, ue, ve));
            }
            ParallelMode::Colored { threads } => {
                let (indep, dep) = colors.expect("set_parallel_mode built colors");
                let classes = if dependent { dep } else { indep };
                comm.work_smp(threads, || {
                    plan.run_colored(dependent, classes, u, v, kernel)
                });
            }
            ParallelMode::ChunkPrivate { threads } => {
                comm.work_smp(threads, || plan.run_chunk_private(dependent, u, v, kernel));
            }
        }
    }

    /// Algorithm 2, the HYMV SPMV, over `nvec` column-major vectors
    /// (`x[c·n + i]`, `n` the owned dof count): `y = K x`. The one body
    /// behind [`Self::matvec`], [`Self::matvec_blocking`] and
    /// [`Self::matvec_mv`].
    ///
    /// With `overlap` the scatter is in flight while the independent
    /// elements compute; without it the exchange completes first. A
    /// degraded reliable channel (persistent timeouts under an active
    /// fault plan) forces the blocking schedule: with a flaky link,
    /// overlap only widens the window in which retransmissions interleave
    /// with useful work.
    ///
    /// Every `Ke` slab is loaded once per block and reused across all
    /// `nvec` columns, and the ghost exchange ships every column of a
    /// fragment in one envelope per (neighbour, tag).
    fn apply_cols(
        &mut self,
        comm: &mut Comm,
        x: &[f64],
        nvec: usize,
        y: &mut [f64],
        overlap: bool,
    ) {
        let n = self.n_owned();
        assert_eq!(x.len(), n * nvec, "input length mismatch");
        assert_eq!(y.len(), n * nvec, "output length mismatch");
        if nvec > 1 && self.batch_width() == 1 {
            // A width-1 plan runs the per-element kernels, whose unfused
            // tail rows no multivector kernel reproduces bit for bit: keep
            // every column equal to its single-vector apply.
            for (xc, yc) in x.chunks_exact(n).zip(y.chunks_exact_mut(n)) {
                self.apply_cols(comm, xc, 1, yc, overlap);
            }
            return;
        }
        let overlap = overlap && !comm.degraded();
        let flops = self.flops_per_apply() * nvec as u64;
        let ws = if nvec == 1 {
            &mut self.ws1
        } else {
            match &mut self.wide {
                Some(ws) if ws.nvec == nvec => ws,
                wide => wide.insert(MvWorkspace::new(&self.maps, &self.plan, self.ndof, nvec)),
            }
        };
        let (plan, mode, colors) = (&self.plan, self.mode, self.colors.as_ref());

        // v ← 0; u ← x with fresh ghosts. The copies in and out are
        // charged to virtual time only for a multivector (a transpose);
        // the single-vector model leaves the two plain copies out.
        ws.v.fill_zero();
        if nvec == 1 {
            ws.u.set_owned(x);
        } else {
            comm.work(|| ws.u.set_owned(x));
        }

        // local_node_scatter_begin(u): independent elements overlap it.
        self.exchange.scatter_begin(comm, &ws.u);
        if overlap {
            comm.traced(Phase::IndepEmv, |comm| {
                Self::run_subset(comm, plan, mode, colors, ws, false)
            });
        }

        // local_node_scatter_end(u); then dependent elements.
        self.exchange.scatter_end(comm, &mut ws.u);
        if !overlap {
            comm.traced(Phase::IndepEmv, |comm| {
                Self::run_subset(comm, plan, mode, colors, ws, false)
            });
        }
        comm.traced(Phase::DepEmv, |comm| {
            Self::run_subset(comm, plan, mode, colors, ws, true)
        });

        // ghost_node_gather: accumulate ghost contributions to owners.
        self.exchange.gather_begin(comm, &ws.v);
        self.exchange.gather_end(comm, &mut ws.v);

        hymv_trace::counter_add("hymv_emv_flops_total", &[], flops);
        if nvec == 1 {
            ws.v.copy_owned_to(y);
        } else {
            comm.work(|| ws.v.copy_owned_to(y));
        }
        comm.note_exchange_outcome();
    }

    /// Algorithm 2: the HYMV SPMV (the `nvec = 1` apply).
    pub fn matvec(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.apply_cols(comm, x, 1, y, true);
    }

    /// A deliberately non-overlapped SPMV (blocking exchange up front, then
    /// all elements) — the ablation counterpart of Algorithm 2.
    pub fn matvec_blocking(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.apply_cols(comm, x, 1, y, false);
    }

    /// Algorithm 2 over a whole multivector: the SpMM `V = K·U`.
    pub fn matvec_mv(&mut self, comm: &mut Comm, x: &Multivector, y: &mut Multivector) {
        assert_eq!(x.nrows(), self.n_owned(), "input row mismatch");
        assert_eq!(y.nrows(), self.n_owned(), "output row mismatch");
        assert_eq!(x.nvec(), y.nvec(), "column-count mismatch");
        self.apply_cols(comm, x.as_slice(), x.nvec(), y.as_mut_slice(), true);
    }
}

impl MultiLinOp for HymvOperator {
    fn apply_mv(&mut self, comm: &mut Comm, x: &Multivector, y: &mut Multivector) {
        self.matvec_mv(comm, x, y);
    }
}

impl LinOp for HymvOperator {
    fn n_owned(&self) -> usize {
        self.maps.n_owned() * self.ndof
    }

    fn apply(&mut self, comm: &mut Comm, x: &[f64], y: &mut [f64]) {
        self.matvec(comm, x, y);
    }

    fn flops_per_apply(&self) -> u64 {
        // Padded tail lanes execute (zero-matrix) FLOPs too — count what
        // actually runs.
        self.plan.n_blocks_total() as u64 * emv_batch_flops(self.plan.nd(), self.batch_width())
    }

    fn storage_bytes(&self) -> usize {
        // The slabs are the only copy of the matrices.
        self.plan.bytes()
    }

    /// LFLR world repair: the partition is unchanged, but a resurrected
    /// rank's exchange plan is gone and its derived layouts are stale.
    /// `GhostExchange::build` is collective (it runs a sparse all-to-all),
    /// so every rank rebuilds — survivors get a bit-identical plan, the
    /// resurrected ranks get theirs back from the unchanged maps. The
    /// block plan's slabs *are* the element matrices, so a resurrected
    /// rank keeps them and rebuilds only its derived state (multivector
    /// workspace, colors); the single-vector workspace is overwritten by
    /// every apply and stays.
    fn repair(&mut self, comm: &mut Comm, dead: &[usize]) {
        let raw = self.exchange.raw_transport();
        self.exchange = GhostExchange::build(comm, &self.maps);
        self.exchange.set_raw_transport(raw);
        if dead.contains(&comm.rank()) {
            self.wide = None;
            self.colors = None;
            self.set_parallel_mode(self.mode);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_comm::Universe;
    use hymv_fem::PoissonKernel;
    use hymv_mesh::partition::{partition_mesh, PartitionMethod};
    use hymv_mesh::{ElementType, StructuredHexMesh};

    /// Serial dense reference: assemble the global matrix from element
    /// matrices and multiply directly.
    fn dense_reference(
        mesh: &hymv_mesh::GlobalMesh,
        kernel: &dyn ElementKernel,
        x: &[f64],
    ) -> Vec<f64> {
        let npe = mesh.elem_type.nodes_per_elem();
        let ndof = kernel.ndof_per_node();
        let n = mesh.n_nodes() * ndof;
        let nd = npe * ndof;
        let mut y = vec![0.0; n];
        let mut ke = vec![0.0; nd * nd];
        let mut scratch = KernelScratch::default();
        for e in 0..mesh.n_elems() {
            let nodes = mesh.elem_nodes(e);
            let coords: Vec<[f64; 3]> = nodes.iter().map(|&g| mesh.coords[g as usize]).collect();
            kernel.compute_ke(&coords, &mut ke, &mut scratch);
            for (bj, &gj) in nodes.iter().enumerate() {
                for cj in 0..ndof {
                    let xj = x[gj as usize * ndof + cj];
                    let col = (bj * ndof + cj) * nd;
                    for (bi, &gi) in nodes.iter().enumerate() {
                        for ci in 0..ndof {
                            y[gi as usize * ndof + ci] += ke[col + bi * ndof + ci] * xj;
                        }
                    }
                }
            }
        }
        y
    }

    #[test]
    fn hymv_matvec_matches_dense_reference() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let kernel = PoissonKernel::new(ElementType::Hex8);
        let n = mesh.n_nodes();
        let x_global: Vec<f64> = (0..n).map(|i| ((i * 13 % 17) as f64) - 8.0).collect();

        for p in [1usize, 2, 4] {
            for method in [PartitionMethod::Slabs, PartitionMethod::GreedyGraph] {
                let pm = partition_mesh(&mesh, p, method);
                // Renumbering permutes nodes; build the permuted reference.
                // partition_mesh renumbers nodes; recover old→new from
                // coordinate identity: instead simply compute reference on
                // the renumbered system by re-deriving a "renumbered mesh".
                let results = Universe::run(p, |comm| {
                    let part = &pm.parts[comm.rank()];
                    let kernel = PoissonKernel::new(ElementType::Hex8);
                    let (mut op, t) = HymvOperator::setup(comm, part, &kernel);
                    assert!(t.total() >= 0.0);
                    let lo = part.node_range.0 as usize;
                    let x_local = x_global[lo..lo + op.n_owned()].to_vec();
                    let mut y = vec![0.0; op.n_owned()];
                    op.matvec(comm, &x_local, &mut y);
                    // Blocking variant must agree.
                    let mut yb = vec![0.0; op.n_owned()];
                    op.matvec_blocking(comm, &x_local, &mut yb);
                    for (a, b) in y.iter().zip(&yb) {
                        assert!((a - b).abs() < 1e-12);
                    }
                    (lo, y)
                });
                // Reference on the *renumbered* mesh: rebuild a GlobalMesh
                // in the new numbering from the partitions.
                let renum = renumbered_mesh(&pm, &mesh);
                let y_ref = dense_reference(&renum, &kernel, &x_global);
                for (lo, y) in results {
                    for (i, &v) in y.iter().enumerate() {
                        assert!(
                            (v - y_ref[lo + i]).abs() < 1e-9,
                            "p={p} {method:?} dof {}: {v} vs {}",
                            lo + i,
                            y_ref[lo + i]
                        );
                    }
                }
            }
        }
    }

    /// Rebuild a serial GlobalMesh in the post-partition numbering.
    fn renumbered_mesh(
        pm: &hymv_mesh::PartitionedMesh,
        original: &hymv_mesh::GlobalMesh,
    ) -> hymv_mesh::GlobalMesh {
        let n = original.n_nodes();
        let npe = original.elem_type.nodes_per_elem();
        let mut coords = vec![[0.0; 3]; n];
        let mut connectivity = vec![0u64; original.connectivity.len()];
        for part in &pm.parts {
            for (le, &ge) in part.elem_global_ids.iter().enumerate() {
                let nodes = part.elem_nodes(le);
                let cs = part.elem_node_coords(le);
                for (m, (&g, &c)) in nodes.iter().zip(cs).enumerate() {
                    coords[g as usize] = c;
                    connectivity[ge as usize * npe + m] = g;
                }
            }
        }
        hymv_mesh::GlobalMesh {
            elem_type: original.elem_type,
            coords,
            connectivity,
        }
    }

    #[test]
    fn parallel_modes_agree() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::Slabs);
        let out = Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, part, &kernel);
            let x: Vec<f64> = (0..op.n_owned()).map(|i| (i as f64 * 0.31).sin()).collect();
            let mut y_serial = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y_serial);

            op.set_parallel_mode(ParallelMode::Colored { threads: 4 });
            let mut y_col = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y_col);

            op.set_parallel_mode(ParallelMode::ChunkPrivate { threads: 4 });
            let mut y_cp = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y_cp);

            for i in 0..y_serial.len() {
                assert!((y_serial[i] - y_col[i]).abs() < 1e-11);
                assert!((y_serial[i] - y_cp[i]).abs() < 1e-11);
            }
            true
        });
        assert!(out.iter().all(|&b| b));
    }

    #[test]
    fn adaptive_update_changes_result() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let out = Universe::run(1, |comm| {
            let part = &pm.parts[0];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, part, &kernel);
            let x = vec![1.0; op.n_owned()];
            let mut y0 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y0);
            // "Enrich" element 0: scale its matrix by 2 — like a stiffness
            // change from a crack.
            for v in op.ke_mut(0) {
                *v *= 2.0;
            }
            let mut y1 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y1);
            // Row sums of the Laplacian Ke are 0, so Kv with v=1 stays 0 —
            // use a non-constant vector instead.
            let x2: Vec<f64> = (0..op.n_owned()).map(|i| i as f64).collect();
            let mut y2 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x2, &mut y2);
            // Recompute element 0 back via the kernel path.
            let dt = op.update_elements(comm, part, &kernel, &[0]);
            assert!(dt >= 0.0);
            let mut y3 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x2, &mut y3);
            (y2, y3)
        });
        let (y2, y3) = &out[0];
        // After restoring Ke, results must differ from the doubled version.
        assert!(y2.iter().zip(y3).any(|(a, b)| (a - b).abs() > 1e-12));
    }

    #[test]
    fn setup_has_no_spmv_side_effects() {
        // Two setups on the same universe produce identical operators.
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::Rcb);
        let ok = Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut a, _) = HymvOperator::setup(comm, part, &kernel);
            let (mut b, _) = HymvOperator::setup(comm, part, &kernel);
            let x: Vec<f64> = (0..a.n_owned()).map(|i| (i as f64).cos()).collect();
            let mut ya = vec![0.0; a.n_owned()];
            let mut yb = vec![0.0; b.n_owned()];
            a.matvec(comm, &x, &mut ya);
            b.matvec(comm, &x, &mut yb);
            ya == yb
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn flops_and_storage_reported() {
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let out = Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            op.set_batch_width(1);
            let legacy = (op.flops_per_apply(), op.storage_bytes());
            op.set_batch_width(8);
            let batched = (op.flops_per_apply(), op.storage_bytes());
            (legacy, batched)
        });
        let (legacy, batched) = out[0];
        // bw=1: 8 elements × 2 × 8² flops; storage is the one copy of the
        // matrices (8 width-1 slabs of 64 f64) + the gather tables (u32).
        assert_eq!(legacy.0, 8 * 128);
        assert_eq!(legacy.1, 8 * 64 * 8 + 8 * 8 * 4);
        // bw=8 (8 elements → exactly one block): same flops, same bytes.
        assert_eq!(batched.0, 8 * 128);
        assert_eq!(batched.1, 8 * 64 * 8 + 8 * 8 * 4);
    }

    #[test]
    fn batched_widths_match_per_element_path() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::GreedyGraph);
        let ok = Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, part, &kernel);
            let x: Vec<f64> = (0..op.n_owned()).map(|i| (i as f64 * 0.7).cos()).collect();
            op.set_batch_width(1);
            let mut y_ref = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y_ref);
            for bw in [8usize, 16] {
                op.set_batch_width(bw);
                assert_eq!(op.batch_width(), bw);
                let mut y = vec![0.0; op.n_owned()];
                op.matvec(comm, &x, &mut y);
                for (a, b) in y_ref.iter().zip(&y) {
                    assert!((a - b).abs() < 1e-12, "bw={bw}: {a} vs {b}");
                }
            }
            true
        });
        assert!(ok.iter().all(|&b| b));
    }

    #[test]
    fn adaptive_update_reaches_batched_slabs() {
        // ke_mut on the batched path must change the next matvec (it
        // writes the slab lane the SPMV streams).
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let out = Universe::run(1, |comm| {
            let part = &pm.parts[0];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, part, &kernel);
            op.set_batch_width(8);
            let x: Vec<f64> = (0..op.n_owned()).map(|i| i as f64).collect();
            let mut y0 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y0);
            for v in op.ke_mut(0) {
                *v *= 2.0;
            }
            let mut y1 = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y1);
            // Cross-check at B=1: the width change carries the write over.
            op.set_batch_width(1);
            let mut y1_ref = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y1_ref);
            (y0, y1, y1_ref)
        });
        let (y0, y1, y1_ref) = &out[0];
        assert!(y0.iter().zip(y1).any(|(a, b)| (a - b).abs() > 1e-12));
        for (a, b) in y1.iter().zip(y1_ref) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// The SpMM path is bitwise identical to `nvec` sequential SPMVs in
    /// every kernel-class-matched configuration: SIMD batch widths with
    /// SIMD column counts (bw = 8 against nvec ∈ {4, 8, 16}), the
    /// single-column multivector (bw = 8, nvec = 1: the same apply as
    /// `matvec`), the portable pair (bw = 5, nvec = 5), and width-1 plans
    /// (bw = 1, which the apply runs column by column). Runs on 2 ranks so
    /// the coalesced exchange is exercised, for scalar (Poisson) and
    /// vector (elasticity, ndof = 3) problems.
    #[test]
    fn matvec_mv_matches_sequential_columns_bitwise() {
        use hymv_fem::ElasticityKernel;
        use hymv_la::Multivector;
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::GreedyGraph);
        let ok = Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernels: [Box<dyn ElementKernel>; 2] = [
                Box::new(PoissonKernel::new(ElementType::Hex8)),
                Box::new(ElasticityKernel::new(ElementType::Hex8, 1.0, 0.3, [0.0; 3])),
            ];
            for kernel in &kernels {
                let (mut op, _) = HymvOperator::setup(comm, part, kernel.as_ref());
                let n = op.n_owned();
                for (bw, nvecs) in [
                    (8usize, &[1usize, 4, 8, 16][..]),
                    (5, &[5][..]),
                    (1, &[3][..]),
                ] {
                    op.set_batch_width(bw);
                    for &nvec in nvecs {
                        let cols: Vec<Vec<f64>> = (0..nvec)
                            .map(|c| {
                                (0..n)
                                    .map(|i| ((i * 13 + c * 7) % 17) as f64 * 0.25 - 2.0)
                                    .collect()
                            })
                            .collect();
                        let x = Multivector::from_columns(&cols);
                        let mut y_ref = Multivector::new(n, nvec);
                        let mut yc = vec![0.0; n];
                        for c in 0..nvec {
                            op.matvec(comm, x.col(c), &mut yc);
                            y_ref.col_mut(c).copy_from_slice(&yc);
                        }
                        let mut y = Multivector::new(n, nvec);
                        op.matvec_mv(comm, &x, &mut y);
                        for c in 0..nvec {
                            for i in 0..n {
                                assert_eq!(
                                    y.col(c)[i].to_bits(),
                                    y_ref.col(c)[i].to_bits(),
                                    "bw={bw} nvec={nvec} col={c} dof={i}: {} vs {}",
                                    y.col(c)[i],
                                    y_ref.col(c)[i]
                                );
                            }
                        }
                    }
                }
            }
            true
        });
        assert!(ok.iter().all(|&b| b));
    }

    /// Ragged-tail coverage for the SpMM path: 27 elements with bw = 8
    /// leaves a 3-lane tail block whose padded lanes must never write.
    #[test]
    fn matvec_mv_ragged_tail_matches() {
        use hymv_la::Multivector;
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let out = Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            op.set_batch_width(8); // 27 elems → 3 full blocks + tail of 3
            let n = op.n_owned();
            let nvec = 8;
            let cols: Vec<Vec<f64>> = (0..nvec)
                .map(|c| (0..n).map(|i| (i as f64 * 0.31 + c as f64).sin()).collect())
                .collect();
            let x = Multivector::from_columns(&cols);
            let mut y = Multivector::new(n, nvec);
            op.matvec_mv(comm, &x, &mut y);
            let mut y_ref = Multivector::new(n, nvec);
            let mut yc = vec![0.0; n];
            for c in 0..nvec {
                op.matvec(comm, x.col(c), &mut yc);
                y_ref.col_mut(c).copy_from_slice(&yc);
            }
            (y, y_ref)
        });
        let (y, y_ref) = &out[0];
        assert_eq!(y, y_ref);
    }

    #[test]
    fn coloring_fallback_keeps_matvec_correct() {
        // An umbrella of tets all sharing one node needs >64 colors at
        // element (bw=1) granularity; the operator must log, fall back to
        // chunk-private, and still produce the serial answer.
        let n_elems = 65usize;
        let n_nodes = 1 + 3 * n_elems;
        let mut e2g = Vec::with_capacity(4 * n_elems);
        let mut coords = vec![[0.0f64; 3]; n_nodes];
        for e in 0..n_elems {
            let base = (1 + 3 * e) as u64;
            e2g.extend_from_slice(&[0, base, base + 1, base + 2]);
            // A valid (non-degenerate) unit tet per element, offset so the
            // Poisson kernel gets a finite Jacobian everywhere.
            let o = e as f64;
            coords[base as usize] = [1.0 + o, 0.0, 0.0];
            coords[base as usize + 1] = [o, 1.0, 0.0];
            coords[base as usize + 2] = [o, 0.0, 1.0];
        }
        let part = hymv_mesh::MeshPartition {
            rank: 0,
            elem_type: ElementType::Tet4,
            e2g,
            node_range: (0, n_nodes as u64),
            elem_coords: {
                let mut ec = Vec::with_capacity(n_elems * 4);
                for e in 0..n_elems {
                    ec.push(coords[0]);
                    for m in 0..3 {
                        ec.push(coords[1 + 3 * e + m]);
                    }
                }
                ec
            },
            elem_global_ids: (0..n_elems as u64).collect(),
            n_global_nodes: n_nodes as u64,
        };
        let out = Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Tet4);
            let (mut op, _) = HymvOperator::setup(comm, &part, &kernel);
            op.set_batch_width(1);
            let x: Vec<f64> = (0..op.n_owned()).map(|i| (i as f64 * 0.13).sin()).collect();
            let mut y_serial = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y_serial);
            op.set_parallel_mode(ParallelMode::Colored { threads: 4 });
            // >64 colors: must have fallen back rather than panicked.
            assert!(matches!(op.mode, ParallelMode::ChunkPrivate { .. }));
            let mut y = vec![0.0; op.n_owned()];
            op.matvec(comm, &x, &mut y);
            (y_serial, y)
        });
        let (y_serial, y) = &out[0];
        for (a, b) in y_serial.iter().zip(y) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "batch width 0 is invalid")]
    fn set_batch_width_rejects_zero() {
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            op.set_batch_width(0);
        });
    }

    #[test]
    #[should_panic(expected = "batch width 65 exceeds the maximum of 64")]
    fn set_batch_width_rejects_65() {
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        Universe::run(1, |comm| {
            let kernel = PoissonKernel::new(ElementType::Hex8);
            let (mut op, _) = HymvOperator::setup(comm, &pm.parts[0], &kernel);
            op.set_batch_width(65);
        });
    }

    /// The slabs are the only copy of `Ke`, written in place: a history of
    /// seeded `ke_mut` band writes and `update_elements` restores leaves
    /// the operator bitwise equal to a fresh setup given only the net
    /// writes, padded tail lanes stay zero, a width change carries every
    /// write over, and storage is exactly the plan.
    #[test]
    fn in_place_lane_writes_equal_fresh_setup() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // 27 elements over 2 ranks: ragged tail blocks at bw = 5 and 8.
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 2, PartitionMethod::GreedyGraph);
        let ok = Universe::run(2, |comm| {
            let part = &pm.parts[comm.rank()];
            let kernel = PoissonKernel::new(ElementType::Hex8);
            for (bw, next_bw) in [(1usize, 5usize), (5, 8), (8, 1)] {
                let (mut a, _) = HymvOperator::setup(comm, part, &kernel);
                a.set_batch_width(bw);
                let pristine = a.store().as_slice();
                let nd2 = a.store().nd() * a.store().nd();
                let n_elems = a.store().n_elems();
                let mut rng = StdRng::seed_from_u64(17 + bw as u64 + comm.rank() as u64);
                // Net scale per element after the whole history.
                let mut scale = vec![1.0f64; n_elems];
                let write = |op: &mut HymvOperator, e: usize, s: f64| {
                    let src = &pristine[e * nd2..(e + 1) * nd2];
                    for (dst, &v) in op.ke_mut(e).iter_mut().zip(src) {
                        *dst = s * v;
                    }
                };
                let x: Vec<f64> = (0..a.n_owned()).map(|i| (i as f64 * 0.37).sin()).collect();
                let mut ya = vec![0.0; a.n_owned()];
                for round in 0..3 {
                    let band: Vec<usize> =
                        (0..n_elems).filter(|_| rng.gen_range(0..4) == 0).collect();
                    for &e in &band {
                        let s = rng.gen_range(0.2..0.8);
                        write(&mut a, e, s);
                        scale[e] = s;
                    }
                    // Restore every other band element through the kernel.
                    let restored: Vec<usize> = band.iter().copied().step_by(2).collect();
                    a.update_elements(comm, part, &kernel, &restored);
                    for &e in &restored {
                        scale[e] = 1.0;
                    }
                    if round < 2 {
                        a.matvec(comm, &x, &mut ya);
                    }
                }
                a.matvec(comm, &x, &mut ya);

                // (a) a fresh operator given only the net writes.
                let (mut b, _) = HymvOperator::setup(comm, part, &kernel);
                b.set_batch_width(bw);
                for (e, &s) in scale.iter().enumerate() {
                    if s != 1.0 {
                        write(&mut b, e, s);
                    }
                }
                let mut yb = vec![0.0; b.n_owned()];
                b.matvec(comm, &x, &mut yb);
                assert!(
                    ya.iter().zip(&yb).all(|(p, q)| p.to_bits() == q.to_bits()),
                    "bw={bw}: in-place writes differ from a fresh setup"
                );

                // (b) padded tail lanes are still zero.
                let plan = a.block_plan().unwrap();
                for dependent in [false, true] {
                    let set = plan.set(dependent);
                    for k in 0..set.n_blocks() {
                        for (i, v) in set.keb(k).iter().enumerate() {
                            if i % bw >= set.len(k) {
                                assert_eq!(v.to_bits(), 0, "bw={bw} block {k} slot {i}");
                            }
                        }
                    }
                }

                // (d) storage is exactly the plan.
                assert_eq!(a.storage_bytes(), a.block_plan().unwrap().bytes());

                // (c) a width change carries every write over.
                a.set_batch_width(next_bw);
                assert_eq!(a.storage_bytes(), a.block_plan().unwrap().bytes());
                let mut yc = vec![0.0; a.n_owned()];
                a.matvec(comm, &x, &mut yc);
                for (p, q) in ya.iter().zip(&yc) {
                    assert!((p - q).abs() < 1e-12, "bw={bw}->{next_bw}: {p} vs {q}");
                }
            }
            true
        });
        assert!(ok.iter().all(|&b| b));
    }
}
