//! The batched element-block engine: `BlockPlan` and the blocked EMV
//! loops that are HYMV's default CPU SPMV path.
//!
//! The per-element loop of [`crate::hybrid`] walks one element at a time —
//! a gather, one `nd × nd` EMV, a scatter — so SIMD lanes are capped by
//! `nd` and every element pays dispatch and map-lookup overhead. The block
//! engine cuts each element subset (independent / dependent) into blocks
//! of `bw` elements and evaluates `Ve = Ke_b · Ue` with the batched
//! kernels of [`hymv_la::dense`], vectorizing **across the batch**:
//!
//! * element matrices live batch-interleaved (`keb[(j·nd+i)·bw + b]`), so
//!   each matrix entry position is a unit-stride strip of `bw` lanes.
//!   These slabs are the operator's only copy of `Ke`: element `e`'s
//!   matrix is read and written in place through its strided lane
//!   ([`KeLane`], [`KeLaneMut`]), and `B = 1` is simply a width-1 plan
//!   whose lanes are plain column-major matrices;
//! * per-block gather/scatter index tables are flattened from `E2L` at
//!   plan build time — the inner loop does zero map lookups;
//! * blocks are ordered by a locality sort (min local-node index) so
//!   consecutive blocks reuse cached stretches of `u`;
//! * a ragged tail (`subset.len() % bw ≠ 0`) is padded with zeroed
//!   matrices and gather index 0; the scatter is lane-bounded so padded
//!   lanes never write (keeping results bitwise independent of padding).
//!
//! Blocks are also the parallel grain: coloring moves to block
//! granularity and chunk-private chunks whole blocks.
//!
//! One loop serves every vector count. The DA it reads and writes carries
//! `nvec` columns (`nvec = 1` is a plain vector), the panels widen to
//! `nd × bw × nvec` with the columns of one (dof, lane) contiguous, and
//! the kernel comes from the one `(bw, nvec)` dispatch table of
//! [`hymv_la::dense`] — at `nvec = 1` exactly the single-vector kernels.
//! Gather and scatter keep an `nvec = 1` arm so the single-vector hot
//! path does no per-entry slice copies.

use rayon::prelude::*;

use std::iter::StepBy;
use std::ops::{Index, Range};
use std::slice;

use hymv_la::dense::{EmvBatchKernel, MAX_BATCH_WIDTH};
use hymv_la::MAX_NVEC_WIDTH;

use crate::da::DistArray;
use crate::hybrid::{on_rank_pool, RacyTarget};
use crate::maps::HymvMaps;

/// Environment variable selecting the batch width (`B=1` is a width-1
/// plan on the per-element kernels; invalid values are a hard error,
/// never a clamp).
pub const BATCH_ENV: &str = "HYMV_EMV_BATCH";

/// Default batch width: one AVX-512 vector (two AVX2 vectors) of lanes —
/// wide enough to amortize per-block overhead, small enough that the
/// `nd × bw` panels of even Hex27 elasticity (nd = 81) stay L1-resident.
pub const DEFAULT_BATCH_WIDTH: usize = 8;

/// Parse a batch-width string. The one validation path shared by the
/// `HYMV_EMV_BATCH` reader and the `--batch` CLI flags: `0`, values above
/// [`MAX_BATCH_WIDTH`], and non-numeric input are errors with a message
/// saying exactly what was wrong — silently clamping would make a typo'd
/// width run a different kernel than the one the user asked to measure.
pub fn parse_batch_width(s: &str) -> Result<usize, String> {
    let t = s.trim();
    match t.parse::<usize>() {
        Ok(b) => check_batch_width(b),
        Err(_) => Err(format!(
            "batch width {t:?} is not a number (expected 1..={MAX_BATCH_WIDTH})"
        )),
    }
}

/// The range rule behind [`parse_batch_width`], for widths that are
/// already numbers (`HymvOperator::set_batch_width`).
pub(crate) fn check_batch_width(b: usize) -> Result<usize, String> {
    match b {
        0 => Err(format!(
            "batch width 0 is invalid (use 1 for one element per block, up to {MAX_BATCH_WIDTH})"
        )),
        b if b > MAX_BATCH_WIDTH => Err(format!(
            "batch width {b} exceeds the maximum of {MAX_BATCH_WIDTH}"
        )),
        b => Ok(b),
    }
}

/// Environment variable selecting the multivector width the solve
/// service batches to (`nvec=1` recovers sequential single-RHS solves;
/// invalid values are a hard error, never a clamp).
pub const NVEC_ENV: &str = "HYMV_EMV_NVEC";

/// Default multivector width: one AVX-512 vector of columns — every `Ke`
/// slab load is amortized over 8 right-hand sides while the `nd × bw ×
/// nvec` panels of the evaluated element types stay cache-resident.
pub const DEFAULT_NVEC_WIDTH: usize = 8;

/// Parse a multivector-width string — the one validation path shared by
/// the `HYMV_EMV_NVEC` reader and the `--nvec` CLI flags. Same contract
/// as [`parse_batch_width`]: `0`, values above [`MAX_NVEC_WIDTH`], and
/// non-numeric input are errors naming the problem, never a clamp.
pub fn parse_nvec_width(s: &str) -> Result<usize, String> {
    let t = s.trim();
    match t.parse::<usize>() {
        Ok(0) => Err(format!(
            "multivector width 0 is invalid (use 1 for single-RHS solves, up to {MAX_NVEC_WIDTH})"
        )),
        Ok(n) if n > MAX_NVEC_WIDTH => Err(format!(
            "multivector width {n} exceeds the maximum of {MAX_NVEC_WIDTH}"
        )),
        Ok(n) => Ok(n),
        Err(_) => Err(format!(
            "multivector width {t:?} is not a number (expected 1..={MAX_NVEC_WIDTH})"
        )),
    }
}

/// The multivector width selected by `HYMV_EMV_NVEC`, or the default when
/// the variable is unset.
///
/// # Panics
/// On an invalid value (`0`, `> MAX_NVEC_WIDTH`, non-numeric): a bad
/// width must stop setup, not silently run a different configuration.
pub fn nvec_width_from_env() -> usize {
    match std::env::var(NVEC_ENV) {
        Ok(s) => match parse_nvec_width(&s) {
            Ok(n) => n,
            Err(e) => panic!("{NVEC_ENV}: {e}"),
        },
        Err(_) => DEFAULT_NVEC_WIDTH,
    }
}

/// The batch width selected by `HYMV_EMV_BATCH`, or the default when the
/// variable is unset.
///
/// # Panics
/// On an invalid value (`0`, `> MAX_BATCH_WIDTH`, non-numeric): a bad
/// width must stop setup, not silently run a different configuration.
pub fn batch_width_from_env() -> usize {
    match std::env::var(BATCH_ENV) {
        Ok(s) => match parse_batch_width(&s) {
            Ok(b) => b,
            Err(e) => panic!("{BATCH_ENV}: {e}"),
        },
        Err(_) => DEFAULT_BATCH_WIDTH,
    }
}

/// One element subset (independent or dependent) cut into blocks of `bw`
/// locality-sorted elements, with flattened gather/scatter tables and the
/// batch-interleaved matrix slabs.
#[derive(Debug, Clone)]
pub struct BlockSet {
    nd: usize,
    bw: usize,
    /// Live lanes per block (`< bw` only in the final, ragged block).
    lens: Vec<u32>,
    /// Element ids, `n_blocks × bw`; padded lanes hold `u32::MAX`.
    elems: Vec<u32>,
    /// Dof-level gather indices into the DA data, `n_blocks × nd × bw`
    /// (`gidx[(k·nd + r)·bw + b]` = DA index of row `r`, lane `b` of block
    /// `k`); padded lanes hold 0.
    gidx: Vec<u32>,
    /// Batch-interleaved element matrices, `n_blocks × nd² × bw`; padded
    /// lanes are zero. Empty until [`BlockPlan::attach_with`] (the
    /// matrix-free operator uses the tables with its own scratch slab).
    keb: Vec<f64>,
    /// Block ids `0..n_blocks` (the chunk-private loop's par-chunks base).
    ids: Vec<u32>,
}

impl BlockSet {
    fn build(maps: &HymvMaps, ndof: usize, bw: usize, subset: &[u32]) -> Self {
        let nd = maps.npe * ndof;
        // Locality sort: elements ordered by their minimum local node so
        // consecutive blocks touch nearby stretches of u/v. Stable
        // tie-break on element id keeps the order deterministic.
        let mut order: Vec<u32> = subset.to_vec();
        order.sort_by_key(|&e| {
            let lo = maps
                .elem_local_nodes(e as usize)
                .iter()
                .copied()
                .min()
                .unwrap_or(0);
            (lo, e)
        });

        let n_blocks = order.len().div_ceil(bw);
        let mut lens = vec![0u32; n_blocks];
        let mut elems = vec![u32::MAX; n_blocks * bw];
        let mut gidx = vec![0u32; n_blocks * nd * bw];
        for (pos, &e) in order.iter().enumerate() {
            let (k, b) = (pos / bw, pos % bw);
            lens[k] += 1;
            elems[k * bw + b] = e;
            let nodes = maps.elem_local_nodes(e as usize);
            for (m, &l) in nodes.iter().enumerate() {
                for c in 0..ndof {
                    gidx[(k * nd + m * ndof + c) * bw + b] = l * ndof as u32 + c as u32;
                }
            }
        }
        BlockSet {
            nd,
            bw,
            lens,
            elems,
            gidx,
            keb: Vec::new(),
            ids: (0..n_blocks as u32).collect(),
        }
    }

    /// Number of blocks.
    pub fn n_blocks(&self) -> usize {
        self.lens.len()
    }

    /// Live lanes of block `k`.
    pub fn len(&self, k: usize) -> usize {
        self.lens[k] as usize
    }

    /// True if the set has no blocks.
    pub fn is_empty(&self) -> bool {
        self.lens.is_empty()
    }

    /// Element ids of block `k` (`bw` entries; padded lanes = `u32::MAX`).
    pub fn elems(&self, k: usize) -> &[u32] {
        &self.elems[k * self.bw..(k + 1) * self.bw]
    }

    /// Doubles per panel (`nd × bw`).
    pub fn panel_len(&self) -> usize {
        self.nd * self.bw
    }

    /// Block `k`'s flattened gather/scatter table (`nd × bw` DA dof
    /// indices, lane-major; padded lanes hold 0). Read-only, exposed for
    /// the `hymv-verify` alias prover — the write set of block `k` is the
    /// live-lane subset of these indices.
    pub fn gather_indices(&self, k: usize) -> &[u32] {
        let pl = self.panel_len();
        &self.gidx[k * pl..(k + 1) * pl]
    }

    /// The block-id list the chunk-private loop chunks over. Read-only,
    /// exposed for the `hymv-verify` fallback-coverage proof.
    pub fn block_ids(&self) -> &[u32] {
        &self.ids
    }

    /// Block `k`'s interleaved matrix slab (requires attached slabs).
    pub fn keb(&self, k: usize) -> &[f64] {
        let sz = self.nd * self.nd * self.bw;
        &self.keb[k * sz..(k + 1) * sz]
    }

    /// Gather block `k`'s `nd × bw × nvec` input panel from DA data
    /// holding `nvec` columns: `ue[t·nvec + c] = data[gidx[t]·nvec + c]`.
    /// Padded lanes read slot 0 (a harmless in-bounds load; their matrix
    /// lanes are zero).
    #[inline]
    pub fn gather(&self, k: usize, data: &[f64], nvec: usize, ue: &mut [f64]) {
        let pl = self.panel_len();
        let gi = &self.gidx[k * pl..(k + 1) * pl];
        debug_assert_eq!(ue.len(), pl * nvec);
        if nvec == 1 {
            for (u, &r) in ue.iter_mut().zip(gi) {
                *u = data[r as usize];
            }
        } else {
            for (u, &r) in ue.chunks_exact_mut(nvec).zip(gi) {
                let src = r as usize * nvec;
                u.copy_from_slice(&data[src..src + nvec]);
            }
        }
    }

    /// Scatter block `k`'s output panel through `add(flat_index, value)`
    /// with `flat_index = dof·nvec + column`. Lane-bounded: padded lanes
    /// are skipped, so padding never perturbs the result (not even the
    /// sign of a zero). Live lanes are visited in the same `(row, lane)`
    /// order for every `nvec`, so each column accumulates — bit for bit —
    /// as a single-vector scatter would.
    #[inline]
    pub fn scatter_with(&self, k: usize, nvec: usize, ve: &[f64], mut add: impl FnMut(usize, f64)) {
        let (bw, pl) = (self.bw, self.panel_len());
        let gi = &self.gidx[k * pl..(k + 1) * pl];
        debug_assert_eq!(ve.len(), pl * nvec);
        let len = self.lens[k] as usize;
        if len < bw {
            for row in 0..self.nd {
                for b in 0..len {
                    let t = row * bw + b;
                    let base = gi[t] as usize * nvec;
                    for c in 0..nvec {
                        add(base + c, ve[t * nvec + c]);
                    }
                }
            }
        } else if nvec == 1 {
            for (&r, &v) in gi.iter().zip(ve) {
                add(r as usize, v);
            }
        } else {
            for (&r, v) in gi.iter().zip(ve.chunks_exact(nvec)) {
                let base = r as usize * nvec;
                for (c, &val) in v.iter().enumerate() {
                    add(base + c, val);
                }
            }
        }
    }

    /// Greedy block coloring: no two blocks of a color share a dof.
    /// `None` when more than 64 colors would be needed (callers fall back
    /// to chunk-private accumulation).
    fn try_color(&self, n_data: usize) -> Option<Vec<Vec<u32>>> {
        let (bw, nd) = (self.bw, self.nd);
        let mut mask = vec![0u64; n_data];
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for k in 0..self.n_blocks() {
            let gi = &self.gidx[k * nd * bw..(k + 1) * nd * bw];
            let len = self.lens[k] as usize;
            let mut forbidden = 0u64;
            for row in 0..nd {
                for b in 0..len {
                    forbidden |= mask[gi[row * bw + b] as usize];
                }
            }
            let color = (!forbidden).trailing_zeros() as usize;
            if color >= 64 {
                return None;
            }
            if color == classes.len() {
                classes.push(Vec::new());
            }
            classes[color].push(k as u32);
            for row in 0..nd {
                for b in 0..len {
                    mask[gi[row * bw + b] as usize] |= 1 << color;
                }
            }
        }
        Some(classes)
    }
}

/// The setup-time plan for the batched SPMV path: both element subsets
/// blocked, plus the element → (set, block, lane) slot map through which
/// individual matrices are read and written in place.
#[derive(Debug, Clone)]
pub struct BlockPlan {
    nd: usize,
    bw: usize,
    /// DA data length (`n_total × ndof`), for coloring masks.
    n_data: usize,
    indep: BlockSet,
    dep: BlockSet,
    /// Element id → (dependent?, block, lane).
    slot: Vec<(bool, u32, u16)>,
}

impl BlockPlan {
    /// Build the gather/scatter tables (matrix slabs stay empty until
    /// [`Self::attach_with`]).
    pub fn build(maps: &HymvMaps, ndof: usize, bw: usize) -> Self {
        assert!(
            (1..=MAX_BATCH_WIDTH).contains(&bw),
            "batch width {bw} outside 1..={MAX_BATCH_WIDTH}"
        );
        let indep = BlockSet::build(maps, ndof, bw, &maps.independent);
        let dep = BlockSet::build(maps, ndof, bw, &maps.dependent);
        let mut slot = vec![(false, u32::MAX, 0u16); maps.n_elems];
        for (dependent, set) in [(false, &indep), (true, &dep)] {
            for k in 0..set.n_blocks() {
                for (b, &e) in set.elems(k).iter().enumerate() {
                    if e != u32::MAX {
                        slot[e as usize] = (dependent, k as u32, b as u16);
                    }
                }
            }
        }
        BlockPlan {
            nd: maps.npe * ndof,
            bw,
            n_data: maps.n_total() * ndof,
            indep,
            dep,
            slot,
        }
    }

    /// Allocate the matrix slabs and fill every element's lane:
    /// `fill(e, lane)` writes element `e`'s column-major matrix through its
    /// strided lane. Padded lanes stay zero.
    pub fn attach_with(&mut self, mut fill: impl FnMut(usize, KeLaneMut<'_>)) {
        let sz = self.nd * self.nd * self.bw;
        for set in [&mut self.indep, &mut self.dep] {
            set.keb = vec![0.0; set.n_blocks() * sz];
        }
        for e in 0..self.slot.len() {
            fill(e, self.ke_mut(e));
        }
    }

    /// Element `e`'s lane: (dependent set?, slab range from the lane's
    /// first entry to the end of its block's slab).
    fn lane(&self, e: usize) -> (bool, Range<usize>) {
        assert!(e < self.slot.len(), "element {e} out of range");
        let (dependent, k, b) = self.slot[e];
        let sz = self.nd * self.nd * self.bw;
        let k = k as usize;
        (dependent, k * sz + b as usize..(k + 1) * sz)
    }

    /// Element `e`'s matrix, read in place from its slab lane (requires
    /// attached slabs).
    ///
    /// # Panics
    /// If `e` is not a local element.
    pub fn ke(&self, e: usize) -> KeLane<'_> {
        let (dependent, range) = self.lane(e);
        KeLane {
            data: &self.set(dependent).keb[range],
            bw: self.bw,
        }
    }

    /// Element `e`'s matrix, writable in place in its slab lane (the
    /// adaptive-update path; requires attached slabs).
    ///
    /// # Panics
    /// If `e` is not a local element.
    pub fn ke_mut(&mut self, e: usize) -> KeLaneMut<'_> {
        let (dependent, range) = self.lane(e);
        let set = if dependent {
            &mut self.dep
        } else {
            &mut self.indep
        };
        KeLaneMut {
            data: &mut set.keb[range],
            bw: self.bw,
        }
    }

    /// Read-only view of every element matrix in the slabs.
    pub fn matrices(&self) -> KeView<'_> {
        KeView { plan: self }
    }

    /// Batch width `bw`.
    pub fn batch_width(&self) -> usize {
        self.bw
    }

    /// Element-matrix dimension `nd`.
    pub fn nd(&self) -> usize {
        self.nd
    }

    /// The blocked subset.
    pub fn set(&self, dependent: bool) -> &BlockSet {
        if dependent {
            &self.dep
        } else {
            &self.indep
        }
    }

    /// Total blocks across both sets.
    pub fn n_blocks_total(&self) -> usize {
        self.indep.n_blocks() + self.dep.n_blocks()
    }

    /// Total lanes (elements + tail padding) — the executed-FLOP count is
    /// `n_lanes_total · 2nd²`.
    pub fn n_lanes_total(&self) -> usize {
        self.n_blocks_total() * self.bw
    }

    /// Bytes of the plan's storage — interleaved matrix slabs (f64) plus
    /// gather tables (u32) — and of a device upload reusing its layout.
    pub fn bytes(&self) -> usize {
        let mut total = 0;
        for set in [&self.indep, &self.dep] {
            total += set.keb.len() * 8 + set.gidx.len() * 4;
        }
        total
    }

    /// Block-granularity coloring of one subset; `None` if >64 colors.
    pub fn color_blocks(&self, dependent: bool) -> Option<Vec<Vec<u32>>> {
        self.set(dependent).try_color(self.n_data)
    }

    /// Serial blocked EMV loop over one subset, for `u.nvec` vectors at
    /// once: each block's `Ke` slab is loaded once and reused for every
    /// column of the panel. `kernel` must be the `(bw, u.nvec)` entry of
    /// the dispatch table; `ue`/`ve` are `nd × bw × nvec` panel scratch.
    ///
    /// Every driver compiles its body a second time with the literal
    /// vector count 1 (`SINGLE`), so gather and scatter reduce to the
    /// plain single-vector loops: with a runtime `nvec` the serial
    /// single-vector loop measured ~20% slower (jittered Hex8 Poisson,
    /// 2-core AVX-512F Xeon).
    pub fn run_serial(
        &self,
        dependent: bool,
        u: &DistArray,
        v: &mut DistArray,
        kernel: EmvBatchKernel,
        ue: &mut [f64],
        ve: &mut [f64],
    ) {
        if u.nvec == 1 {
            self.serial::<true>(dependent, u, v, kernel, ue, ve);
        } else {
            self.serial::<false>(dependent, u, v, kernel, ue, ve);
        }
    }

    fn serial<const SINGLE: bool>(
        &self,
        dependent: bool,
        u: &DistArray,
        v: &mut DistArray,
        kernel: EmvBatchKernel,
        ue: &mut [f64],
        ve: &mut [f64],
    ) {
        let (set, nvec) = (self.set(dependent), if SINGLE { 1 } else { u.nvec });
        debug_assert_eq!((u.nvec, v.nvec), (nvec, nvec));
        for k in 0..set.n_blocks() {
            set.gather(k, &u.data, nvec, ue);
            kernel(set.keb(k), ue, ve, self.nd, self.bw, nvec);
            set.scatter_with(k, nvec, ve, |i, val| v.data[i] += val);
        }
    }

    /// Colored parallel blocked loop: classes sequential, blocks within a
    /// class parallel with direct shared writes (sound because same-color
    /// blocks share no dof, and scatters are lane-bounded).
    pub fn run_colored(
        &self,
        dependent: bool,
        classes: &[Vec<u32>],
        u: &DistArray,
        v: &mut DistArray,
        kernel: EmvBatchKernel,
    ) {
        if u.nvec == 1 {
            self.colored::<true>(dependent, classes, u, v, kernel);
        } else {
            self.colored::<false>(dependent, classes, u, v, kernel);
        }
    }

    /// Allocation waiver: rayon's `for_each_init` allocates one pair of
    /// `nd × bw × nvec` panels per worker — bounded per-thread scratch
    /// that cannot be hoisted across the pool boundary, not per-element
    /// churn.
    // verify: allow(allocates)
    fn colored<const SINGLE: bool>(
        &self,
        dependent: bool,
        classes: &[Vec<u32>],
        u: &DistArray,
        v: &mut DistArray,
        kernel: EmvBatchKernel,
    ) {
        let (set, nvec) = (self.set(dependent), if SINGLE { 1 } else { u.nvec });
        debug_assert_eq!((u.nvec, v.nvec), (nvec, nvec));
        let (nd, bw) = (self.nd, self.bw);
        let pl = nd * bw * nvec;
        let target = RacyTarget::new(v.data.as_mut_ptr());
        on_rank_pool(|| {
            for class in classes {
                class.par_iter().for_each_init(
                    || (vec![0.0; pl], vec![0.0; pl]),
                    |(ue, ve), &k| {
                        let k = k as usize;
                        set.gather(k, &u.data, nvec, ue);
                        kernel(set.keb(k), ue, ve, nd, bw, nvec);
                        set.scatter_with(k, nvec, ve, |i, val| {
                            // SAFETY: dof sets are disjoint across the
                            // blocks of one color class; classes run
                            // sequentially.
                            #[allow(unsafe_code)]
                            unsafe {
                                target.add(i, val);
                            }
                        });
                    },
                );
            }
        });
    }

    /// Chunk-private parallel blocked loop: workers own contiguous runs of
    /// blocks and private accumulation buffers, reduced by summation.
    pub fn run_chunk_private(
        &self,
        dependent: bool,
        u: &DistArray,
        v: &mut DistArray,
        kernel: EmvBatchKernel,
    ) {
        if u.nvec == 1 {
            self.chunk_private::<true>(dependent, u, v, kernel);
        } else {
            self.chunk_private::<false>(dependent, u, v, kernel);
        }
    }

    /// Allocation waiver: the private accumulation buffers are the point
    /// of this scheme — one `len`-sized buffer per worker chunk, allocated
    /// inside the pool, reduced on join. Bounded per-call, not hoistable.
    // verify: allow(allocates)
    fn chunk_private<const SINGLE: bool>(
        &self,
        dependent: bool,
        u: &DistArray,
        v: &mut DistArray,
        kernel: EmvBatchKernel,
    ) {
        let (set, nvec) = (self.set(dependent), if SINGLE { 1 } else { u.nvec });
        debug_assert_eq!((u.nvec, v.nvec), (nvec, nvec));
        let (nd, bw) = (self.nd, self.bw);
        let (len, pl) = (v.data.len(), nd * bw * nvec);
        let partials: Vec<Vec<f64>> = on_rank_pool(|| {
            let chunk = set.ids.len().div_ceil(rayon::current_num_threads()).max(1);
            set.ids
                .par_chunks(chunk)
                .map(|blocks| {
                    let mut buf = vec![0.0; len];
                    let mut ue = vec![0.0; pl];
                    let mut ve = vec![0.0; pl];
                    for &k in blocks {
                        let k = k as usize;
                        set.gather(k, &u.data, nvec, &mut ue);
                        kernel(set.keb(k), &ue, &mut ve, nd, bw, nvec);
                        set.scatter_with(k, nvec, &ve, |i, val| buf[i] += val);
                    }
                    buf
                })
                .collect()
        });
        for buf in partials {
            for (dst, src) in v.data.iter_mut().zip(&buf) {
                *dst += src;
            }
        }
    }
}

/// One element's matrix in place in its slab lane: column-major entry
/// `idx = j·nd + i` sits at `data[idx·bw]` (`data` runs from the lane's
/// first entry to the end of its block's slab).
#[derive(Debug, Clone, Copy)]
pub struct KeLane<'a> {
    data: &'a [f64],
    bw: usize,
}

impl Index<usize> for KeLane<'_> {
    type Output = f64;
    fn index(&self, idx: usize) -> &f64 {
        &self.data[idx * self.bw]
    }
}

impl<'a> IntoIterator for KeLane<'a> {
    type Item = &'a f64;
    type IntoIter = StepBy<slice::Iter<'a, f64>>;
    /// The entries in column-major order.
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter().step_by(self.bw)
    }
}

/// The writable form of [`KeLane`]: writes land directly in the slab the
/// SPMV streams.
#[derive(Debug)]
pub struct KeLaneMut<'a> {
    data: &'a mut [f64],
    bw: usize,
}

impl KeLaneMut<'_> {
    /// The entries in column-major order, mutably.
    pub fn iter_mut(&mut self) -> StepBy<slice::IterMut<'_, f64>> {
        self.data.iter_mut().step_by(self.bw)
    }

    /// Overwrite the matrix with `src` (column-major): a slice or another
    /// plan's [`KeLane`].
    ///
    /// # Panics
    /// If `src` does not hold exactly `nd²` entries.
    pub fn copy_from<'s, I>(&mut self, src: I)
    where
        I: IntoIterator<Item = &'s f64>,
        I::IntoIter: ExactSizeIterator,
    {
        let (src, dst) = (src.into_iter(), self.iter_mut());
        assert_eq!(src.len(), dst.len(), "element matrix size mismatch");
        dst.zip(src).for_each(|(d, &v)| *d = v);
    }
}

impl<'a> IntoIterator for KeLaneMut<'a> {
    type Item = &'a mut f64;
    type IntoIter = StepBy<slice::IterMut<'a, f64>>;
    /// The entries in column-major order, mutably.
    fn into_iter(self) -> Self::IntoIter {
        self.data.iter_mut().step_by(self.bw)
    }
}

/// Read-only view of every element matrix of a plan, served in place from
/// its slabs (what `HymvOperator::store()` returns).
#[derive(Debug, Clone, Copy)]
pub struct KeView<'a> {
    plan: &'a BlockPlan,
}

impl<'a> KeView<'a> {
    /// Element-matrix dimension `nd`.
    pub fn nd(&self) -> usize {
        self.plan.nd
    }

    /// Number of element matrices.
    pub fn n_elems(&self) -> usize {
        self.plan.slot.len()
    }

    /// Element `e`'s matrix (strided read from its lane).
    pub fn ke(&self, e: usize) -> KeLane<'a> {
        self.plan.ke(e)
    }

    /// Bytes of matrix storage: the slabs, padded tail lanes included.
    pub fn bytes(&self) -> usize {
        (self.plan.indep.keb.len() + self.plan.dep.keb.len()) * 8
    }

    /// A **copy** of every matrix, element-major and column-major
    /// (element `e` at `e·nd²`). Allocates `n_elems · nd²` doubles.
    pub fn as_slice(&self) -> Vec<f64> {
        (0..self.n_elems())
            .flat_map(|e| self.ke(e))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hybrid::emv_loop_serial;
    use hymv_la::dense::select_batch_kernel;
    use hymv_la::ElementMatrixStore;
    use hymv_mesh::partition::{partition_mesh, PartitionMethod};
    use hymv_mesh::{unstructured_tet_mesh, ElementType, StructuredHexMesh};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_case(
        mesh: &hymv_mesh::GlobalMesh,
        ndof: usize,
        seed: u64,
    ) -> (HymvMaps, ElementMatrixStore, DistArray) {
        let pm = partition_mesh(mesh, 1, PartitionMethod::Slabs);
        let maps = HymvMaps::build(&pm.parts[0]);
        let nd = maps.npe * ndof;
        let mut store = ElementMatrixStore::new(nd, maps.n_elems);
        let mut rng = StdRng::seed_from_u64(seed);
        for e in 0..maps.n_elems {
            for v in store.ke_mut(e) {
                *v = rng.gen_range(-1.0..1.0);
            }
        }
        let mut u = DistArray::new(&maps, ndof);
        for v in u.data.iter_mut() {
            *v = rng.gen_range(-1.0..1.0);
        }
        (maps, store, u)
    }

    fn serial_reference(maps: &HymvMaps, store: &ElementMatrixStore, u: &DistArray) -> DistArray {
        let all: Vec<u32> = (0..maps.n_elems as u32).collect();
        let nd = store.nd();
        let mut v = DistArray::new(maps, u.ndof);
        let mut ue = vec![0.0; nd];
        let mut ve = vec![0.0; nd];
        emv_loop_serial(maps, store, u, &mut v, &all, &mut ue, &mut ve);
        v
    }

    fn blocked_result(
        maps: &HymvMaps,
        store: &ElementMatrixStore,
        u: &DistArray,
        bw: usize,
    ) -> DistArray {
        let mut plan = BlockPlan::build(maps, u.ndof, bw);
        plan.attach_with(|e, mut lane| lane.copy_from(store.ke(e)));
        let kernel = select_batch_kernel(bw, 1);
        let mut v = DistArray::new(maps, u.ndof);
        let pl = plan.nd() * bw;
        let (mut ue, mut ve) = (vec![0.0; pl], vec![0.0; pl]);
        plan.run_serial(false, u, &mut v, kernel, &mut ue, &mut ve);
        plan.run_serial(true, u, &mut v, kernel, &mut ue, &mut ve);
        v
    }

    /// Batched-vs-serial agreement for every element type the paper uses,
    /// including ragged tails (element counts not divisible by bw) and
    /// bw=1 equivalence.
    #[test]
    fn blocked_matches_serial_all_element_types() {
        let meshes: Vec<hymv_mesh::GlobalMesh> = vec![
            StructuredHexMesh::unit(3, ElementType::Hex8).build(), // 27 elems: ragged for bw=8
            StructuredHexMesh::unit(2, ElementType::Hex20).build(),
            StructuredHexMesh::unit(2, ElementType::Hex27).build(),
            unstructured_tet_mesh(2, ElementType::Tet4, 0.1, 3),
            unstructured_tet_mesh(2, ElementType::Tet10, 0.1, 4),
        ];
        for (i, mesh) in meshes.iter().enumerate() {
            let (maps, store, u) = random_case(mesh, 1, 100 + i as u64);
            let v_ref = serial_reference(&maps, &store, &u);
            for bw in [1usize, 3, 8, 16] {
                let v = blocked_result(&maps, &store, &u, bw);
                for (a, b) in v_ref.data.iter().zip(&v.data) {
                    assert!(
                        (a - b).abs() < 1e-12,
                        "{:?} bw={bw}: {a} vs {b}",
                        mesh.elem_type
                    );
                }
            }
        }
    }

    #[test]
    fn blocked_matches_serial_multi_dof() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let (maps, store, u) = random_case(&mesh, 3, 42);
        let v_ref = serial_reference(&maps, &store, &u);
        for bw in [4usize, 8] {
            let v = blocked_result(&maps, &store, &u, bw);
            for (a, b) in v_ref.data.iter().zip(&v.data) {
                assert!((a - b).abs() < 1e-12, "ndof=3 bw={bw}");
            }
        }
    }

    #[test]
    fn plan_covers_each_element_once_and_sorts_by_locality() {
        let mesh = unstructured_tet_mesh(3, ElementType::Tet4, 0.05, 9);
        let pm = partition_mesh(&mesh, 2, PartitionMethod::GreedyGraph);
        let maps = HymvMaps::build(&pm.parts[0]);
        let bw = 8;
        let plan = BlockPlan::build(&maps, 1, bw);
        let mut seen = vec![false; maps.n_elems];
        for dependent in [false, true] {
            let set = plan.set(dependent);
            let subset = if dependent {
                &maps.dependent
            } else {
                &maps.independent
            };
            let mut count = 0;
            let mut prev_min = 0u32;
            for k in 0..set.n_blocks() {
                let len = set.len(k);
                assert!(len >= 1 && len <= bw);
                if k + 1 < set.n_blocks() {
                    assert_eq!(len, bw, "only the tail block may be short");
                }
                for (b, &e) in set.elems(k).iter().enumerate() {
                    if b < len {
                        assert!(!seen[e as usize], "element {e} appears twice");
                        seen[e as usize] = true;
                        count += 1;
                        let lo = *maps
                            .elem_local_nodes(e as usize)
                            .iter()
                            .min()
                            .expect("nonempty");
                        assert!(lo >= prev_min, "locality order violated");
                        prev_min = lo;
                    } else {
                        assert_eq!(e, u32::MAX);
                    }
                }
            }
            assert_eq!(count, subset.len());
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gather_table_matches_e2l() {
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let maps = HymvMaps::build(&pm.parts[0]);
        let ndof = 3;
        let plan = BlockPlan::build(&maps, ndof, 4);
        let set = plan.set(false);
        let mut ue = vec![0.0; set.panel_len()];
        // data[i] = i makes the gather table directly visible.
        let mut u = DistArray::new(&maps, ndof);
        for (i, v) in u.data.iter_mut().enumerate() {
            *v = i as f64;
        }
        for k in 0..set.n_blocks() {
            set.gather(k, &u.data, 1, &mut ue);
            for (b, &e) in set.elems(k).iter().enumerate() {
                if e == u32::MAX {
                    continue;
                }
                let nodes = maps.elem_local_nodes(e as usize);
                for (m, &l) in nodes.iter().enumerate() {
                    for c in 0..ndof {
                        assert_eq!(
                            ue[(m * ndof + c) * 4 + b],
                            (l as usize * ndof + c) as f64,
                            "e={e} m={m} c={c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn parallel_block_loops_match_serial() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let (maps, store, u) = random_case(&mesh, 1, 7);
        let bw = 8;
        let mut plan = BlockPlan::build(&maps, 1, bw);
        plan.attach_with(|e, mut lane| lane.copy_from(store.ke(e)));
        let kernel = select_batch_kernel(bw, 1);
        let v_ref = blocked_result(&maps, &store, &u, bw);

        let classes = plan.color_blocks(false).expect("colorable");
        // All elements are independent on a single rank.
        assert!(plan.set(true).is_empty());
        let mut v_col = DistArray::new(&maps, 1);
        plan.run_colored(false, &classes, &u, &mut v_col, kernel);
        for (a, b) in v_ref.data.iter().zip(&v_col.data) {
            assert!((a - b).abs() < 1e-12, "colored");
        }

        let mut v_cp = DistArray::new(&maps, 1);
        plan.run_chunk_private(false, &u, &mut v_cp, kernel);
        for (a, b) in v_ref.data.iter().zip(&v_cp.data) {
            assert!((a - b).abs() < 1e-12, "chunk-private");
        }
    }

    #[test]
    fn block_coloring_is_proper() {
        let mesh = StructuredHexMesh::unit(4, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let maps = HymvMaps::build(&pm.parts[0]);
        let plan = BlockPlan::build(&maps, 1, 4);
        let set = plan.set(false);
        let classes = plan.color_blocks(false).expect("colorable");
        let total: usize = classes.iter().map(|c| c.len()).sum();
        assert_eq!(total, set.n_blocks());
        // Disjointness is required *between* blocks of a class (a block's
        // own elements may share nodes — they run on one worker).
        for class in &classes {
            let mut seen: std::collections::HashSet<u32> = std::collections::HashSet::new();
            for &k in class {
                let k = k as usize;
                let mut block_nodes: std::collections::HashSet<u32> =
                    std::collections::HashSet::new();
                for (b, &e) in set.elems(k).iter().enumerate() {
                    if b < set.len(k) {
                        block_nodes.extend(maps.elem_local_nodes(e as usize));
                    }
                }
                for &l in &block_nodes {
                    assert!(seen.insert(l), "color class shares dof {l} across blocks");
                }
            }
        }
    }

    #[test]
    fn lane_writes_update_one_element_in_place() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        let (maps, mut store, u) = random_case(&mesh, 1, 21);
        let bw = 8;
        let mut plan = BlockPlan::build(&maps, 1, bw);
        plan.attach_with(|e, mut lane| lane.copy_from(store.ke(e)));
        // Mutate one element's matrix through its lane only.
        for v in store.ke_mut(5) {
            *v *= 3.0;
        }
        for v in plan.ke_mut(5) {
            *v *= 3.0;
        }
        for e in 0..maps.n_elems {
            let lane: Vec<f64> = plan.ke(e).into_iter().copied().collect();
            assert_eq!(lane, store.ke(e), "element {e}");
        }
        assert_eq!(plan.matrices().as_slice(), store.as_slice());
        let kernel = select_batch_kernel(bw, 1);
        let mut v = DistArray::new(&maps, 1);
        let pl = plan.nd() * bw;
        let (mut ue, mut ve) = (vec![0.0; pl], vec![0.0; pl]);
        plan.run_serial(false, &u, &mut v, kernel, &mut ue, &mut ve);
        plan.run_serial(true, &u, &mut v, kernel, &mut ue, &mut ve);
        let v_ref = serial_reference(&maps, &store, &u);
        for (a, b) in v_ref.data.iter().zip(&v.data) {
            assert!((a - b).abs() < 1e-12);
        }
        // 27 elements in blocks of 8: the 5 padded tail lanes stay zero.
        let set = plan.set(false);
        let tail = set.n_blocks() - 1;
        assert_eq!(set.len(tail), 3);
        let nd2 = plan.nd() * plan.nd();
        for idx in 0..nd2 {
            for b in 3..bw {
                assert_eq!(set.keb(tail)[idx * bw + b].to_bits(), 0);
            }
        }
    }

    #[test]
    fn batch_width_env_parsing() {
        // Direct parse-path checks without touching the process env (other
        // tests run concurrently).
        assert_eq!(DEFAULT_BATCH_WIDTH, 8);
        assert!(batch_width_from_env() >= 1);
        assert!(batch_width_from_env() <= MAX_BATCH_WIDTH);
    }

    /// Invalid widths are hard errors with a message naming the problem —
    /// never a silent clamp or fallback.
    #[test]
    fn batch_width_strict_parse() {
        assert_eq!(parse_batch_width("1"), Ok(1));
        assert_eq!(parse_batch_width(" 8 "), Ok(8));
        assert_eq!(parse_batch_width("64"), Ok(MAX_BATCH_WIDTH));
        let zero = parse_batch_width("0").unwrap_err();
        assert!(zero.contains("batch width 0 is invalid"), "{zero}");
        let big = parse_batch_width("65").unwrap_err();
        assert!(big.contains("exceeds the maximum of 64"), "{big}");
        let nan = parse_batch_width("fast").unwrap_err();
        assert!(nan.contains("not a number"), "{nan}");
        let neg = parse_batch_width("-3").unwrap_err();
        assert!(neg.contains("not a number"), "{neg}");
    }

    /// `HYMV_EMV_NVEC` gets the same hard-error treatment as the batch
    /// knob: invalid widths name the problem, valid ones parse exactly.
    #[test]
    fn nvec_width_strict_parse() {
        assert_eq!(DEFAULT_NVEC_WIDTH, 8);
        assert!(nvec_width_from_env() >= 1);
        assert!(nvec_width_from_env() <= MAX_NVEC_WIDTH);
        assert_eq!(parse_nvec_width("1"), Ok(1));
        assert_eq!(parse_nvec_width(" 16 "), Ok(16));
        assert_eq!(parse_nvec_width("32"), Ok(MAX_NVEC_WIDTH));
        let zero = parse_nvec_width("0").unwrap_err();
        assert!(zero.contains("multivector width 0 is invalid"), "{zero}");
        let big = parse_nvec_width("33").unwrap_err();
        assert!(big.contains("exceeds the maximum of 32"), "{big}");
        let nan = parse_nvec_width("wide").unwrap_err();
        assert!(nan.contains("not a number"), "{nan}");
        let neg = parse_nvec_width("-2").unwrap_err();
        assert!(neg.contains("not a number"), "{neg}");
    }

    /// The blocked loop over an `nvec`-column DA equals the same loop run
    /// column by column over single-vector DAs — including a ragged tail
    /// (27 elements, bw = 8) and ndof > 1, and under the colored and
    /// chunk-private drivers too. The (bw = 8, nvec = 8) cases pin bitwise
    /// equality: batch and mv kernels dispatch to the same fmadd-chain
    /// class.
    #[test]
    fn blocked_mv_matches_per_column() {
        let mesh = StructuredHexMesh::unit(3, ElementType::Hex8).build();
        for (ndof, nvec, bitwise, seed) in [
            (1usize, 3usize, false, 5u64),
            (3, 8, true, 6),
            (1, 8, true, 7),
        ] {
            let (maps, store, _) = random_case(&mesh, ndof, seed);
            let bw = 8;
            let mut plan = BlockPlan::build(&maps, ndof, bw);
            plan.attach_with(|e, mut lane| lane.copy_from(store.ke(e)));
            let n = maps.n_total() * ndof;
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let cols: Vec<Vec<f64>> = (0..nvec)
                .map(|_| (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect();

            // Per-column reference through single-vector DAs.
            let kernel = select_batch_kernel(bw, 1);
            let pl = plan.nd() * bw;
            let (mut ue, mut ve) = (vec![0.0; pl], vec![0.0; pl]);
            let mut refs: Vec<DistArray> = Vec::new();
            for col in &cols {
                let mut u = DistArray::new(&maps, ndof);
                u.data.copy_from_slice(col);
                let mut v = DistArray::new(&maps, ndof);
                plan.run_serial(false, &u, &mut v, kernel, &mut ue, &mut ve);
                plan.run_serial(true, &u, &mut v, kernel, &mut ue, &mut ve);
                refs.push(v);
            }

            // One pass over the column-interleaved DA.
            let mv_kernel = select_batch_kernel(bw, nvec);
            let mut u_mv = DistArray::with_nvec(&maps, ndof, nvec);
            for (c, col) in cols.iter().enumerate() {
                for (i, &x) in col.iter().enumerate() {
                    u_mv.data[i * nvec + c] = x;
                }
            }
            let mut v_mv = DistArray::with_nvec(&maps, ndof, nvec);
            let (mut uem, mut vem) = (vec![0.0; pl * nvec], vec![0.0; pl * nvec]);
            plan.run_serial(false, &u_mv, &mut v_mv, mv_kernel, &mut uem, &mut vem);
            plan.run_serial(true, &u_mv, &mut v_mv, mv_kernel, &mut uem, &mut vem);

            for c in 0..nvec {
                for i in 0..n {
                    let (a, b) = (refs[c].data[i], v_mv.data[i * nvec + c]);
                    if bitwise {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "ndof={ndof} nvec={nvec} col {c} dof {i}: {a} vs {b}"
                        );
                    } else {
                        assert!((a - b).abs() < 1e-12, "col {c} dof {i}: {a} vs {b}");
                    }
                }
            }

            // The parallel drivers run the same blocks for any nvec.
            let classes = plan.color_blocks(false).expect("colorable");
            let mut v_col = DistArray::with_nvec(&maps, ndof, nvec);
            plan.run_colored(false, &classes, &u_mv, &mut v_col, mv_kernel);
            let mut v_cp = DistArray::with_nvec(&maps, ndof, nvec);
            plan.run_chunk_private(false, &u_mv, &mut v_cp, mv_kernel);
            for (a, b) in v_mv
                .data
                .iter()
                .zip(&v_col.data)
                .chain(v_mv.data.iter().zip(&v_cp.data))
            {
                assert!(
                    (a - b).abs() < 1e-12,
                    "parallel driver nvec={nvec}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn empty_subset_has_no_blocks() {
        let mesh = StructuredHexMesh::unit(2, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let maps = HymvMaps::build(&pm.parts[0]);
        let mut plan = BlockPlan::build(&maps, 1, 8);
        // Single rank: no dependent elements.
        assert!(plan.set(true).is_empty());
        plan.attach_with(|_, _| {});
        let mut v = DistArray::new(&maps, 1);
        let u = DistArray::new(&maps, 1);
        let pl = plan.nd() * 8;
        let (mut ue, mut ve) = (vec![0.0; pl], vec![0.0; pl]);
        plan.run_serial(
            true,
            &u,
            &mut v,
            select_batch_kernel(8, 1),
            &mut ue,
            &mut ve,
        );
        assert!(v.data.iter().all(|&x| x == 0.0));
    }
}
