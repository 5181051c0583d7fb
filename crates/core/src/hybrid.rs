//! Shared-memory ("OpenMP") parallelization of the local elemental loop
//! (paper §IV-E).
//!
//! The EMV loop accumulates element vectors into a shared DA, so naïve
//! parallelization races on shared nodes. Two standard strategies are
//! provided (and compared by the `ablation_smp` bench), both run by the
//! block loops of [`crate::block`] at block granularity (`B = 1` is one
//! element per block):
//!
//! * **Coloring** — blocks are greedily colored so that no two blocks of a
//!   color share a node; within a color the loop is embarrassingly
//!   parallel and writes directly to the shared DA.
//! * **Chunk-private accumulation** — each worker accumulates into a
//!   private buffer; buffers are summed afterwards. No coloring setup, but
//!   `O(threads × n_total)` extra memory traffic.
//!
//! Each rank runs these sections on its own one-worker rayon pool (see
//! `RANK_POOL` below), so they execute sequentially on the rank's thread
//! whatever the host's core count; the virtual-time ledger models the
//! multi-thread speedup (see `hymv_comm::CostModel::smp_speedup`). The
//! code itself is correct, data-race-free parallel Rust on any pool.

use hymv_la::dense::select_kernel;
use hymv_la::ElementMatrixStore;

use crate::da::DistArray;
use crate::maps::HymvMaps;

std::thread_local! {
    /// A per-rank rayon pool whose only worker is the rank's own thread
    /// (`use_current_thread`). Two reasons: the rank's CPU-time clock then
    /// sees all the elemental work (the virtual-time ledger divides it by
    /// the modeled thread count), and concurrent thread-ranks don't
    /// serialize through the shared global pool.
    static RANK_POOL: rayon::ThreadPool = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .use_current_thread()
        .build()
        .expect("per-rank rayon pool");
}

/// Run a rayon section on the rank-local pool.
pub(crate) fn on_rank_pool<R: Send>(f: impl FnOnce() -> R + Send) -> R {
    RANK_POOL.with(|p| p.install(f))
}

/// How the local elemental loop runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelMode {
    /// One thread (the paper's pure-MPI configuration).
    Serial,
    /// Rayon over color classes with direct shared writes.
    Colored {
        /// Modeled thread count (OpenMP threads per MPI rank).
        threads: usize,
    },
    /// Rayon with per-worker private accumulation buffers.
    ChunkPrivate {
        /// Modeled thread count.
        threads: usize,
    },
}

impl ParallelMode {
    /// The modeled thread count (1 for serial).
    pub fn threads(&self) -> usize {
        match *self {
            ParallelMode::Serial => 1,
            ParallelMode::Colored { threads } | ParallelMode::ChunkPrivate { threads } => threads,
        }
    }
}

/// Greedy element coloring over a subset of elements: no two elements of a
/// color share a local node. Returns `None` when more than the 64 colors a
/// `u64` mask can track would be needed (a node of valence > 64) — callers
/// fall back to chunk-private accumulation instead of aborting the SPMV.
pub fn try_color_elements(maps: &HymvMaps, subset: &[u32]) -> Option<Vec<Vec<u32>>> {
    // For each node, a bitmask of colors already used by incident elements.
    let mut node_mask = vec![0u64; maps.n_total()];
    let mut classes: Vec<Vec<u32>> = Vec::new();
    for &e in subset {
        let nodes = maps.elem_local_nodes(e as usize);
        let mut forbidden = 0u64;
        for &l in nodes {
            forbidden |= node_mask[l as usize];
        }
        let color = (!forbidden).trailing_zeros() as usize;
        if color >= 64 {
            return None;
        }
        if color == classes.len() {
            classes.push(Vec::new());
        }
        classes[color].push(e);
        for &l in nodes {
            node_mask[l as usize] |= 1 << color;
        }
    }
    Some(classes)
}

/// Like [`try_color_elements`], for meshes known to be low-valence.
///
/// # Panics
/// If the subset needs more than 64 colors; production paths use
/// [`try_color_elements`] and fall back instead.
pub fn color_elements(maps: &HymvMaps, subset: &[u32]) -> Vec<Vec<u32>> {
    try_color_elements(maps, subset).expect("element valence exceeded 64 colors")
}

/// Serial per-element EMV loop over a subset: `v(E2L[e]) += Ke · u(E2L[e])`.
/// The operators run every width through [`crate::block::BlockPlan`];
/// this loop over a contiguous [`ElementMatrixStore`] remains the
/// reference the block tests and the `bench_emv_batch` gate compare
/// against.
// verify: kernel-entry
pub fn emv_loop_serial(
    maps: &HymvMaps,
    store: &ElementMatrixStore,
    u: &DistArray,
    v: &mut DistArray,
    subset: &[u32],
    ue: &mut [f64],
    ve: &mut [f64],
) {
    // Resolve the SIMD dispatch once per loop, not per element.
    let emv = select_kernel();
    for &e in subset {
        let nodes = maps.elem_local_nodes(e as usize);
        u.extract_elem(nodes, ue);
        emv(store.ke(e as usize), ue, ve);
        v.accumulate_elem(nodes, ve);
    }
}

/// A `*mut f64` wrapper that lets color-disjoint writers share a slice.
pub(crate) struct RacyTarget {
    ptr: *mut f64,
}

// SAFETY: writers touch disjoint index sets (guaranteed by coloring), so
// concurrent access through the raw pointer is race-free.
#[allow(unsafe_code)]
unsafe impl Sync for RacyTarget {}
// SAFETY: the pointer's referent is owned by the caller for the whole call.
#[allow(unsafe_code)]
unsafe impl Send for RacyTarget {}

impl RacyTarget {
    /// Wrap a shared accumulation target.
    pub(crate) fn new(ptr: *mut f64) -> Self {
        RacyTarget { ptr }
    }

    /// Accumulate into slot `idx`.
    ///
    /// # Safety
    /// Callers must guarantee no concurrent access to the same `idx`
    /// (here: element/block coloring).
    #[inline]
    #[allow(unsafe_code)] // SAFETY: the raw write behind both colored loops; contract above
    pub(crate) unsafe fn add(&self, idx: usize, val: f64) {
        *self.ptr.add(idx) += val;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_mesh::partition::{partition_mesh, PartitionMethod};
    use hymv_mesh::{ElementType, StructuredHexMesh};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn setup(n: usize) -> (HymvMaps, ElementMatrixStore, DistArray) {
        let mesh = StructuredHexMesh::unit(n, ElementType::Hex8).build();
        let pm = partition_mesh(&mesh, 1, PartitionMethod::Slabs);
        let maps = HymvMaps::build(&pm.parts[0]);
        let mut store = ElementMatrixStore::new(8, maps.n_elems);
        let mut rng = StdRng::seed_from_u64(5);
        for e in 0..maps.n_elems {
            for v in store.ke_mut(e) {
                *v = rng.gen_range(-1.0..1.0);
            }
        }
        let u = {
            let mut u = DistArray::new(&maps, 1);
            for v in u.data.iter_mut() {
                *v = rng.gen_range(-1.0..1.0);
            }
            u
        };
        (maps, store, u)
    }

    #[test]
    fn coloring_is_proper_and_covers() {
        let (maps, _, _) = setup(4);
        let all: Vec<u32> = (0..maps.n_elems as u32).collect();
        let classes = color_elements(&maps, &all);
        let total: usize = classes.iter().map(|c| c.len()).sum();
        assert_eq!(total, maps.n_elems);
        // Structured hex mesh needs exactly 8 colors.
        assert_eq!(classes.len(), 8);
        for class in &classes {
            let mut seen = std::collections::HashSet::new();
            for &e in class {
                for &l in maps.elem_local_nodes(e as usize) {
                    assert!(seen.insert(l), "color class shares node {l}");
                }
            }
        }
    }

    /// A valence-65 "umbrella": 65 tets all sharing node 0. Greedy
    /// coloring needs 65 colors — more than the 64-bit mask tracks — so
    /// `try_color_elements` must decline instead of panicking.
    #[test]
    fn coloring_gives_up_past_64_colors() {
        let n_elems = 65u64;
        let mut e2g = Vec::new();
        for e in 0..n_elems {
            e2g.extend_from_slice(&[0, 3 * e + 1, 3 * e + 2, 3 * e + 3]);
        }
        let part = hymv_mesh::MeshPartition {
            rank: 0,
            elem_type: ElementType::Tet4,
            e2g,
            node_range: (0, 3 * n_elems + 1),
            elem_coords: vec![[0.0; 3]; n_elems as usize * 4],
            elem_global_ids: (0..n_elems).collect(),
            n_global_nodes: 3 * n_elems + 1,
        };
        let maps = HymvMaps::build(&part);
        let all: Vec<u32> = (0..n_elems as u32).collect();
        assert!(try_color_elements(&maps, &all).is_none());
        assert!(try_color_elements(&maps, &all[..64]).is_some());
    }

    #[test]
    fn empty_subset_is_noop() {
        let (maps, store, u) = setup(2);
        let mut v = DistArray::new(&maps, 1);
        emv_loop_serial(&maps, &store, &u, &mut v, &[], &mut [0.0; 8], &mut [0.0; 8]);
        assert!(v.data.iter().all(|&x| x == 0.0));
        assert!(color_elements(&maps, &[]).is_empty());
    }

    #[test]
    fn mode_thread_counts() {
        assert_eq!(ParallelMode::Serial.threads(), 1);
        assert_eq!(ParallelMode::Colored { threads: 14 }.threads(), 14);
        assert_eq!(ParallelMode::ChunkPrivate { threads: 4 }.threads(), 4);
    }
}
