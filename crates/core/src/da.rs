//! The distributed array (DA): HYMV's partitioned-vector representation.
//!
//! Memory layout (paper Fig 2): `[pre-ghost | owned | post-ghost]` nodes,
//! each carrying `ndof` interleaved components. Elemental extraction and
//! accumulation (`ue ← u(E2L[e])`, `v(E2L[e]) += ve`) are the two hot
//! indexing operations of Algorithm 2.
//!
//! One DA carries `nvec` vectors at once: every dof slot widens to `nvec`
//! contiguous column values (`data[dof·nvec + c]`), so `nvec = 1` is the
//! plain single-vector layout and an SpMM runs over the same type. That
//! interleaving makes the block gather/scatter a contiguous `nvec`-copy
//! per table entry and lets the ghost exchange ship all columns of a
//! fragment in one envelope. The solver boundary is column-major
//! ([`hymv_la::Multivector`]); [`DistArray::set_owned`] and
//! [`DistArray::copy_owned_to`] transpose at the owned block, O(`n·nvec`)
//! against the O(`nd²·bw`) elemental work they bracket, and are plain
//! copies at `nvec = 1`.

use crate::maps::HymvMaps;

/// A partitioned (multi)vector in DA layout.
#[derive(Debug, Clone)]
pub struct DistArray {
    /// Flat values, `n_total_nodes × ndof × nvec`.
    pub data: Vec<f64>,
    /// Components per node.
    pub ndof: usize,
    /// Vector columns per dof (`1` for a plain vector).
    pub nvec: usize,
    /// Pre-ghost node count.
    n_pre: usize,
    /// Owned node count.
    n_owned: usize,
}

impl DistArray {
    /// Zero-initialized single-vector DA matching `maps`.
    pub fn new(maps: &HymvMaps, ndof: usize) -> Self {
        Self::with_nvec(maps, ndof, 1)
    }

    /// Zero-initialized DA of `nvec` vectors matching `maps`.
    pub fn with_nvec(maps: &HymvMaps, ndof: usize, nvec: usize) -> Self {
        assert!(nvec > 0, "a DA must have at least one column");
        DistArray {
            data: vec![0.0; maps.n_total() * ndof * nvec],
            ndof,
            nvec,
            n_pre: maps.gpre.len(),
            n_owned: maps.n_owned(),
        }
    }

    /// All values.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The owned block (the vector the solver sees at `nvec = 1`;
    /// column-interleaved otherwise).
    pub fn owned(&self) -> &[f64] {
        let s = self.ndof * self.nvec;
        &self.data[self.n_pre * s..(self.n_pre + self.n_owned) * s]
    }

    /// Mutable owned block.
    pub fn owned_mut(&mut self) -> &mut [f64] {
        let s = self.ndof * self.nvec;
        &mut self.data[self.n_pre * s..(self.n_pre + self.n_owned) * s]
    }

    /// Owned dofs per column.
    pub fn n_owned_dofs(&self) -> usize {
        self.n_owned * self.ndof
    }

    /// Copy `nvec` column-major owned vectors in (`x[c·n + i]`, `n` the
    /// owned dof count): a plain copy at `nvec = 1`, a transpose into the
    /// column-interleaved owned block otherwise.
    pub fn set_owned(&mut self, x: &[f64]) {
        let (n, nvec) = (self.n_owned_dofs(), self.nvec);
        assert_eq!(x.len(), n * nvec, "owned length mismatch");
        let owned = self.owned_mut();
        if nvec == 1 {
            owned.copy_from_slice(x);
            return;
        }
        for (c, col) in x.chunks_exact(n).enumerate() {
            for (i, &v) in col.iter().enumerate() {
                owned[i * nvec + c] = v;
            }
        }
    }

    /// Copy the owned block out as `nvec` column-major vectors: the
    /// inverse of [`Self::set_owned`].
    pub fn copy_owned_to(&self, y: &mut [f64]) {
        let (n, nvec) = (self.n_owned_dofs(), self.nvec);
        assert_eq!(y.len(), n * nvec, "owned length mismatch");
        let owned = self.owned();
        if nvec == 1 {
            y.copy_from_slice(owned);
            return;
        }
        for (c, col) in y.chunks_exact_mut(n).enumerate() {
            for (i, v) in col.iter_mut().enumerate() {
                *v = owned[i * nvec + c];
            }
        }
    }

    /// Zero everything (start of an SPMV accumulation).
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Zero only the ghost regions (before a fresh scatter).
    pub fn zero_ghosts(&mut self) {
        let s = self.ndof * self.nvec;
        self.data[..self.n_pre * s].fill(0.0);
        self.data[(self.n_pre + self.n_owned) * s..].fill(0.0);
    }

    /// Extract the element vector `ue ← u(E2L[e])` into `ue`
    /// (`npe × ndof`, node-major). Single-vector DAs only: the per-element
    /// reference path (assembly, the serial reference loop).
    #[inline]
    pub fn extract_elem(&self, local_nodes: &[u32], ue: &mut [f64]) {
        let ndof = self.ndof;
        debug_assert_eq!(self.nvec, 1);
        debug_assert_eq!(ue.len(), local_nodes.len() * ndof);
        match ndof {
            // The two dof counts the paper evaluates, unrolled: the generic
            // path's per-node slice copies dominate small-element EMVs.
            1 => {
                for (u, &l) in ue.iter_mut().zip(local_nodes) {
                    *u = self.data[l as usize];
                }
            }
            3 => {
                for (m, &l) in local_nodes.iter().enumerate() {
                    let src = l as usize * 3;
                    ue[3 * m] = self.data[src];
                    ue[3 * m + 1] = self.data[src + 1];
                    ue[3 * m + 2] = self.data[src + 2];
                }
            }
            _ => {
                for (m, &l) in local_nodes.iter().enumerate() {
                    let src = l as usize * ndof;
                    ue[m * ndof..(m + 1) * ndof].copy_from_slice(&self.data[src..src + ndof]);
                }
            }
        }
    }

    /// Accumulate the element vector `v(E2L[e]) += ve` (single-vector DAs
    /// only, like [`Self::extract_elem`]).
    #[inline]
    pub fn accumulate_elem(&mut self, local_nodes: &[u32], ve: &[f64]) {
        let ndof = self.ndof;
        debug_assert_eq!(self.nvec, 1);
        debug_assert_eq!(ve.len(), local_nodes.len() * ndof);
        match ndof {
            1 => {
                for (&v, &l) in ve.iter().zip(local_nodes) {
                    self.data[l as usize] += v;
                }
            }
            3 => {
                for (m, &l) in local_nodes.iter().enumerate() {
                    let dst = l as usize * 3;
                    self.data[dst] += ve[3 * m];
                    self.data[dst + 1] += ve[3 * m + 1];
                    self.data[dst + 2] += ve[3 * m + 2];
                }
            }
            _ => {
                for (m, &l) in local_nodes.iter().enumerate() {
                    let dst = l as usize * ndof;
                    for c in 0..ndof {
                        self.data[dst + c] += ve[m * ndof + c];
                    }
                }
            }
        }
    }

    /// Pre-ghost node count.
    pub fn n_pre(&self) -> usize {
        self.n_pre
    }

    /// Owned node count.
    pub fn n_owned_nodes(&self) -> usize {
        self.n_owned
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hymv_la::Multivector;
    use hymv_mesh::{ElementType, MeshPartition};

    fn two_ghost_maps() -> HymvMaps {
        // 1 element referencing pre-ghost 0, owned 5,6, post-ghost 9.
        let part = MeshPartition {
            rank: 1,
            elem_type: ElementType::Tet4,
            e2g: vec![0, 5, 6, 9],
            node_range: (5, 7),
            elem_coords: vec![[0.0; 3]; 4],
            elem_global_ids: vec![0],
            n_global_nodes: 10,
        };
        HymvMaps::build(&part)
    }

    #[test]
    fn layout_regions() {
        let maps = two_ghost_maps();
        let mut da = DistArray::new(&maps, 2);
        assert_eq!(da.data.len(), 8); // 4 nodes × 2 dofs
        da.set_owned(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(da.owned(), &[1.0, 2.0, 3.0, 4.0]);
        // Pre-ghost region untouched.
        assert_eq!(&da.data[..2], &[0.0, 0.0]);
    }

    #[test]
    fn extract_and_accumulate_round_trip() {
        let maps = two_ghost_maps();
        let mut da = DistArray::new(&maps, 1);
        da.data.copy_from_slice(&[10.0, 20.0, 30.0, 40.0]); // pre, o, o, post
        let nodes = maps.elem_local_nodes(0);
        let mut ue = vec![0.0; 4];
        da.extract_elem(nodes, &mut ue);
        assert_eq!(ue, vec![10.0, 20.0, 30.0, 40.0]);

        da.accumulate_elem(nodes, &[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(da.data, vec![11.0, 21.0, 31.0, 41.0]);
    }

    #[test]
    fn zero_ghosts_preserves_owned() {
        let maps = two_ghost_maps();
        let mut da = DistArray::new(&maps, 1);
        da.data.copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        da.zero_ghosts();
        assert_eq!(da.data, vec![0.0, 2.0, 3.0, 0.0]);
        da.fill_zero();
        assert!(da.data.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn multivector_da_owned_round_trip() {
        let maps = two_ghost_maps();
        // 2 owned nodes × 2 dofs × 3 columns.
        let mut mda = DistArray::with_nvec(&maps, 2, 3);
        assert_eq!(mda.data.len(), 4 * 2 * 3);
        let x = Multivector::from_columns(&[
            vec![1.0, 2.0, 3.0, 4.0],
            vec![5.0, 6.0, 7.0, 8.0],
            vec![9.0, 10.0, 11.0, 12.0],
        ]);
        mda.set_owned(x.as_slice());
        // Owned dof 0 (node 1 in DA order) holds its 3 column values
        // contiguously.
        let base = mda.n_pre() * 2 * 3;
        assert_eq!(&mda.data[base..base + 3], &[1.0, 5.0, 9.0]);
        let mut y = Multivector::new(4, 3);
        mda.copy_owned_to(y.as_mut_slice());
        assert_eq!(y, x);
        // Ghost regions untouched by set_owned.
        assert!(mda.data[..base].iter().all(|&v| v == 0.0));
    }

    #[test]
    fn multi_dof_interleaving() {
        let maps = two_ghost_maps();
        let mut da = DistArray::new(&maps, 3);
        let nodes = maps.elem_local_nodes(0);
        // Put node-id-dependent values via accumulate.
        let ve: Vec<f64> = (0..12).map(|i| i as f64).collect();
        da.accumulate_elem(nodes, &ve);
        // Node 1 of the element is owned node 5 → local node 1 → dofs 3..6.
        assert_eq!(&da.data[3..6], &[3.0, 4.0, 5.0]);
        let mut ue = vec![0.0; 12];
        da.extract_elem(nodes, &mut ue);
        assert_eq!(ue, ve);
    }
}
