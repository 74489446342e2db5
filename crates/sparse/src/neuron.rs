//! Neuron-block sets for the sparse MLP (paper §VI-B).
//!
//! When a ReLU MLP neuron is inactive for a whole batch, the corresponding
//! *column* of FC1 and *row* of FC2 drop out of both the forward and the
//! backward pass. Long Exposure filters neurons at block granularity, so a
//! plan is a sorted list of active neuron *blocks* ([`NeuronBlockSet`]).
//!
//! The MLP keeps both weights neuron-major (`[d_ff, d]`: FC1 as the
//! transpose of the conventional `d × d_ff` matrix, FC2 row-major), so an
//! active block is one contiguous `block·d` slab in **both** matrices. The
//! sparse step gathers those slabs into compact `[active_neurons, d]`
//! buffers and then runs exactly the dense step's GEMMs on the smaller
//! operands — structured dense compute, no per-block kernels and no runtime
//! format conversion (the paper's "dynamic-aware" property).
//!
//! Everything else that is indexed by neuron — biases, LoRA factors, full
//! fine-tuning gradients — moves through the same two helpers:
//! [`NeuronBlockSet::gather_rows`] packs the active rows of a per-neuron
//! tensor in plan order, and [`NeuronBlockSet::scatter_add_rows`] adds a
//! compact gradient back into the full-size buffer. Both degrade to a
//! borrow / a whole-tensor add when every block is active.

use lx_tensor::Tensor;
use std::borrow::Cow;

/// Sorted set of active neuron blocks out of `n_blocks_total`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeuronBlockSet {
    pub block_size: usize,
    pub n_blocks_total: usize,
    /// Sorted, deduplicated active block indices.
    pub active: Vec<u32>,
}

impl NeuronBlockSet {
    /// All blocks active (the dense case).
    pub fn all(n_blocks_total: usize, block_size: usize) -> Self {
        NeuronBlockSet {
            block_size,
            n_blocks_total,
            active: (0..n_blocks_total as u32).collect(),
        }
    }

    /// From a boolean per-block mask.
    pub fn from_mask(mask: &[bool], block_size: usize) -> Self {
        NeuronBlockSet {
            block_size,
            n_blocks_total: mask.len(),
            active: mask
                .iter()
                .enumerate()
                .filter_map(|(i, &a)| a.then_some(i as u32))
                .collect(),
        }
    }

    /// From an arbitrary (possibly unsorted) index list.
    pub fn from_indices(mut indices: Vec<u32>, n_blocks_total: usize, block_size: usize) -> Self {
        indices.sort_unstable();
        indices.dedup();
        assert!(
            indices
                .last()
                .is_none_or(|&l| (l as usize) < n_blocks_total),
            "active block out of range"
        );
        NeuronBlockSet {
            block_size,
            n_blocks_total,
            active: indices,
        }
    }

    pub fn n_active(&self) -> usize {
        self.active.len()
    }

    /// Active neurons (blocks × block size).
    pub fn active_neurons(&self) -> usize {
        self.active.len() * self.block_size
    }

    /// Total neurons covered by the grid.
    pub fn total_neurons(&self) -> usize {
        self.n_blocks_total * self.block_size
    }

    pub fn density(&self) -> f32 {
        if self.n_blocks_total == 0 {
            return 0.0;
        }
        self.active.len() as f32 / self.n_blocks_total as f32
    }

    pub fn sparsity(&self) -> f32 {
        1.0 - self.density()
    }

    pub fn is_dense(&self) -> bool {
        self.active.len() == self.n_blocks_total
    }

    /// Values per neuron row of `t`, a tensor with one leading-dim row per
    /// neuron of the grid (`[total_neurons, ..]`).
    fn row_len(&self, t: &Tensor) -> usize {
        assert_eq!(
            t.shape().first(),
            Some(&self.total_neurons()),
            "per-neuron tensor must have one row per neuron"
        );
        t.len() / self.total_neurons().max(1)
    }

    /// The active neurons' rows of `src` (`[total_neurons, ..]`: a
    /// neuron-major weight, a LoRA factor, a bias), packed in plan order
    /// into `[active_neurons, ..]`. Borrows `src` when every block is
    /// active.
    pub fn gather_rows<'a>(&self, src: &'a Tensor) -> Cow<'a, Tensor> {
        if self.is_dense() {
            return Cow::Borrowed(src);
        }
        let span = self.block_size * self.row_len(src);
        let mut shape = src.shape().to_vec();
        shape[0] = self.active_neurons();
        let mut out = Tensor::zeros(&shape);
        let (dst, src) = (out.as_mut_slice(), src.as_slice());
        for (ai, &blk) in self.active.iter().enumerate() {
            let blk = blk as usize;
            dst[ai * span..(ai + 1) * span].copy_from_slice(&src[blk * span..(blk + 1) * span]);
        }
        Cow::Owned(out)
    }

    /// `dst[active rows] += src`, the adjoint of [`Self::gather_rows`]:
    /// lands a compact per-neuron gradient (`[active_neurons, ..]`) in its
    /// full-size buffer (`[total_neurons, ..]`). Inactive rows are untouched
    /// — forward-inactive neurons receive no gradient (§II-D). Adds `src`
    /// whole when every block is active.
    pub fn scatter_add_rows(&self, src: &Tensor, dst: &mut Tensor) {
        if self.is_dense() {
            return dst.add_assign(src);
        }
        let span = self.block_size * self.row_len(dst);
        assert_eq!(src.len(), self.n_active() * span, "compact rows size");
        let (dst, src) = (dst.as_mut_slice(), src.as_slice());
        for (ai, &blk) in self.active.iter().enumerate() {
            let blk = blk as usize;
            for (d, s) in dst[blk * span..(blk + 1) * span]
                .iter_mut()
                .zip(&src[ai * span..(ai + 1) * span])
            {
                *d += s;
            }
        }
    }

    /// Number of active blocks present in both sets (merge walk over the
    /// sorted index lists).
    pub fn intersection_count(&self, other: &NeuronBlockSet) -> usize {
        let (a, b) = (&self.active, &other.active);
        let (mut i, mut j, mut inter) = (0, 0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    inter += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        inter
    }

    /// Jaccard similarity `|A ∩ B| / |A ∪ B|` of the active block sets
    /// (1.0 when both are empty). The shadowy-sparsity drift signal: plans
    /// drift slowly, so consecutive steps' sets overlap highly.
    pub fn overlap(&self, other: &NeuronBlockSet) -> f32 {
        assert_eq!(
            self.n_blocks_total, other.n_blocks_total,
            "overlap needs matching block grids"
        );
        let inter = self.intersection_count(other);
        let union = self.active.len() + other.active.len() - inter;
        if union == 0 {
            1.0
        } else {
            inter as f32 / union as f32
        }
    }

    /// Blocks activated and deactivated going from `prev` to `self`:
    /// `added` are active here but not in `prev` (must be decoded fresh),
    /// `removed` were active in `prev` but not here (evicted). Blocks in
    /// both can be carried over — the incremental-slab-decode contract.
    pub fn diff(&self, prev: &NeuronBlockSet) -> BlockSetDiff {
        assert_eq!(
            self.n_blocks_total, prev.n_blocks_total,
            "diff needs matching block grids"
        );
        let (a, b) = (&self.active, &prev.active);
        let mut added = Vec::new();
        let mut removed = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                }
                (Some(&x), Some(&y)) if x < y => {
                    added.push(x);
                    i += 1;
                }
                (Some(_), Some(&y)) => {
                    removed.push(y);
                    j += 1;
                }
                (Some(&x), None) => {
                    added.push(x);
                    i += 1;
                }
                (None, Some(&y)) => {
                    removed.push(y);
                    j += 1;
                }
                (None, None) => unreachable!(),
            }
        }
        BlockSetDiff { added, removed }
    }
}

/// Result of [`NeuronBlockSet::diff`]: block indices newly activated and
/// newly deactivated relative to a previous set.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlockSetDiff {
    pub added: Vec<u32>,
    pub removed: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lx_tensor::gemm::{matmul, matmul_nt, matmul_tn};
    use lx_tensor::ops::add_bias_rows;

    const ROWS: usize = 6;
    const D_IN: usize = 10;
    const H: usize = 16; // 4 blocks of 4
    const D_OUT: usize = 12;
    const B: usize = 4;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "idx {i}: {x} vs {y}"
            );
        }
    }

    /// Naive `x · w1ᵀ + bias` over neuron-major `w1 [H, D_IN]`.
    fn naive_fc1(x: &Tensor, w1: &Tensor, bias: &Tensor) -> Vec<f32> {
        let mut z = vec![0.0; ROWS * H];
        for r in 0..ROWS {
            for n in 0..H {
                z[r * H + n] = bias.as_slice()[n]
                    + (0..D_IN)
                        .map(|i| x.as_slice()[r * D_IN + i] * w1.as_slice()[n * D_IN + i])
                        .sum::<f32>();
            }
        }
        z
    }

    /// The compact FC1 step: gathered weight and bias rows, one GEMM.
    fn compact_fc1(set: &NeuronBlockSet, x: &Tensor, w1: &Tensor, bias: &Tensor) -> Tensor {
        let mut z = matmul_nt(x, &set.gather_rows(w1));
        add_bias_rows(&mut z, set.gather_rows(bias).as_slice());
        z
    }

    #[test]
    fn block_set_constructors() {
        let all = NeuronBlockSet::all(4, 8);
        assert!(all.is_dense());
        assert_eq!(all.active_neurons(), 32);
        let m = NeuronBlockSet::from_mask(&[true, false, true, false], 8);
        assert_eq!(m.active, vec![0, 2]);
        assert!((m.sparsity() - 0.5).abs() < 1e-6);
        let i = NeuronBlockSet::from_indices(vec![3, 1, 1], 4, 8);
        assert_eq!(i.active, vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn block_set_range_check() {
        NeuronBlockSet::from_indices(vec![4], 4, 8);
    }

    #[test]
    fn gather_then_scatter_roundtrips_active_rows() {
        let w = Tensor::randn(&[H, D_IN], 1.0, 1);
        let set = NeuronBlockSet::from_indices(vec![1, 3], H / B, B);
        let g = set.gather_rows(&w);
        assert_eq!(g.shape(), &[set.active_neurons(), D_IN]);
        // Row `ai·B + t` of the gather is neuron `active[ai]·B + t`.
        for (ai, &blk) in set.active.iter().enumerate() {
            for t in 0..B {
                assert_eq!(g.row(ai * B + t), w.row(blk as usize * B + t));
            }
        }
        let mut back = Tensor::zeros(&[H, D_IN]);
        set.scatter_add_rows(&g, &mut back);
        for n in 0..H {
            let active = set.active.contains(&((n / B) as u32));
            let expect: &[f32] = if active { w.row(n) } else { &[0.0; D_IN] };
            assert_eq!(back.row(n), expect, "neuron {n}");
        }
        // 1-D per-neuron tensors (biases) gather one value per neuron.
        let bias = Tensor::randn(&[H], 1.0, 2);
        assert_eq!(
            set.gather_rows(&bias).as_slice(),
            [&bias.as_slice()[4..8], &bias.as_slice()[12..16]].concat()
        );
    }

    #[test]
    fn fc1_dense_set_matches_gemm() {
        let x = Tensor::randn(&[ROWS, D_IN], 1.0, 2);
        let w1 = Tensor::randn(&[H, D_IN], 1.0, 3);
        let bias = Tensor::randn(&[H], 0.5, 4);
        let set = NeuronBlockSet::all(H / B, B);
        assert!(matches!(set.gather_rows(&w1), Cow::Borrowed(_)));
        let z = compact_fc1(&set, &x, &w1, &bias);
        assert_close(z.as_slice(), &naive_fc1(&x, &w1, &bias), 1e-4);
    }

    #[test]
    fn fc1_sparse_set_selects_columns() {
        let x = Tensor::randn(&[ROWS, D_IN], 1.0, 5);
        let w1 = Tensor::randn(&[H, D_IN], 1.0, 6);
        let bias = Tensor::randn(&[H], 0.5, 7);
        let set = NeuronBlockSet::from_indices(vec![0, 2], H / B, B);
        let z = compact_fc1(&set, &x, &w1, &bias);
        assert_eq!(z.shape(), &[ROWS, set.active_neurons()]);
        let dense = naive_fc1(&x, &w1, &bias);
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    let neuron = blk as usize * B + t;
                    assert!(
                        (z.row(r)[ai * B + t] - dense[r * H + neuron]).abs() < 1e-4,
                        "row {r} neuron {neuron}"
                    );
                }
            }
        }
    }

    #[test]
    fn fc2_dense_set_matches_gemm() {
        let a = Tensor::randn(&[ROWS, H], 1.0, 7);
        let w2 = Tensor::randn(&[H, D_OUT], 1.0, 8);
        let set = NeuronBlockSet::all(H / B, B);
        let y = matmul(&a, &set.gather_rows(&w2));
        let mut expect = vec![0.0; ROWS * D_OUT];
        for r in 0..ROWS {
            for n in 0..H {
                for c in 0..D_OUT {
                    expect[r * D_OUT + c] += a.as_slice()[r * H + n] * w2.as_slice()[n * D_OUT + c];
                }
            }
        }
        assert_close(y.as_slice(), &expect, 1e-4);
    }

    #[test]
    fn fc2_sparse_equals_dense_with_zeroed_inactive() {
        let set = NeuronBlockSet::from_indices(vec![1, 3], H / B, B);
        let a_compact = Tensor::randn(&[ROWS, set.active_neurons()], 1.0, 10);
        let w2 = Tensor::randn(&[H, D_OUT], 1.0, 11);
        let y = matmul(&a_compact, &set.gather_rows(&w2));
        // Expand compact A to full H with zeros in inactive blocks.
        let mut a_full = Tensor::zeros(&[ROWS, H]);
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    a_full.row_mut(r)[blk as usize * B + t] = a_compact.row(r)[ai * B + t];
                }
            }
        }
        let expect = matmul(&a_full, &w2);
        assert_close(y.as_slice(), expect.as_slice(), 1e-4);
    }

    #[test]
    fn backward_input_paths_match_dense() {
        let set = NeuronBlockSet::from_indices(vec![0, 3], H / B, B);
        let width = set.active_neurons();
        let w1 = Tensor::randn(&[H, D_IN], 1.0, 12);
        let w2 = Tensor::randn(&[H, D_OUT], 1.0, 13);
        let dy = Tensor::randn(&[ROWS, D_OUT], 1.0, 14);
        let dz = Tensor::randn(&[ROWS, width], 1.0, 15);

        // dA = dY · W2ᵀ on the compact rows equals the dense product's
        // active columns.
        let da = matmul_nt(&dy, &set.gather_rows(&w2));
        let da_full = matmul_nt(&dy, &w2);
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    let (got, want) = (da.row(r)[ai * B + t], da_full.row(r)[blk as usize * B + t]);
                    assert!((got - want).abs() < 1e-4, "da r={r}: {got} vs {want}");
                }
            }
        }

        // dX = dZ · W1 on the compact rows equals the dense product with dZ
        // scattered to full width (zeros elsewhere).
        let dx = matmul(&dz, &set.gather_rows(&w1));
        let mut dz_full = Tensor::zeros(&[ROWS, H]);
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    dz_full.row_mut(r)[blk as usize * B + t] = dz.row(r)[ai * B + t];
                }
            }
        }
        let expect = matmul(&dz_full, &w1);
        assert_close(dx.as_slice(), expect.as_slice(), 1e-4);
    }

    #[test]
    fn weight_gradients_touch_only_active_blocks() {
        let set = NeuronBlockSet::from_indices(vec![2], H / B, B);
        let width = set.active_neurons();
        let x = Tensor::randn(&[ROWS, D_IN], 1.0, 16);
        let dz = Tensor::randn(&[ROWS, width], 1.0, 17);
        let mut dw1 = Tensor::zeros(&[H, D_IN]);
        set.scatter_add_rows(&matmul_tn(&dz, &x), &mut dw1);
        for n in 0..H {
            let in_active = (8..12).contains(&n);
            let row_nonzero = dw1.row(n).iter().any(|&v| v != 0.0);
            assert_eq!(row_nonzero, in_active, "neuron {n}");
        }
        // Check one value against the naive sum.
        let n = 9;
        let t = n - 8;
        let mut expect = vec![0.0; D_IN];
        for r in 0..ROWS {
            let g = dz.row(r)[t];
            for (i, e) in expect.iter_mut().enumerate() {
                *e += g * x.row(r)[i];
            }
        }
        assert_close(dw1.row(n), &expect, 1e-4);
        // A second scatter accumulates on top.
        let before = dw1.row(n).to_vec();
        set.scatter_add_rows(&matmul_tn(&dz, &x), &mut dw1);
        for (a, b) in dw1.row(n).iter().zip(&before) {
            assert_eq!(*a, b + b);
        }

        let dy = Tensor::randn(&[ROWS, D_OUT], 1.0, 18);
        let a = Tensor::randn(&[ROWS, width], 1.0, 19);
        let mut dw2 = Tensor::zeros(&[H, D_OUT]);
        set.scatter_add_rows(&matmul_tn(&a, &dy), &mut dw2);
        for n in 0..H {
            let in_active = (8..12).contains(&n);
            let row_nonzero = dw2.row(n).iter().any(|&v| v != 0.0);
            assert_eq!(row_nonzero, in_active, "w2 row {n}");
        }
    }

    #[test]
    fn overlap_and_diff_track_drift() {
        let a = NeuronBlockSet::from_indices(vec![0, 1, 2], 8, B);
        let b = NeuronBlockSet::from_indices(vec![1, 2, 5], 8, B);
        assert_eq!(a.intersection_count(&b), 2);
        assert!((a.overlap(&b) - 0.5).abs() < 1e-6); // 2 / 4
        let d = b.diff(&a);
        assert_eq!(d.added, vec![5]);
        assert_eq!(d.removed, vec![0]);
        // Identity and disjoint extremes.
        assert_eq!(a.overlap(&a), 1.0);
        assert!(a.diff(&a).added.is_empty() && a.diff(&a).removed.is_empty());
        let c = NeuronBlockSet::from_indices(vec![6, 7], 8, B);
        assert_eq!(a.overlap(&c), 0.0);
        // Empty ↔ full transitions.
        let empty = NeuronBlockSet::from_indices(vec![], 8, B);
        let full = NeuronBlockSet::all(8, B);
        assert_eq!(empty.overlap(&empty), 1.0);
        assert_eq!(empty.overlap(&full), 0.0);
        let up = full.diff(&empty);
        assert_eq!(up.added.len(), 8);
        assert!(up.removed.is_empty());
        let down = empty.diff(&full);
        assert!(down.added.is_empty());
        assert_eq!(down.removed.len(), 8);
    }

    #[test]
    fn empty_active_set_is_harmless() {
        // An empty plan gives zero-width compact operands: FC1 produces a
        // `[rows, 0]` activation, FC2 reduces over an empty K and leaves
        // just its bias, and the gradient scatter touches nothing.
        let set = NeuronBlockSet::from_indices(vec![], H / B, B);
        let x = Tensor::randn(&[ROWS, D_IN], 1.0, 22);
        let w1 = Tensor::randn(&[H, D_IN], 1.0, 23);
        let w2 = Tensor::randn(&[H, D_OUT], 1.0, 24);
        let z = matmul_nt(&x, &set.gather_rows(&w1));
        assert_eq!(z.shape(), &[ROWS, 0]);
        assert_eq!(z.rows(), ROWS);
        let bias = Tensor::randn(&[D_OUT], 1.0, 25);
        let mut y = matmul(&z, &set.gather_rows(&w2));
        add_bias_rows(&mut y, bias.as_slice());
        for r in 0..ROWS {
            assert_close(y.row(r), bias.as_slice(), 1e-6);
        }
        let mut dw1 = Tensor::zeros(&[H, D_IN]);
        set.scatter_add_rows(&matmul_tn(&z, &x), &mut dw1);
        assert!(dw1.as_slice().iter().all(|&v| v == 0.0));
    }
}
