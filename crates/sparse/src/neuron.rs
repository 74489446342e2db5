//! Neuron-centric block-sparse MLP kernels (paper §VI-B).
//!
//! When a ReLU MLP neuron is inactive for a whole batch, the corresponding
//! *column* of FC1 and *row* of FC2 drop out of both the forward and the
//! backward pass. Long Exposure filters neurons at block granularity, so the
//! kernels here operate on a sorted list of active neuron *blocks*:
//!
//! * FC1 weights are stored **column-major** ([`ColMajorWeights`]) so an
//!   active output-neuron block is a contiguous `block·d_in` slab;
//! * FC2 weights stay **row-major** so an active input-neuron block is a
//!   contiguous `block·d_out` slab.
//!
//! This mirrors the paper's memory-coalescing layout choice and means the
//! kernels never convert data formats at runtime — the property that makes
//! them "dynamic-aware". Because each active slab is contiguous, every
//! per-block product below is one strided GEMM on the `lx-kernels`
//! [`KernelBackend`](lx_kernels::KernelBackend): the compact activation matrix is addressed with
//! `lda = active_width` and the slab with its natural leading dimension, so
//! sparse MLP work runs on the same packed microkernels as the dense path.

use lx_kernels::Gemm;
use lx_parallel::{par_disjoint, par_rows};
use std::ops::Range;

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

    /// The same active blocks renumbered to `0..n_active` over a grid that
    /// contains only them — the coordinate system of a weight buffer holding
    /// just the active slabs (gathered in `active` order). Used by the
    /// mixed-precision MLP path, which decodes only the active slabs of a
    /// half-stored weight to f32.
    pub fn compacted(&self) -> NeuronBlockSet {
        NeuronBlockSet {
            block_size: self.block_size,
            n_blocks_total: self.n_active(),
            active: (0..self.n_active() as u32).collect(),
        }
    }

    /// Weight-buffer span of active block `ai` when each neuron owns `per`
    /// contiguous elements (an FC1 column slab or FC2 row slab).
    fn slab(&self, ai: usize, per: usize) -> Range<usize> {
        let blk = self.active[ai] as usize * self.block_size;
        blk * per..(blk + self.block_size) * per
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

/// FC1 weights stored column-major: `data[col · d_in + row]`, i.e. each
/// output-neuron column is contiguous.
#[derive(Debug, Clone)]
pub struct ColMajorWeights {
    pub d_in: usize,
    pub d_out: usize,
    data: Vec<f32>,
}

impl ColMajorWeights {
    /// Convert from a row-major `d_in × d_out` weight matrix.
    pub fn from_row_major(w: &[f32], d_in: usize, d_out: usize) -> Self {
        assert_eq!(w.len(), d_in * d_out);
        let mut data = vec![0.0; d_in * d_out];
        for r in 0..d_in {
            for c in 0..d_out {
                data[c * d_in + r] = w[r * d_out + c];
            }
        }
        ColMajorWeights { d_in, d_out, data }
    }

    pub fn zeros(d_in: usize, d_out: usize) -> Self {
        ColMajorWeights {
            d_in,
            d_out,
            data: vec![0.0; d_in * d_out],
        }
    }

    /// Contiguous column `c` (one output neuron's weights).
    #[inline]
    pub fn col(&self, c: usize) -> &[f32] {
        &self.data[c * self.d_in..(c + 1) * self.d_in]
    }

    #[inline]
    pub fn col_mut(&mut self, c: usize) -> &mut [f32] {
        &mut self.data[c * self.d_in..(c + 1) * self.d_in]
    }

    /// Back to row-major (tests, checkpointing).
    pub fn to_row_major(&self) -> Vec<f32> {
        let mut w = vec![0.0; self.d_in * self.d_out];
        for c in 0..self.d_out {
            for r in 0..self.d_in {
                w[r * self.d_out + c] = self.data[c * self.d_in + r];
            }
        }
        w
    }

    pub fn raw(&self) -> &[f32] {
        &self.data
    }

    pub fn raw_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// Rows-per-task grain targeting ~32K MACs, as the original loops used.
fn rows_grain(width: usize, d: usize) -> usize {
    ((1 << 15) / (width * d).max(1)).max(1)
}

/// FC1 forward: `z[r, a·b+t] = ⟨x_r, w1.col(active[a]·b+t)⟩ (+ bias)`.
///
/// `z` is *compact*: `rows × active_neurons`, holding only active columns.
/// Each active block is `Z_a = X · W_aᵀ`, a strided `nt`-GEMM against the
/// contiguous column slab `W_a`.
pub fn fc1_forward(
    x: &[f32],
    rows: usize,
    w1t: &[f32],
    d_in: usize,
    bias: Option<&[f32]>,
    set: &NeuronBlockSet,
    z: &mut [f32],
) {
    debug_assert_eq!(
        w1t.len(),
        set.total_neurons() * d_in,
        "fc1: w1t is d_out×d_in"
    );
    let b = set.block_size;
    let width = set.active_neurons();
    assert_eq!(x.len(), rows * d_in, "fc1: x is rows×d_in");
    assert_eq!(z.len(), rows * width, "fc1: z is rows×active");
    if width == 0 {
        return;
    }
    let be = lx_kernels::backend();
    par_rows(z, rows, width, rows_grain(width, d_in), |rr, chunk| {
        let m = rr.len();
        let x_win = &x[rr.start * d_in..rr.end * d_in];
        for (a, &blk) in set.active.iter().enumerate() {
            let w_blk = &w1t[blk as usize * b * d_in..(blk as usize + 1) * b * d_in];
            // Each block writes its own b-column window once, so the bias
            // rides the GEMM write-back as a fused epilogue (per-block bias
            // slab) instead of a second pass over the whole compact z.
            let ep = match bias {
                Some(bias) => {
                    lx_kernels::Epilogue::Bias(&bias[blk as usize * b..(blk as usize + 1) * b])
                }
                None => lx_kernels::Epilogue::None,
            };
            be.gemm(
                &Gemm::nt(m, d_in, b, x_win, d_in, w_blk, d_in).epilogue(ep),
                &mut chunk[a * b..],
                width,
            );
        }
    });
}

/// FC2 forward: `y[r,:] = Σ_active a[r, blk]·w2_row(neuron) (+ bias)`.
///
/// `w2` is row-major `h × d_out`; `a` is compact `rows × active_neurons`.
/// Each active block accumulates `Y += A_blk · W2_blk` (strided GEMM,
/// `beta = 1`); the reference arm of the dispatcher still skips exact-zero
/// activations (post-ReLU) inside its inner loop.
pub fn fc2_forward(
    a: &[f32],
    rows: usize,
    w2: &[f32],
    d_out: usize,
    bias: Option<&[f32]>,
    set: &NeuronBlockSet,
    y: &mut [f32],
) {
    let b = set.block_size;
    let width = set.active_neurons();
    assert_eq!(a.len(), rows * width, "fc2: a is rows×active");
    assert_eq!(w2.len(), set.total_neurons() * d_out, "fc2: w2 is h×d_out");
    assert_eq!(y.len(), rows * d_out, "fc2: y is rows×d_out");
    let be = lx_kernels::backend();
    par_rows(
        y,
        rows,
        d_out,
        rows_grain(width.max(1), d_out),
        |rr, chunk| {
            let m = rr.len();
            for local in 0..m {
                let y_row = &mut chunk[local * d_out..local * d_out + d_out];
                match bias {
                    Some(bias) => y_row.copy_from_slice(bias),
                    None => y_row.fill(0.0),
                }
            }
            for (ai, &blk) in set.active.iter().enumerate() {
                let w_blk = &w2[blk as usize * b * d_out..(blk as usize + 1) * b * d_out];
                let a_win = &a[rr.start * width + ai * b..];
                be.gemm(
                    &Gemm::nn(m, b, d_out, a_win, width, w_blk, d_out).beta(1.0),
                    chunk,
                    d_out,
                );
            }
        },
    );
}

/// FC2 backward w.r.t. its input: `da[r, blk] = ⟨dy_r, w2_row(neuron)⟩`.
/// Per block: `dA_blk = dY · W2_blkᵀ`, a strided `nt`-GEMM.
pub fn fc2_backward_input(
    dy: &[f32],
    rows: usize,
    w2: &[f32],
    d_out: usize,
    set: &NeuronBlockSet,
    da: &mut [f32],
) {
    let b = set.block_size;
    let width = set.active_neurons();
    assert_eq!(dy.len(), rows * d_out);
    assert_eq!(da.len(), rows * width);
    if width == 0 {
        return;
    }
    let be = lx_kernels::backend();
    par_rows(da, rows, width, rows_grain(width, d_out), |rr, chunk| {
        let m = rr.len();
        let dy_win = &dy[rr.start * d_out..rr.end * d_out];
        for (ai, &blk) in set.active.iter().enumerate() {
            let w_blk = &w2[blk as usize * b * d_out..(blk as usize + 1) * b * d_out];
            be.gemm(
                &Gemm::nt(m, d_out, b, dy_win, d_out, w_blk, d_out),
                &mut chunk[ai * b..],
                width,
            );
        }
    });
}

/// FC1 backward w.r.t. its input: `dx[r,:] = Σ_active dz[r, blk]·w1.col(neuron)`.
/// Per block: `dX += dZ_blk · W_blk` (strided GEMM, `beta = 1`).
pub fn fc1_backward_input(
    dz: &[f32],
    rows: usize,
    w1t: &[f32],
    d_in: usize,
    set: &NeuronBlockSet,
    dx: &mut [f32],
) {
    debug_assert_eq!(w1t.len(), set.total_neurons() * d_in);
    let b = set.block_size;
    let width = set.active_neurons();
    assert_eq!(dz.len(), rows * width);
    assert_eq!(dx.len(), rows * d_in);
    let be = lx_kernels::backend();
    par_rows(
        dx,
        rows,
        d_in,
        rows_grain(width.max(1), d_in),
        |rr, chunk| {
            let m = rr.len();
            chunk.fill(0.0);
            for (ai, &blk) in set.active.iter().enumerate() {
                let w_blk = &w1t[blk as usize * b * d_in..(blk as usize + 1) * b * d_in];
                let dz_win = &dz[rr.start * width + ai * b..];
                be.gemm(
                    &Gemm::nn(m, b, d_in, dz_win, width, w_blk, d_in).beta(1.0),
                    chunk,
                    d_in,
                );
            }
        },
    );
}

/// Accumulate FC1 weight gradients for *active columns only*:
/// `dw1.col(neuron) += Σ_r x_r · dz[r, compact(neuron)]`.
/// Per block: `dW_blk += dZ_blkᵀ · X`, a strided `tn`-GEMM into the block's
/// contiguous column slab; active slabs are disjoint, so blocks parallelise.
pub fn fc1_grad_weights(
    x: &[f32],
    dz: &[f32],
    rows: usize,
    d_in: usize,
    set: &NeuronBlockSet,
    dw1t: &mut [f32],
    dbias: Option<&mut [f32]>,
) {
    debug_assert_eq!(dw1t.len(), set.total_neurons() * d_in);
    let b = set.block_size;
    let width = set.active_neurons();
    assert_eq!(x.len(), rows * d_in);
    assert_eq!(dz.len(), rows * width);
    let be = lx_kernels::backend();
    let spans: Vec<Range<usize>> = (0..set.n_active()).map(|ai| set.slab(ai, d_in)).collect();
    par_disjoint(dw1t, &spans, 1, |ais, chunk| {
        let base = spans[ais.start].start;
        for ai in ais {
            let dst = &mut chunk[spans[ai].start - base..spans[ai].end - base];
            let dz_win = &dz[ai * b..];
            be.gemm(
                &Gemm::tn(b, rows, d_in, dz_win, width, x, d_in).beta(1.0),
                dst,
                d_in,
            );
        }
    });
    if let Some(dbias) = dbias {
        for (ai, &blk) in set.active.iter().enumerate() {
            for t in 0..b {
                let neuron = blk as usize * b + t;
                let mut acc = 0.0;
                for r in 0..rows {
                    acc += dz[r * width + ai * b + t];
                }
                dbias[neuron] += acc;
            }
        }
    }
}

/// Accumulate FC2 weight gradients for *active rows only*:
/// `dw2_row(neuron) += Σ_r a[r, compact(neuron)] · dy_r`.
/// Per block: `dW2_blk += A_blkᵀ · dY` into the block's contiguous row slab.
pub fn fc2_grad_weights(
    a: &[f32],
    dy: &[f32],
    rows: usize,
    d_out: usize,
    set: &NeuronBlockSet,
    dw2: &mut [f32],
) {
    let b = set.block_size;
    let width = set.active_neurons();
    assert_eq!(a.len(), rows * width);
    assert_eq!(dy.len(), rows * d_out);
    assert_eq!(dw2.len(), set.total_neurons() * d_out);
    let be = lx_kernels::backend();
    let spans: Vec<Range<usize>> = (0..set.n_active()).map(|ai| set.slab(ai, d_out)).collect();
    par_disjoint(dw2, &spans, 1, |ais, chunk| {
        let base = spans[ais.start].start;
        for ai in ais {
            let dst = &mut chunk[spans[ai].start - base..spans[ai].end - base];
            let a_win = &a[ai * b..];
            be.gemm(
                &Gemm::tn(b, rows, d_out, a_win, width, dy, d_out).beta(1.0),
                dst,
                d_out,
            );
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use lx_tensor::gemm::gemm;
    use lx_tensor::rng::randn_vec;

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

    fn dense_fc1(x: &[f32], w1: &[f32], bias: &[f32]) -> Vec<f32> {
        let mut z = vec![0.0; ROWS * H];
        gemm(ROWS, D_IN, H, x, w1, &mut z, 0.0);
        for r in 0..ROWS {
            for c in 0..H {
                z[r * H + c] += bias[c];
            }
        }
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
    fn col_major_roundtrip() {
        let w = randn_vec(D_IN * H, 1.0, 1);
        let cm = ColMajorWeights::from_row_major(&w, D_IN, H);
        assert_eq!(cm.to_row_major(), w);
        // col(c)[r] == w[r*H + c]
        for c in [0, 5, 15] {
            for r in 0..D_IN {
                assert_eq!(cm.col(c)[r], w[r * H + c]);
            }
        }
    }

    #[test]
    fn fc1_dense_set_matches_gemm() {
        let x = randn_vec(ROWS * D_IN, 1.0, 2);
        let w1 = randn_vec(D_IN * H, 1.0, 3);
        let bias = randn_vec(H, 0.5, 4);
        let cm = ColMajorWeights::from_row_major(&w1, D_IN, H);
        let set = NeuronBlockSet::all(H / B, B);
        let mut z = vec![0.0; ROWS * H];
        fc1_forward(&x, ROWS, cm.raw(), D_IN, Some(&bias), &set, &mut z);
        assert_close(&z, &dense_fc1(&x, &w1, &bias), 1e-4);
    }

    #[test]
    fn fc1_sparse_set_selects_columns() {
        let x = randn_vec(ROWS * D_IN, 1.0, 5);
        let w1 = randn_vec(D_IN * H, 1.0, 6);
        let bias = vec![0.0; H];
        let cm = ColMajorWeights::from_row_major(&w1, D_IN, H);
        let set = NeuronBlockSet::from_indices(vec![0, 2], H / B, B);
        let mut z = vec![0.0; ROWS * set.active_neurons()];
        fc1_forward(&x, ROWS, cm.raw(), D_IN, Some(&bias), &set, &mut z);
        let dense = dense_fc1(&x, &w1, &bias);
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    let neuron = blk as usize * B + t;
                    assert!(
                        (z[r * 8 + ai * B + t] - dense[r * H + neuron]).abs() < 1e-4,
                        "row {r} neuron {neuron}"
                    );
                }
            }
        }
    }

    #[test]
    fn fc2_dense_set_matches_gemm() {
        let a = randn_vec(ROWS * H, 1.0, 7);
        let w2 = randn_vec(H * D_OUT, 1.0, 8);
        let bias = randn_vec(D_OUT, 0.5, 9);
        let set = NeuronBlockSet::all(H / B, B);
        let mut y = vec![0.0; ROWS * D_OUT];
        fc2_forward(&a, ROWS, &w2, D_OUT, Some(&bias), &set, &mut y);
        let mut expect = vec![0.0; ROWS * D_OUT];
        gemm(ROWS, H, D_OUT, &a, &w2, &mut expect, 0.0);
        for r in 0..ROWS {
            for c in 0..D_OUT {
                expect[r * D_OUT + c] += bias[c];
            }
        }
        assert_close(&y, &expect, 1e-4);
    }

    #[test]
    fn fc2_sparse_equals_dense_with_zeroed_inactive() {
        let set = NeuronBlockSet::from_indices(vec![1, 3], H / B, B);
        let a_compact = randn_vec(ROWS * set.active_neurons(), 1.0, 10);
        let w2 = randn_vec(H * D_OUT, 1.0, 11);
        let mut y = vec![0.0; ROWS * D_OUT];
        fc2_forward(&a_compact, ROWS, &w2, D_OUT, None, &set, &mut y);
        // Expand compact A to full H with zeros in inactive blocks.
        let mut a_full = vec![0.0; ROWS * H];
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    a_full[r * H + blk as usize * B + t] = a_compact[r * 8 + ai * B + t];
                }
            }
        }
        let mut expect = vec![0.0; ROWS * D_OUT];
        gemm(ROWS, H, D_OUT, &a_full, &w2, &mut expect, 0.0);
        assert_close(&y, &expect, 1e-4);
    }

    #[test]
    fn backward_input_paths_match_dense() {
        let set = NeuronBlockSet::from_indices(vec![0, 3], H / B, B);
        let width = set.active_neurons();
        let w1 = randn_vec(D_IN * H, 1.0, 12);
        let w2 = randn_vec(H * D_OUT, 1.0, 13);
        let cm = ColMajorWeights::from_row_major(&w1, D_IN, H);
        let dy = randn_vec(ROWS * D_OUT, 1.0, 14);
        let dz = randn_vec(ROWS * width, 1.0, 15);

        let mut da = vec![0.0; ROWS * width];
        fc2_backward_input(&dy, ROWS, &w2, D_OUT, &set, &mut da);
        // Reference: dY · W2ᵀ then gather active columns.
        let mut da_full = vec![0.0; ROWS * H];
        for r in 0..ROWS {
            for n in 0..H {
                let mut acc = 0.0;
                for c in 0..D_OUT {
                    acc += dy[r * D_OUT + c] * w2[n * D_OUT + c];
                }
                da_full[r * H + n] = acc;
            }
        }
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    assert!(
                        (da[r * width + ai * B + t] - da_full[r * H + blk as usize * B + t]).abs()
                            < 1e-4
                    );
                }
            }
        }

        let mut dx = vec![0.0; ROWS * D_IN];
        fc1_backward_input(&dz, ROWS, cm.raw(), D_IN, &set, &mut dx);
        // Reference: scatter dz to full width then dZ · W1ᵀ.
        let mut dz_full = vec![0.0; ROWS * H];
        for r in 0..ROWS {
            for (ai, &blk) in set.active.iter().enumerate() {
                for t in 0..B {
                    dz_full[r * H + blk as usize * B + t] = dz[r * width + ai * B + t];
                }
            }
        }
        let mut expect = vec![0.0; ROWS * D_IN];
        for r in 0..ROWS {
            for n in 0..H {
                let g = dz_full[r * H + n];
                for i in 0..D_IN {
                    expect[r * D_IN + i] += g * w1[i * H + n];
                }
            }
        }
        assert_close(&dx, &expect, 1e-4);
    }

    #[test]
    fn weight_gradients_touch_only_active_blocks() {
        let set = NeuronBlockSet::from_indices(vec![2], H / B, B);
        let width = set.active_neurons();
        let x = randn_vec(ROWS * D_IN, 1.0, 16);
        let dz = randn_vec(ROWS * width, 1.0, 17);
        let mut dw1 = ColMajorWeights::zeros(D_IN, H);
        let mut dbias = vec![0.0f32; H];
        fc1_grad_weights(&x, &dz, ROWS, D_IN, &set, dw1.raw_mut(), Some(&mut dbias));
        #[allow(clippy::needless_range_loop)]
        for n in 0..H {
            let in_active = (8..12).contains(&n);
            let col_nonzero = dw1.col(n).iter().any(|&v| v != 0.0);
            assert_eq!(col_nonzero, in_active, "neuron {n}");
            assert_eq!(dbias[n] != 0.0, in_active, "bias {n}");
        }
        // Check one value against the naive sum.
        let n = 9;
        let t = n - 8;
        let mut expect = vec![0.0; D_IN];
        for r in 0..ROWS {
            let g = dz[r * width + t];
            for i in 0..D_IN {
                expect[i] += g * x[r * D_IN + i];
            }
        }
        assert_close(dw1.col(n), &expect, 1e-4);

        let dy = randn_vec(ROWS * D_OUT, 1.0, 18);
        let a = randn_vec(ROWS * width, 1.0, 19);
        let mut dw2 = vec![0.0; H * D_OUT];
        fc2_grad_weights(&a, &dy, ROWS, D_OUT, &set, &mut dw2);
        for n in 0..H {
            let in_active = (8..12).contains(&n);
            let row_nonzero = dw2[n * D_OUT..(n + 1) * D_OUT].iter().any(|&v| v != 0.0);
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
        let set = NeuronBlockSet::from_indices(vec![], H / B, B);
        let x = randn_vec(ROWS * D_IN, 1.0, 22);
        let mut z: Vec<f32> = vec![];
        fc1_forward(&x, ROWS, &vec![0.0; H * D_IN], D_IN, None, &set, &mut z);
        let bias = randn_vec(D_OUT, 1.0, 23);
        let mut y = vec![0.0; ROWS * D_OUT];
        fc2_forward(
            &[],
            ROWS,
            &vec![0.0; H * D_OUT],
            D_OUT,
            Some(&bias),
            &set,
            &mut y,
        );
        for r in 0..ROWS {
            assert_close(&y[r * D_OUT..(r + 1) * D_OUT], &bias, 1e-6);
        }
        let mut dw1 = vec![0.0; H * D_IN];
        fc1_grad_weights(&x, &[], ROWS, D_IN, &set, &mut dw1, None);
        assert!(dw1.iter().all(|&v| v == 0.0));
    }
}
