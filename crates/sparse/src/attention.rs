//! SDD / DSD block-sparse attention kernels (paper §VI-A).
//!
//! Sparse attention decomposes into two block-sparse matmuls:
//! `S = Q·Kᵀ` where only masked blocks of S are produced (**SDD**: sparse =
//! dense × dense), and `O = P·V` where a block-sparse P multiplies a dense V
//! (**DSD**). The backward pass reuses the same layout: `dP = dO·Vᵀ` is
//! another SDD, `dV = Pᵀ·dO` and `dK = dSᵀ·Q` are transposed DSDs driven by
//! the CSC view of the lookup table.
//!
//! Block data convention: CSR entry `e` of a layout owns
//! `data[e·b² .. (e+1)·b²]`, row-major within the block. Entries of one
//! block-row are contiguous, so row-wise softmax touches a contiguous span.
//!
//! Every per-block product is issued through the `lx-kernels`
//! [`KernelBackend`](lx_kernels::KernelBackend) as a strided GEMM, so block-sparse work and dense work
//! hit the *same* microkernels and the dispatcher decides per block shape
//! whether packing pays off. Task-level parallelism splits block-rows (or
//! block-columns for the transposed kernels) with the safe
//! `lx_parallel::{par_rows, par_disjoint}` helpers.

use crate::layout::BlockCsr;
use lx_kernels::Gemm;
use lx_parallel::{par_disjoint, par_rows};
use std::ops::Range;

/// What to write into causally-masked positions of diagonal blocks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CausalFill {
    /// `-∞`: for attention *scores*, so softmax zeroes them.
    NegInf,
    /// `0`: for gradients flowing through masked positions.
    Zero,
    /// Leave untouched (pattern already handles masking).
    None,
}

fn fill_value(fill: CausalFill) -> Option<f32> {
    match fill {
        CausalFill::NegInf => Some(f32::NEG_INFINITY),
        CausalFill::Zero => Some(0.0),
        CausalFill::None => None,
    }
}

fn check_dims(layout: &BlockCsr, s: usize) {
    let b = layout.block_size;
    assert_eq!(
        s,
        layout.n_brows * b,
        "sequence length {s} != {} blocks × {b}",
        layout.n_brows
    );
    assert_eq!(
        layout.n_brows, layout.n_bcols,
        "attention layouts are square"
    );
}

/// Per-block-row spans of the CSR block data (entry `e` owns `b²` elements).
fn row_data_spans(layout: &BlockCsr) -> Vec<Range<usize>> {
    let bb = layout.block_size * layout.block_size;
    (0..layout.n_brows)
        .map(|br| layout.row_ptr[br] as usize * bb..layout.row_ptr[br + 1] as usize * bb)
        .collect()
}

/// SDD: `out_blocks = scale · A·Bᵀ` on active blocks only.
///
/// `a` and `b_mat` are `s×dh` row-major (Q and K for the forward scores;
/// dO and V for the `dP` backward). `out` must have `layout.data_len()`
/// elements. Masked positions of diagonal blocks get `fill`.
#[allow(clippy::too_many_arguments)]
pub fn sdd_nt(
    a: &[f32],
    b_mat: &[f32],
    s: usize,
    dh: usize,
    scale: f32,
    layout: &BlockCsr,
    fill: CausalFill,
    out: &mut [f32],
) {
    check_dims(layout, s);
    let b = layout.block_size;
    assert_eq!(a.len(), s * dh, "SDD: A is s×dh");
    assert_eq!(b_mat.len(), s * dh, "SDD: B is s×dh");
    assert_eq!(out.len(), layout.data_len(), "SDD: out sized to layout");
    let fillv = fill_value(fill);
    let be = lx_kernels::backend();
    let bb = b * b;
    let spans = row_data_spans(layout);
    // One task per run of block-rows: a row's entries own disjoint,
    // contiguous `out` spans.
    let grain = ((1 << 14) / (bb * dh).max(1)).max(1);
    par_disjoint(out, &spans, grain, |brs, chunk| {
        let base = spans[brs.start].start;
        for br in brs {
            let a_rows = &a[br * b * dh..(br + 1) * b * dh];
            for e in layout.row_entries(br) {
                let bc = layout.col_idx[e] as usize;
                let blk = &mut chunk[e * bb - base..(e + 1) * bb - base];
                let b_rows = &b_mat[bc * b * dh..(bc + 1) * b * dh];
                be.gemm(&Gemm::nt(b, dh, b, a_rows, dh, b_rows, dh), blk, b);
                if scale != 1.0 {
                    for v in blk.iter_mut() {
                        *v *= scale;
                    }
                }
                if let Some(fv) = fillv {
                    // Causal masking at element granularity. Diagonal blocks
                    // compute the full b×b product and then overwrite the
                    // masked half — the vectorised block GEMM beats the old
                    // skip-per-element scalar loop even doing 2× the MACs.
                    for i in 0..b {
                        let first_masked = (br * b + i + 1).saturating_sub(bc * b).min(b);
                        for v in &mut blk[i * b + first_masked..(i + 1) * b] {
                            *v = fv;
                        }
                    }
                }
            }
        }
    });
}

/// DSD: `out[s×dh] = P · V` where P is block-sparse data over `layout`.
pub fn dsd(p: &[f32], v: &[f32], s: usize, dh: usize, layout: &BlockCsr, out: &mut [f32]) {
    check_dims(layout, s);
    let b = layout.block_size;
    assert_eq!(p.len(), layout.data_len(), "DSD: P sized to layout");
    assert_eq!(v.len(), s * dh, "DSD: V is s×dh");
    assert_eq!(out.len(), s * dh, "DSD: out is s×dh");
    let be = lx_kernels::backend();
    let bb = b * b;
    let grain = ((1 << 14) / (bb * dh).max(1)).max(1);
    // One task per run of block-rows; each owns `b` contiguous output rows.
    par_rows(out, layout.n_brows, b * dh, grain, |brs, chunk| {
        for br in brs.clone() {
            let local = (br - brs.start) * b * dh;
            let out_rows = &mut chunk[local..local + b * dh];
            out_rows.fill(0.0);
            for e in layout.row_entries(br) {
                let bc = layout.col_idx[e] as usize;
                let p_blk = &p[e * bb..(e + 1) * bb];
                let v_rows = &v[bc * b * dh..(bc + 1) * b * dh];
                be.gemm(
                    &Gemm::nn(b, b, dh, p_blk, b, v_rows, dh).beta(1.0),
                    out_rows,
                    dh,
                );
            }
        }
    });
}

/// Transposed DSD: `out[s×dh] = Pᵀ · X` via the CSC view
/// (`dV = Pᵀ·dO`, `dK = dSᵀ·Q`).
pub fn dsd_tn(p: &[f32], x: &[f32], s: usize, dh: usize, layout: &BlockCsr, out: &mut [f32]) {
    check_dims(layout, s);
    let b = layout.block_size;
    assert_eq!(p.len(), layout.data_len(), "DSD-T: P sized to layout");
    assert_eq!(x.len(), s * dh, "DSD-T: X is s×dh");
    assert_eq!(out.len(), s * dh, "DSD-T: out is s×dh");
    let be = lx_kernels::backend();
    let bb = b * b;
    let grain = ((1 << 14) / (bb * dh).max(1)).max(1);
    // One task per run of block-columns; each owns `b` output rows.
    par_rows(out, layout.n_bcols, b * dh, grain, |bcs, chunk| {
        for bc in bcs.clone() {
            let local = (bc - bcs.start) * b * dh;
            let out_rows = &mut chunk[local..local + b * dh];
            out_rows.fill(0.0);
            for e2 in layout.col_entries(bc) {
                let br = layout.row_idx[e2] as usize;
                let e = layout.csc_to_csr[e2] as usize;
                // The stored block is P[br, bc]; as the A operand of a `tn`
                // GEMM it is read transposed, exactly what `Pᵀ` needs.
                let p_blk = &p[e * bb..(e + 1) * bb];
                let x_rows = &x[br * b * dh..(br + 1) * b * dh];
                be.gemm(
                    &Gemm::tn(b, b, dh, p_blk, b, x_rows, dh).beta(1.0),
                    out_rows,
                    dh,
                );
            }
        }
    });
}

/// Row-wise softmax over block-sparse score data. `-∞` entries become 0;
/// rows with no active blocks stay empty.
pub fn block_row_softmax(data: &mut [f32], layout: &BlockCsr) {
    let b = layout.block_size;
    assert_eq!(data.len(), layout.data_len());
    let spans = row_data_spans(layout);
    par_disjoint(data, &spans, 1, |brs, chunk| {
        let base = spans[brs.start].start;
        for br in brs {
            let entries = layout.row_entries(br);
            if entries.is_empty() {
                continue;
            }
            let span = &mut chunk[spans[br].start - base..spans[br].end - base];
            let n_entries = entries.len();
            for i in 0..b {
                // Pass 1: max.
                let mut max = f32::NEG_INFINITY;
                for e in 0..n_entries {
                    for &v in &span[e * b * b + i * b..e * b * b + (i + 1) * b] {
                        max = max.max(v);
                    }
                }
                if max == f32::NEG_INFINITY {
                    for e in 0..n_entries {
                        span[e * b * b + i * b..e * b * b + (i + 1) * b].fill(0.0);
                    }
                    continue;
                }
                // Pass 2: exp + sum.
                let mut sum = 0.0f32;
                for e in 0..n_entries {
                    for v in span[e * b * b + i * b..e * b * b + (i + 1) * b].iter_mut() {
                        *v = (*v - max).exp();
                        sum += *v;
                    }
                }
                let inv = 1.0 / sum;
                for e in 0..n_entries {
                    for v in span[e * b * b + i * b..e * b * b + (i + 1) * b].iter_mut() {
                        *v *= inv;
                    }
                }
            }
        }
    });
}

/// Backward of [`block_row_softmax`]: `dx = y ⊙ (dy − ⟨y, dy⟩_row)`.
pub fn block_row_softmax_backward(y: &[f32], dy: &[f32], layout: &BlockCsr, dx: &mut [f32]) {
    let b = layout.block_size;
    assert_eq!(y.len(), layout.data_len());
    assert_eq!(dy.len(), layout.data_len());
    assert_eq!(dx.len(), layout.data_len());
    let spans = row_data_spans(layout);
    par_disjoint(dx, &spans, 1, |brs, chunk| {
        let base = spans[brs.start].start;
        for br in brs {
            let entries = layout.row_entries(br);
            for i in 0..b {
                let mut dot = 0.0f32;
                for e in entries.clone() {
                    let off = e * b * b + i * b;
                    for t in 0..b {
                        dot += y[off + t] * dy[off + t];
                    }
                }
                for e in entries.clone() {
                    let off = e * b * b + i * b;
                    let dx_row = &mut chunk[off - base..off - base + b];
                    for t in 0..b {
                        dx_row[t] = y[off + t] * (dy[off + t] - dot);
                    }
                }
            }
        }
    });
}

/// Expand block data to a dense `s×s` matrix (tests & visualisation).
pub fn block_data_to_dense(data: &[f32], layout: &BlockCsr) -> Vec<f32> {
    let b = layout.block_size;
    let s = layout.n_brows * b;
    let mut dense = vec![0.0; s * s];
    for br in 0..layout.n_brows {
        for e in layout.row_entries(br) {
            let bc = layout.col_idx[e] as usize;
            for i in 0..b {
                for j in 0..b {
                    dense[(br * b + i) * s + (bc * b + j)] = data[e * b * b + i * b + j];
                }
            }
        }
    }
    dense
}

/// Gather a dense `s×s` matrix into block data over `layout` (tests).
pub fn dense_to_block_data(dense: &[f32], layout: &BlockCsr) -> Vec<f32> {
    let b = layout.block_size;
    let s = layout.n_brows * b;
    assert_eq!(dense.len(), s * s);
    let mut data = vec![0.0; layout.data_len()];
    for br in 0..layout.n_brows {
        for e in layout.row_entries(br) {
            let bc = layout.col_idx[e] as usize;
            for i in 0..b {
                for j in 0..b {
                    data[e * b * b + i * b + j] = dense[(br * b + i) * s + (bc * b + j)];
                }
            }
        }
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::patterns::PatternSpec;
    use lx_tensor::ops::{apply_causal_mask, softmax_rows};
    use lx_tensor::rng::randn_vec;

    const B: usize = 4;
    const S: usize = 16; // 4 block rows
    const DH: usize = 8;

    fn dot(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    fn layout(spec: PatternSpec) -> BlockCsr {
        BlockCsr::from_mask(&spec.mask(S / B), B)
    }

    fn dense_reference(
        q: &[f32],
        k: &[f32],
        v: &[f32],
        mask: &crate::BlockMask,
    ) -> (Vec<f32>, Vec<f32>) {
        // Dense path with block-mask + causal applied as -inf.
        let scale = 1.0 / (DH as f32).sqrt();
        let mut scores = vec![0.0f32; S * S];
        for i in 0..S {
            for j in 0..S {
                scores[i * S + j] = scale * dot(&q[i * DH..(i + 1) * DH], &k[j * DH..(j + 1) * DH]);
                if !mask.get(i / B, j / B) {
                    scores[i * S + j] = f32::NEG_INFINITY;
                }
            }
        }
        apply_causal_mask(&mut scores, S);
        softmax_rows(&mut scores, S);
        let mut out = vec![0.0f32; S * DH];
        for i in 0..S {
            for j in 0..S {
                let p = scores[i * S + j];
                for t in 0..DH {
                    out[i * DH + t] += p * v[j * DH + t];
                }
            }
        }
        (scores, out)
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "idx {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn sparse_attention_matches_dense_on_causal_pattern() {
        let q = randn_vec(S * DH, 1.0, 1);
        let k = randn_vec(S * DH, 1.0, 2);
        let v = randn_vec(S * DH, 1.0, 3);
        for spec in [
            PatternSpec::Causal,
            PatternSpec::LocalWindow { w: 2 },
            PatternSpec::LocalGlobal { w: 1, g: 1 },
            PatternSpec::Strided { w: 1, stride: 2 },
        ] {
            let lay = layout(spec);
            let scale = 1.0 / (DH as f32).sqrt();
            let mut p = vec![0.0; lay.data_len()];
            sdd_nt(&q, &k, S, DH, scale, &lay, CausalFill::NegInf, &mut p);
            block_row_softmax(&mut p, &lay);
            let mut out = vec![0.0; S * DH];
            dsd(&p, &v, S, DH, &lay, &mut out);

            let (dense_scores, dense_out) = dense_reference(&q, &k, &v, &lay.to_mask());
            let sparse_scores = block_data_to_dense(&p, &lay);
            assert_close(&sparse_scores, &dense_scores, 1e-4);
            assert_close(&out, &dense_out, 1e-4);
        }
    }

    #[test]
    fn dsd_tn_is_transpose_of_dsd() {
        let lay = layout(PatternSpec::LocalGlobal { w: 2, g: 1 });
        let p = randn_vec(lay.data_len(), 1.0, 4);
        let x = randn_vec(S * DH, 1.0, 5);
        let mut out = vec![0.0; S * DH];
        dsd_tn(&p, &x, S, DH, &lay, &mut out);
        // Reference: dense transpose multiply.
        let dense_p = block_data_to_dense(&p, &lay);
        let mut expect = vec![0.0; S * DH];
        for i in 0..S {
            for j in 0..S {
                let pv = dense_p[i * S + j];
                for t in 0..DH {
                    expect[j * DH + t] += pv * x[i * DH + t];
                }
            }
        }
        assert_close(&out, &expect, 1e-4);
    }

    #[test]
    fn softmax_backward_matches_dense_reference() {
        let lay = layout(PatternSpec::LocalWindow { w: 2 });
        let q = randn_vec(S * DH, 1.0, 6);
        let k = randn_vec(S * DH, 1.0, 7);
        let mut scores = vec![0.0; lay.data_len()];
        sdd_nt(&q, &k, S, DH, 0.5, &lay, CausalFill::NegInf, &mut scores);
        let mut y = scores.clone();
        block_row_softmax(&mut y, &lay);
        let dy = randn_vec(lay.data_len(), 1.0, 8);
        let mut dx = vec![0.0; lay.data_len()];
        block_row_softmax_backward(&y, &dy, &lay, &mut dx);

        // Dense reference row by row.
        let dense_y = block_data_to_dense(&y, &lay);
        let dense_dy = block_data_to_dense(&dy, &lay);
        let mut dense_dx = vec![0.0; S * S];
        for r in 0..S {
            // Only positions active in the layout participate.
            let mut dot = 0.0;
            for c in 0..S {
                if lay.to_mask().get(r / B, c / B) {
                    dot += dense_y[r * S + c] * dense_dy[r * S + c];
                }
            }
            for c in 0..S {
                if lay.to_mask().get(r / B, c / B) {
                    dense_dx[r * S + c] = dense_y[r * S + c] * (dense_dy[r * S + c] - dot);
                }
            }
        }
        let sparse_dx = block_data_to_dense(&dx, &lay);
        assert_close(&sparse_dx, &dense_dx, 1e-4);
    }

    #[test]
    fn causal_fill_zero_for_gradients() {
        let lay = layout(PatternSpec::Causal);
        let a = randn_vec(S * DH, 1.0, 9);
        let b = randn_vec(S * DH, 1.0, 10);
        let mut out = vec![f32::NAN; lay.data_len()];
        sdd_nt(&a, &b, S, DH, 1.0, &lay, CausalFill::Zero, &mut out);
        let dense = block_data_to_dense(&out, &lay);
        for i in 0..S {
            for j in (i + 1)..S {
                assert_eq!(dense[i * S + j], 0.0, "masked grad at ({i},{j}) must be 0");
            }
        }
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn causal_fill_none_computes_masked_positions() {
        // With `None`, the kernel must fill the whole block with real
        // products (the pattern is trusted to handle masking downstream).
        let lay = layout(PatternSpec::Causal);
        let a = randn_vec(S * DH, 1.0, 20);
        let b = randn_vec(S * DH, 1.0, 21);
        let mut out = vec![f32::NAN; lay.data_len()];
        sdd_nt(&a, &b, S, DH, 1.0, &lay, CausalFill::None, &mut out);
        let dense = block_data_to_dense(&out, &lay);
        for br in 0..S / B {
            for e in lay.row_entries(br) {
                let bc = lay.col_idx[e] as usize;
                for i in 0..B {
                    for j in 0..B {
                        let (gi, gj) = (br * B + i, bc * B + j);
                        let expect = dot(&a[gi * DH..(gi + 1) * DH], &b[gj * DH..(gj + 1) * DH]);
                        assert!((dense[gi * S + gj] - expect).abs() < 1e-4 * (1.0 + expect.abs()));
                    }
                }
            }
        }
    }

    #[test]
    fn block_data_dense_roundtrip() {
        let lay = layout(PatternSpec::LocalGlobal { w: 1, g: 1 });
        let data = randn_vec(lay.data_len(), 1.0, 11);
        let dense = block_data_to_dense(&data, &lay);
        let back = dense_to_block_data(&dense, &lay);
        assert_eq!(data, back);
    }

    #[test]
    fn empty_layout_noops() {
        let mask = crate::BlockMask::square(S / B);
        let lay = BlockCsr::from_mask(&mask, B);
        let q = randn_vec(S * DH, 1.0, 12);
        let mut p: Vec<f32> = vec![];
        sdd_nt(&q, &q, S, DH, 1.0, &lay, CausalFill::NegInf, &mut p);
        block_row_softmax(&mut p, &lay);
        let mut out = vec![7.0; S * DH];
        dsd(&p, &q, S, DH, &lay, &mut out);
        assert!(out.iter().all(|&v| v == 0.0), "no blocks -> zero output");
    }

    #[test]
    fn flops_scale_with_active_blocks() {
        // Not a timing test: verify data_len (proxy for work) is linear in
        // active blocks, the Fig. 12 premise.
        let full = layout(PatternSpec::Causal);
        let narrow = layout(PatternSpec::LocalWindow { w: 1 });
        assert!(full.data_len() > 2 * narrow.data_len());
    }
}
