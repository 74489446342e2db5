//! The [`KernelBackend`] trait and the [`Reference`] scalar backend.
//!
//! A backend is one method over a [`Gemm`] descriptor; the descriptor module
//! documents the layouts, leading dimensions and the slice length contract.

use crate::descriptor::{BOperand, Gemm};
use crate::epilogue::{apply_epilogue, Epilogue};
use lx_parallel::par_rows;

/// Don't fan a GEMM out across the pool unless a task has at least this many
/// fused mul-adds (same constant the original loop kernels used).
pub(crate) const GRAIN_FLOPS: usize = 1 << 16;

pub(crate) fn row_grain(k: usize, n: usize) -> usize {
    (GRAIN_FLOPS / (k * n).max(1)).max(1)
}

/// A family of GEMM kernels sharing one storage convention (row-major with
/// leading dimensions, see [`Gemm`]). Implementations must tolerate
/// degenerate shapes (`m`, `k` or `n` of 0), must scale `C` by `beta` exactly
/// once, and must apply the epilogue after the complete accumulation.
/// `beta == 0.0` means *overwrite*: prior contents of `C` — including NaN —
/// must not leak into the result.
pub trait KernelBackend: Sync {
    /// Short name for dispatch logs and benches.
    fn name(&self) -> &'static str;

    /// Run `g`, writing its `m×n` result into `c` (leading dimension `ldc`).
    fn gemm(&self, g: &Gemm<'_>, c: &mut [f32], ldc: usize);
}

/// `C *= beta` sweep (the whole op when `k == 0`; the up-front beta pass of
/// the packed driver otherwise). Parallel across row chunks unless the
/// caller is already inside a pool worker or forced sequential.
pub(crate) fn scale_only(c: &mut [f32], m: usize, n: usize, ldc: usize, beta: f32) {
    if crate::sequential_mode() {
        for i in 0..m {
            scale_row(&mut c[i * ldc..i * ldc + n], beta);
        }
        return;
    }
    par_rows(c, m, ldc, (1 << 14) / n.max(1), |rows, chunk| {
        for i in rows.clone() {
            let local = (i - rows.start) * ldc;
            scale_row(&mut chunk[local..local + n], beta);
        }
    });
}

#[inline]
pub(crate) fn scale_row(row: &mut [f32], beta: f32) {
    if beta == 0.0 {
        row.fill(0.0);
    } else if beta != 1.0 {
        for v in row {
            *v *= beta;
        }
    }
}

#[inline]
fn axpy_row(c: &mut [f32], a: f32, b: &[f32]) {
    debug_assert_eq!(c.len(), b.len());
    for (cv, bv) in c.iter_mut().zip(b.iter()) {
        *cv += a * bv;
    }
}

#[inline]
fn dot_unrolled(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for c in 0..chunks {
        let i = c * 4;
        acc[0] += a[i] * b[i];
        acc[1] += a[i + 1] * b[i + 1];
        acc[2] += a[i + 2] * b[i + 2];
        acc[3] += a[i + 3] * b[i + 3];
    }
    let mut sum = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        sum += a[i] * b[i];
    }
    sum
}

/// The scalar loop kernels that used to live in `lx-tensor::gemm`, kept
/// verbatim (modulo leading dims) as the correctness oracle and as the
/// small-shape arm of the dispatcher. `i-k-j` order with an A-element
/// broadcast against a contiguous B row, which LLVM auto-vectorises well;
/// rows of C split across the pool with a FLOP-based grain.
///
/// A reduced-storage B is decoded on load, one row at a time, into the
/// k-outer loops of `gemm_decode_b`/`gemm_nt_decode_b`: per-element
/// accumulation order is identical to the f32 loops, so results match the
/// decode-up-front path bit for bit, and the full f32 B is never
/// materialised. Their epilogue is a standalone pass after the product.
pub struct Reference;

impl KernelBackend for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn gemm(&self, g: &Gemm<'_>, c: &mut [f32], ldc: usize) {
        g.check(c.len(), ldc);
        let Gemm {
            m,
            k,
            n,
            a,
            lda,
            ldb,
            beta,
            ep,
            ..
        } = *g;
        match (g.b, g.a_trans, g.b_trans) {
            (BOperand::F32(b), false, false) => nn(m, k, n, a, lda, b, ldb, c, ldc, beta, ep),
            (BOperand::F32(b), false, true) => nt(m, k, n, a, lda, b, ldb, c, ldc, beta, ep),
            (BOperand::F32(b), true, _) => tn(m, k, n, a, lda, b, ldb, c, ldc, beta),
            (b, _, b_trans) => {
                let decode = |row: usize, out: &mut [f32]| b.decode_row(ldb, row, out);
                if b_trans {
                    gemm_nt_decode_b(m, k, n, a, lda, decode, c, ldc, beta);
                } else {
                    gemm_decode_b(m, k, n, a, lda, decode, c, ldc, beta);
                }
                apply_epilogue(c, m, n, ldc, ep);
            }
        }
    }
}

/// `nn` loops. The epilogue is applied to each C row right after the row's
/// full k accumulation, inside the same worker task — same element order as
/// the unfused pass, so results are bit-identical.
#[allow(clippy::too_many_arguments)]
fn nn(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    beta: f32,
    ep: Epilogue<'_>,
) {
    if m == 0 || n == 0 {
        return;
    }
    ep.check(n);
    if k == 0 {
        scale_only(c, m, n, ldc, beta);
        return apply_epilogue(c, m, n, ldc, ep);
    }
    par_rows(c, m, ldc, row_grain(k, n), |rows, chunk| {
        for i in rows.clone() {
            let local = (i - rows.start) * ldc;
            let c_row = &mut chunk[local..local + n];
            scale_row(c_row, beta);
            let a_row = &a[i * lda..i * lda + k];
            for (l, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b[l * ldb..l * ldb + n];
                axpy_row(c_row, av, b_row);
            }
            ep.apply_tile(c_row, n, 1, n, 0);
        }
    });
}

/// `nt` loops (dot products against B rows); fused epilogue as in [`nn`].
#[allow(clippy::too_many_arguments)]
fn nt(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    beta: f32,
    ep: Epilogue<'_>,
) {
    if m == 0 || n == 0 {
        return;
    }
    ep.check(n);
    if k == 0 {
        scale_only(c, m, n, ldc, beta);
        return apply_epilogue(c, m, n, ldc, ep);
    }
    par_rows(c, m, ldc, row_grain(k, n), |rows, chunk| {
        for i in rows.clone() {
            let local = (i - rows.start) * ldc;
            let c_row = &mut chunk[local..local + n];
            let a_row = &a[i * lda..i * lda + k];
            for (j, cv) in c_row.iter_mut().enumerate() {
                let b_row = &b[j * ldb..j * ldb + k];
                let dot = dot_unrolled(a_row, b_row);
                *cv = if beta == 0.0 { dot } else { beta * *cv + dot };
            }
            ep.apply_tile(c_row, n, 1, n, 0);
        }
    });
}

/// `tn` loops (k-outer, A read down its columns).
#[allow(clippy::too_many_arguments)]
fn tn(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    b: &[f32],
    ldb: usize,
    c: &mut [f32],
    ldc: usize,
    beta: f32,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        return scale_only(c, m, n, ldc, beta);
    }
    par_rows(c, m, ldc, row_grain(k, n), |rows, chunk| {
        for i in rows.clone() {
            let local = (i - rows.start) * ldc;
            scale_row(&mut chunk[local..local + n], beta);
        }
        for l in 0..k {
            let b_row = &b[l * ldb..l * ldb + n];
            for i in rows.clone() {
                let av = a[l * lda + i];
                if av == 0.0 {
                    continue;
                }
                let local = (i - rows.start) * ldc;
                axpy_row(&mut chunk[local..local + n], av, b_row);
            }
        }
    });
}

/// The k-outer on-load-decode loop for a reduced-storage B: one `n`-long B
/// row decoded to scratch per k-step and streamed against every A row of the
/// chunk, never materialising the full f32 B. Per-element accumulation order
/// is identical to [`nn`].
#[allow(clippy::too_many_arguments)]
fn gemm_decode_b<D: Fn(usize, &mut [f32]) + Sync>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    decode: D,
    c: &mut [f32],
    ldc: usize,
    beta: f32,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        return scale_only(c, m, n, ldc, beta);
    }
    par_rows(c, m, ldc, row_grain(k, n), |rows, chunk| {
        for i in rows.clone() {
            let local = (i - rows.start) * ldc;
            scale_row(&mut chunk[local..local + n], beta);
        }
        let mut b_row = vec![0.0f32; n];
        for l in 0..k {
            decode(l, &mut b_row);
            for i in rows.clone() {
                let av = a[i * lda + l];
                if av == 0.0 {
                    continue;
                }
                let local = (i - rows.start) * ldc;
                axpy_row(&mut chunk[local..local + n], av, &b_row);
            }
        }
    });
}

/// The `nt` twin of [`gemm_decode_b`]: one `k`-long B row decoded per output
/// column, dotted against every A row of the chunk.
#[allow(clippy::too_many_arguments)]
fn gemm_nt_decode_b<D: Fn(usize, &mut [f32]) + Sync>(
    m: usize,
    k: usize,
    n: usize,
    a: &[f32],
    lda: usize,
    decode: D,
    c: &mut [f32],
    ldc: usize,
    beta: f32,
) {
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        return scale_only(c, m, n, ldc, beta);
    }
    par_rows(c, m, ldc, row_grain(k, n), |rows, chunk| {
        let mut b_row = vec![0.0f32; k];
        for j in 0..n {
            decode(j, &mut b_row);
            for i in rows.clone() {
                let a_row = &a[i * lda..i * lda + k];
                let dot = dot_unrolled(a_row, &b_row);
                let cv = &mut chunk[(i - rows.start) * ldc + j];
                *cv = if beta == 0.0 { dot } else { beta * *cv + dot };
            }
        }
    });
}
