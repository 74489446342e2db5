//! The [`KernelBackend`] trait and the [`Reference`] scalar backend.
//!
//! A backend is one method over a [`Gemm`] descriptor; the descriptor module
//! documents the layouts, leading dimensions and the slice length contract.

use crate::descriptor::{BOperand, BlockList, Gemm};
use crate::epilogue::{apply_epilogue, Epilogue};
use lx_parallel::{par_disjoint, par_rows};
use std::ops::Range;

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

/// [`par_rows`] unless `seq`: then `body` runs over all `rows` on the calling
/// thread. Every kernel loop forks through this, so a GEMM issued inside a
/// pool task (or under [`with_sequential`](crate::with_sequential)) never
/// opens a nested scope — whose waiting thread would help-drain sibling
/// tasks re-entrantly. Per-row results do not depend on the chunking, so both
/// arms produce the same bits.
pub(crate) fn rows_maybe_par<F>(
    c: &mut [f32],
    rows: usize,
    ldc: usize,
    grain: usize,
    seq: bool,
    body: F,
) where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    if seq {
        body(0..rows, c);
    } else {
        par_rows(c, rows, ldc, grain, body);
    }
}

/// `C *= beta` sweep (the whole op when `k == 0`; the up-front beta pass of
/// the packed driver otherwise). Parallel across row chunks unless `seq`.
pub(crate) fn scale_only(c: &mut [f32], m: usize, n: usize, ldc: usize, beta: f32, seq: bool) {
    rows_maybe_par(c, m, ldc, (1 << 14) / n.max(1), seq, |rows, chunk| {
        for i in rows.clone() {
            let local = (i - rows.start) * ldc;
            scale_row(&mut chunk[local..local + n], beta);
        }
    });
}

/// Run `body(lines, chunk, base)` over the lines of a block-list product —
/// block-rows of the block data (SDD) or `b`-row bands of a dense C (DSD,
/// DSD-tn) — where `span(line)` is the part of `c` line `line` owns. `chunk`
/// covers the lines' spans and starts at element `base` of `c`. Lines are
/// independent, so they run as tasks of at least `grain` lines, or all on the
/// calling thread when `seq`; both produce the same bits.
pub(crate) fn for_lines<F>(
    c: &mut [f32],
    n_lines: usize,
    span: impl Fn(usize) -> Range<usize>,
    grain: usize,
    seq: bool,
    body: F,
) where
    F: Fn(Range<usize>, &mut [f32], usize) + Sync,
{
    if seq || n_lines <= grain {
        return body(0..n_lines, c, 0);
    }
    let spans: Vec<Range<usize>> = (0..n_lines).map(span).collect();
    par_disjoint(c, &spans, grain, |lines, chunk| {
        let base = spans[lines.start].start;
        body(lines, chunk, base)
    });
}

/// Minimum lines per task for a block-list product: enough that a task has
/// about [`GRAIN_FLOPS`] multiply-adds.
pub(crate) fn line_grain(g: &Gemm<'_>, n_lines: usize) -> usize {
    let per_line = (g.flops() / 2 / n_lines.max(1) as u64).max(1);
    (GRAIN_FLOPS as u64 / per_line).max(1) as usize
}

/// The part of C a block-list line owns: the block data of block-row `line`
/// (SDD), or the `b` rows of a dense C starting at row `line·b` (DSD,
/// DSD-tn).
pub(crate) fn line_span<'a>(
    l: &BlockList<'a>,
    sdd: bool,
    n: usize,
    ldc: usize,
) -> impl Fn(usize) -> Range<usize> + 'a {
    let (l, b) = (*l, l.block);
    move |line| {
        if sdd {
            let r = l.row(line);
            r.start * b * b..r.end * b * b
        } else {
            line * b * ldc..(line * b + b - 1) * ldc + n
        }
    }
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
///
/// A block-list product ([`Gemm::blocks`]) is decoded row by row: each output
/// row walks its line's active blocks in list order, which is the oracle the
/// packed block-list path is tested against.
pub struct Reference;

impl KernelBackend for Reference {
    fn name(&self) -> &'static str {
        "reference"
    }

    fn gemm(&self, g: &Gemm<'_>, c: &mut [f32], ldc: usize) {
        g.check(c.len(), ldc);
        if let Some(list) = &g.blocks {
            return block_list(g, list, c, ldc);
        }
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
    let seq = crate::sequential_mode();
    if k == 0 {
        scale_only(c, m, n, ldc, beta, seq);
        return apply_epilogue(c, m, n, ldc, ep);
    }
    rows_maybe_par(c, m, ldc, row_grain(k, n), seq, |rows, chunk| {
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
    let seq = crate::sequential_mode();
    if k == 0 {
        scale_only(c, m, n, ldc, beta, seq);
        return apply_epilogue(c, m, n, ldc, ep);
    }
    rows_maybe_par(c, m, ldc, row_grain(k, n), seq, |rows, chunk| {
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
    let seq = crate::sequential_mode();
    if k == 0 {
        return scale_only(c, m, n, ldc, beta, seq);
    }
    rows_maybe_par(c, m, ldc, row_grain(k, n), seq, |rows, chunk| {
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
    let seq = crate::sequential_mode();
    if k == 0 {
        return scale_only(c, m, n, ldc, beta, seq);
    }
    rows_maybe_par(c, m, ldc, row_grain(k, n), seq, |rows, chunk| {
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
    let seq = crate::sequential_mode();
    if k == 0 {
        return scale_only(c, m, n, ldc, beta, seq);
    }
    rows_maybe_par(c, m, ldc, row_grain(k, n), seq, |rows, chunk| {
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

/// A block-list product ([`Gemm::blocks`]), one output row at a time.
fn block_list(g: &Gemm<'_>, l: &BlockList<'_>, c: &mut [f32], ldc: usize) {
    let BOperand::F32(bm) = g.b else {
        unreachable!("checked: block lists take an f32 B")
    };
    let (b, k, n, beta) = (l.block, g.k, g.n, g.beta);
    let (a, lda, ldb, bb) = (g.a, g.lda, g.ldb, b * b);
    let sdd = g.b_trans;
    let (seq, grain) = (crate::sequential_mode(), line_grain(g, l.grid()));
    let span = line_span(l, sdd, n, ldc);
    if sdd && k == 0 {
        let rows = l.nnz() * b;
        return scale_only(c, rows, b, b, beta, seq);
    }
    if !sdd && n == 0 {
        return;
    }
    if sdd {
        // Row `i` of block-row `br` against the rows of each active
        // block-column: the `nt` loop over the gathered B.
        for_lines(c, l.grid(), span, grain, seq, |lines, chunk, base| {
            for br in lines {
                for e in l.row(br) {
                    let bc = l.col_idx[e] as usize;
                    let blk = &mut chunk[e * bb - base..(e + 1) * bb - base];
                    for (i, c_row) in blk.chunks_exact_mut(b).enumerate() {
                        let a_row = &a[(br * b + i) * lda..][..k];
                        for (j, cv) in c_row.iter_mut().enumerate() {
                            let dot = dot_unrolled(a_row, &bm[(bc * b + j) * ldb..][..k]);
                            *cv = if beta == 0.0 { dot } else { beta * *cv + dot };
                        }
                    }
                }
            }
        });
        return;
    }
    // DSD / DSD-tn: output row `i` of line `line` takes row `i` of each
    // active block (column `i`, read transposed, for DSD-tn) against the
    // matching `b` rows of B — the `nn` loop over the gathered operands.
    for_lines(c, l.grid(), span, grain, seq, |lines, chunk, base| {
        for line in lines {
            let entries = if g.a_trans { l.col(line) } else { l.row(line) };
            for i in 0..b {
                let c_row = &mut chunk[(line * b + i) * ldc - base..][..n];
                scale_row(c_row, beta);
                for e in entries.clone() {
                    let (data, other) = if g.a_trans {
                        (l.csc_to_csr[e], l.row_idx[e])
                    } else {
                        (e as u32, l.col_idx[e])
                    };
                    let p = &a[data as usize * bb..][..bb];
                    for t in 0..b {
                        let av = if g.a_trans {
                            p[t * b + i]
                        } else {
                            p[i * b + t]
                        };
                        if av == 0.0 {
                            continue;
                        }
                        axpy_row(c_row, av, &bm[(other as usize * b + t) * ldb..][..n]);
                    }
                }
            }
        }
    });
}
