//! The GEMM descriptor: one [`Gemm`] value names a product completely — the
//! shape, A with its leading dimension and layout, a B operand in any
//! [`BOperand`] storage with its leading dimension and layout, the `beta`
//! pre-scale and the fused [`Epilogue`]. Every backend implements the single
//! [`KernelBackend::gemm`](crate::KernelBackend::gemm) over it, so a new
//! storage format is one more `BOperand` variant, not one more method on
//! every backend.
//!
//! All views are row-major with *leading dimensions* (`lda`/`ldb`/`ldc`, in
//! elements), so a caller can point a kernel at a strided window of a larger
//! buffer — a block column of a compact activation matrix, a neuron slab of a
//! weight matrix — without copying. A leading dimension equal to the logical
//! width is the contiguous case.
//!
//! Slice length contract (checked): a matrix view of `r` rows × `c` cols with
//! leading dimension `ld ≥ c` needs at least `(r−1)·ld + c` elements and at
//! most `r·ld` (so views carved out of a larger buffer, whose final row stops
//! at the logical width, are accepted).

use crate::epilogue::Epilogue;
use lx_quant::{NmView, Q4View, Q8View};

/// Storage of a GEMM's B operand. A, C and all accumulation are always f32:
/// each B element decodes to an exact f32 (f16 widening, `code · scale`
/// dequant, N:M group expansion) inside the backend's load/pack stage, so the
/// result matches decoding B up front and running the f32 product with the
/// same backend. The int8/NF4 codecs are lossy only at quantization time;
/// the N:M codec keeps survivors bit-exactly, so its products are
/// bit-identical to the f32 product of the decoded matrix.
///
/// Every view is addressed by the flat row-major element index of the
/// stored matrix, which is what makes `ldb` striding work for all of them.
#[derive(Clone, Copy, Debug)]
pub enum BOperand<'a> {
    F32(&'a [f32]),
    /// IEEE binary16 bits.
    F16(&'a [u16]),
    /// Symmetric int8 codes with one f32 scale per 64-element block.
    Q8(Q8View<'a>),
    /// NF4 codebook nibbles with one f32 scale per 64-element block.
    Q4(Q4View<'a>),
    /// 2:4 structured-sparse: compacted survivors plus group bitmasks. The
    /// packed backend skips all-zero groups at pack time.
    Nm(NmView<'a>),
}

impl BOperand<'_> {
    /// Storage name of each kind, in variant order: the `dtype` label of the
    /// `kernel.gemm.*` metrics and the `dtypes` field of a persisted autotune
    /// policy.
    pub const DTYPES: [&'static str; 5] = ["f32", "f16", "i8-block", "nf4-block", "nm-2:4"];

    /// Index of this operand's kind in [`DTYPES`](Self::DTYPES).
    #[inline]
    pub(crate) fn kind(&self) -> usize {
        match self {
            BOperand::F32(_) => 0,
            BOperand::F16(_) => 1,
            BOperand::Q8(_) => 2,
            BOperand::Q4(_) => 3,
            BOperand::Nm(_) => 4,
        }
    }

    /// Storage name of this operand (see [`DTYPES`](Self::DTYPES)).
    pub fn dtype(&self) -> &'static str {
        Self::DTYPES[self.kind()]
    }

    /// Logical element count of the stored matrix.
    fn len(&self) -> usize {
        match self {
            BOperand::F32(b) => b.len(),
            BOperand::F16(b) => b.len(),
            BOperand::Q8(v) => v.len(),
            BOperand::Q4(v) => v.len(),
            BOperand::Nm(v) => v.len(),
        }
    }

    /// Decoded f32 value of element `idx` (flat row-major index).
    #[inline]
    pub fn get(&self, idx: usize) -> f32 {
        match self {
            BOperand::F32(b) => b[idx],
            BOperand::F16(b) => crate::half::f16_bits_to_f32(b[idx]),
            BOperand::Q8(v) => v.get(idx),
            BOperand::Q4(v) => v.get(idx),
            BOperand::Nm(v) => v.get(idx),
        }
    }

    /// Decode elements `row·ld .. row·ld + out.len()` into `out`. An N:M
    /// window spanning a full storage row (`ld == cols`, full width) takes
    /// the group-walking row decode; every other window decodes elementwise.
    /// Both are bit-identical by the codec's windowed-decode contract.
    pub fn decode_row(&self, ld: usize, row: usize, out: &mut [f32]) {
        fn fill(out: &mut [f32], base: usize, get: impl Fn(usize) -> f32) {
            for (j, o) in out.iter_mut().enumerate() {
                *o = get(base + j);
            }
        }
        let base = row * ld;
        match self {
            BOperand::F32(b) => out.copy_from_slice(&b[base..base + out.len()]),
            BOperand::F16(b) => crate::half::decode_slice(&b[base..base + out.len()], out),
            BOperand::Q8(v) => fill(out, base, |i| v.get(i)),
            BOperand::Q4(v) => fill(out, base, |i| v.get(i)),
            BOperand::Nm(v) if ld == v.cols() && out.len() == v.cols() => {
                v.decode_row_into(row, out)
            }
            BOperand::Nm(v) => fill(out, base, |i| v.get(i)),
        }
    }

    /// Decode whole rows `r0..` of a row-major matrix with `cols` columns
    /// into `out` (`out.len()` a multiple of `cols`). This is the load path
    /// for embedding lookups and active-neuron-slab gathers: any row window
    /// is bit-identical to the same rows of a full decode.
    pub fn decode_rows(&self, cols: usize, r0: usize, out: &mut [f32]) {
        for (i, row) in out.chunks_mut(cols.max(1)).enumerate() {
            self.decode_row(cols, r0 + i, row);
        }
    }
}

impl<'a> From<&'a [f32]> for BOperand<'a> {
    fn from(b: &'a [f32]) -> Self {
        BOperand::F32(b)
    }
}

impl<'a> From<&'a [u16]> for BOperand<'a> {
    fn from(b: &'a [u16]) -> Self {
        BOperand::F16(b)
    }
}

impl<'a> From<Q8View<'a>> for BOperand<'a> {
    fn from(v: Q8View<'a>) -> Self {
        BOperand::Q8(v)
    }
}

impl<'a> From<Q4View<'a>> for BOperand<'a> {
    fn from(v: Q4View<'a>) -> Self {
        BOperand::Q4(v)
    }
}

impl<'a> From<NmView<'a>> for BOperand<'a> {
    fn from(v: NmView<'a>) -> Self {
        BOperand::Nm(v)
    }
}

/// One GEMM: `C[m,n] = epilogue(beta·C + op(A)·op(B))`, where `op(A)` is A
/// (`m×k`) or, with [`a_trans`](Self::a_trans), Aᵀ of a `k×m` A; and `op(B)`
/// is B (`k×n`) or, with [`b_trans`](Self::b_trans), Bᵀ of an `n×k` B. C is
/// passed beside the descriptor with its leading dimension.
///
/// Supported combinations are the ones the workspace issues: `nn` and `nt`
/// with any B storage and any epilogue, and `tn` (the gradient-of-weights
/// shape `dW = Xᵀ·dY`) with f32 B and no epilogue. Anything else is rejected
/// with a panic naming the combination.
#[derive(Clone, Copy, Debug)]
pub struct Gemm<'a> {
    pub m: usize,
    pub k: usize,
    pub n: usize,
    pub a: &'a [f32],
    pub lda: usize,
    pub a_trans: bool,
    pub b: BOperand<'a>,
    pub ldb: usize,
    pub b_trans: bool,
    /// `0.0` means *overwrite*: prior contents of C — including NaN — must
    /// not leak into the result.
    pub beta: f32,
    pub ep: Epilogue<'a>,
}

impl<'a> Gemm<'a> {
    /// `C[m,n] = A[m,k]·B[k,n]`, `beta = 0`, no epilogue.
    #[allow(clippy::too_many_arguments)]
    pub fn nn(
        m: usize,
        k: usize,
        n: usize,
        a: &'a [f32],
        lda: usize,
        b: impl Into<BOperand<'a>>,
        ldb: usize,
    ) -> Self {
        Gemm {
            m,
            k,
            n,
            a,
            lda,
            a_trans: false,
            b: b.into(),
            ldb,
            b_trans: false,
            beta: 0.0,
            ep: Epilogue::None,
        }
    }

    /// `C[m,n] = A[m,k]·B[n,k]ᵀ` — B stored row-major as `n×k`.
    #[allow(clippy::too_many_arguments)]
    pub fn nt(
        m: usize,
        k: usize,
        n: usize,
        a: &'a [f32],
        lda: usize,
        b: impl Into<BOperand<'a>>,
        ldb: usize,
    ) -> Self {
        Gemm {
            b_trans: true,
            ..Self::nn(m, k, n, a, lda, b, ldb)
        }
    }

    /// `C[m,n] = A[k,m]ᵀ·B[k,n]` — A stored row-major as `k×m`. This is the
    /// gradient-of-weights shape (`dW = Xᵀ·dY`), which never takes a reduced
    /// B or an epilogue.
    #[allow(clippy::too_many_arguments)]
    pub fn tn(
        m: usize,
        k: usize,
        n: usize,
        a: &'a [f32],
        lda: usize,
        b: &'a [f32],
        ldb: usize,
    ) -> Self {
        Gemm {
            a_trans: true,
            ..Self::nn(m, k, n, a, lda, b, ldb)
        }
    }

    /// Accumulate into C scaled by `beta` instead of overwriting it.
    pub fn beta(self, beta: f32) -> Self {
        Gemm { beta, ..self }
    }

    /// Fuse `ep` into the write-back, applied after the complete
    /// accumulation (bit-identical to a separate bias/activation pass).
    pub fn epilogue(self, ep: Epilogue<'a>) -> Self {
        Gemm { ep, ..self }
    }

    /// `nn`/`nt`/`tn`/`tt`, for messages.
    fn layout(&self) -> &'static str {
        match (self.a_trans, self.b_trans) {
            (false, false) => "nn",
            (false, true) => "nt",
            (true, false) => "tn",
            (true, true) => "tt",
        }
    }

    /// Reject unsupported combinations and check A, B and C against the
    /// slice length contract. Called by every concrete backend.
    #[track_caller]
    pub(crate) fn check(&self, c_len: usize, ldc: usize) {
        assert!(
            !self.a_trans || (!self.b_trans && self.ep.is_none() && self.b.kind() == 0),
            "gemm {} {} B{}: unsupported combination (Aᵀ takes only an f32, \
             untransposed B and no epilogue)",
            self.layout(),
            self.b.dtype(),
            if self.ep.is_none() { "" } else { " + epilogue" },
        );
        let (m, k, n) = (self.m, self.k, self.n);
        let (a_rows, a_cols) = if self.a_trans { (k, m) } else { (m, k) };
        let (b_rows, b_cols) = if self.b_trans { (n, k) } else { (k, n) };
        self.check_view(self.a.len(), a_rows, a_cols, self.lda, "A");
        self.check_view(self.b.len(), b_rows, b_cols, self.ldb, "B");
        self.check_view(c_len, m, n, ldc, "C");
    }

    /// Check a `rows × cols` view with leading dimension `ld`.
    #[track_caller]
    fn check_view(&self, len: usize, rows: usize, cols: usize, ld: usize, which: &str) {
        assert!(
            ld >= cols,
            "gemm {} {}: {which}: leading dim {ld} < width {cols}",
            self.layout(),
            self.b.dtype()
        );
        if rows == 0 || cols == 0 {
            return;
        }
        let need = (rows - 1) * ld + cols;
        assert!(
            len >= need,
            "gemm {} {}: {which}: {len} elements < {need} needed for {rows}x{cols} (ld {ld})",
            self.layout(),
            self.b.dtype()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "gemm tn f16 B: unsupported combination")]
    fn transposed_a_rejects_reduced_b() {
        let (a, bits) = ([0.0f32; 4], [0u16; 4]);
        let g = Gemm {
            b: BOperand::F16(&bits),
            ..Gemm::tn(2, 2, 2, &a, 2, &a, 2)
        };
        g.check(4, 2);
    }

    #[test]
    #[should_panic(expected = "gemm tn f32 B + epilogue: unsupported combination")]
    fn transposed_a_rejects_epilogue() {
        let a = [0.0f32; 4];
        let bias = [0.0f32; 2];
        Gemm::tn(2, 2, 2, &a, 2, &a, 2)
            .epilogue(Epilogue::Bias(&bias))
            .check(4, 2);
    }

    #[test]
    #[should_panic(expected = "gemm nt f32: B: 5 elements < 6 needed")]
    fn short_views_are_rejected() {
        let (a, b) = ([0.0f32; 6], [0.0f32; 5]);
        Gemm::nt(2, 3, 2, &a, 3, &b[..], 3).check(4, 2);
    }
}
