//! Dense GEMM entry points, routed through the `lx-kernels` backend.
//!
//! These used to be hand-written `i-k-j` loop kernels; they now live in
//! `lx-kernels` as the [`Reference`](lx_kernels::Reference) backend, and the
//! functions here build [`Gemm`] descriptors for the process-wide backend
//! (plus the `Tensor`-level `matmul*` convenience forms). Layout conventions
//! are unchanged: row-major everywhere, with `_nt`/`_tn` variants so callers
//! never materialise transposes in the hot path. Which kernel actually runs —
//! the reference loops or the packed/tiled microkernels — is decided per
//! call by the dispatcher (see `lx_kernels::dispatch`).
//!
//! [`matmul_operand`] is the one product over a B operand in *any* storage
//! (f32 or a [`FrozenTensor`](crate::FrozenTensor) codec), either layout,
//! with an optional fused [`Epilogue`].

use crate::Tensor;
use lx_kernels::Gemm;
// Re-exported so model-layer callers can request fused epilogues and name
// operand storage without a direct lx-kernels dep.
pub use lx_kernels::{BOperand, Epilogue};

/// A borrowed 2-D right-hand operand in any storage: its payload and the
/// stored `rows × cols` shape (row-major). Built by [`Tensor::operand`] and
/// [`FrozenTensor::operand`](crate::FrozenTensor::operand).
#[derive(Clone, Copy, Debug)]
pub struct Operand<'a> {
    pub data: BOperand<'a>,
    pub rows: usize,
    pub cols: usize,
}

/// `C[m,n] = A[m,k] · B[k,n] + beta·C`.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    assert_eq!(a.len(), m * k, "gemm: A size");
    assert_eq!(b.len(), k * n, "gemm: B size");
    assert_eq!(c.len(), m * n, "gemm: C size");
    lx_kernels::gemm(m, k, n, a, b, c, beta);
}

/// `C[m,n] = A[m,k] · B[n,k]ᵀ + beta·C` — B stored row-major as `n×k`.
pub fn gemm_nt(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    assert_eq!(a.len(), m * k, "gemm_nt: A size");
    assert_eq!(b.len(), n * k, "gemm_nt: B size");
    assert_eq!(c.len(), m * n, "gemm_nt: C size");
    let g = Gemm::nt(m, k, n, a, k.max(1), b, k.max(1)).beta(beta);
    lx_kernels::backend().gemm(&g, c, n.max(1));
}

/// `C[m,n] = A[k,m]ᵀ · B[k,n] + beta·C` — A stored row-major as `k×m`.
///
/// This is the gradient-of-weights shape (`dW = Xᵀ · dY`), the dominant
/// backward-pass GEMM in §II-C of the paper.
pub fn gemm_tn(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    assert_eq!(a.len(), k * m, "gemm_tn: A size");
    assert_eq!(b.len(), k * n, "gemm_tn: B size");
    assert_eq!(c.len(), m * n, "gemm_tn: C size");
    let g = Gemm::tn(m, k, n, a, m.max(1), b, n.max(1)).beta(beta);
    lx_kernels::backend().gemm(&g, c, n.max(1));
}

/// Tensor-level wrapper: `A[m,k] · B[k,n]` on the trailing-2-D views.
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_operand(a, b.operand(), false, Epilogue::None)
}

/// Tensor-level wrapper: `A[m,k] · B[n,k]ᵀ`.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    matmul_operand(a, b.operand(), true, Epilogue::None)
}

/// `A[m,k] · B` — or `A[m,k] · Bᵀ` when `b_trans` (B stored `n×k`) — with B
/// in any storage and `ep` fused into the kernel write-back.
///
/// A reduced-storage B is decoded inside the kernel (pack-time for the
/// packed backend) and all accumulation stays f32, so the result matches
/// decoding B up front and multiplying — bit-identically for the lossless
/// N:M codec. The fused epilogue is bit-identical to the plain product
/// followed by the equivalent bias/activation passes, minus those passes'
/// memory traffic.
pub fn matmul_operand(a: &Tensor, b: Operand<'_>, b_trans: bool, ep: Epilogue<'_>) -> Tensor {
    let (m, k) = (a.rows(), a.cols());
    let (kb, n) = if b_trans {
        (b.cols, b.rows)
    } else {
        (b.rows, b.cols)
    };
    assert_eq!(
        k,
        kb,
        "matmul inner dims: {:?} x {}x{}{} ({})",
        a.shape(),
        b.rows,
        b.cols,
        if b_trans { "ᵀ" } else { "" },
        b.data.dtype()
    );
    let mut c = Tensor::zeros(&[m, n]);
    let (lda, ldb) = (k.max(1), if b_trans { k } else { n }.max(1));
    let g = Gemm {
        b_trans,
        ..Gemm::nn(m, k, n, a.as_slice(), lda, b.data, ldb)
    };
    lx_kernels::backend().gemm(&g.epilogue(ep), c.as_mut_slice(), n.max(1));
    c
}

/// Tensor-level wrapper: `A[k,m]ᵀ · B[k,n]`.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let (k, m) = (a.rows(), a.cols());
    let (kb, n) = (b.rows(), b.cols());
    assert_eq!(
        k,
        kb,
        "matmul_tn inner dims: {:?}ᵀ x {:?}",
        a.shape(),
        b.shape()
    );
    let mut c = Tensor::zeros(&[m, n]);
    gemm_tn(m, k, n, a.as_slice(), b.as_slice(), c.as_mut_slice(), 0.0);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(m: usize, k: usize, n: usize, a: &[f32], b: &[f32]) -> Vec<f32> {
        let mut c = vec![0.0; m * n];
        for i in 0..m {
            for l in 0..k {
                for j in 0..n {
                    c[i * n + j] += a[i * k + l] * b[l * n + j];
                }
            }
        }
        c
    }

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x - y).abs() <= tol * (1.0 + y.abs()),
                "idx {i}: {x} vs {y}"
            );
        }
    }

    #[test]
    fn gemm_matches_naive() {
        let (m, k, n) = (33, 17, 29);
        let a = crate::rng::randn_vec(m * k, 1.0, 1);
        let b = crate::rng::randn_vec(k * n, 1.0, 2);
        let mut c = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c, 0.0);
        assert_close(&c, &naive(m, k, n, &a, &b), 1e-4);
    }

    #[test]
    fn gemm_beta_accumulates() {
        let (m, k, n) = (4, 3, 5);
        let a = crate::rng::randn_vec(m * k, 1.0, 3);
        let b = crate::rng::randn_vec(k * n, 1.0, 4);
        let mut c = vec![1.0; m * n];
        gemm(m, k, n, &a, &b, &mut c, 2.0);
        let mut expect = naive(m, k, n, &a, &b);
        for v in expect.iter_mut() {
            *v += 2.0;
        }
        assert_close(&c, &expect, 1e-4);
    }

    #[test]
    fn gemm_nt_matches_naive() {
        let (m, k, n) = (19, 23, 11);
        let a = crate::rng::randn_vec(m * k, 1.0, 5);
        let bt = crate::rng::randn_vec(n * k, 1.0, 6); // n×k
                                                       // Build row-major k×n B for the naive reference.
        let mut b = vec![0.0; k * n];
        for j in 0..n {
            for l in 0..k {
                b[l * n + j] = bt[j * k + l];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_nt(m, k, n, &a, &bt, &mut c, 0.0);
        assert_close(&c, &naive(m, k, n, &a, &b), 1e-4);
    }

    #[test]
    fn gemm_tn_matches_naive() {
        let (m, k, n) = (13, 21, 9);
        let at = crate::rng::randn_vec(k * m, 1.0, 7); // k×m
        let b = crate::rng::randn_vec(k * n, 1.0, 8);
        let mut a = vec![0.0; m * k];
        for l in 0..k {
            for i in 0..m {
                a[i * k + l] = at[l * m + i];
            }
        }
        let mut c = vec![0.0; m * n];
        gemm_tn(m, k, n, &at, &b, &mut c, 0.0);
        assert_close(&c, &naive(m, k, n, &a, &b), 1e-4);
    }

    #[test]
    fn large_parallel_gemm_matches_naive() {
        // Large enough that the dispatcher takes the packed path.
        let (m, k, n) = (128, 96, 64);
        let a = crate::rng::randn_vec(m * k, 1.0, 9);
        let b = crate::rng::randn_vec(k * n, 1.0, 10);
        let mut c = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c, 0.0);
        assert_close(&c, &naive(m, k, n, &a, &b), 1e-3);
    }

    #[test]
    fn tensor_wrappers_shapes() {
        let a = Tensor::randn(&[6, 4], 1.0, 11);
        let b = Tensor::randn(&[4, 5], 1.0, 12);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[6, 5]);
        let bt = b.transposed_2d();
        let c2 = matmul_nt(&a, &bt);
        assert_close(c.as_slice(), c2.as_slice(), 1e-4);
        let at = a.transposed_2d();
        let c3 = matmul_tn(&at, &b);
        assert_close(c.as_slice(), c3.as_slice(), 1e-4);
    }

    #[test]
    fn quant_matmuls_match_dequant_up_front() {
        use crate::{Dtype, FrozenTensor};
        let a = Tensor::randn(&[7, 33], 1.0, 15);
        let b = Tensor::randn(&[33, 9], 1.0, 16);
        for dtype in [Dtype::I8Block, Dtype::Nf4Block] {
            let q = FrozenTensor::from_tensor(&b, dtype);
            let oracle = matmul(&a, &q.to_tensor());
            let c = matmul_operand(&a, q.operand(), false, Epilogue::None);
            assert_close(c.as_slice(), oracle.as_slice(), 1e-4);
            let qt = FrozenTensor::from_tensor(&b.transposed_2d(), dtype);
            let oracle_nt = matmul_nt(&a, &qt.to_tensor());
            let c_nt = matmul_operand(&a, qt.operand(), true, Epilogue::None);
            assert_close(c_nt.as_slice(), oracle_nt.as_slice(), 1e-4);
        }
    }

    #[test]
    fn nm_matmuls_are_bit_identical_to_decode_up_front() {
        use crate::{Dtype, FrozenTensor};
        let a = Tensor::randn(&[7, 36], 1.0, 40);
        let b = Tensor::randn(&[36, 9], 1.0, 41);
        let nm = FrozenTensor::from_tensor(&b, Dtype::Nm24);
        let oracle = matmul(&a, &nm.to_tensor());
        let c = matmul_operand(&a, nm.operand(), false, Epilogue::None);
        for (x, y) in c.as_slice().iter().zip(oracle.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let nmt = FrozenTensor::from_tensor(&b.transposed_2d(), Dtype::Nm24);
        let oracle_nt = matmul_nt(&a, &nmt.to_tensor());
        let c_nt = matmul_operand(&a, nmt.operand(), true, Epilogue::None);
        for (x, y) in c_nt.as_slice().iter().zip(oracle_nt.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // Fused epilogue form against its own unfused twin.
        let bias = crate::rng::randn_vec(9, 1.0, 42);
        let fused = matmul_operand(&a, nmt.operand(), true, Epilogue::Bias(&bias));
        let mut unfused = matmul_operand(&a, nmt.operand(), true, Epilogue::None);
        crate::ops::add_bias_rows(&mut unfused, &bias);
        for (f, u) in fused.as_slice().iter().zip(unfused.as_slice()) {
            assert_eq!(f.to_bits(), u.to_bits());
        }
    }

    #[test]
    fn fused_epilogue_matches_unfused_composition_bitwise() {
        use crate::ops::{add_bias_rows, gelu_inplace};
        let a = Tensor::randn(&[9, 33], 1.0, 17);
        let b = Tensor::randn(&[33, 12], 1.0, 18);
        let bias = crate::rng::randn_vec(12, 1.0, 19);
        // Bias-only fusion.
        let fused = matmul_operand(&a, b.operand(), false, Epilogue::Bias(&bias));
        let mut unfused = matmul(&a, &b);
        add_bias_rows(&mut unfused, &bias);
        for (f, u) in fused.as_slice().iter().zip(unfused.as_slice()) {
            assert_eq!(f.to_bits(), u.to_bits());
        }
        // Bias+GELU fusion.
        let fused = matmul_operand(&a, b.operand(), false, Epilogue::BiasGelu(&bias));
        gelu_inplace(unfused.as_mut_slice());
        for (f, u) in fused.as_slice().iter().zip(unfused.as_slice()) {
            assert_eq!(f.to_bits(), u.to_bits());
        }
        // nt form against its own unfused twin.
        let bt = b.transposed_2d();
        let fused_nt = matmul_operand(&a, bt.operand(), true, Epilogue::Bias(&bias));
        let mut unfused_nt = matmul_nt(&a, &bt);
        add_bias_rows(&mut unfused_nt, &bias);
        for (f, u) in fused_nt.as_slice().iter().zip(unfused_nt.as_slice()) {
            assert_eq!(f.to_bits(), u.to_bits());
        }
    }

    #[test]
    fn degenerate_dims() {
        let a = Tensor::randn(&[1, 8], 1.0, 13);
        let b = Tensor::randn(&[8, 1], 1.0, 14);
        let c = matmul(&a, &b);
        assert_eq!(c.shape(), &[1, 1]);
        let expect: f32 = a
            .as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| x * y)
            .sum();
        assert!((c.as_slice()[0] - expect).abs() < 1e-4);
    }
}
