//! # lx-kernels — runtime-dispatched GEMM microkernel backends
//!
//! Every dense and block-sparse hot path in this workspace bottoms out in one
//! GEMM call: `C = epilogue(beta·C + op(A)·op(B))`, row-major with leading
//! dimensions, described by a [`Gemm`] value. The descriptor carries the
//! layout (`nn`, `nt`, or `tn`), the B operand in any [`BOperand`] storage
//! (f32, f16, int8-block, NF4-block, or 2:4 N:M) and an optional fused
//! [`Epilogue`] (bias add, optionally followed by GELU) applied inside the
//! write-back while output tiles are cache-hot — bit-identically to the
//! unfused sequence (see the `epilogue` module).
//!
//! A backend is the one method [`KernelBackend::gemm`]:
//!
//! * [`Reference`] — the original scalar `i-k-j` loops, kept as the
//!   correctness oracle and the zero-setup-cost arm for small shapes; a
//!   reduced-storage B is decoded on load, one row at a time;
//! * [`Packed`] — cache-blocked, panel-packed microkernels (`MR×NR` register
//!   tiles, B-panel reuse across A row blocks, runtime-selected
//!   scalar/AVX2/AVX-512/NEON `std::arch` inner loops — see [`Isa`] and
//!   [`active_isa`]) with the macro-kernel parallelised over the
//!   `lx-parallel` pool (worker-disjoint C row panels, shared packed B); a
//!   reduced-storage B is decoded while its panels are packed;
//! * [`Auto`] — the size-aware dispatcher that picks between them per call
//!   using the installed [`KernelPolicy`] (see the `dispatch` module source
//!   for the policy rationale, `lx_runtime::kernel_policy` for the
//!   cache-model-derived tile shapes, and [`autotune`] for the one-time
//!   measured probe, persisted across restarts via `LX_KERNEL_POLICY`);
//! * [`Observed`] — the wrapper [`backend`] hands out, which counts every
//!   call into the `kernel.gemm.*` metrics.
//!
//! Callers outside benchmarks should go through [`backend`], the
//! process-wide backend (`LX_KERNEL_BACKEND` ∈ `reference | packed | auto`,
//! default `auto`). [`gemm`] is the contiguous f32 shorthand; `lx-tensor`
//! builds descriptors for its tensor-level products, and the sparse operators
//! in `lx-sparse` issue descriptors directly — one per attention head with
//! the head's [`BlockList`] attached, strided windows for the neuron slabs —
//! so block-sparse and dense work hit the same microkernels.

mod backend;
mod descriptor;
mod dispatch;
mod epilogue;
pub mod half;
mod isa;
mod observe;
mod packed;

pub use backend::{KernelBackend, Reference};
pub use descriptor::{BOperand, BlockList, Gemm};
pub use dispatch::{
    auto_choice, autotune, backend, backend_by_name, current_policy, force_scalar, install_policy,
    invalidate_stale_policy, load_policy_json, save_policy_json, Auto, KernelPolicy,
    PersistedPolicy, TileConfig, AUTO, PACKED, REFERENCE,
};
pub use epilogue::{apply_epilogue, gelu, Epilogue, GELU_C};
pub use isa::{active_isa, detected_isa, Isa};
pub use observe::{gemm_call_total, Observed};
pub use packed::{simd_active, Packed, MR, NR};
// Quantized-B operands are passed as lx-quant views; re-exported so kernel
// callers need no direct lx-quant dependency.
pub use lx_quant::{NmView, Q4View, Q8View};

std::thread_local! {
    static FORCE_SEQ: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether GEMMs issued from the current thread must run without spawning
/// onto the pool: either the caller asked for it via [`with_sequential`], or
/// this thread *is* a pool worker (a nested GEMM dispatching back onto the
/// pool it is running on would oversubscribe or deadlock — this is how
/// `Auto`-routed GEMMs inside `par_rows` tasks stay safe).
pub fn sequential_mode() -> bool {
    FORCE_SEQ.with(|f| f.get()) || lx_parallel::in_worker()
}

/// Run `f` with every GEMM on this thread pinned to the single-threaded
/// path (packing and macro-kernel both stay on the calling thread). Used by
/// benches to measure the 1-thread leg of the parallel scaling gate without
/// re-exec'ing under a different `LX_THREADS`.
pub fn with_sequential<R>(f: impl FnOnce() -> R) -> R {
    FORCE_SEQ.with(|flag| {
        let prev = flag.replace(true);
        let out = f();
        flag.set(prev);
        out
    })
}

/// `C[m,n] = A[m,k]·B[k,n] + beta·C`, contiguous rows, on the process-wide
/// backend.
pub fn gemm(m: usize, k: usize, n: usize, a: &[f32], b: &[f32], c: &mut [f32], beta: f32) {
    let g = Gemm::nn(m, k, n, a, k.max(1), b, n.max(1)).beta(beta);
    backend().gemm(&g, c, n.max(1))
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

    fn pseudo(n: usize, seed: u32) -> Vec<f32> {
        // Small deterministic pseudo-random values without the rand shim.
        let mut state = seed.wrapping_mul(2654435761).max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                (state as f32 / u32::MAX as f32) * 2.0 - 1.0
            })
            .collect()
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
    fn packed_matches_naive_across_edge_shapes() {
        // Shapes straddling the MR/NR register tiles and the KC block.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (5, 7, 15),
            (6, 8, 16),
            (7, 9, 17),
            (13, 300, 33),
            (97, 64, 130),
        ] {
            let a = pseudo(m * k, 1 + m as u32);
            let b = pseudo(k * n, 2 + n as u32);
            let expect = naive(m, k, n, &a, &b);
            let mut c = vec![0.0; m * n];
            PACKED.gemm(&Gemm::nn(m, k, n, &a, k, &b[..], n), &mut c, n);
            assert_close(&c, &expect, 1e-4);
        }
    }

    #[test]
    fn packed_beta_accumulates() {
        let (m, k, n) = (11, 23, 19);
        let a = pseudo(m * k, 3);
        let b = pseudo(k * n, 4);
        let mut c = vec![1.0; m * n];
        PACKED.gemm(&Gemm::nn(m, k, n, &a, k, &b[..], n).beta(2.0), &mut c, n);
        let mut expect = naive(m, k, n, &a, &b);
        for v in expect.iter_mut() {
            *v += 2.0;
        }
        assert_close(&c, &expect, 1e-4);
    }

    #[test]
    fn packed_nt_tn_match_reference() {
        let (m, k, n) = (19, 31, 22);
        let a = pseudo(m * k, 5);
        let bt = pseudo(n * k, 6);
        let at = pseudo(k * m, 7);
        let bn = pseudo(k * n, 8);
        let (mut c1, mut c2) = (vec![0.0; m * n], vec![0.0; m * n]);
        PACKED.gemm(&Gemm::nt(m, k, n, &a, k, &bt[..], k), &mut c1, n);
        REFERENCE.gemm(&Gemm::nt(m, k, n, &a, k, &bt[..], k), &mut c2, n);
        assert_close(&c1, &c2, 1e-4);
        c1.fill(0.0);
        c2.fill(0.0);
        PACKED.gemm(&Gemm::tn(m, k, n, &at, m, &bn, n), &mut c1, n);
        REFERENCE.gemm(&Gemm::tn(m, k, n, &at, m, &bn, n), &mut c2, n);
        assert_close(&c1, &c2, 1e-4);
    }

    #[test]
    fn strided_views_match_contiguous() {
        // C is a window inside a wider buffer; A and B have padded rows.
        let (m, k, n) = (9, 14, 10);
        let (lda, ldb, ldc) = (k + 3, n + 5, n + 7);
        let a = pseudo(m * lda, 9);
        let b = pseudo(k * ldb, 10);
        let mut a_tight = vec![0.0; m * k];
        let mut b_tight = vec![0.0; k * n];
        for i in 0..m {
            a_tight[i * k..(i + 1) * k].copy_from_slice(&a[i * lda..i * lda + k]);
        }
        for l in 0..k {
            b_tight[l * n..(l + 1) * n].copy_from_slice(&b[l * ldb..l * ldb + n]);
        }
        let expect = naive(m, k, n, &a_tight, &b_tight);
        for be in [&PACKED as &dyn KernelBackend, &REFERENCE] {
            let mut c = vec![0.0; (m - 1) * ldc + n];
            be.gemm(&Gemm::nn(m, k, n, &a, lda, &b[..], ldb), &mut c, ldc);
            for i in 0..m {
                assert_close(&c[i * ldc..i * ldc + n], &expect[i * n..(i + 1) * n], 1e-4);
            }
        }
    }

    #[test]
    fn degenerate_dims_are_noops_or_scales() {
        let mut c = vec![3.0; 4];
        let empty: &[f32] = &[];
        // k == 0: C just gets scaled by beta.
        for be in [&PACKED as &dyn KernelBackend, &REFERENCE, &AUTO] {
            c.fill(3.0);
            be.gemm(&Gemm::nn(2, 0, 2, empty, 1, empty, 2).beta(0.5), &mut c, 2);
            assert_eq!(c, vec![1.5; 4], "{}", be.name());
            be.gemm(&Gemm::nn(0, 3, 0, empty, 3, empty, 1), &mut [], 1);
        }
    }

    #[test]
    fn free_functions_dispatch() {
        let (m, k, n) = (64, 64, 64);
        let a = pseudo(m * k, 11);
        let b = pseudo(k * n, 12);
        let mut c = vec![0.0; m * n];
        gemm(m, k, n, &a, &b, &mut c, 0.0);
        assert_close(&c, &naive(m, k, n, &a, &b), 1e-4);
    }

    #[test]
    fn autotune_installs_policy() {
        let p = autotune();
        assert!(p.min_flops_packed > 0);
    }

    #[test]
    fn q8_gemm_matches_dequant_up_front_on_every_backend() {
        // Shapes straddling block boundaries (k·n % 64 != 0) and register
        // tiles.
        for &(m, k, n) in &[(5usize, 7usize, 15usize), (13, 65, 33), (32, 64, 48)] {
            let a = pseudo(m * k, 20 + m as u32);
            let bf = pseudo(k * n, 21 + n as u32);
            let (codes, scales) = lx_quant::q8::quantize(&bf);
            let view = Q8View::new(&codes, &scales);
            // Oracle: dequantize B up front, run the f32 kernel.
            let mut bdq = vec![0.0f32; k * n];
            lx_quant::q8::dequantize(&codes, &scales, &mut bdq);
            let expect = naive(m, k, n, &a, &bdq);
            for be in [&REFERENCE as &dyn KernelBackend, &PACKED, &AUTO] {
                let mut c = vec![0.0; m * n];
                be.gemm(&Gemm::nn(m, k, n, &a, k, view, n), &mut c, n);
                assert_close(&c, &expect, 1e-4);
            }
            // Reference must match its own f32 path bit for bit (identical
            // accumulation order — the slab-decode equivalence rests on it).
            let mut c_ref = vec![0.0; m * n];
            let mut c_f32 = vec![0.0; m * n];
            REFERENCE.gemm(&Gemm::nn(m, k, n, &a, k, view, n), &mut c_ref, n);
            REFERENCE.gemm(&Gemm::nn(m, k, n, &a, k, &bdq[..], n), &mut c_f32, n);
            for (x, y) in c_ref.iter().zip(&c_f32) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn q4_gemm_matches_dequant_up_front_on_every_backend() {
        for &(m, k, n) in &[(5usize, 7usize, 15usize), (13, 65, 33), (32, 64, 48)] {
            let a = pseudo(m * k, 22 + m as u32);
            let bf = pseudo(k * n, 23 + n as u32);
            let (codes, scales) = lx_quant::nf4::quantize(&bf);
            let view = Q4View::new(&codes, &scales, k * n);
            let mut bdq = vec![0.0f32; k * n];
            lx_quant::nf4::dequantize(&codes, &scales, &mut bdq);
            let expect = naive(m, k, n, &a, &bdq);
            for be in [&REFERENCE as &dyn KernelBackend, &PACKED, &AUTO] {
                let mut c = vec![0.0; m * n];
                be.gemm(&Gemm::nn(m, k, n, &a, k, view, n), &mut c, n);
                assert_close(&c, &expect, 1e-4);
            }
        }
    }

    #[test]
    fn quant_nt_variants_match_dequant_up_front() {
        let (m, k, n) = (9, 70, 11); // B is n×k = 770 elements: tail block
        let a = pseudo(m * k, 24);
        let bf = pseudo(n * k, 25);
        let (c8, s8) = lx_quant::q8::quantize(&bf);
        let (c4, s4) = lx_quant::nf4::quantize(&bf);
        let mut bdq = vec![0.0f32; n * k];
        lx_quant::q8::dequantize(&c8, &s8, &mut bdq);
        let mut expect = vec![0.0; m * n];
        REFERENCE.gemm(&Gemm::nt(m, k, n, &a, k, &bdq[..], k), &mut expect, n);
        for be in [&REFERENCE as &dyn KernelBackend, &PACKED, &AUTO] {
            let mut c = vec![0.0; m * n];
            be.gemm(
                &Gemm::nt(m, k, n, &a, k, Q8View::new(&c8, &s8), k),
                &mut c,
                n,
            );
            assert_close(&c, &expect, 1e-4);
        }
        lx_quant::nf4::dequantize(&c4, &s4, &mut bdq);
        expect.fill(0.0);
        REFERENCE.gemm(&Gemm::nt(m, k, n, &a, k, &bdq[..], k), &mut expect, n);
        for be in [&REFERENCE as &dyn KernelBackend, &PACKED, &AUTO] {
            let mut c = vec![0.0; m * n];
            let view = Q4View::new(&c4, &s4, n * k);
            be.gemm(&Gemm::nt(m, k, n, &a, k, view, k), &mut c, n);
            assert_close(&c, &expect, 1e-4);
        }
    }

    /// Magnitude-prune `v` to 2:4 in place and return it (dense but
    /// N:M-conformant: what the lossless codec round-trips bit-exactly).
    fn round24(mut v: Vec<f32>, rows: usize, cols: usize) -> Vec<f32> {
        lx_quant::nm::round_slice(&mut v, rows, cols, 2, 4);
        v
    }

    #[test]
    fn nm_gemm_matches_decode_up_front_on_every_backend() {
        // Shapes straddling the 4-wide groups, register tiles, and KC: the
        // tail group cases (n % 4 != 0, k % 4 != 0) are load-bearing.
        for &(m, k, n) in &[(5usize, 7usize, 15usize), (13, 65, 33), (32, 64, 48)] {
            let a = pseudo(m * k, 30 + m as u32);
            let bf = round24(pseudo(k * n, 31 + n as u32), k, n);
            let (vals, masks) = lx_quant::nm::encode(&bf, k, n, 2, 4);
            let view = NmView::new(&vals, &masks, k, n, 2, 4);
            // The codec is lossless on a 2:4-conformant matrix: the decoded
            // oracle B is the original bit for bit.
            let mut bdq = vec![0.0f32; k * n];
            lx_quant::nm::decode(&vals, &masks, k, n, 2, 4, &mut bdq);
            assert_eq!(bdq, bf);
            for be in [&REFERENCE as &dyn KernelBackend, &PACKED, &AUTO] {
                let mut c = vec![0.0; m * n];
                be.gemm(&Gemm::nn(m, k, n, &a, k, view, n), &mut c, n);
                assert_close(&c, &naive(m, k, n, &a, &bdq), 1e-4);
            }
            // Unlike q8/nf4 there is no quantization error, so each backend
            // must match ITS OWN f32 path bit for bit — Reference because the
            // decode-on-load loops share the f32 accumulation order, Packed
            // because the group-skipping pack fills panels identically to the
            // dense pack of the decoded matrix.
            for be in [&REFERENCE as &dyn KernelBackend, &PACKED] {
                let mut c_nm = vec![0.0; m * n];
                let mut c_f32 = vec![0.0; m * n];
                be.gemm(&Gemm::nn(m, k, n, &a, k, view, n), &mut c_nm, n);
                be.gemm(&Gemm::nn(m, k, n, &a, k, &bdq[..], n), &mut c_f32, n);
                for (x, y) in c_nm.iter().zip(&c_f32) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{}", be.name());
                }
            }
        }
    }

    #[test]
    fn nm_nt_gemm_matches_decode_up_front_on_every_backend() {
        // B is n×k: the sparse axis is the reduction axis (the frozen
        // backbone forward shape, where pack-time group skipping pays).
        for &(m, k, n) in &[(5usize, 15usize, 7usize), (13, 33, 65), (8, 1024, 16)] {
            let a = pseudo(m * k, 32 + k as u32);
            let bf = round24(pseudo(n * k, 33 + k as u32), n, k);
            let (vals, masks) = lx_quant::nm::encode(&bf, n, k, 2, 4);
            let view = NmView::new(&vals, &masks, n, k, 2, 4);
            let mut bdq = vec![0.0f32; n * k];
            lx_quant::nm::decode(&vals, &masks, n, k, 2, 4, &mut bdq);
            assert_eq!(bdq, bf);
            let mut expect = vec![0.0; m * n];
            REFERENCE.gemm(&Gemm::nt(m, k, n, &a, k, &bdq[..], k), &mut expect, n);
            for be in [&REFERENCE as &dyn KernelBackend, &PACKED, &AUTO] {
                let mut c = vec![0.0; m * n];
                be.gemm(&Gemm::nt(m, k, n, &a, k, view, k), &mut c, n);
                assert_close(&c, &expect, 1e-4);
            }
            for be in [&REFERENCE as &dyn KernelBackend, &PACKED] {
                let mut c_nm = vec![0.0; m * n];
                let mut c_f32 = vec![0.0; m * n];
                be.gemm(&Gemm::nt(m, k, n, &a, k, view, k), &mut c_nm, n);
                be.gemm(&Gemm::nt(m, k, n, &a, k, &bdq[..], k), &mut c_f32, n);
                for (x, y) in c_nm.iter().zip(&c_f32) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{}", be.name());
                }
            }
        }
    }

    #[test]
    fn nm_free_functions_dispatch() {
        let (m, k, n) = (16, 64, 64);
        let a = pseudo(m * k, 34);
        let bf = round24(pseudo(n * k, 35), n, k);
        let (vals, masks) = lx_quant::nm::encode(&bf, n, k, 2, 4);
        let view = NmView::new(&vals, &masks, n, k, 2, 4);
        let mut expect = vec![0.0; m * n];
        REFERENCE.gemm(&Gemm::nt(m, k, n, &a, k, &bf[..], k), &mut expect, n);
        let mut c = vec![0.0; m * n];
        backend().gemm(&Gemm::nt(m, k, n, &a, k, view, k), &mut c, n);
        assert_close(&c, &expect, 1e-4);
        let bn = round24(pseudo(k * n, 36), k, n);
        let (vn, mn) = lx_quant::nm::encode(&bn, k, n, 2, 4);
        c.fill(0.0);
        let view = NmView::new(&vn, &mn, k, n, 2, 4);
        backend().gemm(&Gemm::nn(m, k, n, &a, k, view, n), &mut c, n);
        assert_close(&c, &naive(m, k, n, &a, &bn), 1e-4);
    }

    #[test]
    fn quant_free_functions_dispatch() {
        let (m, k, n) = (64, 64, 64);
        let a = pseudo(m * k, 26);
        let bf = pseudo(k * n, 27);
        let (codes, scales) = lx_quant::q8::quantize(&bf);
        let mut bdq = vec![0.0f32; k * n];
        lx_quant::q8::dequantize(&codes, &scales, &mut bdq);
        let mut c = vec![0.0; m * n];
        let view = Q8View::new(&codes, &scales);
        backend().gemm(&Gemm::nn(m, k, n, &a, k, view, n), &mut c, n);
        assert_close(&c, &naive(m, k, n, &a, &bdq), 1e-4);
    }
}
