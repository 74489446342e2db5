//! Differential property tests: the `Packed` backend (including its
//! runtime-detected SIMD microkernel, when the host has one) must match the
//! `Reference` scalar oracle bit-tolerantly (≤1e-4 relative) on every GEMM
//! variant, across odd and degenerate shapes, strided views, and the
//! block-sparse / neuron-sparse operator shapes the sparse crate issues.
//!
//! Shape axes are seeded sweeps, not proptest: the workspace is offline, and
//! deterministic sweeps reproduce exactly in CI.

use lx_kernels::{BOperand, Epilogue, Gemm, KernelBackend, MR, NR, PACKED, REFERENCE};
use lx_sparse::attention::{block_data_to_dense, dsd, dsd_tn, sdd_nt, CausalFill};
use lx_sparse::neuron::{fc1_forward, fc2_forward, ColMajorWeights, NeuronBlockSet};
use lx_sparse::patterns::PatternSpec;
use lx_sparse::BlockCsr;
use lx_tensor::rng::randn_vec;

const TOL: f32 = 1e-4;

fn assert_close(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert!(
            (x - y).abs() <= TOL * (1.0 + y.abs()),
            "{what}: idx {i}: {x} vs {y}"
        );
    }
}

/// The sweep axis: degenerate, around both register tiles, around the KC
/// cache block, and a larger-than-one-block size.
fn interesting_sizes() -> Vec<usize> {
    let mut v = vec![0, 1, 3, MR - 1, MR, MR + 1, NR - 1, NR, NR + 1, 40];
    v.sort_unstable();
    v.dedup();
    v
}

#[test]
fn packed_matches_reference_on_gemm_shape_sweep() {
    let sizes = interesting_sizes();
    let mut seed = 0u64;
    for &m in &sizes {
        for &k in &sizes {
            for &n in &sizes {
                seed += 1;
                let a = randn_vec(m * k, 1.0, seed);
                let b = randn_vec(k * n, 1.0, seed + 1000);
                let mut c_ref = randn_vec(m * n, 1.0, seed + 2000);
                let mut c_packed = c_ref.clone();
                // beta = 0.5 checks both the product and the C pre-scaling.
                REFERENCE.gemm(
                    &Gemm::nn(m, k, n, &a, k.max(1), &b[..], n.max(1)).beta(0.5),
                    &mut c_ref,
                    n.max(1),
                );
                PACKED.gemm(
                    &Gemm::nn(m, k, n, &a, k.max(1), &b[..], n.max(1)).beta(0.5),
                    &mut c_packed,
                    n.max(1),
                );
                assert_close(&format!("gemm {m}x{k}x{n}"), &c_packed, &c_ref);
            }
        }
    }
}

#[test]
fn packed_matches_reference_on_nt_tn_sweep() {
    let sizes = interesting_sizes();
    let mut seed = 50_000u64;
    for &m in &sizes {
        for &k in &sizes {
            for &n in &sizes {
                seed += 1;
                let a_nt = randn_vec(m * k, 1.0, seed);
                let b_nt = randn_vec(n * k, 1.0, seed + 1000);
                let mut c_ref = vec![0.0; m * n];
                let mut c_packed = vec![0.0; m * n];
                REFERENCE.gemm(
                    &Gemm::nt(m, k, n, &a_nt, k.max(1), &b_nt[..], k.max(1)),
                    &mut c_ref,
                    n.max(1),
                );
                PACKED.gemm(
                    &Gemm::nt(m, k, n, &a_nt, k.max(1), &b_nt[..], k.max(1)),
                    &mut c_packed,
                    n.max(1),
                );
                assert_close(&format!("gemm_nt {m}x{k}x{n}"), &c_packed, &c_ref);

                let a_tn = randn_vec(k * m, 1.0, seed + 2000);
                let b_tn = randn_vec(k * n, 1.0, seed + 3000);
                let mut c_ref = randn_vec(m * n, 1.0, seed + 4000);
                let mut c_packed = c_ref.clone();
                REFERENCE.gemm(
                    &Gemm::tn(m, k, n, &a_tn, m.max(1), &b_tn, n.max(1)).beta(1.0),
                    &mut c_ref,
                    n.max(1),
                );
                PACKED.gemm(
                    &Gemm::tn(m, k, n, &a_tn, m.max(1), &b_tn, n.max(1)).beta(1.0),
                    &mut c_packed,
                    n.max(1),
                );
                assert_close(&format!("gemm_tn {m}x{k}x{n}"), &c_packed, &c_ref);
            }
        }
    }
}

#[test]
fn packed_matches_reference_on_strided_views() {
    // The exact window shapes the sparse operators issue: compact activation
    // matrices addressed with lda = width, C written into a strided slab.
    let (rows, width, b, d) = (23, 3 * NR, NR, 37);
    let act = randn_vec(rows * width, 1.0, 7);
    let w = randn_vec(b * d, 1.0, 8);
    for block in 0..width / b {
        let a_win = &act[block * b..];
        let mut c_ref = vec![0.0; rows * d];
        let mut c_packed = vec![0.0; rows * d];
        REFERENCE.gemm(
            &Gemm::nn(rows, b, d, a_win, width, &w[..], d),
            &mut c_ref,
            d,
        );
        PACKED.gemm(
            &Gemm::nn(rows, b, d, a_win, width, &w[..], d),
            &mut c_packed,
            d,
        );
        assert_close(&format!("strided block {block}"), &c_packed, &c_ref);

        // Strided C: write one block column of a wide output.
        let mut y_ref = vec![0.0; rows * width];
        let mut y_packed = vec![0.0; rows * width];
        let wt = randn_vec(b * d, 1.0, 9);
        REFERENCE.gemm(
            &Gemm::nt(rows, d, b, &c_ref, d, &wt[..], d),
            &mut y_ref[block * b..],
            width,
        );
        PACKED.gemm(
            &Gemm::nt(rows, d, b, &c_packed, d, &wt[..], d),
            &mut y_packed[block * b..],
            width,
        );
        assert_close(&format!("strided C block {block}"), &y_packed, &y_ref);
    }
}

#[test]
fn large_shape_stays_within_tolerance() {
    // One shape big enough to traverse several KC blocks and NC panels, where
    // f32 summation-order differences accumulate the most.
    let (m, k, n) = (70, 600, 70);
    let a = randn_vec(m * k, 1.0, 11);
    let b = randn_vec(k * n, 1.0, 12);
    let mut c_ref = vec![0.0; m * n];
    let mut c_packed = vec![0.0; m * n];
    REFERENCE.gemm(&Gemm::nn(m, k, n, &a, k, &b[..], n), &mut c_ref, n);
    PACKED.gemm(&Gemm::nn(m, k, n, &a, k, &b[..], n), &mut c_packed, n);
    assert_close("large gemm", &c_packed, &c_ref);
}

/// Mixed-precision differential: the f16-B variants (fused pack-time decode
/// in `Packed`, on-load decode in `Reference`) must match the oracle of
/// "decode all of B to f32, then run the f32 kernel" within the usual
/// backend tolerance — across the same shape grid as the f32 sweeps.
#[test]
fn f16_b_gemm_matches_decoded_oracle_on_shape_sweep() {
    let sizes = interesting_sizes();
    let mut seed = 100_000u64;
    for &m in &sizes {
        for &k in &sizes {
            for &n in &sizes {
                seed += 1;
                let a = randn_vec(m * k, 1.0, seed);
                let b32 = randn_vec(k * n, 1.0, seed + 1000);
                let bits = lx_kernels::half::encode_slice(&b32);
                // Oracle B: the exact f32 values the f16 storage holds.
                let decoded: Vec<f32> = bits
                    .iter()
                    .map(|&x| lx_kernels::half::f16_bits_to_f32(x))
                    .collect();
                let mut want = randn_vec(m * n, 1.0, seed + 2000);
                let mut got_ref = want.clone();
                let mut got_packed = want.clone();
                REFERENCE.gemm(
                    &Gemm::nn(m, k, n, &a, k.max(1), &decoded[..], n.max(1)).beta(0.5),
                    &mut want,
                    n.max(1),
                );
                REFERENCE.gemm(
                    &Gemm::nn(m, k, n, &a, k.max(1), &bits[..], n.max(1)).beta(0.5),
                    &mut got_ref,
                    n.max(1),
                );
                PACKED.gemm(
                    &Gemm::nn(m, k, n, &a, k.max(1), &bits[..], n.max(1)).beta(0.5),
                    &mut got_packed,
                    n.max(1),
                );
                assert_close(&format!("ref gemm_f16 {m}x{k}x{n}"), &got_ref, &want);
                assert_close(&format!("packed gemm_f16 {m}x{k}x{n}"), &got_packed, &want);
            }
        }
    }
}

#[test]
fn f16_b_gemm_nt_matches_decoded_oracle_on_shape_sweep() {
    let sizes = interesting_sizes();
    let mut seed = 150_000u64;
    for &m in &sizes {
        for &k in &sizes {
            for &n in &sizes {
                seed += 1;
                let a = randn_vec(m * k, 1.0, seed);
                let b32 = randn_vec(n * k, 1.0, seed + 1000);
                let bits = lx_kernels::half::encode_slice(&b32);
                let decoded: Vec<f32> = bits
                    .iter()
                    .map(|&x| lx_kernels::half::f16_bits_to_f32(x))
                    .collect();
                let mut want = vec![0.0; m * n];
                let mut got_ref = vec![0.0; m * n];
                let mut got_packed = vec![0.0; m * n];
                REFERENCE.gemm(
                    &Gemm::nt(m, k, n, &a, k.max(1), &decoded[..], k.max(1)),
                    &mut want,
                    n.max(1),
                );
                REFERENCE.gemm(
                    &Gemm::nt(m, k, n, &a, k.max(1), &bits[..], k.max(1)),
                    &mut got_ref,
                    n.max(1),
                );
                PACKED.gemm(
                    &Gemm::nt(m, k, n, &a, k.max(1), &bits[..], k.max(1)),
                    &mut got_packed,
                    n.max(1),
                );
                assert_close(&format!("ref gemm_nt_f16 {m}x{k}x{n}"), &got_ref, &want);
                assert_close(
                    &format!("packed gemm_nt_f16 {m}x{k}x{n}"),
                    &got_packed,
                    &want,
                );
            }
        }
    }
}

fn assert_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (x, y)) in got.iter().zip(want).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: idx {i}: {x} vs {y} (bitwise)"
        );
    }
}

/// Apply `ep` to `c` the way the pre-fusion model code did: a full bias pass,
/// then a full activation pass. The fused write-back must reproduce this
/// bit-for-bit — per element the same scalar ops in the same order.
fn manual_epilogue(c: &mut [f32], n: usize, ep: Epilogue<'_>) {
    match ep {
        Epilogue::None => {}
        Epilogue::Bias(bias) => {
            for (i, v) in c.iter_mut().enumerate() {
                *v += bias[i % n.max(1)];
            }
        }
        Epilogue::BiasGelu(bias) => {
            for (i, v) in c.iter_mut().enumerate() {
                *v += bias[i % n.max(1)];
            }
            for v in c.iter_mut() {
                *v = lx_kernels::gelu(*v);
            }
        }
    }
}

/// Fused epilogue oracle sweep over the f32 entry points: for every backend,
/// shape, and epilogue kind, `gemm_ep` must equal "same backend's plain gemm,
/// then the unfused bias/GELU passes" — bitwise, nn and nt forms.
#[test]
fn fused_epilogues_match_unfused_composition_bitwise() {
    let sizes = interesting_sizes();
    let backends: [&dyn KernelBackend; 2] = [&REFERENCE, &PACKED];
    let mut seed = 200_000u64;
    for &m in &sizes {
        for &k in &sizes {
            for &n in &sizes {
                seed += 1;
                let a = randn_vec(m * k, 1.0, seed);
                let b = randn_vec(k * n, 1.0, seed + 1000);
                let b_t = randn_vec(n * k, 1.0, seed + 2000);
                let bias = randn_vec(n, 1.0, seed + 3000);
                let c0 = randn_vec(m * n, 1.0, seed + 4000);
                for be in backends {
                    for fused_ep in [Epilogue::Bias(&bias), Epilogue::BiasGelu(&bias)] {
                        // beta = 0.5: the epilogue must apply after the
                        // pre-scale *and* the accumulation, never between.
                        let mut want = c0.clone();
                        be.gemm(
                            &Gemm::nn(m, k, n, &a, k.max(1), &b[..], n.max(1)).beta(0.5),
                            &mut want,
                            n.max(1),
                        );
                        manual_epilogue(&mut want, n, fused_ep);
                        let mut got = c0.clone();
                        be.gemm(
                            &Gemm::nn(m, k, n, &a, k.max(1), &b[..], n.max(1))
                                .beta(0.5)
                                .epilogue(fused_ep),
                            &mut got,
                            n.max(1),
                        );
                        assert_bits(
                            &format!("{} gemm_ep {m}x{k}x{n} {fused_ep:?}", be.name()),
                            &got,
                            &want,
                        );

                        let mut want_nt = c0.clone();
                        be.gemm(
                            &Gemm::nt(m, k, n, &a, k.max(1), &b_t[..], k.max(1)),
                            &mut want_nt,
                            n.max(1),
                        );
                        manual_epilogue(&mut want_nt, n, fused_ep);
                        let mut got_nt = c0.clone();
                        be.gemm(
                            &Gemm::nt(m, k, n, &a, k.max(1), &b_t[..], k.max(1)).epilogue(fused_ep),
                            &mut got_nt,
                            n.max(1),
                        );
                        assert_bits(
                            &format!("{} gemm_nt_ep {m}x{k}x{n} {fused_ep:?}", be.name()),
                            &got_nt,
                            &want_nt,
                        );
                    }
                }
            }
        }
    }
}

/// The same fused-vs-unfused oracle for the mixed-precision B operands
/// (f16, int8-block, NF4-block, N:M-sparse), on a reduced grid and in both B
/// layouts (`nn`, and `nt` — the frozen-forward shape the MLP's FC1 takes on
/// a reduced backbone): each fused product must equal the same backend's
/// plain product plus the manual passes, bitwise, on both backends
/// (`Reference` fuses reduced-B epilogues as a pass after its on-load-decode
/// loops, `Packed` into the tile write-back).
#[test]
fn fused_epilogues_match_on_quantized_dtypes() {
    let sizes = [0usize, 1, MR, NR + 1, 40];
    let backends: [&dyn KernelBackend; 2] = [&REFERENCE, &PACKED];
    let mut seed = 300_000u64;
    for &m in &sizes {
        for &k in &sizes {
            for &n in &sizes {
                seed += 1;
                let a = randn_vec(m * k, 1.0, seed);
                let b = randn_vec(k * n, 1.0, seed + 1000);
                let bias = randn_vec(n, 1.0, seed + 2000);
                let bits = lx_kernels::half::encode_slice(&b);
                let (q8c, q8s) = lx_quant::q8::quantize(&b);
                let (q4c, q4s) = lx_quant::nf4::quantize(&b);
                // B's buffer is stored `k×n` for `nn` and `n×k` for `nt`.
                for (b_trans, rows, cols) in [(false, k, n), (true, n, k)] {
                    let (nmv, nmm) = lx_quant::nm::encode(&b, rows, cols, 2, 4);
                    let operands = [
                        BOperand::F16(&bits),
                        BOperand::Q8(lx_kernels::Q8View::new(&q8c, &q8s)),
                        BOperand::Q4(lx_kernels::Q4View::new(&q4c, &q4s, k * n)),
                        BOperand::Nm(lx_kernels::NmView::new(&nmv, &nmm, rows, cols, 2, 4)),
                    ];
                    for be in backends {
                        for fused_ep in [Epilogue::Bias(&bias), Epilogue::BiasGelu(&bias)] {
                            for op in operands {
                                let g = Gemm {
                                    b_trans,
                                    ..Gemm::nn(m, k, n, &a, k.max(1), op, cols.max(1))
                                };
                                let mut want = vec![0.0; m * n];
                                be.gemm(&g, &mut want, n.max(1));
                                manual_epilogue(&mut want, n, fused_ep);
                                let mut got = vec![0.0; m * n];
                                be.gemm(&g.epilogue(fused_ep), &mut got, n.max(1));
                                assert_bits(
                                    &format!(
                                        "{} {} {} ep {m}x{k}x{n}",
                                        be.name(),
                                        if b_trans { "nt" } else { "nn" },
                                        op.dtype()
                                    ),
                                    &got,
                                    &want,
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// N:M codec round-trip at integration level: every tail length (`cols % 4`
/// covering 0..=3 plus sub-group rows), an all-zero group (kept zeros), and
/// an absent group (external mask byte 0) must decode bit-identically to the
/// nm-rounded dense matrix, through both the bulk decode and the flat `get`.
#[test]
fn nm_codec_round_trip_covers_tail_zero_and_absent_groups() {
    for (rows, cols) in [
        (1usize, 4usize),
        (5, 8),
        (3, 9),
        (3, 10),
        (3, 11),
        (2, 3),
        (4, 40),
    ] {
        let seed = (rows * 100 + cols) as u64;
        let dense = randn_vec(rows * cols, 1.0, seed);
        let mut want = dense.clone();
        lx_quant::nm::round_slice(&mut want, rows, cols, 2, 4);
        let (vals, masks) = lx_quant::nm::encode(&dense, rows, cols, 2, 4);
        let mut got = vec![f32::NAN; rows * cols];
        lx_quant::nm::decode(&vals, &masks, rows, cols, 2, 4, &mut got);
        assert_bits(&format!("nm round-trip {rows}x{cols}"), &got, &want);
        let view = lx_kernels::NmView::new(&vals, &masks, rows, cols, 2, 4);
        for (i, &w) in want.iter().enumerate() {
            assert_eq!(
                view.get(i).to_bits(),
                w.to_bits(),
                "nm get {rows}x{cols} idx {i}"
            );
        }
    }

    // A group of stored zeros still owns mask bits and slots; a group with an
    // external mask byte of 0 is *absent* (zero-padded slots). Both decode to
    // exact zeros, matching `apply_mask` on the dense original.
    let mut dense = randn_vec(12, 1.0, 77);
    for v in dense[4..8].iter_mut() {
        *v = 0.0;
    }
    let mut masks = lx_quant::nm::prune_mask(&dense, 1, 12, 2, 4);
    masks[2] = 0; // third group absent entirely
    let vals = lx_quant::nm::encode_with_mask(&dense, 1, 12, 2, 4, &masks);
    let mut got = vec![f32::NAN; 12];
    lx_quant::nm::decode(&vals, &masks, 1, 12, 2, 4, &mut got);
    let mut want = dense.clone();
    // Group 0 prunes 2 of its 4 nonzeros, group 1 was already zero, the
    // absent group prunes all 4 → 6 violations against the raw dense buffer.
    assert_eq!(lx_quant::nm::apply_mask(&mut want, &masks, 1, 12, 4), 6);
    assert_bits("nm zero/absent groups", &got, &want);
}

/// N:M B variants against the decode-up-front oracle. Unlike the quantized
/// dtypes this codec is lossless (kept bits verbatim, pruned positions exact
/// zero), so each backend's `gemm_nm`/`gemm_nt_nm` must be **bit-identical**
/// to decoding B and running that same backend's f32 kernel — `Reference`
/// via its on-load row decode, `Packed` via the pack-time group expansion
/// with the all-zero-group skip.
#[test]
fn nm_gemm_matches_decoded_oracle_bitwise_on_shape_sweep() {
    let sizes = interesting_sizes();
    let backends: [&dyn KernelBackend; 2] = [&REFERENCE, &PACKED];
    let mut seed = 600_000u64;
    for &m in &sizes {
        for &k in &sizes {
            for &n in &sizes {
                seed += 1;
                let a = randn_vec(m * k, 1.0, seed);
                let b_nn = randn_vec(k * n, 1.0, seed + 1000);
                let b_nt = randn_vec(n * k, 1.0, seed + 2000);
                let (vals_nn, masks_nn) = lx_quant::nm::encode(&b_nn, k, n, 2, 4);
                let (vals_nt, masks_nt) = lx_quant::nm::encode(&b_nt, n, k, 2, 4);
                let mut dec_nn = vec![0.0; k * n];
                let mut dec_nt = vec![0.0; n * k];
                lx_quant::nm::decode(&vals_nn, &masks_nn, k, n, 2, 4, &mut dec_nn);
                lx_quant::nm::decode(&vals_nt, &masks_nt, n, k, 2, 4, &mut dec_nt);
                let c0 = randn_vec(m * n, 1.0, seed + 3000);
                for be in backends {
                    // beta = 0.5 checks the product and the C pre-scaling.
                    let view = lx_kernels::NmView::new(&vals_nn, &masks_nn, k, n, 2, 4);
                    let mut want = c0.clone();
                    be.gemm(
                        &Gemm::nn(m, k, n, &a, k.max(1), &dec_nn[..], n.max(1)).beta(0.5),
                        &mut want,
                        n.max(1),
                    );
                    let mut got = c0.clone();
                    be.gemm(
                        &Gemm::nn(m, k, n, &a, k.max(1), view, n.max(1)).beta(0.5),
                        &mut got,
                        n.max(1),
                    );
                    assert_bits(&format!("{} gemm_nm {m}x{k}x{n}", be.name()), &got, &want);

                    let view = lx_kernels::NmView::new(&vals_nt, &masks_nt, n, k, 2, 4);
                    let mut want = vec![0.0; m * n];
                    be.gemm(
                        &Gemm::nt(m, k, n, &a, k.max(1), &dec_nt[..], k.max(1)),
                        &mut want,
                        n.max(1),
                    );
                    let mut got = vec![0.0; m * n];
                    be.gemm(
                        &Gemm::nt(m, k, n, &a, k.max(1), view, k.max(1)),
                        &mut got,
                        n.max(1),
                    );
                    assert_bits(
                        &format!("{} gemm_nt_nm {m}x{k}x{n}", be.name()),
                        &got,
                        &want,
                    );
                }
            }
        }
    }
}

/// N:M GEMM into a strided C window (one block column of a wide slab, the
/// layout the sparse FC1 writes): the write must stay inside the window and
/// match the decoded-dense run bit for bit on both backends, through both
/// the parallel and the forced-sequential driver.
#[test]
fn nm_gemm_respects_strided_c_views_bitwise_on_both_paths() {
    let (rows, width, b, d) = (13, 3 * NR, NR, 24);
    let act = randn_vec(rows * d, 1.0, 71);
    let w = randn_vec(b * d, 1.0, 72);
    let (vals, masks) = lx_quant::nm::encode(&w, b, d, 2, 4);
    let mut dec = vec![0.0; b * d];
    lx_quant::nm::decode(&vals, &masks, b, d, 2, 4, &mut dec);
    for be in [&REFERENCE as &dyn KernelBackend, &PACKED] {
        for block in 0..width / b {
            let mut want = vec![1.0f32; rows * width];
            be.gemm(
                &Gemm::nt(rows, d, b, &act, d, &dec[..], d),
                &mut want[block * b..],
                width,
            );
            let view = lx_kernels::NmView::new(&vals, &masks, b, d, 2, 4);
            let mut got_seq = vec![1.0f32; rows * width];
            lx_kernels::with_sequential(|| {
                be.gemm(
                    &Gemm::nt(rows, d, b, &act, d, view, d),
                    &mut got_seq[block * b..],
                    width,
                );
            });
            assert_bits(
                &format!("{} nm strided seq block {block}", be.name()),
                &got_seq,
                &want,
            );
            let mut got_par = vec![1.0f32; rows * width];
            be.gemm(
                &Gemm::nt(rows, d, b, &act, d, view, d),
                &mut got_par[block * b..],
                width,
            );
            assert_bits(
                &format!("{} nm strided par block {block}", be.name()),
                &got_par,
                &want,
            );
        }
    }
}

/// The parallel N:M macro-kernel must be bit-identical to the sequential
/// driver, same as the f32 path: workers own disjoint row panels of C and
/// per-panel summation order is unchanged. The grid includes shapes small
/// enough to stay on one worker and big enough to actually split.
#[test]
fn parallel_nm_is_bit_identical_to_sequential() {
    let m_sizes = [1usize, MR, 40, 97];
    let k_sizes = [7usize, 40, 96];
    let n_sizes = [NR - 1, 40, 97];
    let mut seed = 700_000u64;
    for &m in &m_sizes {
        for &k in &k_sizes {
            for &n in &n_sizes {
                seed += 1;
                let a = randn_vec(m * k, 1.0, seed);
                let b = randn_vec(n * k, 1.0, seed + 1000);
                let (vals, masks) = lx_quant::nm::encode(&b, n, k, 2, 4);
                let view = lx_kernels::NmView::new(&vals, &masks, n, k, 2, 4);
                let mut c_seq = vec![0.25f32; m * n];
                lx_kernels::with_sequential(|| {
                    PACKED.gemm(&Gemm::nt(m, k, n, &a, k, view, k).beta(0.5), &mut c_seq, n);
                });
                let mut c_par = vec![0.25f32; m * n];
                PACKED.gemm(&Gemm::nt(m, k, n, &a, k, view, k).beta(0.5), &mut c_par, n);
                assert_bits(&format!("nm par vs seq {m}x{k}x{n}"), &c_par, &c_seq);
            }
        }
    }
}

/// Fused epilogue on a strided C window (one block column of a wide slab,
/// the layout the sparse FC1 writes): the epilogue must touch only the
/// window and index the bias by the GEMM's own columns, not the slab's.
#[test]
fn fused_epilogue_respects_strided_c_views() {
    let (rows, width, b, d) = (13, 3 * NR, NR, 24);
    let act = randn_vec(rows * d, 1.0, 61);
    let wt = randn_vec(b * d, 1.0, 62);
    let bias = randn_vec(b, 1.0, 63);
    for be in [&REFERENCE as &dyn KernelBackend, &PACKED] {
        for block in 0..width / b {
            let mut want = vec![1.0f32; rows * width];
            be.gemm(
                &Gemm::nt(rows, d, b, &act, d, &wt[..], d),
                &mut want[block * b..],
                width,
            );
            for r in 0..rows {
                for j in 0..b {
                    let v = &mut want[r * width + block * b + j];
                    *v = lx_kernels::gelu(*v + bias[j]);
                }
            }
            let mut got = vec![1.0f32; rows * width];
            be.gemm(
                &Gemm::nt(rows, d, b, &act, d, &wt[..], d).epilogue(Epilogue::BiasGelu(&bias)),
                &mut got[block * b..],
                width,
            );
            assert_bits(
                &format!("{} strided ep block {block}", be.name()),
                &got,
                &want,
            );
        }
    }
}

/// The parallel macro-kernel must be bit-identical to the single-threaded
/// driver: workers own disjoint row panels of C and each panel's summation
/// order is unchanged, so this is exact equality, not a tolerance. The grid
/// includes shapes smaller than one worker panel (a single register tile of
/// rows) and a shape big enough to actually split.
#[test]
fn parallel_packed_is_bit_identical_to_sequential() {
    let mut m_sizes = interesting_sizes();
    m_sizes.push(97); // several MR panels: splits across workers when pooled
    let k_sizes = [1usize, 7, NR, 40];
    let n_sizes = [1usize, NR - 1, 40, 97];
    let mut seed = 400_000u64;
    for &m in &m_sizes {
        for &k in &k_sizes {
            for &n in &n_sizes {
                seed += 1;
                let a = randn_vec(m * k, 1.0, seed);
                let b = randn_vec(k * n, 1.0, seed + 1000);
                let bias = randn_vec(n, 1.0, seed + 2000);
                for ep in [Epilogue::None, Epilogue::BiasGelu(&bias)] {
                    let mut c_seq = vec![0.25f32; m * n];
                    lx_kernels::with_sequential(|| {
                        PACKED.gemm(
                            &Gemm::nn(m, k, n, &a, k, &b[..], n).beta(0.5).epilogue(ep),
                            &mut c_seq,
                            n,
                        );
                    });
                    let mut c_par = vec![0.25f32; m * n];
                    PACKED.gemm(
                        &Gemm::nn(m, k, n, &a, k, &b[..], n).beta(0.5).epilogue(ep),
                        &mut c_par,
                        n,
                    );
                    assert_bits(&format!("par vs seq {m}x{k}x{n} {ep:?}"), &c_par, &c_seq);
                }
            }
        }
    }
}

/// Regression: a GEMM issued from inside every pool worker simultaneously
/// (the sparse FC1 does exactly this) must fall back to the sequential
/// driver instead of re-entering the pool — no deadlock, no oversubscribed
/// nested parallelism, and the same bits as the top-level sequential run.
#[test]
fn gemm_inside_every_worker_takes_the_sequential_path() {
    let tasks = (lx_parallel::pool().threads() * 2).max(4);
    let (m, k, n) = (MR + 3, 33, NR + 5);
    // grain 1 → one chunk per task index, so every worker gets GEMM work.
    let results = lx_parallel::parallel_map(0..tasks, 1, |chunk| {
        chunk
            .map(|i| {
                let seed = 500_000 + i as u64;
                let a = randn_vec(m * k, 1.0, seed);
                let b = randn_vec(k * n, 1.0, seed + 1);
                let mut c = vec![0.0f32; m * n];
                PACKED.gemm(&Gemm::nn(m, k, n, &a, k, &b[..], n), &mut c, n);
                c
            })
            .collect::<Vec<_>>()
    });
    for (i, got) in results.into_iter().flatten().enumerate() {
        let seed = 500_000 + i as u64;
        let a = randn_vec(m * k, 1.0, seed);
        let b = randn_vec(k * n, 1.0, seed + 1);
        let mut want = vec![0.0f32; m * n];
        lx_kernels::with_sequential(|| {
            PACKED.gemm(&Gemm::nn(m, k, n, &a, k, &b[..], n), &mut want, n);
        });
        assert_bits(&format!("worker gemm {i}"), &got, &want);
    }
}

/// Force the packed backend under the block-sparse attention ops by running
/// the per-block shapes they issue through both backends directly.
#[test]
fn attention_block_shapes_match() {
    for (b, dh) in [(4usize, 8usize), (16, 32), (32, 64), (32, 80)] {
        let q = randn_vec(b * dh, 1.0, 21);
        let k = randn_vec(b * dh, 1.0, 22);
        let mut s_ref = vec![0.0; b * b];
        let mut s_packed = vec![0.0; b * b];
        REFERENCE.gemm(&Gemm::nt(b, dh, b, &q, dh, &k[..], dh), &mut s_ref, b);
        PACKED.gemm(&Gemm::nt(b, dh, b, &q, dh, &k[..], dh), &mut s_packed, b);
        assert_close(&format!("scores block b={b} dh={dh}"), &s_packed, &s_ref);

        let p = randn_vec(b * b, 1.0, 23);
        let v = randn_vec(b * dh, 1.0, 24);
        let mut o_ref = vec![0.0; b * dh];
        let mut o_packed = vec![0.0; b * dh];
        REFERENCE.gemm(
            &Gemm::nn(b, b, dh, &p, b, &v[..], dh).beta(1.0),
            &mut o_ref,
            dh,
        );
        PACKED.gemm(
            &Gemm::nn(b, b, dh, &p, b, &v[..], dh).beta(1.0),
            &mut o_packed,
            dh,
        );
        assert_close(&format!("context block b={b}"), &o_packed, &o_ref);

        let mut t_ref = vec![0.0; b * dh];
        let mut t_packed = vec![0.0; b * dh];
        REFERENCE.gemm(&Gemm::tn(b, b, dh, &p, b, &v, dh).beta(1.0), &mut t_ref, dh);
        PACKED.gemm(
            &Gemm::tn(b, b, dh, &p, b, &v, dh).beta(1.0),
            &mut t_packed,
            dh,
        );
        assert_close(&format!("transposed block b={b}"), &t_packed, &t_ref);
    }
}

/// End-to-end sparse attention against a dense matmul oracle, whatever
/// backend the dispatcher picks — the routed pipeline must stay exact.
#[test]
fn sparse_attention_pipeline_matches_dense_oracle() {
    let (b, s, dh) = (8usize, 64usize, 16usize);
    let lay = BlockCsr::from_mask(&PatternSpec::LocalGlobal { w: 2, g: 1 }.mask(s / b), b);
    let q = randn_vec(s * dh, 1.0, 31);
    let k = randn_vec(s * dh, 1.0, 32);
    let mut blocks = vec![0.0; lay.data_len()];
    sdd_nt(&q, &k, s, dh, 0.25, &lay, CausalFill::None, &mut blocks);
    let dense_scores = block_data_to_dense(&blocks, &lay);
    for i in 0..s {
        for j in 0..s {
            if !lay.to_mask().get(i / b, j / b) {
                continue;
            }
            let expect: f32 = 0.25
                * q[i * dh..(i + 1) * dh]
                    .iter()
                    .zip(&k[j * dh..(j + 1) * dh])
                    .map(|(x, y)| x * y)
                    .sum::<f32>();
            let got = dense_scores[i * s + j];
            assert!(
                (got - expect).abs() <= TOL * (1.0 + expect.abs()),
                "scores ({i},{j}): {got} vs {expect}"
            );
        }
    }
    // DSD and its transpose agree with the dense expansion.
    let x = randn_vec(s * dh, 1.0, 33);
    let mut out = vec![0.0; s * dh];
    dsd(&blocks, &x, s, dh, &lay, &mut out);
    let mut expect = vec![0.0; s * dh];
    for i in 0..s {
        for j in 0..s {
            let pv = dense_scores[i * s + j];
            for t in 0..dh {
                expect[i * dh + t] += pv * x[j * dh + t];
            }
        }
    }
    assert_close("dsd", &out, &expect);
    let mut out_t = vec![0.0; s * dh];
    dsd_tn(&blocks, &x, s, dh, &lay, &mut out_t);
    let mut expect_t = vec![0.0; s * dh];
    for i in 0..s {
        for j in 0..s {
            let pv = dense_scores[i * s + j];
            for t in 0..dh {
                expect_t[j * dh + t] += pv * x[i * dh + t];
            }
        }
    }
    assert_close("dsd_tn", &out_t, &expect_t);
}

/// The neuron-sparse MLP forward path against an explicit gather/scatter
/// oracle at a width that exercises multi-panel packing.
#[test]
fn neuron_mlp_matches_oracle_at_packing_widths() {
    let (rows, d_in, h, block) = (33, 48, 8 * NR, NR);
    let set = NeuronBlockSet::from_indices(vec![0, 2, 3, 7], h / block, block);
    let width = set.active_neurons();
    let x = randn_vec(rows * d_in, 1.0, 41);
    let w1 = randn_vec(d_in * h, 0.2, 42);
    let cm = ColMajorWeights::from_row_major(&w1, d_in, h);
    let mut z = vec![0.0; rows * width];
    fc1_forward(&x, rows, cm.raw(), d_in, None, &set, &mut z);
    for r in 0..rows {
        for (ai, &blk) in set.active.iter().enumerate() {
            for t in 0..block {
                let neuron = blk as usize * block + t;
                let expect: f32 = (0..d_in)
                    .map(|i| x[r * d_in + i] * w1[i * h + neuron])
                    .sum();
                let got = z[r * width + ai * block + t];
                assert!(
                    (got - expect).abs() <= TOL * (1.0 + expect.abs()),
                    "fc1 r={r} neuron={neuron}: {got} vs {expect}"
                );
            }
        }
    }
    let d_out = 29;
    let w2 = randn_vec(h * d_out, 0.2, 43);
    let mut y = vec![0.0; rows * d_out];
    fc2_forward(&z, rows, &w2, d_out, None, &set, &mut y);
    let mut expect = vec![0.0; rows * d_out];
    for r in 0..rows {
        for (ai, &blk) in set.active.iter().enumerate() {
            for t in 0..block {
                let neuron = blk as usize * block + t;
                let av = z[r * width + ai * block + t];
                for c in 0..d_out {
                    expect[r * d_out + c] += av * w2[neuron * d_out + c];
                }
            }
        }
    }
    assert_close("fc2", &y, &expect);
}
