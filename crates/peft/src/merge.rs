//! LoRA weight merging: fold `ΔW = (α/r)·BᵀA` into the backbone weight so
//! inference after fine-tuning pays zero adapter overhead. The inverse
//! (`unmerge`) restores the original backbone exactly (up to f32 rounding),
//! which is what lets one backbone serve many tasks.
//!
//! **Sparsity preservation (SPP lineage):** on a 2:4 structured-sparse
//! backbone the dense delta `BᵀA` would repopulate pruned positions and
//! destroy the N:M pattern the fused kernels exploit. The merge therefore
//! captures the weight's group mask before folding, projects the merged
//! weight back onto it (zeroing every pruned position the delta touched —
//! counted in the `peft.merge.mask_violations` metric), and re-demotes to
//! the same compacted storage. A merged Nm24 backbone is provably still 2:4.

use std::sync::{Arc, OnceLock};

use lx_model::linear::Linear;
use lx_model::{Param, TransformerModel};
use lx_obs::{registry, Counter};

/// Pruned positions a LoRA delta tried to repopulate, summed over every
/// mask-preserving merge in the process (the SPP projection magnitude-proxy).
fn mask_violations() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| registry().counter("peft.merge.mask_violations"))
}

/// Process-wide total of [`mask_violations`] — how many pruned weight
/// positions merges have projected back to zero. Exposed for tests and
/// benches; the same value ships through the `lx-obs` registry.
pub fn mask_violation_total() -> u64 {
    mask_violations().get()
}

/// The N:M group mask of a structured-sparse-stored weight, captured before
/// the merge promotes it to f32 (which discards the stored mask).
fn captured_nm_mask(p: &Param) -> Option<Vec<u8>> {
    p.frozen.as_ref()?.masks().map(<[u8]>::to_vec)
}

/// Project a merged (dense f32) weight back onto its pre-merge N:M mask and
/// re-demote it to compacted storage. Every pruned position the dense delta
/// repopulated is zeroed and counted.
fn reapply_nm_mask(p: &mut Param, masks: &[u8]) {
    let shape = p.shape();
    let (rows, cols) = (
        shape[..shape.len() - 1].iter().product::<usize>(),
        *shape.last().unwrap_or(&0),
    );
    let violations = lx_tensor::nm::apply_mask(
        p.value.as_mut_slice(),
        masks,
        rows,
        cols,
        lx_tensor::nm::NM_M,
    );
    mask_violations().add(violations as u64);
    p.to_nm_with_mask(masks);
}

/// Fold a Linear's LoRA pair into its weight; the adapter stays attached but
/// contributes zero afterwards only if you also zero it — instead we detach.
///
/// A reduced-stored weight (f16 or block-quantized) is promoted to f32
/// first: merging writes into the weight buffer, and folding a delta into
/// rounded storage would lose exactly the adaptation being merged. Re-apply
/// a precision plan afterwards if the merged model should ship reduced.
/// The exception is a 2:4 structured-sparse weight, which keeps its storage:
/// the merge re-applies the captured mask and re-compacts (see the module
/// docs), so the weight stays N:M without caller involvement.
pub fn merge_linear(linear: &mut Linear) {
    let Some(lora) = linear.lora.take() else {
        return;
    };
    let nm_mask = captured_nm_mask(&linear.weight);
    linear.weight.to_f32();
    let (d_in, d_out) = (linear.d_in(), linear.d_out());
    let r = lora.rank();
    let a = lora.a.value.as_slice(); // [r, d_in]
    let b = lora.b.value.as_slice(); // [d_out, r]
    let w = linear.weight.value.as_mut_slice(); // [d_in, d_out]
    for i in 0..d_in {
        for o in 0..d_out {
            let mut acc = 0.0f32;
            for k in 0..r {
                acc += a[k * d_in + i] * b[o * r + k];
            }
            w[i * d_out + o] += lora.scale * acc;
        }
    }
    if let Some(masks) = nm_mask {
        reapply_nm_mask(&mut linear.weight, &masks);
    }
}

/// Merge every attention LoRA in the model. MLP LoRA (which lives in the
/// neuron-major layout) is merged analogously.
pub fn merge_all(model: &mut TransformerModel) {
    for block in &mut model.blocks {
        merge_linear(&mut block.attn.wq);
        merge_linear(&mut block.attn.wk);
        merge_linear(&mut block.attn.wv);
        merge_linear(&mut block.attn.wo);
        merge_mlp(block);
    }
}

fn merge_mlp(block: &mut lx_model::block::TransformerBlock) {
    let mlp = &mut block.mlp;
    let d = mlp.w1.shape()[1];
    let d_ff = mlp.d_ff();
    if let Some(l) = mlp.lora1.take() {
        let nm_mask = captured_nm_mask(&mlp.w1);
        mlp.w1.to_f32();
        // w1 is [d_ff, d] neuron-major; ΔW1ᵀ_row(n) = scale · Σ_k B[n,k]·A[k,:].
        let r = l.b.value.shape()[1];
        let a = l.a.value.as_slice(); // [r, d]
        let b = l.b.value.as_slice(); // [d_ff, r]
        let w = mlp.w1.value.as_mut_slice();
        for n in 0..d_ff {
            for i in 0..d {
                let mut acc = 0.0;
                for k in 0..r {
                    acc += b[n * r + k] * a[k * d + i];
                }
                w[n * d + i] += l.scale * acc;
            }
        }
        if let Some(masks) = nm_mask {
            reapply_nm_mask(&mut mlp.w1, &masks);
        }
    }
    if let Some(l) = mlp.lora2.take() {
        let nm_mask = captured_nm_mask(&mlp.w2);
        mlp.w2.to_f32();
        // w2 is [d_ff, d] row-major; ΔW2_row(n) = scale · A2ᵀ_row(n) · Bᵀ.
        let r = l.b.value.shape()[1];
        let a = l.a.value.as_slice(); // [d_ff, r]
        let b = l.b.value.as_slice(); // [d, r]
        let w = mlp.w2.value.as_mut_slice();
        for n in 0..d_ff {
            for o in 0..d {
                let mut acc = 0.0;
                for k in 0..r {
                    acc += a[n * r + k] * b[o * r + k];
                }
                w[n * d + o] += l.scale * acc;
            }
        }
        if let Some(masks) = nm_mask {
            reapply_nm_mask(&mut mlp.w2, &masks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LoraTargets, PeftMethod};
    use lx_model::{ModelConfig, StepRequest};
    use lx_tensor::Tensor;

    #[test]
    fn merged_linear_matches_adapter_forward() {
        let mut lin = Linear::new("l", 6, 6, true, 1);
        lin.attach_lora(2, 4.0, 2);
        // Randomise both LoRA halves.
        {
            let l = lin.lora.as_mut().unwrap();
            let av = lx_tensor::rng::randn_vec(l.a.value.len(), 0.5, 3);
            l.a.value.as_mut_slice().copy_from_slice(&av);
            let bv = lx_tensor::rng::randn_vec(l.b.value.len(), 0.5, 4);
            l.b.value.as_mut_slice().copy_from_slice(&bv);
        }
        let x = Tensor::randn(&[4, 6], 1.0, 5);
        let y_adapter = lin.forward(&x);
        merge_linear(&mut lin);
        assert!(lin.lora.is_none());
        let y_merged = lin.forward(&x);
        for (a, b) in y_adapter.as_slice().iter().zip(y_merged.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn merge_all_preserves_model_function() {
        let mut m = TransformerModel::new(ModelConfig::test_tiny(), 9);
        PeftMethod::Lora {
            rank: 2,
            alpha: 4.0,
            targets: LoraTargets::all(),
        }
        .apply(&mut m, 10);
        // Randomise the LoRA B halves so the adapters actually do something.
        m.for_each_param(&mut |p| {
            if p.name.contains("lora_b") {
                let v = lx_tensor::rng::randn_vec(p.value.len(), 0.3, 11);
                p.value.as_mut_slice().copy_from_slice(&v);
            }
        });
        let ids: Vec<u32> = (0..8u32).collect();
        let before = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
        merge_all(&mut m);
        let after = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
        // No LoRA params remain.
        let mut lora_left = 0;
        m.for_each_param(&mut |p| {
            if p.name.contains("lora") {
                lora_left += 1;
            }
        });
        assert_eq!(lora_left, 0);
    }

    #[test]
    fn merge_on_quantized_backbone_promotes_and_preserves_function() {
        // QLoRA-style lifecycle: quantized frozen backbone + f32 adapters,
        // then merge. The merge must promote the touched weights to f32 (the
        // delta cannot be folded into 4-bit codes) and keep the function.
        for precision in [
            lx_model::Precision::Int8Frozen,
            lx_model::Precision::Nf4Frozen,
        ] {
            let mut m = TransformerModel::new(ModelConfig::test_tiny(), 12);
            PeftMethod::Lora {
                rank: 2,
                alpha: 4.0,
                targets: LoraTargets::all(),
            }
            .apply(&mut m, 13);
            m.set_precision(precision);
            m.for_each_param(&mut |p| {
                if p.name.contains("lora_b") {
                    let v = lx_tensor::rng::randn_vec(p.value.len(), 0.3, 14);
                    p.value.as_mut_slice().copy_from_slice(&v);
                }
            });
            let ids: Vec<u32> = (0..8u32).collect();
            let before = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
            merge_all(&mut m);
            let after = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
            for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
                assert!((a - b).abs() < 1e-3, "{precision}: {a} vs {b}");
            }
            // Merged weights are f32 again; untouched ones (embedding) keep
            // their quantized storage.
            for block in &m.blocks {
                assert!(!block.attn.wq.weight.is_reduced(), "{precision}");
                assert!(!block.mlp.w1.is_reduced(), "{precision}");
            }
        }
    }

    #[test]
    fn merge_on_nm_backbone_preserves_the_sparsity_pattern() {
        // SPP lifecycle: 2:4-pruned frozen backbone + f32 adapters, then
        // merge. Unlike the quantized backbones the merged weights must NOT
        // end up promoted-dense — they keep their compacted N:M storage,
        // the pre-merge mask is provably intact (zero violations on
        // re-check), and the dense delta the projection discarded is
        // surfaced through the mask-violation metric.
        let mut m = TransformerModel::new(ModelConfig::test_tiny(), 15);
        PeftMethod::Lora {
            rank: 2,
            alpha: 4.0,
            targets: LoraTargets::all(),
        }
        .apply(&mut m, 16);
        m.set_precision(lx_model::Precision::Nm24Frozen);
        // Capture every nm weight's mask before the merge.
        let mut masks_before: Vec<(String, Vec<u8>)> = Vec::new();
        m.for_each_param(&mut |p| {
            if let Some(masks) = p.frozen.as_ref().and_then(|s| s.masks()) {
                masks_before.push((p.name.clone(), masks.to_vec()));
            }
        });
        assert!(!masks_before.is_empty(), "backbone must be nm-stored");
        m.for_each_param(&mut |p| {
            if p.name.contains("lora_b") {
                let v = lx_tensor::rng::randn_vec(p.value.len(), 0.3, 17);
                p.value.as_mut_slice().copy_from_slice(&v);
            }
        });
        let violations_before = crate::merge::mask_violation_total();
        merge_all(&mut m);
        // A dense rank-2 delta touches pruned positions: the projection
        // must have counted them.
        assert!(
            crate::merge::mask_violation_total() > violations_before,
            "dense LoRA delta must hit pruned positions"
        );
        // Every merged weight is still nm-stored under its ORIGINAL mask,
        // and its decode obeys that mask exactly (zero violations).
        let before: std::collections::HashMap<_, _> = masks_before.into_iter().collect();
        let mut checked = 0;
        m.for_each_param(&mut |p| {
            if let Some(expect) = before.get(&p.name) {
                let s = p
                    .frozen
                    .as_ref()
                    .filter(|s| s.dtype() == lx_tensor::Dtype::Nm24)
                    .unwrap_or_else(|| panic!("{}: merged weight must stay nm-stored", p.name));
                assert_eq!(s.masks(), Some(&expect[..]), "{}: mask changed", p.name);
                let mut dense = s.to_f32_vec();
                let shape = p.shape();
                let (rows, cols) = (
                    shape[..shape.len() - 1].iter().product::<usize>(),
                    *shape.last().unwrap(),
                );
                let v =
                    lx_tensor::nm::apply_mask(&mut dense, expect, rows, cols, lx_tensor::nm::NM_M);
                assert_eq!(v, 0, "{}: merged weight violates its 2:4 mask", p.name);
                checked += 1;
            }
        });
        assert!(checked > 0);
        // And no LoRA params remain.
        let mut lora_left = 0;
        m.for_each_param(&mut |p| {
            if p.name.contains("lora") {
                lora_left += 1;
            }
        });
        assert_eq!(lora_left, 0);
    }

    #[test]
    fn merge_without_lora_is_noop() {
        let mut lin = Linear::new("l", 4, 4, false, 6);
        let w_before = lin.weight.value.clone();
        merge_linear(&mut lin);
        assert_eq!(lin.weight.value, w_before);
    }
}
