//! The load-bearing correctness property of the whole system: with a
//! *complete* sparse plan (full causal attention layout, all neuron blocks
//! active), the sparse execution path must reproduce the dense path exactly
//! (up to f32 accumulation order) — forward logits, loss, input gradients,
//! and trainable-parameter gradients, across PEFT methods.

use lx_integration::{batch_ids, tiny_model};
use lx_model::plan::{LayerPlan, SparsePlan};
use lx_model::{prompt_aware_targets, StepRequest};
use lx_peft::PeftMethod;
use lx_sparse::{BlockCsr, MultiHeadLayout, NeuronBlockSet, PatternSpec};
use std::sync::Arc;

const BLOCK: usize = 4;
const SEQ: usize = 16;
const BATCH: usize = 2;

fn full_plan(n_layers: usize, n_heads: usize, d_ff: usize) -> SparsePlan {
    let csr = Arc::new(BlockCsr::from_mask(
        &PatternSpec::Causal.mask(SEQ / BLOCK),
        BLOCK,
    ));
    let mut plan = SparsePlan::default();
    for _ in 0..n_layers {
        plan.layers.push(LayerPlan {
            attn: Some(Arc::new(MultiHeadLayout::combine(vec![
                csr.clone();
                n_heads
            ]))),
            mlp: Some(Arc::new(NeuronBlockSet::all(d_ff / BLOCK, BLOCK))),
        });
    }
    plan
}

fn assert_close(a: &[f32], b: &[f32], tol: f32, what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= tol * (1.0 + y.abs()),
            "{what}[{i}]: {x} vs {y}"
        );
    }
}

fn check_method(method: PeftMethod) {
    let mut dense = tiny_model(7);
    let mut sparse = tiny_model(7);
    method.apply(&mut dense, 9);
    method.apply(&mut sparse, 9);
    let cfg = dense.config.clone();
    let ids = batch_ids(BATCH, SEQ, cfg.vocab_size, 11);
    let plan = full_plan(cfg.n_layers, cfg.n_heads, cfg.d_ff);
    let prompt = dense.embedding.prompt_len();
    // Prompt tuning changes the effective sequence; skip the sparse plan in
    // that case unless it stays block-aligned.
    if !(SEQ + prompt).is_multiple_of(BLOCK) {
        return;
    }
    let targets = prompt_aware_targets(&ids, BATCH, SEQ, prompt);

    // Grad mode: forward + loss + backward, gradients left in the params.
    let out_d = dense.execute(StepRequest::grad(&ids, &targets, BATCH, SEQ).keep_logits());
    let out_s = sparse.execute(
        StepRequest::grad(&ids, &targets, BATCH, SEQ)
            .plan(&plan)
            .keep_logits(),
    );
    let logits_d = out_d.logits.expect("dense logits");
    let logits_s = out_s.logits.expect("sparse logits");
    assert_close(logits_d.as_slice(), logits_s.as_slice(), 2e-3, "logits");

    let (loss_d, loss_s) = (out_d.loss, out_s.loss);
    assert!((loss_d - loss_s).abs() < 1e-3, "loss {loss_d} vs {loss_s}");

    // Compare every trainable gradient.
    let mut grads_d: Vec<(String, Vec<f32>)> = Vec::new();
    dense.for_each_param(&mut |p| {
        if p.trainable {
            grads_d.push((
                p.name.clone(),
                p.grad
                    .as_ref()
                    .map(|g| g.as_slice().to_vec())
                    .unwrap_or_default(),
            ));
        }
    });
    let mut i = 0usize;
    sparse.for_each_param(&mut |p| {
        if p.trainable {
            let (name, gd) = &grads_d[i];
            assert_eq!(&p.name, name, "param order");
            let gs = p
                .grad
                .as_ref()
                .map(|g| g.as_slice().to_vec())
                .unwrap_or_default();
            assert_close(&gs, gd, 5e-2, name);
            i += 1;
        }
    });
    assert_eq!(i, grads_d.len());
}

#[test]
fn full_plan_matches_dense_lora() {
    check_method(PeftMethod::lora_default());
}

#[test]
fn full_plan_matches_dense_lora_all_targets() {
    check_method(PeftMethod::Lora {
        rank: 2,
        alpha: 4.0,
        targets: lx_peft::LoraTargets::all(),
    });
}

#[test]
fn full_plan_matches_dense_adapter() {
    check_method(PeftMethod::Adapter { bottleneck: 4 });
}

#[test]
fn full_plan_matches_dense_bitfit() {
    check_method(PeftMethod::BitFit);
}

#[test]
fn full_plan_matches_dense_full_ft() {
    check_method(PeftMethod::Full);
}

#[test]
fn partial_attention_pattern_changes_output() {
    // Sanity check that the plan actually flows: a narrow window must give
    // different logits from dense.
    let mut dense = tiny_model(13);
    let mut sparse = tiny_model(13);
    let cfg = dense.config.clone();
    let ids = batch_ids(BATCH, SEQ, cfg.vocab_size, 14);
    let csr = Arc::new(BlockCsr::from_mask(
        &PatternSpec::LocalWindow { w: 1 }.mask(SEQ / BLOCK),
        BLOCK,
    ));
    let mut plan = SparsePlan::default();
    for _ in 0..cfg.n_layers {
        plan.layers.push(LayerPlan {
            attn: Some(Arc::new(MultiHeadLayout::combine(vec![
                csr.clone();
                cfg.n_heads
            ]))),
            mlp: None,
        });
    }
    let a = dense
        .execute(StepRequest::infer(&ids, BATCH, SEQ))
        .logits
        .unwrap();
    let b = sparse
        .execute(StepRequest::infer(&ids, BATCH, SEQ).plan(&plan))
        .logits
        .unwrap();
    let diff: f32 = a
        .as_slice()
        .iter()
        .zip(b.as_slice())
        .map(|(x, y)| (x - y).abs())
        .sum();
    assert!(diff > 1e-3, "narrow window should alter outputs");
}

/// Logits and every trainable gradient of one `Grad` step, as raw bits.
fn grad_step_bits(
    m: &mut lx_model::TransformerModel,
    plan: Option<&SparsePlan>,
) -> (Vec<u32>, Vec<(String, Vec<u32>)>) {
    let cfg = m.config.clone();
    let ids = batch_ids(BATCH, SEQ, cfg.vocab_size, 17);
    let targets = prompt_aware_targets(&ids, BATCH, SEQ, 0);
    let req = StepRequest::grad(&ids, &targets, BATCH, SEQ).keep_logits();
    let out = m.execute(match plan {
        Some(plan) => req.plan(plan),
        None => req,
    });
    let bits = |t: &[f32]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    let logits = bits(out.logits.expect("logits kept").as_slice());
    let mut grads = Vec::new();
    m.for_each_param(&mut |p| {
        if p.trainable {
            let g = p.grad.as_ref().map(|g| bits(g.as_slice()));
            grads.push((p.name.clone(), g.unwrap_or_default()));
        }
    });
    (logits, grads)
}

/// The exactness oracle of the one MLP code path: a plan whose MLP keeps
/// every neuron block (attention dense) runs the dense step's GEMMs on a
/// full-width slab gather, so logits and every gradient are the dense
/// step's bits — on every backbone storage, for LoRA on both MLP linears,
/// and for BitFit and full fine-tuning on f32. The MLP is wide enough
/// (`32 × 64 × 256` products) for the dispatcher to route its GEMMs to the
/// packed backend, whose register-blocked accumulation would expose any
/// split of the reduction the sparse path made.
#[test]
fn all_block_mlp_plan_is_bit_identical_to_dense() {
    use lx_model::Precision;
    let lora_mlp = PeftMethod::Lora {
        rank: 2,
        alpha: 4.0,
        targets: lx_peft::LoraTargets::all(),
    };
    let mut cases = vec![
        (PeftMethod::BitFit, Precision::F32),
        (PeftMethod::Full, Precision::F32),
    ];
    for precision in [
        Precision::F32,
        Precision::F16Frozen,
        Precision::Int8Frozen,
        Precision::Nf4Frozen,
        Precision::Nm24Frozen,
    ] {
        cases.push((lora_mlp, precision));
    }
    for (method, precision) in cases {
        let build = || {
            let cfg = lx_model::ModelConfig {
                d_model: 64,
                n_heads: 4,
                d_ff: 256,
                ..lx_integration::tiny_cfg()
            };
            let mut m = lx_model::TransformerModel::new(cfg, 21);
            m.induce_activation_sparsity(0.9, 0.3, 4, 22);
            method.apply(&mut m, 22);
            m.set_precision(precision);
            // Non-zero LoRA B halves, so the A gradients carry signal.
            m.for_each_param(&mut |p| {
                if p.name.contains("lora_b") {
                    let v = lx_tensor::rng::randn_vec(p.value.len(), 0.3, 23);
                    p.value.as_mut_slice().copy_from_slice(&v);
                }
            });
            m
        };
        let (mut dense, mut sparse) = (build(), build());
        let cfg = dense.config.clone();
        let mut plan = SparsePlan::dense(cfg.n_layers);
        for layer in plan.layers.iter_mut() {
            layer.mlp = Some(Arc::new(NeuronBlockSet::all(cfg.d_ff / BLOCK, BLOCK)));
        }
        let (logits_d, grads_d) = grad_step_bits(&mut dense, None);
        let (logits_s, grads_s) = grad_step_bits(&mut sparse, Some(&plan));
        let what = format!("{method:?} on {precision}");
        assert!(logits_d == logits_s, "{what}: logits differ");
        assert!(!grads_d.is_empty(), "{what}: nothing trainable");
        for ((name, gd), (_, gs)) in grads_d.iter().zip(&grads_s) {
            assert!(gd == gs, "{what}: gradient of {name} differs");
        }
        assert_eq!(grads_d.len(), grads_s.len());
    }
}
