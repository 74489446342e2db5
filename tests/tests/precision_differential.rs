//! Mixed-precision differential tests: the reduced storage plans
//! (`F16Frozen`, `Int8Frozen`, `Nf4Frozen`, `Nm24Frozen`) must (a) actually shrink
//! measured backbone storage to their documented ratios, (b) leave the
//! sparse execution path numerically identical to an f32 model holding the
//! same (rounded) weights, (c) keep training dynamics within a documented
//! envelope of the f32 run, and (d) compose with the tenant-adapter
//! attach/extract/merge lifecycle.
//!
//! Documented tolerances (also stated in the README): over 24 LoRA training
//! steps on identical data, the per-step loss stays within **0.05 absolute**
//! of the f32 run for f16 storage, **0.10** for int8-block, **0.25** for
//! NF4-block, and **0.10** for the 2:4 structured-sparse plan (on
//! opt-sim-small). The backbone rounding perturbs the function once; it does not
//! compound, because the stored bits never change and all accumulation is
//! f32 — coarser codecs just start further from the f32 function.

use lx_model::{
    prompt_aware_targets, Adam, LossScaler, ModelConfig, Precision, StepRequest, TransformerModel,
};
use lx_peft::{PeftMethod, TenantAdapter};
use lx_sparse::NeuronBlockSet;
use lx_tensor::f16::round_f16;
use lx_tensor::memtrack;
use std::sync::Arc;

fn batch(model: &TransformerModel, n: usize, seq: usize, seed: u64) -> Vec<u32> {
    lx_tensor::rng::uniform_vec(n * seq, 0.0, model.config.vocab_size as f32, seed)
        .into_iter()
        .map(|v| v as u32)
        .collect()
}

#[test]
fn measured_backbone_footprint_is_at_most_055x() {
    let build = |precision: Precision| {
        let before = memtrack::current_bytes();
        let mut model = TransformerModel::new(ModelConfig::opt_sim_small(), 42);
        model.freeze_all();
        model.set_precision(precision);
        (model, memtrack::current_bytes() - before)
    };
    let (_m32, f32_bytes) = build(Precision::F32);
    let (mut m16, f16_bytes) = build(Precision::F16Frozen);
    let ratio = f16_bytes as f64 / f32_bytes as f64;
    assert!(
        ratio <= 0.55,
        "measured f16 backbone must be ≤0.55x of f32: {ratio} ({f16_bytes} vs {f32_bytes})"
    );
    // The dtype-accounted sum agrees with the allocator-tracked delta.
    assert_eq!(m16.param_storage_bytes(), f16_bytes);
}

#[test]
fn f16_storage_loss_curve_tracks_f32_within_documented_tolerance() {
    const TOLERANCE: f32 = 0.05; // documented: max per-step |Δloss|
    const STEPS: usize = 24; // ≥ 20 per the acceptance criterion
    let run = |precision: Precision| -> Vec<f32> {
        let mut model = TransformerModel::new(ModelConfig::test_tiny(), 7);
        model.freeze_all();
        model.set_precision(precision);
        PeftMethod::lora_default().apply(&mut model, 9);
        let mut opt = Adam::new(0.01);
        let mut losses = Vec::with_capacity(STEPS);
        for step in 0..STEPS {
            // Three fixed batches cycled, identical across both runs.
            let ids = batch(&model, 2, 8, 100 + (step % 3) as u64);
            let targets = prompt_aware_targets(&ids, 2, 8, 0);
            losses.push(
                model
                    .execute(StepRequest::train(&ids, &targets, 2, 8, &mut opt))
                    .loss,
            );
        }
        losses
    };
    let f32_curve = run(Precision::F32);
    let f16_curve = run(Precision::F16Frozen);
    let mut max_diff = 0.0f32;
    for (step, (a, b)) in f16_curve.iter().zip(&f32_curve).enumerate() {
        let d = (a - b).abs();
        assert!(
            d <= TOLERANCE,
            "step {step}: f16 loss {a} vs f32 loss {b} (|Δ| = {d} > {TOLERANCE})"
        );
        max_diff = max_diff.max(d);
    }
    // Both runs must actually train.
    assert!(f32_curve.last().unwrap() < f32_curve.first().unwrap());
    assert!(f16_curve.last().unwrap() < f16_curve.first().unwrap());
    println!("max per-step loss divergence over {STEPS} steps: {max_diff}");
}

/// The sparse MLP path under f16 storage decodes only the active slabs; the
/// result must equal an f32 model whose weights were pre-rounded through f16
/// — same function, different storage — on both forward and backward.
#[test]
fn sparse_path_on_f16_storage_matches_rounded_f32_model() {
    let cfg = ModelConfig::test_tiny();
    let mut half = TransformerModel::new(cfg.clone(), 13);
    let mut rounded = TransformerModel::new(cfg, 13); // same seed, same weights
    half.freeze_all();
    rounded.freeze_all();
    // Round every ≥2-D frozen param of `rounded` through f16 in place,
    // mirroring exactly what the storage demotion does to `half`.
    rounded.for_each_param(&mut |p| {
        if !p.trainable && p.shape().len() >= 2 {
            for v in p.value.as_mut_slice() {
                *v = round_f16(*v);
            }
        }
    });
    half.set_precision(Precision::F16Frozen);
    PeftMethod::lora_default().apply(&mut half, 21);
    PeftMethod::lora_default().apply(&mut rounded, 21);

    // A partial neuron-block plan on every layer forces the slab-decode
    // path (block 4 over d_ff = 32 → keep half the blocks).
    let mut plan = lx_model::SparsePlan::dense(half.config.n_layers);
    for layer in plan.layers.iter_mut() {
        layer.mlp = Some(Arc::new(NeuronBlockSet::from_indices(
            vec![0, 2, 5, 7],
            8,
            4,
        )));
    }
    let ids = batch(&half, 2, 8, 31);
    // Grad mode runs forward + cross-entropy backward in one request, so
    // both the decoded-slab forward and the §II-D sparse backward (which
    // reads the same decoded slabs) are compared.
    let targets = prompt_aware_targets(&ids, 2, 8, 0);
    let out_a = half.execute(
        StepRequest::grad(&ids, &targets, 2, 8)
            .plan(&plan)
            .keep_logits(),
    );
    let out_b = rounded.execute(
        StepRequest::grad(&ids, &targets, 2, 8)
            .plan(&plan)
            .keep_logits(),
    );
    let (ya, yb) = (out_a.logits.unwrap(), out_b.logits.unwrap());
    for (a, b) in ya.as_slice().iter().zip(yb.as_slice()) {
        assert!(
            (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
            "sparse forward diverged: {a} vs {b}"
        );
    }
    let mut grads_a = Vec::new();
    half.for_each_param(&mut |p| {
        if let Some(g) = &p.grad {
            grads_a.push((p.name.clone(), g.as_slice().to_vec()));
        }
    });
    let mut checked = 0;
    rounded.for_each_param(&mut |p| {
        if let Some(g) = &p.grad {
            let (name, ga) = grads_a
                .iter()
                .find(|(n, _)| n == &p.name)
                .expect("grad present in both");
            for (x, y) in ga.iter().zip(g.as_slice()) {
                assert!(
                    (x - y).abs() <= 1e-3 * (1.0 + y.abs()),
                    "{name}: grad diverged: {x} vs {y}"
                );
            }
            checked += 1;
        }
    });
    assert!(checked > 0, "no gradients compared");
}

#[test]
fn measured_backbone_footprint_hits_quantized_gates() {
    let build = |precision: Precision| {
        let before = memtrack::current_bytes();
        let mut model = TransformerModel::new(ModelConfig::opt_sim_small(), 42);
        model.freeze_all();
        model.set_precision(precision);
        let measured = memtrack::current_bytes() - before;
        // The dtype-accounted sum agrees with the allocator-tracked delta.
        assert_eq!(model.param_storage_bytes(), measured, "{precision}");
        (model, measured)
    };
    let (_m32, f32_bytes) = build(Precision::F32);
    for (precision, gate) in [
        (Precision::Int8Frozen, 0.30),
        (Precision::Nf4Frozen, 0.17),
        // 2:4 matrices are 0.5625x (half the values plus one mask byte per
        // group of four); biases/LayerNorm staying f32 keeps it under 0.60.
        (Precision::Nm24Frozen, 0.60),
    ] {
        let (_m, bytes) = build(precision);
        let ratio = bytes as f64 / f32_bytes as f64;
        assert!(
            ratio <= gate,
            "measured {precision} backbone must be ≤{gate}x of f32: {ratio} \
             ({bytes} vs {f32_bytes})"
        );
    }
}

#[test]
fn quantized_storage_loss_curves_track_f32_within_envelope() {
    // Same shape as the f16 test, but the quantized arms train with dynamic
    // loss scaling (the QLoRA recipe this reproduces pairs a rounded
    // backbone with scaled adapter gradients). Coarser codecs sit further
    // from the f32 function, so their envelopes are wider — the property
    // under test is that the gap does not *compound* over steps.
    const STEPS: usize = 24;
    let run = |precision: Precision, scaled: bool| -> Vec<f32> {
        let mut model = TransformerModel::new(ModelConfig::test_tiny(), 7);
        model.freeze_all();
        model.set_precision(precision);
        PeftMethod::lora_default().apply(&mut model, 9);
        let mut opt = Adam::new(0.01);
        let mut scaler = LossScaler::default();
        let mut losses = Vec::with_capacity(STEPS);
        for step in 0..STEPS {
            let ids = batch(&model, 2, 8, 100 + (step % 3) as u64);
            let targets = prompt_aware_targets(&ids, 2, 8, 0);
            let req = StepRequest::train(&ids, &targets, 2, 8, &mut opt);
            let req = if scaled {
                req.loss_scale(&mut scaler)
            } else {
                req
            };
            let out = model.execute(req);
            assert!(!out.skipped, "{precision} step {step}: unexpected overflow");
            losses.push(out.loss);
        }
        assert_eq!(scaler.overflows(), 0, "{precision}");
        losses
    };
    let f32_curve = run(Precision::F32, false);
    for (precision, tolerance) in [
        (Precision::Int8Frozen, 0.10f32),
        (Precision::Nf4Frozen, 0.25f32),
    ] {
        let curve = run(precision, true);
        let mut max_diff = 0.0f32;
        for (step, (a, b)) in curve.iter().zip(&f32_curve).enumerate() {
            let d = (a - b).abs();
            assert!(
                d <= tolerance,
                "step {step}: {precision} loss {a} vs f32 loss {b} (|Δ| = {d} > {tolerance})"
            );
            max_diff = max_diff.max(d);
        }
        // The quantized run must actually train.
        assert!(
            curve.last().unwrap() < curve.first().unwrap(),
            "{precision}"
        );
        println!("{precision}: max per-step loss divergence over {STEPS} steps: {max_diff}");
    }
}

/// The quantized twin of the f16 sparse-path test, with a stronger claim:
/// because the slab decode is strictly elementwise over flat indices, the
/// quantized model's sparse execution must be **bit-identical** to an f32
/// model whose weights were pre-rounded through the codec up front — on
/// logits and on every gradient.
#[test]
fn sparse_path_on_quantized_storage_matches_rounded_f32_model_exactly() {
    for precision in [
        Precision::Int8Frozen,
        Precision::Nf4Frozen,
        Precision::Nm24Frozen,
    ] {
        let cfg = ModelConfig::test_tiny();
        let mut quant = TransformerModel::new(cfg.clone(), 13);
        let mut rounded = TransformerModel::new(cfg, 13); // same seed, same weights
        quant.freeze_all();
        rounded.freeze_all();
        // Round every ≥2-D frozen param of `rounded` through the codec in
        // place, mirroring exactly what the storage demotion does to `quant`.
        rounded.for_each_param(&mut |p| {
            if !p.trainable && p.shape().len() >= 2 {
                match precision {
                    Precision::Int8Frozen => lx_quant::q8::round_slice(p.value.as_mut_slice()),
                    Precision::Nf4Frozen => lx_quant::nf4::round_slice(p.value.as_mut_slice()),
                    Precision::Nm24Frozen => {
                        let cols = *p.shape().last().unwrap();
                        let rows = p.value.as_slice().len() / cols;
                        lx_tensor::nm::round_slice(p.value.as_mut_slice(), rows, cols, 2, 4);
                    }
                    _ => unreachable!(),
                }
            }
        });
        quant.set_precision(precision);
        PeftMethod::lora_default().apply(&mut quant, 21);
        PeftMethod::lora_default().apply(&mut rounded, 21);

        let mut plan = lx_model::SparsePlan::dense(quant.config.n_layers);
        for layer in plan.layers.iter_mut() {
            layer.mlp = Some(Arc::new(NeuronBlockSet::from_indices(
                vec![0, 2, 5, 7],
                8,
                4,
            )));
        }
        let ids = batch(&quant, 2, 8, 31);
        let targets = prompt_aware_targets(&ids, 2, 8, 0);
        let out_a = quant.execute(
            StepRequest::grad(&ids, &targets, 2, 8)
                .plan(&plan)
                .keep_logits(),
        );
        let out_b = rounded.execute(
            StepRequest::grad(&ids, &targets, 2, 8)
                .plan(&plan)
                .keep_logits(),
        );
        let (ya, yb) = (out_a.logits.unwrap(), out_b.logits.unwrap());
        for (i, (a, b)) in ya.as_slice().iter().zip(yb.as_slice()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{precision} logit {i}: {a} vs {b}"
            );
        }
        let mut grads_a = Vec::new();
        quant.for_each_param(&mut |p| {
            if let Some(g) = &p.grad {
                grads_a.push((p.name.clone(), g.as_slice().to_vec()));
            }
        });
        let mut checked = 0;
        rounded.for_each_param(&mut |p| {
            if let Some(g) = &p.grad {
                let (name, ga) = grads_a
                    .iter()
                    .find(|(n, _)| n == &p.name)
                    .expect("grad present in both");
                for (x, y) in ga.iter().zip(g.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{precision} {name}: {x} vs {y}");
                }
                checked += 1;
            }
        });
        assert!(checked > 0, "no gradients compared");
    }
}

/// Slab-cache counters on a quantized backbone: steps that repeat a plan
/// must carry every slab over instead of re-running the nibble decode, and
/// a drifted plan re-decodes only what drifted in.
#[test]
fn carried_slabs_skip_re_dequant_on_quantized_backbone() {
    let mut m = TransformerModel::new(ModelConfig::test_tiny(), 19);
    m.freeze_all();
    m.set_precision(Precision::Nf4Frozen);
    PeftMethod::lora_default().apply(&mut m, 23);
    let n_layers = m.config.n_layers;
    let set = |blocks: Vec<u32>| {
        let mut plan = lx_model::SparsePlan::dense(n_layers);
        for layer in plan.layers.iter_mut() {
            layer.mlp = Some(Arc::new(NeuronBlockSet::from_indices(blocks.clone(), 8, 4)));
        }
        plan
    };
    let ids = batch(&m, 1, 8, 43);
    let targets = prompt_aware_targets(&ids, 1, 8, 0);
    let plan_a = set(vec![0, 2, 5]);
    m.execute(StepRequest::grad(&ids, &targets, 1, 8).plan(&plan_a));
    let (dec0, reused0) = m.slab_cache_stats();
    let layers = n_layers as u64;
    assert_eq!(dec0, 3 * layers, "first step decodes every active slab");
    assert_eq!(reused0, 0);
    // Unchanged plan: zero further decodes, every slab carried.
    m.execute(StepRequest::grad(&ids, &targets, 1, 8).plan(&plan_a));
    let (dec1, reused1) = m.slab_cache_stats();
    assert_eq!(dec1, dec0, "carried slabs must skip the nibble decode");
    assert_eq!(reused1, 3 * layers);
    // One block drifts: exactly one new decode per layer, two carried.
    let plan_b = set(vec![0, 2, 6]);
    m.execute(StepRequest::grad(&ids, &targets, 1, 8).plan(&plan_b));
    let (dec2, reused2) = m.slab_cache_stats();
    assert_eq!(dec2, dec1 + layers, "only the drifted-in slab decodes");
    assert_eq!(reused2, reused1 + 2 * layers);
}

#[test]
fn tenant_adapter_lifecycle_works_on_quantized_backbone() {
    for precision in [Precision::Int8Frozen, Precision::Nf4Frozen] {
        let mut m = TransformerModel::new(ModelConfig::test_tiny(), 29);
        m.freeze_all();
        m.set_precision(precision);
        let adapter = TenantAdapter::initialise(&mut m, PeftMethod::lora_default(), 3);
        assert_eq!(m.num_trainable(), 0);
        assert_eq!(m.precision(), precision, "detach keeps precision");
        adapter.attach_to(&mut m);
        let ids = batch(&m, 1, 8, 47);
        let before = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
        let extracted = TenantAdapter::extract_from(&mut m, PeftMethod::lora_default(), 3);
        lx_peft::detach(&mut m);
        extracted.attach_to(&mut m);
        let after = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
        assert_eq!(
            before.as_slice(),
            after.as_slice(),
            "{precision}: attach/extract on a quantized backbone must restore the function"
        );
        // Merging folds the adapter into (promoted) f32 weights; the merged
        // model must compute the same function the adapted one did.
        lx_peft::merge::merge_all(&mut m);
        let merged = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
        for (a, b) in merged.as_slice().iter().zip(after.as_slice()) {
            assert!(
                (a - b).abs() <= 1e-3 * (1.0 + b.abs()),
                "{precision}: merge changed the function: {a} vs {b}"
            );
        }
    }
}

#[test]
fn tenant_adapter_lifecycle_works_on_f16_backbone() {
    let mut m = TransformerModel::new(ModelConfig::test_tiny(), 17);
    m.freeze_all();
    m.set_precision(Precision::F16Frozen);
    let adapter = TenantAdapter::initialise(&mut m, PeftMethod::lora_default(), 3);
    assert_eq!(m.num_trainable(), 0);
    assert_eq!(
        m.precision(),
        Precision::F16Frozen,
        "detach keeps precision"
    );
    adapter.attach_to(&mut m);
    let ids = batch(&m, 1, 8, 41);
    let before = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
    let extracted = TenantAdapter::extract_from(&mut m, PeftMethod::lora_default(), 3);
    lx_peft::detach(&mut m);
    extracted.attach_to(&mut m);
    let after = m.execute(StepRequest::infer(&ids, 1, 8)).logits.unwrap();
    assert_eq!(
        before.as_slice(),
        after.as_slice(),
        "attach/extract on a half backbone must restore the exact function"
    );
}

/// SPP-style merge on a 2:4 backbone: folding trained adapter deltas into
/// the weights must re-apply the backbone's group masks, so every merged
/// matrix is provably still 2:4 — same mask bytes bit for bit, zero
/// violations when the captured mask is re-applied to the decoded result.
#[test]
fn merge_on_nm24_backbone_preserves_masks_bit_exactly() {
    let mut m = TransformerModel::new(ModelConfig::test_tiny(), 37);
    m.freeze_all();
    m.set_precision(Precision::Nm24Frozen);
    PeftMethod::lora_default().apply(&mut m, 41);
    let mut masks_before: Vec<(String, Vec<u8>)> = Vec::new();
    m.for_each_param(&mut |p| {
        if let Some(masks) = p.frozen.as_ref().and_then(|s| s.masks()) {
            masks_before.push((p.name.clone(), masks.to_vec()));
        }
    });
    assert!(!masks_before.is_empty(), "no N:M-stored backbone weights");
    // A few training steps make the LoRA deltas nonzero (lora_b starts at
    // zero, which would make the merge a trivial no-op).
    let mut opt = Adam::new(0.01);
    for step in 0..3 {
        let ids = batch(&m, 2, 8, 300 + step);
        let targets = prompt_aware_targets(&ids, 2, 8, 0);
        m.execute(StepRequest::train(&ids, &targets, 2, 8, &mut opt));
    }
    lx_peft::merge::merge_all(&mut m);
    let mut checked = 0;
    m.for_each_param(&mut |p| {
        let Some((_, expect)) = masks_before.iter().find(|(n, _)| n == &p.name) else {
            return;
        };
        let s = p
            .frozen
            .as_ref()
            .filter(|s| s.dtype() == lx_tensor::Dtype::Nm24)
            .unwrap_or_else(|| panic!("{}: merge must keep N:M storage", p.name));
        assert_eq!(
            s.masks(),
            Some(&expect[..]),
            "{}: mask bytes changed",
            p.name
        );
        // The decoded merged matrix obeys its own mask exactly: re-applying
        // it finds nothing left to zero.
        let mut dense = s.to_f32_vec();
        let (rows, cols) = (s.rows(), s.cols());
        assert_eq!(
            lx_tensor::nm::apply_mask(&mut dense, expect, rows, cols, lx_tensor::nm::NM_M),
            0,
            "{}: merged weights violate the 2:4 pattern",
            p.name
        );
        checked += 1;
    });
    assert_eq!(checked, masks_before.len(), "every N:M weight re-checked");
}

/// The N:M plan's training dynamics on opt-sim-small: 2:4 pruning perturbs
/// the function once, at demotion — the stored survivor bits never change
/// and all accumulation is f32, so the gap must not compound. Documented
/// envelope: over 24 LoRA steps the per-step loss stays within **0.10
/// absolute** of the dense f32 run.
#[test]
fn nm24_loss_curve_tracks_dense_f32_within_envelope() {
    const TOLERANCE: f32 = 0.10;
    const STEPS: usize = 24;
    let run = |precision: Precision| -> Vec<f32> {
        let mut model = TransformerModel::new(ModelConfig::opt_sim_small(), 7);
        model.freeze_all();
        model.set_precision(precision);
        PeftMethod::lora_default().apply(&mut model, 9);
        let mut opt = Adam::new(0.01);
        let mut losses = Vec::with_capacity(STEPS);
        for step in 0..STEPS {
            // Three fixed batches cycled, identical across both runs. Larger
            // batches than the tiny-model envelope tests: the one-time
            // pruning perturbation is compared per batch, so more tokens
            // average out the batch-specific component of the gap.
            let ids = batch(&model, 4, 16, 100 + (step % 3) as u64);
            let targets = prompt_aware_targets(&ids, 4, 16, 0);
            losses.push(
                model
                    .execute(StepRequest::train(&ids, &targets, 4, 16, &mut opt))
                    .loss,
            );
        }
        losses
    };
    let dense_curve = run(Precision::F32);
    let nm_curve = run(Precision::Nm24Frozen);
    let mut max_diff = 0.0f32;
    for (step, (a, b)) in nm_curve.iter().zip(&dense_curve).enumerate() {
        let d = (a - b).abs();
        assert!(
            d <= TOLERANCE,
            "step {step}: nm24 loss {a} vs dense loss {b} (|Δ| = {d} > {TOLERANCE})"
        );
        max_diff = max_diff.max(d);
    }
    // Both runs must actually train.
    assert!(dense_curve.last().unwrap() < dense_curve.first().unwrap());
    assert!(nm_curve.last().unwrap() < nm_curve.first().unwrap());
    println!("nm24: max per-step loss divergence over {STEPS} steps: {max_diff}");
}
