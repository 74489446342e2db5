//! Fine-tuning memory accounting (paper Fig. 8).
//!
//! Components per device for one training step:
//! parameters (f16), gradients + optimizer state for the trainable fraction
//! (f32), and activations — where dense attention keeps `O(s²)` score
//! buffers but Long Exposure keeps only the active blocks (`O(s)`), and the
//! "optimal" variant additionally leaves frozen MLP weights on the host,
//! shipping only active neuron blocks to the device.

use crate::cost::DeviceSpec;
use lx_model::ModelConfig;
use lx_tensor::Dtype;

/// Execution variant being accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryMode {
    /// Dense PEFT baseline.
    Dense,
    /// Long Exposure: block-sparse attention buffers.
    LongExposure,
    /// Long Exposure + CPU-offloaded frozen MLP weights (paper's "optimal").
    LongExposureOptimal,
}

/// Byte-level breakdown of device memory for one step.
#[derive(Debug, Clone)]
pub struct MemoryBreakdown {
    pub params: f64,
    pub grads_and_optimizer: f64,
    pub activations: f64,
    pub attention_buffers: f64,
}

impl MemoryBreakdown {
    pub fn total(&self) -> f64 {
        self.params + self.grads_and_optimizer + self.activations + self.attention_buffers
    }

    pub fn total_gb(&self) -> f64 {
        self.total() / 1e9
    }

    /// Does this footprint exceed the device?
    pub fn oom_on(&self, dev: &DeviceSpec) -> bool {
        self.total_gb() > dev.mem_capacity_gb
    }
}

/// Account one training step with the paper's `F16Frozen` parameter plan.
///
/// `attn_density` / `mlp_density` are the Long Exposure block densities
/// (ignored in `Dense` mode); `trainable_fraction` drives grads + optimizer.
pub fn step_memory(
    cfg: &ModelConfig,
    batch: usize,
    seq: usize,
    mode: MemoryMode,
    attn_density: f64,
    mlp_density: f64,
    trainable_fraction: f64,
) -> MemoryBreakdown {
    step_memory_at(
        cfg,
        batch,
        seq,
        mode,
        attn_density,
        mlp_density,
        trainable_fraction,
        Dtype::F16,
    )
}

/// Bytes the backbone occupies when `count` parameters are stored at
/// `dtype` — [`Dtype::bytes_for`], so the block-quantized dtypes include
/// their per-block scales exactly as `FrozenTensor` registers them.
fn param_bytes(count: f64, dtype: Dtype) -> f64 {
    dtype.bytes_for(count as usize) as f64
}

/// [`step_memory`] with an explicit backbone-storage dtype (f16 for the
/// paper's plan, `I8Block`/`Nf4Block` for the lx-quant plans).
#[allow(clippy::too_many_arguments)]
pub fn step_memory_at(
    cfg: &ModelConfig,
    batch: usize,
    seq: usize,
    mode: MemoryMode,
    attn_density: f64,
    mlp_density: f64,
    trainable_fraction: f64,
    param_dtype: Dtype,
) -> MemoryBreakdown {
    let (b, s) = (batch as f64, seq as f64);
    let d = cfg.d_model as f64;
    let ff = cfg.d_ff as f64;
    let l = cfg.n_layers as f64;
    let h = cfg.n_heads as f64;
    let v = cfg.vocab_size as f64;
    let n_params = cfg.param_count() as f64;
    // Element sizes come from the storage layer's dtype table, not local
    // constants, so this model cannot drift from what `FrozenTensor`/
    // `Tensor` actually occupy (and register with memtrack).
    let f32b = Dtype::F32.size_bytes() as f64;

    // Parameters at the frozen-storage dtype. In optimal mode, frozen MLP
    // weights (the bulk) live on the host; only active blocks are resident.
    let mlp_weight_params = l * 2.0 * d * ff;
    let params = match mode {
        MemoryMode::LongExposureOptimal => {
            param_bytes(n_params - mlp_weight_params, param_dtype)
                + param_bytes(mlp_weight_params, param_dtype) * mlp_density
        }
        _ => param_bytes(n_params, param_dtype),
    };

    // Trainable fraction: f32 grads + Adam m,v (three f32 words per param).
    let grads_and_optimizer = 3.0 * f32b * n_params * trainable_fraction;

    // Activation checkpoints kept for backward: per layer ≈ 6 hidden-sized
    // tensors (f32) plus MLP activations; plus the logits buffer.
    let mlp_act = match mode {
        MemoryMode::Dense => b * s * ff,
        _ => b * s * ff * mlp_density,
    };
    let activations = f32b * (l * (6.0 * b * s * d + mlp_act) + b * s * v);

    // Attention probability buffers (the O(s²) vs O(s) term), f32.
    let attention_buffers = match mode {
        MemoryMode::Dense => f32b * l * b * h * s * s,
        _ => f32b * l * b * h * s * s * attn_density,
    };

    MemoryBreakdown {
        params,
        grads_and_optimizer,
        activations,
        attention_buffers,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LORA_FRAC: f64 = 0.003;

    #[test]
    fn attention_buffers_scale_quadratically_when_dense() {
        let cfg = ModelConfig::opt_1_3b();
        let m512 = step_memory(&cfg, 4, 512, MemoryMode::Dense, 1.0, 1.0, LORA_FRAC);
        let m1024 = step_memory(&cfg, 4, 1024, MemoryMode::Dense, 1.0, 1.0, LORA_FRAC);
        let ratio = m1024.attention_buffers / m512.attention_buffers;
        assert!((ratio - 4.0).abs() < 0.01, "quadratic: {ratio}");
    }

    #[test]
    fn long_exposure_reduces_memory() {
        let cfg = ModelConfig::opt_1_3b();
        let dense = step_memory(&cfg, 4, 1024, MemoryMode::Dense, 1.0, 1.0, LORA_FRAC);
        let lx = step_memory(
            &cfg,
            4,
            1024,
            MemoryMode::LongExposure,
            0.12,
            0.45,
            LORA_FRAC,
        );
        let opt = step_memory(
            &cfg,
            4,
            1024,
            MemoryMode::LongExposureOptimal,
            0.12,
            0.45,
            LORA_FRAC,
        );
        assert!(lx.total() < dense.total());
        assert!(opt.total() < lx.total());
        // Paper reports up to 2.77× reduction for the optimal variant at
        // long sequences; accept a broad band around that shape.
        let reduction = dense.total() / opt.total();
        assert!((1.5..4.0).contains(&reduction), "reduction {reduction}");
    }

    #[test]
    fn oom_detection_matches_paper_pattern() {
        // Paper Fig. 8: OPT-1.3B dense runs out of memory at long sequences
        // on A100 while Long Exposure fits.
        let cfg = ModelConfig::opt_1_3b();
        let dev = DeviceSpec::a100();
        let dense_long = step_memory(&cfg, 4, 4096, MemoryMode::Dense, 1.0, 1.0, LORA_FRAC);
        let lx_long = step_memory(
            &cfg,
            4,
            4096,
            MemoryMode::LongExposure,
            0.08,
            0.45,
            LORA_FRAC,
        );
        assert!(dense_long.oom_on(&dev), "dense at 4k seq should OOM");
        assert!(!lx_long.oom_on(&dev), "Long Exposure at 4k seq should fit");
    }

    #[test]
    fn offload_reduces_params_only() {
        let cfg = ModelConfig::opt_350m();
        let lx = step_memory(&cfg, 2, 512, MemoryMode::LongExposure, 0.2, 0.5, LORA_FRAC);
        let opt = step_memory(
            &cfg,
            2,
            512,
            MemoryMode::LongExposureOptimal,
            0.2,
            0.5,
            LORA_FRAC,
        );
        assert!(opt.params < lx.params);
        assert_eq!(opt.activations, lx.activations);
        assert_eq!(opt.attention_buffers, lx.attention_buffers);
    }

    #[test]
    fn quantized_backbone_shrinks_params_only() {
        let cfg = ModelConfig::opt_1_3b();
        let at =
            |dtype| step_memory_at(&cfg, 4, 1024, MemoryMode::Dense, 1.0, 1.0, LORA_FRAC, dtype);
        let f16 = at(Dtype::F16);
        let i8 = at(Dtype::I8Block);
        let nf4 = at(Dtype::Nf4Block);
        // Codes + per-block scales: int8 ≈ (1 + 4/64)/2 of f16, NF4 ≈ half
        // of int8 again.
        assert!((i8.params / f16.params - 0.53125).abs() < 0.01);
        assert!((nf4.params / f16.params - 0.28125).abs() < 0.01);
        // Everything that is not parameter storage is dtype-independent.
        assert_eq!(i8.activations, f16.activations);
        assert_eq!(i8.attention_buffers, f16.attention_buffers);
        assert_eq!(i8.grads_and_optimizer, f16.grads_and_optimizer);
    }

    #[test]
    fn full_ft_optimizer_state_dwarfs_lora() {
        let cfg = ModelConfig::opt_1_3b();
        let full = step_memory(&cfg, 4, 512, MemoryMode::Dense, 1.0, 1.0, 1.0);
        let lora = step_memory(&cfg, 4, 512, MemoryMode::Dense, 1.0, 1.0, LORA_FRAC);
        assert!(full.grads_and_optimizer > 100.0 * lora.grads_and_optimizer);
    }
}
