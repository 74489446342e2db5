//! Parameter-storage precision plans.
//!
//! The paper fine-tunes with FP16 parameters and FP32 compute (§VII-A);
//! [`Precision::F16Frozen`] reproduces the storage side of that recipe:
//! frozen backbone *matrices* (attention projections, MLP weights, embedding
//! tables) are demoted to half storage, while everything numerically
//! sensitive — biases, LayerNorm affine parameters, trainable PEFT adapters,
//! gradients and optimizer state — stays f32. Compute is f32 throughout;
//! the f16 bits are decoded inside the GEMM pack routines (an f16
//! `lx_kernels::BOperand`), so storage is halved without a half-arithmetic
//! path.
//!
//! [`Precision::Int8Frozen`] and [`Precision::Nf4Frozen`] push the same
//! recipe past f16 with the `lx-quant` block codecs (QLoRA lineage): frozen
//! matrices store int8 or NF4 codes plus one f32 absmax scale per 64-element
//! block, ~0.27x and ~0.14x of the f32 bytes respectively. The demotion
//! rule, the fused dequant-in-pack GEMMs, and the sparse-path slab decode
//! all mirror the f16 plan — one `Precision` dispatch covers the whole
//! storage family.
//!
//! Pair with [`LossScaler`](crate::optim::LossScaler) when training: the
//! rounded backbone shifts activation magnitudes slightly, and scaling keeps
//! small adapter gradients out of the f32 underflow range the same way the
//! paper's FP16 runs do. The quantized plans perturb the backbone more than
//! f16 does (see the precision-differential loss envelopes in
//! `tests/tests/precision_differential.rs`), but the adapters still train
//! because they — and all gradients — stay f32.

use lx_tensor::Dtype;

/// Storage plan for a model's parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Everything stored f32 (the seed behaviour).
    #[default]
    F32,
    /// Frozen backbone matrices stored f16; trainable parameters, biases,
    /// LayerNorm, gradients and optimizer state stay f32.
    F16Frozen,
    /// Frozen backbone matrices stored as per-block-scaled symmetric int8
    /// (one f32 absmax scale per 64 elements); everything else stays f32.
    Int8Frozen,
    /// Frozen backbone matrices stored as NF4 4-bit normal-float codes (two
    /// per byte, one f32 absmax scale per 64 elements); everything else
    /// stays f32.
    Nf4Frozen,
    /// Frozen backbone matrices magnitude-pruned to 2:4 structured sparsity
    /// and stored compacted (kept values bit-exact f32 + one index-mask byte
    /// per group, 0.5625x of the f32 bytes); everything else stays f32.
    /// Unlike the quantized plans the demotion changes the *function* (half
    /// the weights become exact zeros, SLoPe/SPP lineage) but the stored
    /// survivors are exact, so compute on the pruned weights is bit-identical
    /// to dense compute on their decoded form — and the fused GEMMs skip
    /// all-zero weight groups at pack time.
    Nm24Frozen,
}

impl Precision {
    /// Storage dtype of the frozen backbone matrices (`None` for the
    /// all-f32 plan).
    pub const fn frozen_dtype(self) -> Option<Dtype> {
        match self {
            Precision::F32 => None,
            Precision::F16Frozen => Some(Dtype::F16),
            Precision::Int8Frozen => Some(Dtype::I8Block),
            Precision::Nf4Frozen => Some(Dtype::Nf4Block),
            Precision::Nm24Frozen => Some(Dtype::Nm24),
        }
    }

    pub const fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::F16Frozen => "f16-frozen",
            Precision::Int8Frozen => "int8-frozen",
            Precision::Nf4Frozen => "nf4-frozen",
            Precision::Nm24Frozen => "nm24-frozen",
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
