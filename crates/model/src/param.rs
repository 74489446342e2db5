//! Trainable parameter: a tensor, its (lazily allocated) gradient, and a
//! trainability flag. PEFT methods work by flipping these flags and adding
//! small extra parameters — exactly the paper's Table I setting.
//!
//! Storage precision: a parameter normally holds its values in [`value`]
//! (f32). Under the reduced [`Precision`](crate::Precision) plans frozen
//! backbone matrices are *demoted* ([`Param::demote`]) to a
//! [`FrozenTensor`] in [`frozen`] — f16 bits, int8/NF4 block codes, or 2:4
//! N:M compacted survivors — and [`value`] becomes an empty placeholder. The
//! compute paths consume the storage through the fused GEMMs (which decode
//! inside their pack stage, and for N:M skip all-zero weight groups) or
//! decode rows on load. Trainable parameters are never reduced-stored —
//! gradients and optimizer state stay f32, as the paper's mixed-precision
//! recipe requires.
//!
//! [`value`]: Param::value
//! [`frozen`]: Param::frozen

use lx_tensor::gemm::{matmul_operand, Epilogue, Operand};
use lx_tensor::{Dtype, FrozenTensor, Tensor};

/// A named model parameter.
#[derive(Debug)]
pub struct Param {
    pub name: String,
    /// f32 storage. Empty (`len() == 0`) while the parameter is
    /// reduced-stored.
    pub value: Tensor,
    /// Reduced storage; `Some` only for frozen parameters demoted by
    /// [`Param::demote`] (or [`Param::to_nm_with_mask`]). Holds the
    /// authoritative shape while present.
    pub frozen: Option<FrozenTensor>,
    /// Allocated on first accumulation; `None` for frozen params that never
    /// received a gradient (saving the optimizer-state memory PEFT avoids).
    pub grad: Option<Tensor>,
    pub trainable: bool,
}

impl Param {
    pub fn new(name: impl Into<String>, value: Tensor, trainable: bool) -> Self {
        Param {
            name: name.into(),
            value,
            frozen: None,
            grad: None,
            trainable,
        }
    }

    /// Frozen parameter (the pre-trained backbone default under PEFT).
    pub fn frozen(name: impl Into<String>, value: Tensor) -> Self {
        Self::new(name, value, false)
    }

    pub fn numel(&self) -> usize {
        self.frozen.as_ref().map_or(self.value.len(), |f| f.len())
    }

    /// Logical shape, whichever storage holds the values.
    pub fn shape(&self) -> &[usize] {
        self.frozen
            .as_ref()
            .map_or(self.value.shape(), |f| f.shape())
    }

    /// Storage precision of this parameter right now.
    pub fn dtype(&self) -> Dtype {
        self.frozen.as_ref().map_or(Dtype::F32, |f| f.dtype())
    }

    /// Whether the values live in reduced storage rather than f32.
    pub fn is_reduced(&self) -> bool {
        self.frozen.is_some()
    }

    /// Bytes occupied by the value storage (excludes any gradient). Reports
    /// the actual storage's footprint — for the block-quantized dtypes that
    /// includes the per-block scales, matching [`Dtype::bytes_for`].
    pub fn storage_bytes(&self) -> usize {
        self.frozen
            .as_ref()
            .map_or(self.value.len() * Dtype::F32.size_bytes(), |f| f.bytes())
    }

    /// Demote to reduced storage `dtype` ([`Dtype::F16`] rounds to nearest
    /// even, [`Dtype::I8Block`]/[`Dtype::Nf4Block`] block-quantize,
    /// [`Dtype::Nm24`] magnitude-prunes each 4-group to its 2 largest values
    /// and stores the survivors bit-exactly). No-op when already stored at
    /// `dtype`; other reduced storage is decoded first, and [`Dtype::F32`]
    /// is [`to_f32`](Self::to_f32). Panics for trainable parameters: the
    /// optimizer updates `value` in place, so trainable state must stay f32.
    pub fn demote(&mut self, dtype: Dtype) {
        if self.dtype() == dtype {
            return;
        }
        if dtype == Dtype::F32 {
            return self.to_f32();
        }
        self.assert_frozen();
        self.to_f32();
        self.store(FrozenTensor::from_tensor(&self.value, dtype));
    }

    /// [`demote`](Self::demote) to [`Dtype::Nm24`] under an externally
    /// supplied group mask (`lx_quant::nm` layout) instead of magnitude
    /// pruning — how a calibration-derived or merge-preserved sparsity
    /// pattern is installed.
    pub fn to_nm_with_mask(&mut self, masks: &[u8]) {
        self.assert_frozen();
        self.to_f32();
        let shape = self.value.shape().to_vec();
        self.store(FrozenTensor::nm_with_mask(
            self.value.as_slice(),
            &shape,
            masks,
        ));
    }

    fn assert_frozen(&self) {
        assert!(
            !self.trainable,
            "{}: trainable parameters must stay f32 (demote only frozen backbone weights)",
            self.name
        );
    }

    fn store(&mut self, frozen: FrozenTensor) {
        self.value = Tensor::zeros(&[0]);
        self.frozen = Some(frozen);
    }

    /// Promote back to f32 storage (exact decode of whatever reduced storage
    /// is present). No-op when already f32.
    pub fn to_f32(&mut self) {
        if let Some(f) = self.frozen.take() {
            self.value = f.to_tensor();
        }
    }

    /// The stored 2-D matrix as a GEMM operand, whichever storage holds it.
    fn operand(&self) -> Operand<'_> {
        self.frozen
            .as_ref()
            .map_or_else(|| self.value.operand(), |f| f.operand())
    }

    /// `x · W` on the trailing-2-D view of the value, fused-decoding when
    /// reduced-stored. This is the forward hot path for frozen weights.
    pub fn matmul(&self, x: &Tensor) -> Tensor {
        matmul_operand(x, self.operand(), false, Epilogue::None)
    }

    /// `x · Wᵀ`, fused-decoding when reduced-stored (the `dx` backward shape
    /// and the `x·Aᵀ`-style forward shape).
    pub fn matmul_nt(&self, x: &Tensor) -> Tensor {
        matmul_operand(x, self.operand(), true, Epilogue::None)
    }

    /// [`matmul`](Self::matmul) with a fused [`Epilogue`] applied at kernel
    /// write-back, whatever the storage dtype. Bit-identical to the unfused
    /// matmul followed by the equivalent bias/activation passes.
    pub fn matmul_ep(&self, x: &Tensor, ep: Epilogue<'_>) -> Tensor {
        matmul_operand(x, self.operand(), false, ep)
    }

    /// [`matmul_nt`](Self::matmul_nt) with a fused [`Epilogue`].
    pub fn matmul_nt_ep(&self, x: &Tensor, ep: Epilogue<'_>) -> Tensor {
        matmul_operand(x, self.operand(), true, ep)
    }

    /// Decode rows `[r0, r0 + n_rows)` of the 2-D view into `out`
    /// (`n_rows × cols`, contiguous), whatever the storage. This is the
    /// active-neuron-slab gather: every codec decodes rows bit-identically
    /// to the same rows of a full decode.
    pub fn decode_rows(&self, r0: usize, n_rows: usize, out: &mut [f32]) {
        let b = self.operand();
        debug_assert_eq!(out.len(), n_rows * b.cols, "{}: slab size", self.name);
        b.data.decode_rows(b.cols, r0, out);
    }

    /// Copy row `r` of the 2-D view into `out`, decoding if reduced-stored
    /// (embedding-table lookups).
    pub fn copy_row_into(&self, r: usize, out: &mut [f32]) {
        let b = self.operand();
        debug_assert_eq!(out.len(), b.cols, "{}: row width", self.name);
        b.data.decode_row(b.cols, r, out);
    }

    /// Add row `r` of the 2-D view into `out`, decoding if reduced-stored
    /// (positional-embedding accumulation).
    pub fn add_row_into(&self, r: usize, out: &mut [f32]) {
        let b = self.operand();
        debug_assert_eq!(out.len(), b.cols, "{}: row width", self.name);
        let base = r * b.cols;
        for (j, o) in out.iter_mut().enumerate() {
            *o += b.data.get(base + j);
        }
    }

    /// Accumulate a gradient tensor (allocates on first use).
    pub fn accumulate_grad(&mut self, grad: &Tensor) {
        match &mut self.grad {
            Some(g) => g.add_assign(grad),
            None => self.grad = Some(grad.clone()),
        }
    }

    /// Mutable access to the gradient buffer, allocating zeros if absent.
    pub fn grad_mut(&mut self) -> &mut Tensor {
        if self.grad.is_none() {
            self.grad = Some(Tensor::zeros(self.shape()));
        }
        self.grad.as_mut().unwrap()
    }

    /// Zero the gradient in place (keeps the allocation).
    pub fn zero_grad(&mut self) {
        if let Some(g) = &mut self.grad {
            g.zero_();
        }
    }

    /// Drop the gradient allocation entirely.
    pub fn clear_grad(&mut self) {
        self.grad = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_allocates_then_adds() {
        let mut p = Param::new("w", Tensor::zeros(&[2, 2]), true);
        assert!(p.grad.is_none());
        let g = Tensor::full(&[2, 2], 1.0);
        p.accumulate_grad(&g);
        p.accumulate_grad(&g);
        assert_eq!(p.grad.as_ref().unwrap().as_slice(), &[2.0; 4]);
    }

    #[test]
    fn zero_keeps_allocation_clear_drops_it() {
        let mut p = Param::new("w", Tensor::zeros(&[3]), true);
        p.grad_mut().as_mut_slice()[0] = 5.0;
        p.zero_grad();
        assert_eq!(p.grad.as_ref().unwrap().as_slice(), &[0.0; 3]);
        p.clear_grad();
        assert!(p.grad.is_none());
    }

    #[test]
    fn frozen_constructor() {
        let p = Param::frozen("emb", Tensor::zeros(&[4]));
        assert!(!p.trainable);
        assert_eq!(p.numel(), 4);
        assert_eq!(p.dtype(), Dtype::F32);
    }

    #[test]
    fn half_roundtrip_preserves_shape_and_counts() {
        let mut p = Param::frozen("w", Tensor::randn(&[8, 6], 1.0, 3));
        let before = p.value.clone();
        assert_eq!(p.storage_bytes(), 8 * 6 * 4);
        p.demote(Dtype::F16);
        assert_eq!(p.dtype(), Dtype::F16);
        assert!(p.is_reduced());
        assert_eq!(p.numel(), 48);
        assert_eq!(p.shape(), &[8, 6]);
        assert_eq!(p.storage_bytes(), 8 * 6 * 2);
        assert_eq!(p.value.len(), 0, "f32 buffer must be released");
        p.to_f32();
        assert!(!p.is_reduced());
        // Values round-tripped through f16 rounding.
        for (a, b) in p.value.as_slice().iter().zip(before.as_slice()) {
            assert!((a - b).abs() <= b.abs() * 1e-3 + 1e-7, "{a} vs {b}");
        }
    }

    #[test]
    fn quant_roundtrip_preserves_shape_and_counts() {
        for dtype in [Dtype::I8Block, Dtype::Nf4Block] {
            let mut p = Param::frozen("w", Tensor::randn(&[8, 6], 1.0, 4));
            let before = p.value.clone();
            p.demote(dtype);
            assert!(p.is_reduced());
            assert_eq!(p.dtype(), dtype);
            assert_eq!(p.numel(), 48);
            assert_eq!(p.shape(), &[8, 6]);
            assert_eq!(p.storage_bytes(), dtype.bytes_for(48));
            assert_eq!(p.value.len(), 0, "f32 buffer must be released");
            // Idempotent at the same dtype.
            p.demote(dtype);
            assert_eq!(p.dtype(), dtype);
            p.to_f32();
            assert!(!p.is_reduced());
            // Values round-tripped through the codec (coarse bound; exact
            // bounds live in lx-quant).
            for (a, b) in p.value.as_slice().iter().zip(before.as_slice()) {
                assert!((a - b).abs() < 1.0, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn quant_redemotion_switches_codec() {
        let mut p = Param::frozen("w", Tensor::randn(&[4, 4], 1.0, 5));
        p.demote(Dtype::I8Block);
        p.demote(Dtype::Nf4Block);
        assert_eq!(p.dtype(), Dtype::Nf4Block);
        p.demote(Dtype::F16);
        assert_eq!(p.dtype(), Dtype::F16);
    }

    #[test]
    fn nm_demotion_prunes_then_roundtrips_bit_exactly() {
        let mut p = Param::frozen("w", Tensor::randn(&[8, 8], 1.0, 6));
        // Oracle: the same pruning applied to a dense copy.
        let mut pruned = p.value.as_slice().to_vec();
        lx_tensor::nm::round_slice(&mut pruned, 8, 8, 2, 4);
        p.demote(Dtype::Nm24);
        assert!(p.is_reduced());
        assert_eq!(p.dtype(), Dtype::Nm24);
        assert_eq!(p.shape(), &[8, 8]);
        assert_eq!(p.numel(), 64);
        assert_eq!(p.storage_bytes(), Dtype::Nm24.bytes_for(64));
        assert_eq!(p.value.len(), 0, "f32 buffer must be released");
        // Idempotent.
        p.demote(Dtype::Nm24);
        assert_eq!(p.dtype(), Dtype::Nm24);
        p.to_f32();
        assert!(!p.is_reduced());
        for (a, b) in p.value.as_slice().iter().zip(&pruned) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn nm_redemotion_crosses_storage_families() {
        let mut p = Param::frozen("w", Tensor::randn(&[4, 8], 1.0, 7));
        p.demote(Dtype::F16);
        p.demote(Dtype::Nm24);
        assert_eq!(p.dtype(), Dtype::Nm24);
        p.demote(Dtype::I8Block);
        assert_eq!(p.dtype(), Dtype::I8Block);
        p.demote(Dtype::Nm24);
        assert_eq!(p.dtype(), Dtype::Nm24);
    }

    #[test]
    #[should_panic(expected = "stay f32")]
    fn trainable_params_cannot_be_nm_pruned() {
        let mut p = Param::new("w", Tensor::zeros(&[2, 4]), true);
        p.demote(Dtype::Nm24);
    }

    #[test]
    fn nm_matmuls_are_bit_identical_to_decoded_oracle() {
        let x = Tensor::randn(&[5, 8], 1.0, 31);
        let g = Tensor::randn(&[5, 7], 1.0, 32);
        let mut p = Param::frozen("w", Tensor::randn(&[8, 7], 1.0, 33));
        p.demote(Dtype::Nm24);
        // The codec is lossless on survivors, so unlike f16/quant the fused
        // path must match the decoded oracle bit for bit.
        let decoded = Param::frozen("w", p.frozen.as_ref().unwrap().to_tensor());
        for (a, b) in p
            .matmul(&x)
            .as_slice()
            .iter()
            .zip(decoded.matmul(&x).as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for (a, b) in p
            .matmul_nt(&g)
            .as_slice()
            .iter()
            .zip(decoded.matmul_nt(&g).as_slice())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn nm_row_helpers_decode_bit_identically() {
        let t = Tensor::randn(&[4, 6], 1.0, 34);
        let mut p = Param::frozen("emb", t.clone());
        p.demote(Dtype::Nm24);
        let full = p.frozen.as_ref().unwrap().to_f32_vec();
        let mut row = vec![0.0f32; 6];
        p.copy_row_into(2, &mut row);
        for (j, v) in row.iter().enumerate() {
            assert_eq!(v.to_bits(), full[2 * 6 + j].to_bits());
        }
        let mut acc = row.clone();
        p.add_row_into(2, &mut acc);
        for (a, b) in acc.iter().zip(&row) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
        let mut slab = vec![0.0f32; 2 * 6];
        p.decode_rows(1, 2, &mut slab);
        for (j, v) in slab.iter().enumerate() {
            assert_eq!(v.to_bits(), full[6 + j].to_bits());
        }
    }

    #[test]
    fn nm_external_mask_is_respected() {
        let t = Tensor::full(&[2, 4], 1.0);
        let mut p = Param::frozen("w", t);
        // Keep positions {0,1} in row 0's group and {2,3} in row 1's.
        p.to_nm_with_mask(&[0b0011, 0b1100]);
        let dec = p.frozen.as_ref().unwrap().to_f32_vec();
        assert_eq!(dec, vec![1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "stay f32")]
    fn trainable_params_cannot_be_demoted() {
        let mut p = Param::new("w", Tensor::zeros(&[2, 2]), true);
        p.demote(Dtype::F16);
    }

    #[test]
    #[should_panic(expected = "stay f32")]
    fn trainable_params_cannot_be_quantized() {
        let mut p = Param::new("w", Tensor::zeros(&[2, 2]), true);
        p.demote(Dtype::I8Block);
    }

    #[test]
    fn matmul_helpers_agree_across_storage() {
        let x = Tensor::randn(&[5, 8], 1.0, 11);
        let mut p = Param::frozen("w", Tensor::randn(&[8, 7], 1.0, 12));
        let y32 = p.matmul(&x);
        p.demote(Dtype::F16);
        // Oracle: decode the half weights and run the f32 kernel.
        let decoded = Param::frozen("w", p.frozen.as_ref().unwrap().to_tensor());
        let oracle = decoded.matmul(&x);
        let y16 = p.matmul(&x);
        for (a, b) in y16.as_slice().iter().zip(oracle.as_slice()) {
            assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
        // And the rounded result stays near the full-precision one.
        for (a, b) in y16.as_slice().iter().zip(y32.as_slice()) {
            assert!((a - b).abs() <= 3e-2 * (1.0 + b.abs()), "{a} vs {b}");
        }
        // matmul_nt: y·Wᵀ shape check against the same oracle.
        let g = Tensor::randn(&[5, 7], 1.0, 13);
        let wt_oracle = decoded.matmul_nt(&g);
        let wt = p.matmul_nt(&g);
        for (a, b) in wt.as_slice().iter().zip(wt_oracle.as_slice()) {
            assert!((a - b).abs() <= 1e-4 * (1.0 + b.abs()), "{a} vs {b}");
        }
    }

    #[test]
    fn quant_matmuls_match_dequantized_oracle() {
        let x = Tensor::randn(&[5, 8], 1.0, 21);
        let g = Tensor::randn(&[5, 7], 1.0, 22);
        for dtype in [Dtype::I8Block, Dtype::Nf4Block] {
            let mut p = Param::frozen("w", Tensor::randn(&[8, 7], 1.0, 23));
            p.demote(dtype);
            let decoded = Param::frozen("w", p.frozen.as_ref().unwrap().to_tensor());
            let y = p.matmul(&x);
            let oracle = decoded.matmul(&x);
            for (a, b) in y.as_slice().iter().zip(oracle.as_slice()) {
                assert!(
                    (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                    "{dtype}: {a} vs {b}"
                );
            }
            let wt = p.matmul_nt(&g);
            let wt_oracle = decoded.matmul_nt(&g);
            for (a, b) in wt.as_slice().iter().zip(wt_oracle.as_slice()) {
                assert!(
                    (a - b).abs() <= 1e-4 * (1.0 + b.abs()),
                    "{dtype}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn row_helpers_decode() {
        let t = Tensor::randn(&[4, 6], 1.0, 9);
        let mut p = Param::frozen("emb", t.clone());
        let mut row32 = vec![0.0f32; 6];
        p.copy_row_into(2, &mut row32);
        assert_eq!(row32, t.row(2));
        p.demote(Dtype::F16);
        let mut row16 = vec![0.0f32; 6];
        p.copy_row_into(2, &mut row16);
        for (a, b) in row16.iter().zip(t.row(2)) {
            assert!((a - b).abs() <= b.abs() * 1e-3 + 1e-7);
        }
        let mut acc = row16.clone();
        p.add_row_into(2, &mut acc);
        for (a, b) in acc.iter().zip(&row16) {
            assert!((a - 2.0 * b).abs() < 1e-6);
        }
    }

    #[test]
    fn row_helpers_decode_quant_bit_identically() {
        // 6-wide rows: every row boundary is mid-block, so this exercises
        // the flat-index scale resolution.
        let t = Tensor::randn(&[4, 6], 1.0, 10);
        for dtype in [Dtype::I8Block, Dtype::Nf4Block] {
            let mut p = Param::frozen("emb", t.clone());
            p.demote(dtype);
            let full = p.frozen.as_ref().unwrap().to_f32_vec();
            let mut row = vec![0.0f32; 6];
            p.copy_row_into(2, &mut row);
            for (j, v) in row.iter().enumerate() {
                assert_eq!(v.to_bits(), full[2 * 6 + j].to_bits(), "{dtype}");
            }
            let mut acc = row.clone();
            p.add_row_into(2, &mut acc);
            for (a, b) in acc.iter().zip(&row) {
                assert!((a - 2.0 * b).abs() < 1e-6);
            }
            let mut slab = vec![0.0f32; 2 * 6];
            p.decode_rows(1, 2, &mut slab);
            for (j, v) in slab.iter().enumerate() {
                assert_eq!(v.to_bits(), full[6 + j].to_bits(), "{dtype}");
            }
        }
    }
}
