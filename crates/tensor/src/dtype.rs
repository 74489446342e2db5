//! Element dtypes and their storage sizes.
//!
//! The single source of truth for "how many bytes does one element occupy":
//! the tensor types register these sizes with [`memtrack`](crate::memtrack),
//! and `lx-runtime`'s memory/cost models read them from here instead of
//! hard-coding byte counts — so the simulator cannot drift from what the
//! runtime actually stores.
//!
//! The block-quantized dtypes are *not* a whole number of bytes per element
//! (NF4 packs two codes per byte, and both carry one f32 scale per
//! 64-element block), so exact accounting goes through [`Dtype::bytes_for`];
//! [`Dtype::size_bytes`] stays for the byte-per-element dtypes and reports
//! the rounded-up code byte for the quantized ones.

/// Storage precision of a tensor buffer. The reduced dtypes are the codecs
/// of [`FrozenTensor`](crate::FrozenTensor). Variants are declared in the
/// order of the kernel-side [`BOperand`](lx_kernels::BOperand) kinds, whose
/// table owns the names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dtype {
    /// IEEE binary32 — all compute, activations, gradients, optimizer state.
    F32,
    /// IEEE binary16 — frozen-parameter storage.
    F16,
    /// Symmetric int8 with one f32 absmax scale per 64-element block
    /// (codecs in `lx-quant`).
    I8Block,
    /// NF4 4-bit normal-float codes, two per byte, one f32 absmax scale per
    /// 64-element block.
    Nf4Block,
    /// 2:4 structured sparsity: per row-group of 4 elements keep 2, stored
    /// as compacted f32s plus one index-bitmask byte per group (codec in
    /// `lx-quant`). Kept values are stored bit-exactly — the dtype is
    /// lossless on survivors.
    Nm24,
}

impl Dtype {
    /// Bytes per element, rounded **up** for the sub-byte/blocked dtypes
    /// (one code byte; excludes block scales). Exact totals — including NF4
    /// nibble packing and the per-block scales — come from
    /// [`bytes_for`](Self::bytes_for).
    pub const fn size_bytes(self) -> usize {
        match self {
            Dtype::F32 => 4,
            Dtype::F16 => 2,
            Dtype::I8Block | Dtype::Nf4Block => 1,
            // 2 f32 slots + 1 mask byte per 4 elements ≈ 2.25 bytes/elem,
            // rounded up.
            Dtype::Nm24 => 3,
        }
    }

    /// Exact storage bytes for a buffer of `numel` elements, including the
    /// per-block f32 scales of the quantized dtypes.
    pub const fn bytes_for(self, numel: usize) -> usize {
        match self {
            Dtype::F32 => 4 * numel,
            Dtype::F16 => 2 * numel,
            Dtype::I8Block => numel + lx_quant::n_blocks(numel) * 4,
            Dtype::Nf4Block => lx_quant::nibble_bytes(numel) + lx_quant::n_blocks(numel) * 4,
            // Flat view (one logical row): 2 compacted f32s per full group
            // of 4 plus one mask byte per group. Exact whenever the matrix
            // row length is a multiple of 4 (tail groups are per-row;
            // `FrozenTensor::bytes` accounts for them exactly).
            Dtype::Nm24 => {
                lx_quant::nm::slots_per_row(numel, 2, 4) * 4
                    + lx_quant::nm::groups_per_row(numel, 4)
            }
        }
    }

    /// The storage name: the `dtype` label of the GEMM metrics and of a
    /// persisted autotune policy.
    pub const fn name(self) -> &'static str {
        lx_kernels::BOperand::DTYPES[self as usize]
    }
}

impl std::fmt::Display for Dtype {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_match_storage_types() {
        assert_eq!(Dtype::F32.size_bytes(), std::mem::size_of::<f32>());
        assert_eq!(Dtype::F16.size_bytes(), std::mem::size_of::<u16>());
        assert_eq!(Dtype::F16.to_string(), "f16");
        assert_eq!(Dtype::I8Block.to_string(), "i8-block");
        assert_eq!(Dtype::Nf4Block.to_string(), "nf4-block");
    }

    #[test]
    fn names_come_from_the_kernel_operand_table() {
        use lx_kernels::{BOperand, NmView, Q4View, Q8View};
        let operands = [
            BOperand::F32(&[]),
            BOperand::F16(&[]),
            BOperand::Q8(Q8View::new(&[], &[])),
            BOperand::Q4(Q4View::new(&[], &[], 0)),
            BOperand::Nm(NmView::new(&[], &[], 0, 0, 2, 4)),
        ];
        let dtypes = [
            Dtype::F32,
            Dtype::F16,
            Dtype::I8Block,
            Dtype::Nf4Block,
            Dtype::Nm24,
        ];
        for (op, dtype) in operands.iter().zip(dtypes) {
            assert_eq!(op.dtype(), dtype.name());
        }
    }

    #[test]
    fn bytes_for_counts_codes_and_scales_exactly() {
        assert_eq!(Dtype::F32.bytes_for(10), 40);
        assert_eq!(Dtype::F16.bytes_for(10), 20);
        // 64 codes + 1 scale.
        assert_eq!(Dtype::I8Block.bytes_for(64), 64 + 4);
        // Tail block: 65 codes + 2 scales.
        assert_eq!(Dtype::I8Block.bytes_for(65), 65 + 8);
        // 32 packed bytes + 1 scale; odd length rounds the nibbles up.
        assert_eq!(Dtype::Nf4Block.bytes_for(64), 32 + 4);
        assert_eq!(Dtype::Nf4Block.bytes_for(65), 33 + 8);
        assert_eq!(Dtype::Nf4Block.bytes_for(0), 0);
    }

    #[test]
    fn quant_compression_ratios_beat_the_fig8_gates() {
        // The ISSUE gates: int8 ≤ 0.30x and nf4 ≤ 0.17x of f32 for
        // matrix-sized buffers.
        let n = 256 * 1024;
        let f32b = Dtype::F32.bytes_for(n) as f64;
        assert!(Dtype::I8Block.bytes_for(n) as f64 / f32b < 0.27);
        assert!(Dtype::Nf4Block.bytes_for(n) as f64 / f32b < 0.15);
    }

    #[test]
    fn nm24_bytes_are_nine_per_sixteen_of_f32() {
        // 2 kept f32s (8 bytes) + 1 mask byte per group of 4 = 9 bytes where
        // f32 spends 16: the 0.5625x the fig8 smoke gate checks.
        assert_eq!(Dtype::Nm24.bytes_for(4), 9);
        assert_eq!(Dtype::Nm24.bytes_for(1024), 1024 / 4 * 9);
        assert_eq!(Dtype::Nm24.bytes_for(0), 0);
        let n = 256 * 1024;
        let ratio = Dtype::Nm24.bytes_for(n) as f64 / Dtype::F32.bytes_for(n) as f64;
        assert_eq!(ratio, 0.5625);
        assert_eq!(Dtype::Nm24.to_string(), "nm-2:4");
        assert_eq!(Dtype::Nm24.size_bytes(), 3);
    }
}
