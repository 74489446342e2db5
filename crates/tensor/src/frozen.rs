//! Reduced-precision storage for frozen parameters: [`FrozenTensor`].
//!
//! The paper fine-tunes with FP16 parameters and FP32 compute (§VII-A); this
//! reproduction keeps all *arithmetic* in f32 but stores frozen backbone
//! matrices in one of four codecs:
//!
//! * [`Dtype::F16`] — IEEE binary16 bits, 2 bytes per element;
//! * [`Dtype::I8Block`] / [`Dtype::Nf4Block`] — `lx-quant` int8 codes or NF4
//!   nibbles plus one f32 absmax scale per 64-element block;
//! * [`Dtype::Nm24`] — 2:4 structured sparsity (per row-group of 4 elements
//!   keep 2): compacted f32 survivors plus one index-bitmask byte per group.
//!   Survivors are stored bit-exactly, so decoding is lossless on them and
//!   exact-zero on pruned positions. The mask is first-class:
//!   [`FrozenTensor::masks`] hands it to the sparsity-preserving adapter
//!   merge (SPP lineage), which re-applies it after folding LoRA deltas.
//!
//! Every codec's buffers register with [`memtrack`] at their true footprint
//! through one register/unregister pair, which is what keeps the Fig. 8
//! measured-memory experiments honest. Compute consumes the storage through
//! [`FrozenTensor::operand`]: the fused GEMMs in `lx-kernels` decode inside
//! their load/pack stage, and row decodes (embedding lookups,
//! active-neuron-slab gathers) are bit-identical to the same rows of a full
//! decode, even when a window straddles quantization-block boundaries.

use crate::gemm::Operand;
use crate::memtrack;
use crate::nm::{NM_M, NM_N};
use crate::{Dtype, Tensor};
use lx_kernels::BOperand;
use lx_quant::{nf4, nm, q8, NmView, Q4View, Q8View};

/// The payload of a [`FrozenTensor`]: which codec the buffers belong to.
#[derive(Debug, Clone, PartialEq)]
enum Codec {
    F16(Vec<u16>),
    I8 {
        codes: Vec<i8>,
        scales: Vec<f32>,
    },
    /// Two NF4 codebook indices per byte.
    Nf4 {
        codes: Vec<u8>,
        scales: Vec<f32>,
    },
    Nm24 {
        vals: Vec<f32>,
        masks: Vec<u8>,
    },
}

/// A tensor in reduced storage: a shape plus a codec payload. The last
/// dimension is the row width of the 2-D view (and the pruning axis of the
/// N:M codec, whose groups never straddle rows).
#[derive(Debug, PartialEq)]
pub struct FrozenTensor {
    shape: Vec<usize>,
    codec: Codec,
}

impl FrozenTensor {
    /// Encode an f32 slice at `dtype` (f16 rounds to nearest-even, the block
    /// codecs quantize, N:M magnitude-prunes each 4-group to its 2 largest).
    /// Panics for [`Dtype::F32`], or if the length does not match the shape.
    pub fn from_f32(values: &[f32], shape: &[usize], dtype: Dtype) -> Self {
        let (rows, cols) = rows_cols(shape);
        check_len(values, shape);
        let codec = match dtype {
            Dtype::F16 => Codec::F16(lx_kernels::half::encode_slice(values)),
            Dtype::I8Block => {
                let (codes, scales) = q8::quantize(values);
                Codec::I8 { codes, scales }
            }
            Dtype::Nf4Block => {
                let (codes, scales) = nf4::quantize(values);
                Codec::Nf4 { codes, scales }
            }
            Dtype::Nm24 => {
                let (vals, masks) = nm::encode(values, rows, cols, NM_N, NM_M);
                Codec::Nm24 { vals, masks }
            }
            Dtype::F32 => panic!("FrozenTensor: {dtype} is not a reduced storage dtype"),
        };
        Self::new(shape, codec)
    }

    /// Encode a dense tensor at `dtype`.
    pub fn from_tensor(t: &Tensor, dtype: Dtype) -> Self {
        Self::from_f32(t.as_slice(), t.shape(), dtype)
    }

    /// Compact an f32 slice to 2:4 under an externally supplied mask (one
    /// bitmask byte per row-group, popcount ≤ 2) — the entry point for
    /// weights pruned offline with their own saliency criterion, and for
    /// merge-time re-application of a captured mask.
    pub fn nm_with_mask(values: &[f32], shape: &[usize], masks: &[u8]) -> Self {
        let (rows, cols) = rows_cols(shape);
        check_len(values, shape);
        let vals = nm::encode_with_mask(values, rows, cols, NM_N, NM_M, masks);
        let masks = masks.to_vec();
        Self::new(shape, Codec::Nm24 { vals, masks })
    }

    /// The one registration path: every constructor and clone ends here.
    fn new(shape: &[usize], codec: Codec) -> Self {
        let t = FrozenTensor {
            shape: shape.to_vec(),
            codec,
        };
        memtrack::register(t.capacity_bytes());
        t
    }

    /// The storage dtype.
    pub fn dtype(&self) -> Dtype {
        match self.codec {
            Codec::F16(_) => Dtype::F16,
            Codec::I8 { .. } => Dtype::I8Block,
            Codec::Nf4 { .. } => Dtype::Nf4Block,
            Codec::Nm24 { .. } => Dtype::Nm24,
        }
    }

    /// Borrowed decoding view of the 2-D matrix — what the fused GEMMs and
    /// the row decodes consume.
    pub fn operand(&self) -> Operand<'_> {
        let (rows, cols) = rows_cols(&self.shape);
        let data = match &self.codec {
            Codec::F16(bits) => BOperand::F16(bits),
            Codec::I8 { codes, scales } => BOperand::Q8(Q8View::new(codes, scales)),
            Codec::Nf4 { codes, scales } => BOperand::Q4(Q4View::new(codes, scales, self.len())),
            Codec::Nm24 { vals, masks } => {
                BOperand::Nm(NmView::new(vals, masks, rows, cols, NM_N, NM_M))
            }
        };
        Operand { data, rows, cols }
    }

    /// The per-group index bitmasks of an N:M tensor (one byte per row-group
    /// of 4) — the sparsity pattern an SPP-style merge re-applies after
    /// folding adapter deltas. `None` for the other codecs.
    pub fn masks(&self) -> Option<&[u8]> {
        match &self.codec {
            Codec::Nm24 { masks, .. } => Some(masks),
            _ => None,
        }
    }

    /// Decode the whole buffer into a fresh f32 tensor.
    pub fn to_tensor(&self) -> Tensor {
        let mut out = Tensor::zeros(&self.shape);
        self.decode_rows(0, self.rows(), out.as_mut_slice());
        out
    }

    /// Decode the whole buffer into a plain `Vec<f32>`.
    pub fn to_f32_vec(&self) -> Vec<f32> {
        let mut out = vec![0.0f32; self.len()];
        self.decode_rows(0, self.rows(), &mut out);
        out
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    pub fn len(&self) -> usize {
        self.shape.iter().product()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of rows when viewed as 2-D (product of all but the last dim).
    pub fn rows(&self) -> usize {
        rows_cols(&self.shape).0
    }

    /// Size of the last dimension.
    pub fn cols(&self) -> usize {
        rows_cols(&self.shape).1
    }

    /// Decode rows `[r0, r0 + n_rows)` of the 2-D view into `out`
    /// (`n_rows × cols`, contiguous) — the load path for embedding lookups
    /// and active-neuron-slab gathers.
    pub fn decode_rows(&self, r0: usize, n_rows: usize, out: &mut [f32]) {
        let c = self.cols();
        assert_eq!(out.len(), n_rows * c, "decode_rows: output length");
        self.operand().data.decode_rows(c, r0, out);
    }

    /// Storage bytes (codes, scales, survivors and masks). For the block
    /// codecs this equals [`Dtype::bytes_for`]; for N:M it equals it
    /// whenever `cols % 4 == 0` and is the true figure (per-row tail groups)
    /// otherwise.
    pub fn bytes(&self) -> usize {
        self.buffers().iter().map(|&(len, _)| len).sum()
    }

    /// What we told the memory tracker: capacity-based, so the
    /// register/unregister pair always balances. The encoders build
    /// exact-capacity vectors, so in practice this equals
    /// [`bytes`](Self::bytes).
    fn capacity_bytes(&self) -> usize {
        self.buffers().iter().map(|&(_, cap)| cap).sum()
    }

    /// `(len, capacity)` in bytes of each payload buffer.
    fn buffers(&self) -> [(usize, usize); 2] {
        fn sizes<T>(v: &Vec<T>) -> (usize, usize) {
            let elem = std::mem::size_of::<T>();
            (v.len() * elem, v.capacity() * elem)
        }
        match &self.codec {
            Codec::F16(bits) => [sizes(bits), (0, 0)],
            Codec::I8 { codes, scales } => [sizes(codes), sizes(scales)],
            Codec::Nf4 { codes, scales } => [sizes(codes), sizes(scales)],
            Codec::Nm24 { vals, masks } => [sizes(vals), sizes(masks)],
        }
    }
}

#[track_caller]
fn check_len(values: &[f32], shape: &[usize]) {
    assert_eq!(
        values.len(),
        shape.iter().product::<usize>(),
        "data length {} does not match shape {:?}",
        values.len(),
        shape
    );
}

/// 2-D factorization of a shape: (product of leading dims, last dim).
fn rows_cols(shape: &[usize]) -> (usize, usize) {
    let cols = *shape.last().unwrap_or(&0);
    let len: usize = shape.iter().product();
    (len.checked_div(cols).unwrap_or(0), cols)
}

impl Clone for FrozenTensor {
    fn clone(&self) -> Self {
        Self::new(&self.shape, self.codec.clone())
    }
}

impl Drop for FrozenTensor {
    fn drop(&mut self) {
        memtrack::unregister(self.capacity_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_matches_bytes_for_exactly() {
        for (dtype, shape) in [
            (Dtype::I8Block, vec![16usize, 20]), // 320 elems: tail block
            (Dtype::Nf4Block, vec![16, 20]),
            (Dtype::I8Block, vec![3, 21]), // 63 elems: single short block
            (Dtype::Nf4Block, vec![3, 21]),
        ] {
            let t = Tensor::randn(&shape, 1.0, 31);
            let numel = t.len();
            let before = crate::memtrack::current_bytes();
            let q = FrozenTensor::from_tensor(&t, dtype);
            let delta = crate::memtrack::current_bytes() - before;
            assert_eq!(delta, dtype.bytes_for(numel), "{dtype} measured");
            assert_eq!(q.bytes(), dtype.bytes_for(numel), "{dtype} reported");
            drop(q);
            assert_eq!(crate::memtrack::current_bytes(), before);
        }
    }

    #[test]
    fn roundtrip_preserves_shape_and_bounds_error() {
        let t = Tensor::randn(&[9, 33], 1.0, 32);
        for dtype in [Dtype::I8Block, Dtype::Nf4Block] {
            let q = FrozenTensor::from_tensor(&t, dtype);
            assert_eq!(q.dtype(), dtype);
            assert_eq!(q.shape(), &[9, 33]);
            assert_eq!(q.rows(), 9);
            assert_eq!(q.cols(), 33);
            let back = q.to_tensor();
            assert_eq!(back.shape(), t.shape());
            // Loose sanity bound (exact bounds are tested in lx-quant): the
            // worst NF4 gap is ~0.18·absmax, absmax ≲ 5σ here.
            for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
                assert!((a - b).abs() < 1.0, "{a} vs {b}");
            }
            assert_eq!(back.as_slice(), &q.to_f32_vec()[..]);
        }
    }

    #[test]
    fn decode_rows_is_bit_identical_to_full_decode() {
        // 33 cols: every row boundary lands mid-block, the case the sparse
        // slab gathers depend on.
        let t = Tensor::randn(&[12, 33], 1.0, 33);
        for dtype in [Dtype::I8Block, Dtype::Nf4Block] {
            let q = FrozenTensor::from_tensor(&t, dtype);
            let full = q.to_f32_vec();
            for (r0, n_rows) in [(0usize, 1usize), (3, 2), (7, 5), (11, 1)] {
                let mut window = vec![0.0f32; n_rows * 33];
                q.decode_rows(r0, n_rows, &mut window);
                for (i, v) in window.iter().enumerate() {
                    let f = full[r0 * 33 + i];
                    assert_eq!(v.to_bits(), f.to_bits(), "{dtype} row {r0}+{i}");
                }
            }
        }
    }

    #[test]
    fn clone_registers_its_own_buffer() {
        let t = Tensor::randn(&[8, 8], 1.0, 34);
        let before = crate::memtrack::current_bytes();
        let a = FrozenTensor::from_tensor(&t, Dtype::I8Block);
        let b = a.clone();
        assert_eq!(
            crate::memtrack::current_bytes() - before,
            2 * Dtype::I8Block.bytes_for(64)
        );
        assert_eq!(a, b);
        drop(a);
        drop(b);
        assert_eq!(crate::memtrack::current_bytes(), before);
    }

    #[test]
    #[should_panic(expected = "not a reduced storage dtype")]
    fn rejects_f32() {
        let _ = FrozenTensor::from_f32(&[1.0], &[1], Dtype::F32);
    }
}
