//! # lx-quant — block-quantized storage codecs
//!
//! Frozen backbone weights dominate the per-tenant memory bill; this crate
//! holds the codecs that shrink them past the f16 plan:
//!
//! * [`q8`] — symmetric int8 with one f32 absmax scale per 64-element block
//!   (`code = round(v / (absmax/127))`, dequant `code · scale`);
//! * [`nf4`] — an NF4-style 4-bit codec (QLoRA lineage): a 16-entry
//!   normal-float codebook on `[-1, 1]` plus one f32 absmax per block, two
//!   codes packed per byte;
//! * [`nm`] — N:M structured sparsity (2:4 by default): per row-group of M
//!   elements keep N, stored as compacted f32s plus one index-bitmask byte
//!   per group — lossless on survivors, exact zero elsewhere.
//!
//! Blocking is **flat**: blocks of [`BLOCK`] consecutive elements of the
//! row-major buffer, with a short tail block when `len % BLOCK != 0`. Blocks
//! may straddle row boundaries — dequantization is strictly elementwise
//! (`element i` needs only `codes[i]` and `scales[i / BLOCK]`), so decoding
//! any window of elements, in any order, is bit-identical to decoding the
//! whole buffer. That property is what lets the sparse MLP path decode only
//! active neuron slabs and still match a dense decode exactly.
//!
//! Non-finite inputs are clamped deterministically (the scale must never be
//! NaN and encode must be reproducible across runs): block absmax is taken
//! over *finite* values only, then `+inf → +absmax`, `-inf → -absmax`,
//! `NaN → 0`. An all-zero (or all-non-finite) block stores scale 0 and
//! decodes to exact zeros.
//!
//! This crate has zero dependencies; `lx-kernels` consumes the borrowed
//! views ([`Q8View`] / [`Q4View`]) inside its pack routines and `lx-tensor`
//! owns the allocation/accounting side (`FrozenTensor`).

pub mod nf4;
pub mod nm;
pub mod q8;

pub use nm::NmView;

/// Elements per quantization block (one f32 scale per block).
pub const BLOCK: usize = 64;

/// Number of scale blocks covering `len` elements (tail block included).
pub const fn n_blocks(len: usize) -> usize {
    len.div_ceil(BLOCK)
}

/// Bytes of packed nibble storage for `len` 4-bit codes.
pub const fn nibble_bytes(len: usize) -> usize {
    len.div_ceil(2)
}

/// Deterministic non-finite policy, applied before encoding: finite values
/// pass through, `+inf`/`-inf` clamp to `±absmax`, `NaN` becomes 0.
#[inline]
pub(crate) fn sanitize(v: f32, absmax: f32) -> f32 {
    if v.is_finite() {
        v
    } else if v.is_nan() {
        0.0
    } else if v > 0.0 {
        absmax
    } else {
        -absmax
    }
}

/// Largest finite |v| in a block (0.0 for empty or all-non-finite blocks).
#[inline]
pub(crate) fn finite_absmax(block: &[f32]) -> f32 {
    let mut m = 0.0f32;
    for &v in block {
        if v.is_finite() {
            m = m.max(v.abs());
        }
    }
    m
}

/// Borrowed view over int8 block-quantized storage: `codes[i]` scaled by
/// `scales[i / BLOCK]`. The index space is the flat row-major element index
/// of the original buffer, so strided consumers (GEMM pack routines) resolve
/// scales without any layout translation.
#[derive(Clone, Copy, Debug)]
pub struct Q8View<'a> {
    codes: &'a [i8],
    scales: &'a [f32],
}

impl<'a> Q8View<'a> {
    pub fn new(codes: &'a [i8], scales: &'a [f32]) -> Self {
        assert_eq!(
            scales.len(),
            n_blocks(codes.len()),
            "q8: {} codes need {} block scales, got {}",
            codes.len(),
            n_blocks(codes.len()),
            scales.len()
        );
        Q8View { codes, scales }
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Dequantize the element at flat index `idx`.
    #[inline(always)]
    pub fn get(&self, idx: usize) -> f32 {
        self.codes[idx] as f32 * self.scales[idx / BLOCK]
    }
}

/// Borrowed view over NF4 block-quantized storage: two 4-bit codebook
/// indices per byte (element `2i` in the low nibble of byte `i`, element
/// `2i+1` in the high nibble), scaled by `scales[i / BLOCK]`. Same flat
/// index space as [`Q8View`].
#[derive(Clone, Copy, Debug)]
pub struct Q4View<'a> {
    codes: &'a [u8],
    scales: &'a [f32],
    len: usize,
}

impl<'a> Q4View<'a> {
    pub fn new(codes: &'a [u8], scales: &'a [f32], len: usize) -> Self {
        assert_eq!(
            codes.len(),
            nibble_bytes(len),
            "nf4: {len} elements need {} packed bytes, got {}",
            nibble_bytes(len),
            codes.len()
        );
        assert_eq!(
            scales.len(),
            n_blocks(len),
            "nf4: {len} elements need {} block scales, got {}",
            n_blocks(len),
            scales.len()
        );
        Q4View { codes, scales, len }
    }

    /// Logical element count (the packed byte buffer holds `len/2` rounded up).
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dequantize the element at flat index `idx`.
    #[inline(always)]
    pub fn get(&self, idx: usize) -> f32 {
        debug_assert!(idx < self.len, "nf4 index {idx} out of {}", self.len);
        let byte = self.codes[idx / 2];
        let code = if idx.is_multiple_of(2) {
            byte & 0x0F
        } else {
            byte >> 4
        };
        nf4::CODEBOOK[code as usize] * self.scales[idx / BLOCK]
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    /// Deterministic pseudo-random f32s in `[-scale, scale)` without any
    /// external RNG dependency (xorshift32, same recipe the kernel tests
    /// use).
    pub fn pseudo(n: usize, scale: f32, seed: u32) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).max(1);
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 17;
                state ^= state << 5;
                ((state as f32 / u32::MAX as f32) * 2.0 - 1.0) * scale
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_arithmetic() {
        assert_eq!(n_blocks(0), 0);
        assert_eq!(n_blocks(1), 1);
        assert_eq!(n_blocks(64), 1);
        assert_eq!(n_blocks(65), 2);
        assert_eq!(n_blocks(128), 2);
        assert_eq!(nibble_bytes(0), 0);
        assert_eq!(nibble_bytes(1), 1);
        assert_eq!(nibble_bytes(7), 4);
        assert_eq!(nibble_bytes(8), 4);
    }

    #[test]
    fn sanitize_is_deterministic() {
        assert_eq!(sanitize(f32::INFINITY, 3.0), 3.0);
        assert_eq!(sanitize(f32::NEG_INFINITY, 3.0), -3.0);
        assert_eq!(sanitize(f32::NAN, 3.0), 0.0);
        assert_eq!(sanitize(1.5, 3.0), 1.5);
    }

    #[test]
    fn finite_absmax_ignores_non_finite() {
        assert_eq!(finite_absmax(&[1.0, -2.0, f32::INFINITY, f32::NAN]), 2.0);
        assert_eq!(finite_absmax(&[f32::NAN, f32::INFINITY]), 0.0);
        assert_eq!(finite_absmax(&[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "block scales")]
    fn q8_view_checks_scale_count() {
        let codes = [0i8; 65];
        let scales = [0.0f32; 1];
        let _ = Q8View::new(&codes, &scales);
    }

    #[test]
    #[should_panic(expected = "packed bytes")]
    fn q4_view_checks_byte_count() {
        let codes = [0u8; 2];
        let scales = [0.0f32; 1];
        let _ = Q4View::new(&codes, &scales, 7);
    }
}
