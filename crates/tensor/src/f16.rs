//! Half-precision (IEEE binary16) conversions.
//!
//! The paper fine-tunes with mixed precision: FP16 parameters, FP32 compute
//! (§VII-A). Frozen parameters stored at half precision live in a
//! [`FrozenTensor`](crate::FrozenTensor); the conversion primitives are
//! canonical in [`lx_kernels::half`] (the kernels must agree with the
//! storage layer on rounding), and this module re-exports them for callers
//! that only depend on `lx-tensor`.

pub use lx_kernels::half::{f16_bits_to_f32, f32_to_f16_bits, round_f16};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dtype, FrozenTensor, Tensor};

    #[test]
    fn exact_small_values_roundtrip() {
        for &v in &[0.0f32, 1.0, -1.0, 0.5, 2.0, -0.25, 65504.0] {
            assert_eq!(round_f16(v), v, "{v} should be exactly representable");
        }
    }

    #[test]
    fn signed_zero_preserved() {
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
    }

    #[test]
    fn overflow_saturates_to_inf() {
        assert!(round_f16(1e6).is_infinite());
        assert!(round_f16(-1e6).is_infinite() && round_f16(-1e6) < 0.0);
    }

    #[test]
    fn nan_stays_nan() {
        assert!(round_f16(f32::NAN).is_nan());
    }

    #[test]
    fn nan_payload_bits_survive_where_representable() {
        // A signalling-ish NaN whose payload fits the 10-bit f16 mantissa
        // after the 13-bit truncation: the kept payload bits must survive,
        // and the quiet bit is forced so the result cannot become an inf.
        let payload = 0x0015u32 << 13; // bits 13.. of the f32 mantissa
        let nan = f32::from_bits(0x7f80_0000 | payload);
        let bits = f32_to_f16_bits(nan);
        assert_eq!(bits & 0x7c00, 0x7c00, "exponent must stay all-ones");
        assert_ne!(bits & 0x03ff, 0, "payload must not vanish");
        assert_eq!(bits & 0x0015, 0x0015, "kept payload bits preserved");
        assert!(f16_bits_to_f32(bits).is_nan());
    }

    #[test]
    fn subnormals_roundtrip_with_tolerance() {
        let v = 3.0e-6f32; // subnormal range of f16 (min normal ≈ 6.1e-5)
        let r = round_f16(v);
        assert!(r > 0.0 && (r - v).abs() / v < 0.05, "{v} -> {r}");
    }

    #[test]
    fn subnormal_sweep_stays_monotone_and_bounded() {
        // Seeded sweep across the entire f16 subnormal band
        // [2^-24, 2^-14): the round-trip must stay within half a subnormal
        // step (2^-25) and be monotone non-decreasing in the input.
        let step = 2.0_f32.powi(-24);
        let vals = crate::rng::uniform_vec(2_000, step, 2.0_f32.powi(-14), 0xF16);
        let mut pairs: Vec<(f32, f32)> = vals.iter().map(|&v| (v, round_f16(v))).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        let mut prev = 0.0f32;
        for (v, r) in pairs {
            assert!((r - v).abs() <= step / 2.0 + f32::EPSILON, "{v} -> {r}");
            assert!(
                r >= prev,
                "round-trip must be monotone: {v} -> {r} < {prev}"
            );
            prev = r;
        }
    }

    #[test]
    fn tiny_underflows_to_zero() {
        assert_eq!(round_f16(1e-9), 0.0);
    }

    #[test]
    fn roundtrip_error_is_bounded() {
        let vals = crate::rng::randn_vec(10_000, 1.0, 99);
        for v in vals {
            let r = round_f16(v);
            // Half has ~3.3 decimal digits: relative error < 2^-10.
            assert!((r - v).abs() <= v.abs() * 1e-3 + 1e-7, "{v} -> {r}");
        }
    }

    #[test]
    fn round_to_nearest_even() {
        // 1 + 2^-11 is exactly halfway between two f16 values; ties-to-even
        // keeps the even mantissa (1.0).
        let v = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(round_f16(v), 1.0);
        // 1 + 3*2^-11 is halfway between mantissas 1 and 2; even mantissa (2)
        // wins, giving 1 + 2^-9.
        let v2 = 1.0 + 3.0 * 2.0_f32.powi(-11);
        assert_eq!(round_f16(v2), 1.0 + 2.0_f32.powi(-9));
    }

    #[test]
    fn tie_sweep_lands_on_even_mantissas() {
        // Construct exact ties at many scales: the f16 mantissa step is
        // 2^-10, so `(1 + (mant + ½)·2^-10)·2^e` sits exactly halfway
        // between mantissas `mant` and `mant+1` (representable exactly in
        // f32). RNE must pick whichever neighbour has an even mantissa.
        for e in [-3i32, -1, 0, 1, 4, 9] {
            for mant in [0u32, 1, 2, 5, 100, 511, 1022] {
                let lo = (1.0 + mant as f32 * 2.0_f32.powi(-10)) * 2.0_f32.powi(e);
                let hi = (1.0 + (mant + 1) as f32 * 2.0_f32.powi(-10)) * 2.0_f32.powi(e);
                let tie = (1.0 + (2 * mant + 1) as f32 * 2.0_f32.powi(-11)) * 2.0_f32.powi(e);
                let r = round_f16(tie);
                let expect = if mant % 2 == 0 { lo } else { hi };
                assert_eq!(r, expect, "tie at e={e} mant={mant}: {tie} -> {r}");
            }
        }
    }

    #[test]
    fn half_tensor_accounting_and_roundtrip() {
        let vals = vec![1.0f32, 2.5, -3.25, 0.0];
        let before = crate::memtrack::current_bytes();
        let buf = FrozenTensor::from_f32(&vals, &[2, 2], Dtype::F16);
        assert_eq!(buf.bytes(), 8);
        assert_eq!(crate::memtrack::current_bytes() - before, 8);
        assert_eq!(buf.to_f32_vec(), vals);
        assert_eq!(buf.rows(), 2);
        assert_eq!(buf.cols(), 2);
        let t = buf.to_tensor();
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.as_slice(), &vals[..]);
        drop(t);
        drop(buf);
        assert_eq!(crate::memtrack::current_bytes(), before);
    }

    #[test]
    fn decode_rows_matches_full_decode() {
        let t = Tensor::randn(&[6, 5], 1.0, 7);
        let h = FrozenTensor::from_tensor(&t, Dtype::F16);
        let full = h.to_f32_vec();
        let mut window = vec![0.0f32; 2 * 5];
        h.decode_rows(3, 2, &mut window);
        assert_eq!(window, &full[15..25]);
        assert_eq!(h.cols(), 5);
    }

    #[test]
    fn clone_registers_its_own_buffer() {
        let before = crate::memtrack::current_bytes();
        let a = FrozenTensor::from_f32(&[1.0; 10], &[10], Dtype::F16);
        let b = a.clone();
        assert_eq!(crate::memtrack::current_bytes() - before, 2 * 10 * 2);
        assert_eq!(a, b);
        drop(a);
        drop(b);
        assert_eq!(crate::memtrack::current_bytes(), before);
    }
}
