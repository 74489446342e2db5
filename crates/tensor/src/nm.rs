//! The N:M structured-sparse pattern of [`Dtype::Nm24`](crate::Dtype::Nm24)
//! storage, plus the `lx-quant` codec entry points that model- and
//! adapter-layer callers (mask capture, merge-time re-application,
//! differential-test oracles) use without a direct lx-quant dependency.

pub use lx_quant::nm::{apply_mask, prune_mask, round_slice};

/// Kept values per group — the `N` of the stored `N:M` pattern.
pub const NM_N: usize = 2;
/// Group size — the `M` of the stored `N:M` pattern.
pub const NM_M: usize = 4;

#[cfg(test)]
mod tests {
    use crate::{Dtype, FrozenTensor, Tensor};

    #[test]
    fn accounting_matches_bytes_for_when_rows_are_group_aligned() {
        let t = Tensor::randn(&[16, 20], 1.0, 41);
        let before = crate::memtrack::current_bytes();
        let q = FrozenTensor::from_tensor(&t, Dtype::Nm24);
        let delta = crate::memtrack::current_bytes() - before;
        assert_eq!(delta, Dtype::Nm24.bytes_for(t.len()), "measured");
        assert_eq!(q.bytes(), Dtype::Nm24.bytes_for(t.len()), "reported");
        drop(q);
        assert_eq!(crate::memtrack::current_bytes(), before);
    }

    #[test]
    fn tail_rows_account_their_true_bytes() {
        // cols = 7: per row 1 full group (2 slots) + tail of 3 (2 slots) =
        // 4 slots + 2 mask bytes = 18 bytes/row.
        let t = Tensor::randn(&[5, 7], 1.0, 42);
        let before = crate::memtrack::current_bytes();
        let q = FrozenTensor::from_tensor(&t, Dtype::Nm24);
        assert_eq!(q.bytes(), 5 * 18);
        assert_eq!(crate::memtrack::current_bytes() - before, 5 * 18);
        drop(q);
        assert_eq!(crate::memtrack::current_bytes(), before);
    }

    #[test]
    fn roundtrip_keeps_survivors_bit_exactly() {
        let t = Tensor::randn(&[9, 12], 1.0, 43);
        let q = FrozenTensor::from_tensor(&t, Dtype::Nm24);
        assert_eq!(q.dtype(), Dtype::Nm24);
        assert_eq!(q.shape(), &[9, 12]);
        assert_eq!(q.rows(), 9);
        assert_eq!(q.cols(), 12);
        let back = q.to_tensor();
        let mut kept = 0usize;
        for (a, b) in t.as_slice().iter().zip(back.as_slice()) {
            if b.to_bits() == a.to_bits() && *b != 0.0 {
                kept += 1;
            } else {
                assert_eq!(*b, 0.0, "{a} -> {b}");
            }
        }
        assert_eq!(kept, 9 * 12 / 2, "exactly half survive at 2:4");
        assert_eq!(back.as_slice(), &q.to_f32_vec()[..]);
    }

    #[test]
    fn external_mask_is_respected_and_exposed() {
        let t = Tensor::randn(&[2, 8], 1.0, 44);
        // Keep positions {0,1} in every group regardless of magnitude.
        let masks = vec![0b0011u8; 4];
        let q = FrozenTensor::nm_with_mask(t.as_slice(), &[2, 8], &masks);
        assert_eq!(q.masks(), Some(&masks[..]));
        let back = q.to_f32_vec();
        for r in 0..2 {
            for c in 0..8 {
                let v = back[r * 8 + c];
                if c % 4 < 2 {
                    assert_eq!(v.to_bits(), t.as_slice()[r * 8 + c].to_bits());
                } else {
                    assert_eq!(v, 0.0);
                }
            }
        }
    }

    #[test]
    fn decode_rows_is_bit_identical_to_full_decode() {
        let t = Tensor::randn(&[12, 13], 1.0, 45); // tail groups in every row
        let q = FrozenTensor::from_tensor(&t, Dtype::Nm24);
        let full = q.to_f32_vec();
        for (r0, n_rows) in [(0usize, 1usize), (3, 2), (7, 5), (11, 1)] {
            let mut window = vec![0.0f32; n_rows * 13];
            q.decode_rows(r0, n_rows, &mut window);
            for (i, v) in window.iter().enumerate() {
                assert_eq!(v.to_bits(), full[r0 * 13 + i].to_bits(), "row {r0}+{i}");
            }
        }
    }

    #[test]
    fn clone_registers_its_own_buffer() {
        let t = Tensor::randn(&[8, 8], 1.0, 46);
        let before = crate::memtrack::current_bytes();
        let a = FrozenTensor::from_tensor(&t, Dtype::Nm24);
        let b = a.clone();
        assert_eq!(
            crate::memtrack::current_bytes() - before,
            2 * Dtype::Nm24.bytes_for(64)
        );
        assert_eq!(a, b);
        drop(a);
        drop(b);
        assert_eq!(crate::memtrack::current_bytes(), before);
    }
}
