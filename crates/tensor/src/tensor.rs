//! Row-major `f32` tensor with cooperative memory tracking.
//!
//! Inside an active [`crate::Workspace`] scope, `zeros`/`full`/`clone` draw
//! their buffers from the scope's pool when a fit is parked there, and `Drop`
//! parks the buffer back instead of freeing — the mechanism behind
//! zero-allocation steady-state training steps. Pooled construction is
//! bit-exact (recycled buffers are fully overwritten before they are
//! visible), and [`crate::memtrack`] distinguishes fresh heap allocations
//! from pool reuse.

use crate::memtrack;
use crate::rng;
use crate::workspace;

/// A dense row-major tensor of `f32`.
///
/// Shapes are small `Vec<usize>`; data is always contiguous. Higher-level
/// code treats a tensor of shape `[a, b, c]` as `a` matrices of `b×c` where
/// convenient via [`Tensor::as_slice`] arithmetic.
#[derive(Debug)]
pub struct Tensor {
    data: Vec<f32>,
    shape: Vec<usize>,
}

impl Tensor {
    /// A buffer of length `len`: recycled from the active workspace scope
    /// when possible, freshly heap-allocated (and counted as such) otherwise.
    /// Contents are unspecified — every caller fully overwrites.
    fn raw_buffer(len: usize) -> Vec<f32> {
        match workspace::pool_take(len) {
            Some(buf) => buf,
            None => {
                memtrack::register(len * 4);
                vec![0.0; len]
            }
        }
    }

    /// Allocate a zero-filled tensor (pool-recycled inside a workspace scope).
    pub fn zeros(shape: &[usize]) -> Self {
        let len = shape.iter().product();
        let mut data = Self::raw_buffer(len);
        data.fill(0.0);
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Allocate with every element set to `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let len = shape.iter().product();
        let mut data = Self::raw_buffer(len);
        data.fill(value);
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    /// Gaussian-initialised tensor (mean 0, given std), deterministic in `seed`.
    pub fn randn(shape: &[usize], std: f32, seed: u64) -> Self {
        let len: usize = shape.iter().product();
        memtrack::register(len * 4);
        Tensor {
            data: rng::randn_vec(len, std, seed),
            shape: shape.to_vec(),
        }
    }

    /// Uniform in `[lo, hi)`, deterministic in `seed`.
    pub fn rand_uniform(shape: &[usize], lo: f32, hi: f32, seed: u64) -> Self {
        let len: usize = shape.iter().product();
        memtrack::register(len * 4);
        Tensor {
            data: rng::uniform_vec(len, lo, hi, seed),
            shape: shape.to_vec(),
        }
    }

    /// Wrap an existing buffer. Panics if the length does not match the shape.
    pub fn from_vec(data: Vec<f32>, shape: &[usize]) -> Self {
        let len: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            len,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        memtrack::register(data.capacity() * 4);
        Tensor {
            data,
            shape: shape.to_vec(),
        }
    }

    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of rows when viewed as 2-D (product of all but the last dim).
    pub fn rows(&self) -> usize {
        if self.shape.is_empty() {
            0
        } else {
            self.len() / self.cols()
        }
    }

    /// Size of the last dimension.
    pub fn cols(&self) -> usize {
        *self.shape.last().unwrap_or(&0)
    }

    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// The trailing-2-D view as a GEMM right-hand operand (see
    /// [`matmul_operand`](crate::gemm::matmul_operand)).
    pub fn operand(&self) -> crate::gemm::Operand<'_> {
        crate::gemm::Operand {
            data: crate::gemm::BOperand::F32(&self.data),
            rows: self.rows(),
            cols: self.cols(),
        }
    }

    /// Reinterpret the shape without moving data.
    pub fn reshape(&mut self, shape: &[usize]) {
        let len: usize = shape.iter().product();
        assert_eq!(
            len,
            self.data.len(),
            "reshape {:?} -> {:?}",
            self.shape,
            shape
        );
        self.shape = shape.to_vec();
    }

    /// A reshaped clone (data copied).
    pub fn reshaped(&self, shape: &[usize]) -> Tensor {
        let mut t = self.clone();
        t.reshape(shape);
        t
    }

    /// Row `r` of the 2-D view.
    pub fn row(&self, r: usize) -> &[f32] {
        let c = self.cols();
        &self.data[r * c..(r + 1) * c]
    }

    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        let c = self.cols();
        &mut self.data[r * c..(r + 1) * c]
    }

    /// Fill with zeros, keeping the allocation.
    pub fn zero_(&mut self) {
        self.data.fill(0.0);
    }

    /// Elementwise `self += other`.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "add_assign shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// Elementwise `self += alpha * other`.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape, other.shape, "axpy shape mismatch");
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Elementwise scale.
    pub fn scale(&mut self, alpha: f32) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean absolute value (used by importance filters and tests).
    pub fn mean_abs(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|v| v.abs()).sum::<f32>() / self.data.len() as f32
    }

    /// Maximum absolute value.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Fraction of exactly-zero elements.
    pub fn zero_fraction(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().filter(|v| **v == 0.0).count() as f32 / self.data.len() as f32
    }

    /// 2-D transpose into a fresh tensor.
    pub fn transposed_2d(&self) -> Tensor {
        assert_eq!(self.shape.len(), 2, "transposed_2d needs a 2-D tensor");
        let (r, c) = (self.shape[0], self.shape[1]);
        let mut out = Tensor::zeros(&[c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        out
    }
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        let mut data = Self::raw_buffer(self.data.len());
        data.copy_from_slice(&self.data);
        Tensor {
            data,
            shape: self.shape.clone(),
        }
    }
}

impl Drop for Tensor {
    fn drop(&mut self) {
        memtrack::unregister(self.data.capacity() * 4);
        let buf = std::mem::take(&mut self.data);
        // Inside a workspace scope the buffer parks in the pool for the next
        // step; outside, it drops here and frees normally.
        let _ = workspace::pool_recycle(buf);
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        self.shape == other.shape && self.data == other.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_shape_accessors() {
        let t = Tensor::zeros(&[3, 4]);
        assert_eq!(t.shape(), &[3, 4]);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.cols(), 4);
        assert_eq!(t.len(), 12);
        assert!(t.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn randn_is_deterministic_in_seed() {
        let a = Tensor::randn(&[16], 1.0, 7);
        let b = Tensor::randn(&[16], 1.0, 7);
        let c = Tensor::randn(&[16], 1.0, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn reshape_preserves_data() {
        let mut t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        t.reshape(&[3, 2]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.as_slice()[5], 5.0);
    }

    #[test]
    #[should_panic(expected = "reshape")]
    fn reshape_wrong_len_panics() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.reshape(&[4, 2]);
    }

    #[test]
    fn transpose_roundtrip() {
        let t = Tensor::from_vec((0..12).map(|i| i as f32).collect(), &[3, 4]);
        let tt = t.transposed_2d();
        assert_eq!(tt.shape(), &[4, 3]);
        assert_eq!(tt.transposed_2d(), t);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::full(&[4], 1.0);
        let b = Tensor::full(&[4], 2.0);
        a.axpy(0.5, &b);
        assert!(a.as_slice().iter().all(|&v| (v - 2.0).abs() < 1e-6));
        a.scale(2.0);
        assert!(a.as_slice().iter().all(|&v| (v - 4.0).abs() < 1e-6));
    }

    #[test]
    fn zero_fraction_counts() {
        let t = Tensor::from_vec(vec![0.0, 1.0, 0.0, 2.0], &[4]);
        assert_eq!(t.zero_fraction(), 0.5);
    }

    #[test]
    fn row_views() {
        let mut t = Tensor::from_vec((0..6).map(|i| i as f32).collect(), &[2, 3]);
        assert_eq!(t.row(1), &[3.0, 4.0, 5.0]);
        t.row_mut(0)[0] = 9.0;
        assert_eq!(t.as_slice()[0], 9.0);
    }
}
