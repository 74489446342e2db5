//! Dense tensor substrate for the Long Exposure reproduction.
//!
//! The paper's baseline ("dense") arm and all predictor computations run on
//! these kernels. Everything is row-major `f32`; parallelism comes from
//! [`lx_parallel`]'s global pool; allocations are tracked by [`memtrack`] so
//! the memory-footprint experiments (paper Fig. 8) can report real peaks.

mod dtype;
pub mod f16;
mod frozen;
pub mod gemm;
pub mod memtrack;
pub mod nm;
pub mod ops;
pub mod rng;
mod tensor;
pub mod workspace;

pub use dtype::Dtype;
pub use frozen::FrozenTensor;
pub use tensor::Tensor;
pub use workspace::{Workspace, WorkspaceStats};
