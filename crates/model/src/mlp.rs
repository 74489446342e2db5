//! MLP block: one forward and one backward for dense and neuron-sparse
//! steps.
//!
//! Weight storage follows the paper's memory-coalescing layout (§VI-B):
//! FC1 is kept *neuron-major* (`w1[d_ff, d]`, i.e. column-major relative to
//! the conventional `d × d_ff` matrix) and FC2 row-major (`w2[d_ff, d]`), so
//! an active neuron block is a contiguous slab in **both** matrices and no
//! format conversion ever happens at runtime.
//!
//! A neuron-sparse step is the dense step on smaller operands. The plan
//! picks only two things:
//!
//! * **the FC operands** — the stored [`Param`]s for a dense plan (any
//!   storage, fused-decoded inside the GEMM), or the compact f32 gather of
//!   the active slabs for a sparse one — kept across steps on reduced
//!   storage, see [`MlpBlock::slab_cache_stats`];
//! * **the per-neuron trainable rows** — b1, LoRA-1 `B`, LoRA-2 `A` and the
//!   full-FT W1/W2 gradients are used whole under a dense plan, and gathered
//!   ([`NeuronBlockSet::gather_rows`]) or scatter-added
//!   ([`NeuronBlockSet::scatter_add_rows`]) under a sparse one.
//!
//! Everything else — the GEMM calls, the LoRA algebra, the activation —
//! is shared, so a sparse step issues exactly the dense step's GEMMs, and a
//! plan with every block active computes the dense step's bits. Inactive
//! neurons' LoRA `B` rows receive no gradient, the paper's §II-D result.

use crate::config::Activation;
use crate::param::Param;
use lx_obs::{registry, Counter};
use lx_sparse::NeuronBlockSet;
use lx_tensor::gemm::{matmul, matmul_nt, matmul_operand, matmul_tn, Epilogue, Operand};
use lx_tensor::ops::{bias_grad_rows, gelu_backward, gelu_inplace, relu_backward, relu_inplace};
use lx_tensor::Tensor;
use std::borrow::Cow;
use std::sync::{Arc, OnceLock};

/// Process-wide mirrors of the per-layer slab-cache counters (see
/// [`MlpBlock::slab_cache_stats`] for the per-layer source of truth).
struct SlabCounters {
    decoded: Arc<Counter>,
    carried: Arc<Counter>,
}

fn slab_counters() -> &'static SlabCounters {
    static COUNTERS: OnceLock<SlabCounters> = OnceLock::new();
    COUNTERS.get_or_init(|| SlabCounters {
        decoded: registry().counter("mlp.slab.decoded"),
        carried: registry().counter("mlp.slab.carried"),
    })
}

/// The active rows of a per-neuron tensor: all of it under a dense plan.
fn rows_of<'a>(plan: Option<&NeuronBlockSet>, t: &'a Tensor) -> Cow<'a, Tensor> {
    plan.map_or(Cow::Borrowed(t), |set| set.gather_rows(t))
}

/// Accumulate a per-neuron gradient holding the plan's active rows.
fn accumulate_rows(plan: Option<&NeuronBlockSet>, p: &mut Param, g: &Tensor) {
    match plan {
        None => p.accumulate_grad(g),
        Some(set) => set.scatter_add_rows(g, p.grad_mut()),
    }
}

/// LoRA pair for an MLP linear. Shape semantics depend on the attach site —
/// see [`MlpBlock::attach_lora_fc1`] / [`MlpBlock::attach_lora_fc2`].
#[derive(Debug)]
pub struct MlpLora {
    pub a: Param,
    pub b: Param,
    pub scale: f32,
}

#[derive(Debug)]
pub struct MlpBlock {
    /// FC1, neuron-major `[d_ff, d]`: row `n` = input weights of neuron `n`.
    pub w1: Param,
    pub b1: Param,
    /// FC2, row-major `[d_ff, d]`: row `n` = output weights of neuron `n`.
    pub w2: Param,
    pub b2: Param,
    /// LoRA on FC1: `a ∈ [r, d]`, `b ∈ [d_ff, r]` (row per neuron).
    pub lora1: Option<MlpLora>,
    /// LoRA on FC2: `a ∈ [d_ff, r]` (row per neuron, pre-transposed), `b ∈ [d, r]`.
    pub lora2: Option<MlpLora>,
    pub activation: Activation,
    d_model: usize,
    d_ff: usize,
    cache: Option<MlpCache>,
    /// The active FC slabs of the last sparse forward, gathered to f32.
    /// Keyed by the plan it was gathered for; refreshed incrementally on
    /// reduced storage — see [`MlpBlock::refresh_slab_cache`].
    slab_cache: Option<SparseSlabs>,
    /// The retired gather's buffers, recycled as the next gather's
    /// destination so steady-state steps stay allocation-free (the step
    /// bench gates on zero heap tensors per steady step). Contents are
    /// garbage between gathers — every span is overwritten before use.
    slab_spare: Option<(Tensor, Tensor)>,
    slabs_decoded: u64,
    slabs_reused: u64,
}

#[derive(Debug)]
struct MlpCache {
    x: Tensor,
    /// Pre-activation; compact `rows × active_neurons` in sparse mode.
    z: Tensor,
    /// Post-activation, same width as `z`.
    a: Tensor,
    set: Option<Arc<NeuronBlockSet>>,
    ax1: Option<Tensor>,
    ax2: Option<Tensor>,
}

/// f32 copies of the *active* neuron slabs of the FC weights, packed in plan
/// order (`[active_neurons, d_model]` each) — the operands of a sparse step.
/// This is the paper's "only active blocks resident at full width"
/// discipline: inactive slabs never leave their storage (4 bytes/element
/// for f32, 2 for f16, ~1 for int8, ~0.5 for NF4).
///
/// Reduced storage is frozen between [`TransformerModel::set_precision`]
/// calls (which invalidate the cache), so under shadowy sparsity its gather
/// is maintained *incrementally* across steps: blocks active in both the
/// old and new plan are carried over with an f32 copy, only newly-activated
/// blocks are decoded from the stored bits, and deactivated blocks are
/// evicted by not being carried. An unchanged plan reuses the whole gather
/// untouched. The decodes are elementwise over flat indices, so a slab
/// window is bit-identical to the same rows of a full-buffer decode even
/// when row boundaries land mid-quantization-block. f32 weights can move
/// with no storage change (optimizer steps, merges, in-place edits), so
/// they are re-gathered on every sparse forward.
///
/// [`TransformerModel::set_precision`]: crate::TransformerModel::set_precision
#[derive(Debug)]
struct SparseSlabs {
    /// The plan this gather was built for.
    set: Arc<NeuronBlockSet>,
    /// Active FC1 slabs, `[active_neurons, d_model]`.
    w1: Tensor,
    /// Active FC2 slabs, `[active_neurons, d_model]`.
    w2: Tensor,
}

impl MlpBlock {
    pub fn new(name: &str, d_model: usize, d_ff: usize, activation: Activation, seed: u64) -> Self {
        let std1 = (2.0 / (d_model + d_ff) as f32).sqrt();
        MlpBlock {
            w1: Param::frozen(
                format!("{name}.w1"),
                Tensor::randn(&[d_ff, d_model], std1, seed),
            ),
            b1: Param::frozen(format!("{name}.b1"), Tensor::zeros(&[d_ff])),
            w2: Param::frozen(
                format!("{name}.w2"),
                Tensor::randn(&[d_ff, d_model], std1, seed + 1),
            ),
            b2: Param::frozen(format!("{name}.b2"), Tensor::zeros(&[d_model])),
            lora1: None,
            lora2: None,
            activation,
            d_model,
            d_ff,
            cache: None,
            slab_cache: None,
            slab_spare: None,
            slabs_decoded: 0,
            slabs_reused: 0,
        }
    }

    pub fn d_ff(&self) -> usize {
        self.d_ff
    }

    pub fn attach_lora_fc1(&mut self, rank: usize, alpha: f32, seed: u64) {
        self.lora1 = Some(MlpLora {
            a: Param::new(
                format!("{}.lora_a", self.w1.name),
                Tensor::randn(&[rank, self.d_model], 1.0 / rank as f32, seed),
                true,
            ),
            b: Param::new(
                format!("{}.lora_b", self.w1.name),
                Tensor::zeros(&[self.d_ff, rank]),
                true,
            ),
            scale: alpha / rank as f32,
        });
    }

    pub fn attach_lora_fc2(&mut self, rank: usize, alpha: f32, seed: u64) {
        self.lora2 = Some(MlpLora {
            a: Param::new(
                format!("{}.lora_a", self.w2.name),
                Tensor::randn(&[self.d_ff, rank], 1.0 / rank as f32, seed),
                true,
            ),
            b: Param::new(
                format!("{}.lora_b", self.w2.name),
                Tensor::zeros(&[self.d_model, rank]),
                true,
            ),
            scale: alpha / rank as f32,
        });
    }

    fn activate(&self, z: &Tensor) -> Tensor {
        let mut a = z.clone();
        match self.activation {
            Activation::Relu => relu_inplace(a.as_mut_slice()),
            Activation::Gelu => gelu_inplace(a.as_mut_slice()),
        }
        a
    }

    fn activate_backward(&self, da: &Tensor, z: &Tensor) -> Tensor {
        let mut dz = Tensor::zeros(z.shape());
        match self.activation {
            Activation::Relu => relu_backward(da.as_slice(), z.as_slice(), dz.as_mut_slice()),
            Activation::Gelu => gelu_backward(da.as_slice(), z.as_slice(), dz.as_mut_slice()),
        }
        dz
    }

    /// Bring the slab gather up to date with `set` (see [`SparseSlabs`]).
    /// On reduced storage an unchanged plan reuses the gather as-is and a
    /// drifted plan copies carried-over slabs from the previous gather,
    /// decoding only the newly-activated blocks ([`NeuronBlockSet::diff`])
    /// from the stored f16/int8/NF4/2:4 bits. f32 weights are copied afresh
    /// on every call; those copies count as decodes.
    fn refresh_slab_cache(&mut self, set: &Arc<NeuronBlockSet>) {
        let frozen = self.w1.is_reduced() && self.w2.is_reduced();
        if let Some(c) = self.slab_cache.as_ref().filter(|_| frozen) {
            if *c.set == **set {
                self.slabs_reused += set.n_active() as u64;
                slab_counters().carried.add(set.n_active() as u64);
                return;
            }
        }
        let (d, bsz) = (self.d_model, set.block_size);
        let mut prev = self.slab_cache.take();
        if !frozen {
            // Nothing carries over from movable weights: the old gather is
            // simply the next destination.
            self.slab_spare = prev.take().map(|p| (p.w1, p.w2));
        }
        // Blocks newly activated relative to the previous gather must be
        // decoded; everything else is carried over with an f32 copy.
        let added = prev.as_ref().map(|p| set.diff(&p.set).added);
        // Recycle the retired buffers when the active width is unchanged
        // (the common steady-state case — the plan picks a fixed number of
        // blocks, only *which* blocks drifts). Every active span is decoded
        // or carried below, so stale contents never leak.
        let shape = [set.active_neurons(), d];
        let (mut w1, mut w2) = match self.slab_spare.take() {
            Some((w1, w2)) if w1.shape() == shape => (w1, w2),
            _ => (Tensor::zeros(&shape), Tensor::zeros(&shape)),
        };
        // Monotone cursors: `set.active`, `added` and `prev.set.active` are
        // all sorted, so one forward walk finds every carry position.
        let (mut ai, mut pp) = (0usize, 0usize);
        for (ci, &blk) in set.active.iter().enumerate() {
            let span = ci * bsz * d..(ci + 1) * bsz * d;
            let is_added = match &added {
                Some(a) => a.get(ai) == Some(&blk),
                None => true,
            };
            if is_added {
                ai += 1;
                let n0 = blk as usize * bsz;
                self.w1
                    .decode_rows(n0, bsz, &mut w1.as_mut_slice()[span.clone()]);
                self.w2.decode_rows(n0, bsz, &mut w2.as_mut_slice()[span]);
                self.slabs_decoded += 1;
                slab_counters().decoded.inc();
            } else {
                let p = prev
                    .as_ref()
                    .expect("carried block implies a previous gather");
                while p.set.active[pp] < blk {
                    pp += 1;
                }
                let pspan = pp * bsz * d..(pp + 1) * bsz * d;
                w1.as_mut_slice()[span.clone()].copy_from_slice(&p.w1.as_slice()[pspan.clone()]);
                w2.as_mut_slice()[span].copy_from_slice(&p.w2.as_slice()[pspan]);
                self.slabs_reused += 1;
                slab_counters().carried.inc();
            }
        }
        self.slab_spare = prev.map(|p| (p.w1, p.w2));
        self.slab_cache = Some(SparseSlabs {
            set: set.clone(),
            w1,
            w2,
        });
    }

    /// `(gathered, carried-over)` slab-block counters since construction.
    /// A block is *gathered* when it is decoded from reduced storage or
    /// copied from f32 weights, and *carried* when a reduced-stored step
    /// reuses it from the previous gather — the decode work the cross-step
    /// cache avoided.
    pub fn slab_cache_stats(&self) -> (u64, u64) {
        (self.slabs_decoded, self.slabs_reused)
    }

    /// Drop the cross-step slab cache (weight storage changed).
    pub(crate) fn invalidate_slab_cache(&mut self) {
        self.slab_cache = None;
    }

    /// The compact slab gather a sparse step runs on (`None`: dense plan).
    fn slabs(&self, plan: Option<&NeuronBlockSet>) -> Option<&SparseSlabs> {
        let plan = plan?;
        let slabs = self
            .slab_cache
            .as_ref()
            .expect("sparse step without a slab gather");
        debug_assert_eq!(*slabs.set, *plan, "slab gather is for another plan");
        Some(slabs)
    }

    /// FC1 as a step's GEMM operand: the stored weight under a dense plan,
    /// its active-slab gather under a sparse one.
    fn fc1(&self, plan: Option<&NeuronBlockSet>) -> Operand<'_> {
        self.slabs(plan)
            .map_or_else(|| self.w1.operand(), |s| s.w1.operand())
    }

    /// FC2 as a step's GEMM operand (see [`Self::fc1`]).
    fn fc2(&self, plan: Option<&NeuronBlockSet>) -> Operand<'_> {
        self.slabs(plan)
            .map_or_else(|| self.w2.operand(), |s| s.w2.operand())
    }

    pub fn forward(&mut self, x: &Tensor, set: Option<&Arc<NeuronBlockSet>>) -> Tensor {
        if let Some(set) = set {
            assert_eq!(
                set.total_neurons(),
                self.d_ff,
                "neuron block grid must cover d_ff"
            );
            assert_eq!(
                self.activation,
                Activation::Relu,
                "neuron sparsity requires ReLU (paper §II-B)"
            );
            self.refresh_slab_cache(set);
        }
        let plan = set.map(|s| &**s);
        // z = x·W1ᵀ + b1  (+ LoRA1). The bias rides the GEMM write-back as a
        // fused epilogue; the activation stays unfused because backward
        // needs the pre-activation z.
        let mut z = matmul_operand(
            x,
            self.fc1(plan),
            true,
            Epilogue::Bias(rows_of(plan, &self.b1.value).as_slice()),
        );
        let ax1 = self.lora1.as_ref().map(|l| {
            let ax = matmul_nt(x, &l.a.value); // [rows, r]
            let delta = matmul_nt(&ax, &rows_of(plan, &l.b.value)); // [rows, active]
            z.axpy(l.scale, &delta);
            ax
        });
        let a = self.activate(&z);
        // y = a·W2 + b2  (+ LoRA2), bias again fused into the write-back.
        let mut y = matmul_operand(
            &a,
            self.fc2(plan),
            false,
            Epilogue::Bias(self.b2.value.as_slice()),
        );
        let ax2 = self.lora2.as_ref().map(|l| {
            let ax = matmul(&a, &rows_of(plan, &l.a.value)); // [rows, r]
            let delta = matmul_nt(&ax, &l.b.value); // [rows, d]
            y.axpy(l.scale, &delta);
            ax
        });
        self.cache = Some(MlpCache {
            x: x.clone(),
            z,
            a,
            set: set.cloned(),
            ax1,
            ax2,
        });
        y
    }

    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let cache = self.cache.take().expect("MLP backward without forward");
        let plan = cache.set.as_deref();
        // FC2 (+ LoRA2): da = dy·W2ᵀ with W2 stored `[d_ff, d]` row-major —
        // the `nt` kernel shape, fused-decoding a reduced-stored dense W2.
        let mut da = matmul_operand(dy, self.fc2(plan), true, Epilogue::None);
        if let Some(l) = &mut self.lora2 {
            let ax = cache.ax2.as_ref().expect("lora2 cache");
            let mut dax = matmul(dy, &l.b.value); // [rows, r]
            dax.scale(l.scale);
            if l.b.trainable {
                let mut db = matmul_tn(dy, ax);
                db.scale(l.scale);
                l.b.accumulate_grad(&db);
            }
            if l.a.trainable {
                accumulate_rows(plan, &mut l.a, &matmul_tn(&cache.a, &dax)); // [active, r]
            }
            da.add_assign(&matmul_nt(&dax, &rows_of(plan, &l.a.value)));
        }
        if self.b2.trainable {
            bias_grad_rows(dy, self.b2.grad_mut().as_mut_slice());
        }
        if self.w2.trainable {
            accumulate_rows(plan, &mut self.w2, &matmul_tn(&cache.a, dy)); // [active, d]
        }
        // Activation.
        let dz = self.activate_backward(&da, &cache.z);
        // FC1 (+ LoRA1). A dense plan sums b1's gradient straight into the
        // accumulator (micro-batch accumulation keeps its rounding); a
        // sparse one sums the compact columns, then scatters.
        if self.b1.trainable {
            match plan {
                None => bias_grad_rows(&dz, self.b1.grad_mut().as_mut_slice()),
                Some(set) => {
                    let mut db1 = Tensor::zeros(&[dz.cols()]);
                    bias_grad_rows(&dz, db1.as_mut_slice());
                    set.scatter_add_rows(&db1, self.b1.grad_mut());
                }
            }
        }
        if self.w1.trainable {
            accumulate_rows(plan, &mut self.w1, &matmul_tn(&dz, &cache.x)); // [active, d]
        }
        let mut dx = matmul_operand(&dz, self.fc1(plan), false, Epilogue::None);
        if let Some(l) = &mut self.lora1 {
            let ax = cache.ax1.as_ref().expect("lora1 cache");
            let mut dax = matmul(&dz, &rows_of(plan, &l.b.value)); // [rows, r]
            dax.scale(l.scale);
            if l.b.trainable {
                let mut db = matmul_tn(&dz, ax); // [active, r]
                db.scale(l.scale);
                accumulate_rows(plan, &mut l.b, &db);
            }
            if l.a.trainable {
                let da1 = matmul_tn(&dax, &cache.x); // [r, d]
                l.a.accumulate_grad(&da1);
            }
            dx.add_assign(&matmul(&dax, &l.a.value));
        }
        dx
    }

    /// Post-activation values of the last dense forward (calibration capture).
    pub fn cached_activations(&self) -> Option<&Tensor> {
        self.cache.as_ref().map(|c| &c.a)
    }

    pub fn for_each_param(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.w1);
        f(&mut self.b1);
        f(&mut self.w2);
        f(&mut self.b2);
        if let Some(l) = &mut self.lora1 {
            f(&mut l.a);
            f(&mut l.b);
        }
        if let Some(l) = &mut self.lora2 {
            f(&mut l.a);
            f(&mut l.b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D: usize = 8;
    const FF: usize = 16;
    const ROWS: usize = 6;
    const BLK: usize = 4;

    fn mlp() -> MlpBlock {
        MlpBlock::new("mlp", D, FF, Activation::Relu, 7)
    }

    fn all_set() -> Arc<NeuronBlockSet> {
        Arc::new(NeuronBlockSet::all(FF / BLK, BLK))
    }

    #[test]
    fn sparse_all_blocks_matches_dense() {
        let x = Tensor::randn(&[ROWS, D], 1.0, 1);
        let mut dense = mlp();
        let mut sparse = mlp();
        let yd = dense.forward(&x, None);
        let ys = sparse.forward(&x, Some(&all_set()));
        for (a, b) in yd.as_slice().iter().zip(ys.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
        // Backward too, with trainable biases (BitFit-style).
        dense.b1.trainable = true;
        dense.b2.trainable = true;
        sparse.b1.trainable = true;
        sparse.b2.trainable = true;
        let dy = Tensor::randn(&[ROWS, D], 1.0, 2);
        let _ = dense.forward(&x, None);
        let dxd = dense.backward(&dy);
        let _ = sparse.forward(&x, Some(&all_set()));
        let dxs = sparse.backward(&dy);
        for (a, b) in dxd.as_slice().iter().zip(dxs.as_slice()) {
            assert!((a - b).abs() < 1e-3, "dx {a} vs {b}");
        }
        let g1 = dense.b1.grad.as_ref().unwrap();
        let g2 = sparse.b1.grad.as_ref().unwrap();
        for (a, b) in g1.as_slice().iter().zip(g2.as_slice()) {
            assert!((a - b).abs() < 1e-3, "db1 {a} vs {b}");
        }
    }

    #[test]
    fn partial_set_equals_dense_with_masked_neurons() {
        let x = Tensor::randn(&[ROWS, D], 1.0, 3);
        let set = Arc::new(NeuronBlockSet::from_indices(vec![0, 2], FF / BLK, BLK));
        let mut sparse = mlp();
        let ys = sparse.forward(&x, Some(&set));
        // Dense reference: zero the inactive neurons' FC2 rows.
        let mut dense = mlp();
        for n in 0..FF {
            let blk = n / BLK;
            if !set.active.contains(&(blk as u32)) {
                dense.w2.value.as_mut_slice()[n * D..(n + 1) * D].fill(0.0);
            }
        }
        let yd = dense.forward(&x, None);
        for (a, b) in ys.as_slice().iter().zip(yd.as_slice()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn inactive_lora_b_rows_get_no_gradient() {
        // The §II-D property: neurons outside the active set contribute no
        // gradient to their LoRA-B rows.
        let x = Tensor::randn(&[ROWS, D], 1.0, 4);
        let dy = Tensor::randn(&[ROWS, D], 1.0, 5);
        let set = Arc::new(NeuronBlockSet::from_indices(vec![1], FF / BLK, BLK));
        let mut m = mlp();
        m.attach_lora_fc1(2, 4.0, 6);
        let _ = m.forward(&x, Some(&set));
        let _ = m.backward(&dy);
        let db = m.lora1.as_ref().unwrap().b.grad.as_ref().unwrap();
        let r = 2;
        for n in 0..FF {
            let active = (4..8).contains(&n);
            let row_nonzero = db.as_slice()[n * r..(n + 1) * r].iter().any(|&v| v != 0.0);
            if !active {
                assert!(!row_nonzero, "inactive neuron {n} must have zero dB row");
            }
        }
        // At least one active row must have gradient (ReLU keeps some on).
        let any_active_grad =
            (4..8).any(|n| db.as_slice()[n * r..(n + 1) * r].iter().any(|&v| v != 0.0));
        assert!(any_active_grad);
    }

    #[test]
    fn dense_lora_grads_match_finite_difference() {
        let mut m = mlp();
        m.attach_lora_fc1(2, 2.0, 8);
        m.attach_lora_fc2(2, 2.0, 9);
        // Non-zero B so the A-grads are informative.
        for l in [m.lora1.as_mut().unwrap(), m.lora2.as_mut().unwrap()] {
            let vals = lx_tensor::rng::randn_vec(l.b.value.len(), 0.2, 10);
            l.b.value.as_mut_slice().copy_from_slice(&vals);
        }
        let x = Tensor::randn(&[4, D], 0.8, 11);
        let dy = Tensor::randn(&[4, D], 1.0, 12);
        let _ = m.forward(&x, None);
        let _ = m.backward(&dy);
        let loss = |m: &mut MlpBlock, x: &Tensor| -> f32 {
            let y = m.forward(x, None);
            m.cache = None;
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum()
        };
        let h = 1e-3;
        // Check a few entries of each LoRA param.
        for which in 0..4 {
            let grad = match which {
                0 => m.lora1.as_ref().unwrap().a.grad.as_ref().unwrap().clone(),
                1 => m.lora1.as_ref().unwrap().b.grad.as_ref().unwrap().clone(),
                2 => m.lora2.as_ref().unwrap().a.grad.as_ref().unwrap().clone(),
                _ => m.lora2.as_ref().unwrap().b.grad.as_ref().unwrap().clone(),
            };
            for idx in [0usize, 3] {
                let read = |m: &MlpBlock| match which {
                    0 => m.lora1.as_ref().unwrap().a.value.as_slice()[idx],
                    1 => m.lora1.as_ref().unwrap().b.value.as_slice()[idx],
                    2 => m.lora2.as_ref().unwrap().a.value.as_slice()[idx],
                    _ => m.lora2.as_ref().unwrap().b.value.as_slice()[idx],
                };
                let write = |m: &mut MlpBlock, v: f32| match which {
                    0 => m.lora1.as_mut().unwrap().a.value.as_mut_slice()[idx] = v,
                    1 => m.lora1.as_mut().unwrap().b.value.as_mut_slice()[idx] = v,
                    2 => m.lora2.as_mut().unwrap().a.value.as_mut_slice()[idx] = v,
                    _ => m.lora2.as_mut().unwrap().b.value.as_mut_slice()[idx] = v,
                };
                let orig = read(&m);
                write(&mut m, orig + h);
                let lp = loss(&mut m, &x);
                write(&mut m, orig - h);
                let lm = loss(&mut m, &x);
                write(&mut m, orig);
                let fd = (lp - lm) / (2.0 * h);
                assert!(
                    (grad.as_slice()[idx] - fd).abs() < 2e-2,
                    "param {which} idx {idx}: {} vs {fd}",
                    grad.as_slice()[idx]
                );
            }
        }
    }

    /// Demote both FC weights to each reduced storage in turn.
    fn demotions() -> [fn(&mut MlpBlock); 4] {
        use lx_tensor::Dtype;
        [
            |m: &mut MlpBlock| {
                m.w1.demote(Dtype::F16);
                m.w2.demote(Dtype::F16);
            },
            |m: &mut MlpBlock| {
                m.w1.demote(Dtype::I8Block);
                m.w2.demote(Dtype::I8Block);
            },
            |m: &mut MlpBlock| {
                m.w1.demote(Dtype::Nf4Block);
                m.w2.demote(Dtype::Nf4Block);
            },
            |m: &mut MlpBlock| {
                m.w1.demote(Dtype::Nm24);
                m.w2.demote(Dtype::Nm24);
            },
        ]
    }

    #[test]
    fn incremental_slab_decode_equals_full_decode_under_drift() {
        // Two identical reduced-stored blocks (f16, int8, NF4 in turn): one
        // keeps its cross-step slab cache (incremental decode), the other is
        // forced to re-gather from scratch every step. Outputs must stay
        // bit-identical across a randomized plan-drift sequence including
        // empty→full and full→empty transitions.
        for demote in demotions() {
            let mk = || {
                let mut m = mlp();
                demote(&mut m);
                m
            };
            let mut inc = mk();
            let mut full = mk();
            let x = Tensor::randn(&[ROWS, D], 1.0, 30);
            let n_blk = (FF / BLK) as u32;
            let mut plans: Vec<Vec<u32>> = vec![
                vec![],               // start empty
                (0..n_blk).collect(), // empty → full
                vec![],               // full → empty
                vec![0, 2],
                vec![0, 3],           // one block drifts
                (0..n_blk).collect(), // partial → full
                vec![1],
            ];
            for step in 0..6u64 {
                let picks = lx_tensor::rng::uniform_vec(3, 0.0, n_blk as f32, 40 + step);
                plans.push(picks.into_iter().map(|v| v as u32).collect());
            }
            for idx in plans {
                let set = Arc::new(NeuronBlockSet::from_indices(idx, n_blk as usize, BLK));
                let yi = inc.forward(&x, Some(&set));
                full.invalidate_slab_cache(); // the full-re-decode arm
                let yf = full.forward(&x, Some(&set));
                assert_eq!(yi.as_slice(), yf.as_slice(), "set {:?}", set.active);
            }
            let (dec_inc, reused) = inc.slab_cache_stats();
            let (dec_full, _) = full.slab_cache_stats();
            assert!(reused > 0, "drifting plans must carry blocks over");
            assert!(
                dec_inc < dec_full,
                "incremental decode must do less work: {dec_inc} vs {dec_full}"
            );
        }
    }

    #[test]
    fn unchanged_plan_reuses_the_slab_cache_wholesale() {
        for demote in demotions() {
            let mut m = mlp();
            demote(&mut m);
            let x = Tensor::randn(&[ROWS, D], 1.0, 31);
            let set = Arc::new(NeuronBlockSet::from_indices(vec![0, 2], FF / BLK, BLK));
            let _ = m.forward(&x, Some(&set));
            let (dec0, _) = m.slab_cache_stats();
            assert_eq!(dec0, 2, "first step decodes every active block");
            for _ in 0..3 {
                let _ = m.forward(&x, Some(&set));
            }
            let (dec, reused) = m.slab_cache_stats();
            assert_eq!(dec, dec0, "unchanged plan must decode nothing");
            assert_eq!(reused, 3 * 2, "each reuse step counts its active blocks");
        }
    }

    #[test]
    fn quant_slab_sparse_path_matches_prerounded_dense() {
        // The exactness contract behind the quantized sparse path: running
        // the neuron kernels over slab-decoded quantized weights must equal
        // running them over a *pre-rounded* f32 model (quantize → dequantize
        // up front) bit-for-bit, because the slab decode is elementwise.
        use lx_tensor::Dtype;
        for dtype in [Dtype::I8Block, Dtype::Nf4Block] {
            let mut q = mlp();
            q.w1.demote(dtype);
            q.w2.demote(dtype);
            let mut pre = mlp();
            for w in [&mut pre.w1, &mut pre.w2] {
                w.demote(dtype);
                w.to_f32(); // pre-rounded dense f32
            }
            let x = Tensor::randn(&[ROWS, D], 1.0, 35);
            let set = Arc::new(NeuronBlockSet::from_indices(vec![0, 2, 3], FF / BLK, BLK));
            let yq = q.forward(&x, Some(&set));
            let yp = pre.forward(&x, Some(&set));
            assert_eq!(yq.as_slice(), yp.as_slice(), "{dtype}");
        }
    }

    #[test]
    fn nm_slab_sparse_path_matches_prepruned_dense() {
        // Same exactness contract for the 2:4 structured-sparse storage:
        // slab-decoding the pruned weights must equal running the neuron
        // kernels over a pre-pruned dense f32 model bit-for-bit.
        let mut q = mlp();
        q.w1.demote(lx_tensor::Dtype::Nm24);
        q.w2.demote(lx_tensor::Dtype::Nm24);
        let mut pre = mlp();
        for w in [&mut pre.w1, &mut pre.w2] {
            w.demote(lx_tensor::Dtype::Nm24);
            w.to_f32(); // pre-pruned dense f32
        }
        let x = Tensor::randn(&[ROWS, D], 1.0, 36);
        let set = Arc::new(NeuronBlockSet::from_indices(vec![0, 2, 3], FF / BLK, BLK));
        let yq = q.forward(&x, Some(&set));
        let yp = pre.forward(&x, Some(&set));
        assert_eq!(yq.as_slice(), yp.as_slice());
    }

    #[test]
    fn cached_slabs_track_a_trainable_bias() {
        // BitFit on the reduced-precision sparse path: the weight bits are
        // frozen, but b1 is trainable and moves between steps. The
        // unchanged-plan fast path must still serve the *current* bias, not
        // the one gathered when the cache was built.
        let mut m = mlp();
        m.w1.demote(lx_tensor::Dtype::Nf4Block);
        m.w2.demote(lx_tensor::Dtype::Nf4Block);
        m.b1.trainable = true;
        let x = Tensor::randn(&[ROWS, D], 1.0, 32);
        let set = Arc::new(NeuronBlockSet::from_indices(vec![0, 2], FF / BLK, BLK));
        let _ = m.forward(&x, Some(&set)); // builds the cache
        for v in m.b1.value.as_mut_slice() {
            *v += 0.5; // an optimizer step moved the bias
        }
        let y_cached = m.forward(&x, Some(&set)); // unchanged plan: fast path
        m.invalidate_slab_cache();
        let y_fresh = m.forward(&x, Some(&set)); // full re-gather
        assert_eq!(
            y_cached.as_slice(),
            y_fresh.as_slice(),
            "cached gather must serve the updated bias"
        );
    }

    #[test]
    fn gelu_model_rejects_sparse_set() {
        let mut m = MlpBlock::new("mlp", D, FF, Activation::Gelu, 13);
        let x = Tensor::randn(&[2, D], 1.0, 14);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.forward(&x, Some(&all_set()))
        }));
        assert!(result.is_err(), "GeLU + neuron sparsity must be rejected");
    }

    #[test]
    fn full_ft_weight_grads_sparse_touch_only_active() {
        let x = Tensor::randn(&[ROWS, D], 1.0, 15);
        let dy = Tensor::randn(&[ROWS, D], 1.0, 16);
        let set = Arc::new(NeuronBlockSet::from_indices(vec![3], FF / BLK, BLK));
        let mut m = mlp();
        m.w1.trainable = true;
        m.w2.trainable = true;
        let _ = m.forward(&x, Some(&set));
        let _ = m.backward(&dy);
        let dw1 = m.w1.grad.as_ref().unwrap();
        let dw2 = m.w2.grad.as_ref().unwrap();
        for n in 0..FF {
            let active = (12..16).contains(&n);
            let w1_nz = dw1.as_slice()[n * D..(n + 1) * D].iter().any(|&v| v != 0.0);
            let w2_nz = dw2.as_slice()[n * D..(n + 1) * D].iter().any(|&v| v != 0.0);
            if !active {
                assert!(!w1_nz && !w2_nz, "inactive neuron {n} has weight grad");
            }
        }
    }
}
