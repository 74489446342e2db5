//! **Figure 12**: dynamic operator performance vs dense across sparsity
//! ratios — block-wise attention kernels and the neuron-sparse MLP (active
//! slab gather + dense GEMMs on the compact operands).
//!
//! Paper: up to 3–5× speedups at high sparsity; execution time nearly linear
//! in the sparsity ratio (that linearity is what makes the operators
//! "adaptable and efficient in scenarios with dynamic sparsity levels").

use lx_bench::{header, row};
use lx_sparse::attention::{block_row_softmax, dsd, sdd_nt, CausalFill};
use lx_sparse::{BlockCsr, BlockMask, NeuronBlockSet};
use lx_tensor::gemm::{gemm, gemm_nt, matmul, matmul_nt};
use lx_tensor::ops::{relu_inplace, softmax_rows};
use lx_tensor::rng::randn_vec;
use lx_tensor::Tensor;
use std::time::Instant;

fn time_it(mut f: impl FnMut()) -> f64 {
    f();
    let t0 = Instant::now();
    let reps = 5;
    for _ in 0..reps {
        f();
    }
    t0.elapsed().as_secs_f64() / reps as f64
}

/// A block mask with approximately the requested density, causal region.
fn mask_with_density(n: usize, density: f64, seed: u64) -> BlockMask {
    use rand::Rng;
    let mut rng = lx_tensor::rng::seeded(seed);
    let mut m = BlockMask::square(n);
    for i in 0..n {
        m.set(i, i, true); // keep softmax rows alive
        for j in 0..i {
            if rng.gen::<f64>() < density {
                m.set(i, j, true);
            }
        }
    }
    m
}

fn main() {
    let cli = lx_bench::BenchCli::parse("fig12_operators");
    // Tuned kernel policy so the block-list products and the dense arm
    // both dispatch to the best backend for their work.
    lx_runtime::kernel_policy::install_tuned();
    let (s, dh, block) = (512, 64, 32);
    let n = s / block;
    println!(
        "== Fig. 12a: block-sparse attention vs dense (seq {s}, head dim {dh}, block {block}) ==\n"
    );
    let q = randn_vec(s * dh, 1.0, 1);
    let k = randn_vec(s * dh, 1.0, 2);
    let v = randn_vec(s * dh, 1.0, 3);
    let scale = 1.0 / (dh as f32).sqrt();
    let dense_t = time_it(|| {
        let mut p = vec![0.0f32; s * s];
        gemm_nt(s, dh, s, &q, &k, &mut p, 0.0);
        softmax_rows(&mut p, s);
        let mut o = vec![0.0f32; s * dh];
        gemm(s, s, dh, &p, &v, &mut o, 0.0);
    });
    header(&["sparsity", "blocks", "time ms", "dense ms", "speedup"]);
    let mut attn_rows = Vec::new();
    for sparsity in [0.0f64, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95] {
        let mask = mask_with_density(n, 1.0 - sparsity, 7);
        let layout = BlockCsr::from_mask(&mask, block);
        let t = time_it(|| {
            let mut p = vec![0.0f32; layout.data_len()];
            sdd_nt(&q, &k, s, dh, scale, &layout, CausalFill::NegInf, &mut p);
            block_row_softmax(&mut p, &layout);
            let mut o = vec![0.0f32; s * dh];
            dsd(&p, &v, s, dh, &layout, &mut o);
        });
        row(&[
            format!("{sparsity:.2}"),
            layout.nnz_blocks().to_string(),
            format!("{:.2}", t * 1e3),
            format!("{:.2}", dense_t * 1e3),
            format!("{:.2}x", dense_t / t),
        ]);
        attn_rows.push((sparsity, layout.nnz_blocks() as f64, t, dense_t));
    }

    println!(
        "\n== Fig. 12b: neuron-sparse MLP (slab gather + GEMMs) vs dense \
         (rows 512, d 256, d_ff 1024, block 32) ==\n"
    );
    let (rows_n, d, d_ff) = (512usize, 256usize, 1024usize);
    let x = Tensor::randn(&[rows_n, d], 1.0, 4);
    let w1 = Tensor::randn(&[d_ff, d], 0.05, 5);
    let w2 = Tensor::randn(&[d_ff, d], 0.05, 6);
    let n_blk = d_ff / block;
    // The model's MLP forward under a plan: gather the active FC1/FC2 slabs
    // (timed — a drifted plan pays it; the dense set borrows), then the
    // dense GEMMs on the compact operands.
    let run = |set: &NeuronBlockSet| {
        let mut z = matmul_nt(&x, &set.gather_rows(&w1));
        relu_inplace(z.as_mut_slice());
        matmul(&z, &set.gather_rows(&w2));
    };
    let dense_set = NeuronBlockSet::all(n_blk, block);
    let mlp_dense_t = time_it(|| run(&dense_set));
    header(&[
        "sparsity",
        "active blocks",
        "time ms",
        "dense ms",
        "speedup",
    ]);
    let mut mlp_rows = Vec::new();
    for sparsity in [0.0f64, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95] {
        let keep = (((1.0 - sparsity) * n_blk as f64).round() as usize).max(1);
        let set = NeuronBlockSet::from_indices(
            (0..keep as u32)
                .map(|i| i * (n_blk as u32 / keep.max(1) as u32).max(1) % n_blk as u32)
                .collect(),
            n_blk,
            block,
        );
        let t = time_it(|| run(&set));
        row(&[
            format!("{sparsity:.2}"),
            set.n_active().to_string(),
            format!("{:.2}", t * 1e3),
            format!("{:.2}", mlp_dense_t * 1e3),
            format!("{:.2}x", mlp_dense_t / t),
        ]);
        mlp_rows.push((sparsity, set.n_active() as f64, t, mlp_dense_t));
    }
    // Computed from the rows above, so the printed claim cannot contradict
    // the numbers.
    println!("\nverdict (paper: time ≈ linear in (1 − sparsity); 3–5x speedups at ≥0.8 sparsity):");
    println!("  {}", verdict("attention", &attn_rows));
    println!("  {}", verdict("MLP", &mlp_rows));
    cli.finish();
}

/// R² a least-squares line must reach for the time-vs-work verdict to say
/// "linear".
const LINEAR_R2: f64 = 0.95;

/// One operator's verdict from its `(sparsity, active blocks, time, dense
/// time)` rows: a least-squares line of time against active blocks (the
/// work `1 − sparsity` stands for), its R², and the speedup range at ≥0.8
/// sparsity.
fn verdict(what: &str, rows: &[(f64, f64, f64, f64)]) -> String {
    let n = rows.len() as f64;
    let (mx, my) = (
        rows.iter().map(|r| r.1).sum::<f64>() / n,
        rows.iter().map(|r| r.2).sum::<f64>() / n,
    );
    let sxy: f64 = rows.iter().map(|r| (r.1 - mx) * (r.2 - my)).sum();
    let sxx: f64 = rows.iter().map(|r| (r.1 - mx).powi(2)).sum();
    let syy: f64 = rows.iter().map(|r| (r.2 - my).powi(2)).sum();
    let slope = sxy / sxx;
    let r2 = if syy > 0.0 {
        sxy * sxy / (sxx * syy)
    } else {
        1.0
    };
    let linear = if r2 >= LINEAR_R2 {
        "linear"
    } else {
        "NOT linear"
    };
    let high: Vec<f64> = rows
        .iter()
        .filter(|r| r.0 >= 0.8)
        .map(|r| r.3 / r.2)
        .collect();
    let (lo, hi) = high.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
        (lo.min(x), hi.max(x))
    });
    format!(
        "{what}: time = {:.3} + {:.4}·blocks ms, R² {r2:.3} → {linear} in active blocks \
         (threshold R² ≥ {LINEAR_R2}); speedup at ≥0.8 sparsity {lo:.2}x–{hi:.2}x",
        (my - slope * mx) * 1e3,
        slope * 1e3,
    )
}
