//! Kernel backend comparison: `Reference` loops vs the `Packed` tiled
//! microkernels across Fig. 12-style operator shapes.
//!
//! Shapes cover the hot paths the backends serve: square training GEMMs, the
//! attention score/context products (`s×dh×s` / `s×s×dh`), the MLP FC1/FC2
//! shapes, and the `dW = Xᵀ·dY` gradient (`tn`) shape. Each shape is timed on
//! both backends, cross-checked numerically (≤1e-4 relative), and reported
//! with the dispatcher's per-shape choice.
//!
//! A second "gates" table checks the two wins this backend round is about:
//! the parallel macro-kernel (pooled vs single-worker packed GEMM, floor
//! ≥1.4x at 2 threads on the large shape class) and the fused bias+GELU
//! epilogue (vs the unfused gemm-then-bias-then-GELU composition, floor
//! ≥1.1x). Both floors only *enforce* when the pool has ≥2 threads and the
//! host exposes ≥2 cores — on a single-core box the ratios are meaningless,
//! so the gate prints an explicit SKIP line instead of silently passing.
//! Bit-identity between the compared variants is asserted unconditionally.
//!
//! Flags:
//! * `--smoke` — small shapes, few reps; asserts numerical equivalence and a
//!   sane dispatcher, exits non-zero on mismatch (the CI regression gate).
//! * `--probe-isa <name>` — exit 0 if this CPU can run the named ISA arm
//!   (`scalar|avx2|avx512|neon`), 2 otherwise; no benching. CI uses this to
//!   skip matrix arms the runner cannot execute, with a visible log line.
//! * `--json`  — also write `BENCH_kernel_bench.json` (the perf trajectory).
//! * `--compare <baseline.json>` — gate the `speedup` column against a
//!   committed baseline (see `ci/baselines/`); exits non-zero when any shape
//!   regresses below `baseline · (1 − tolerance)`. Speedups are ratios of
//!   two kernels on the same box, so they transfer across machines in a way
//!   absolute milliseconds never would.
//! * `--tolerance <frac>` — regression tolerance for `--compare`
//!   (default 0.35: shared CI boxes are noisy; the gate is for "packed
//!   stopped being faster", not ±5% jitter).

use lx_bench::{header, load_bench_json, row, BenchCli};
use lx_kernels::{Epilogue, Gemm, Isa, KernelBackend, AUTO, PACKED, REFERENCE};
use lx_tensor::rng::randn_vec;
use std::time::Instant;

#[derive(Clone, Copy)]
enum Variant {
    Nn,
    Nt,
    Tn,
    /// `Nn` with B stored as f16 bits: both backends run their fused
    /// f16-input path (mixed-precision storage, f32 accumulate).
    NnF16,
    /// `Nn` with B stored as per-block-scaled int8 codes: the fused
    /// dequant-in-pack path (a `BOperand::Q8` B).
    NnQ8,
    /// `Nn` with B stored as NF4 nibbles (a `BOperand::Q4` B).
    NnQ4,
    /// `Nt` with B stored 2:4-compacted (a `BOperand::Nm` B): the pruned frozen-
    /// backbone forward shape, expanded group-by-group inside `pack_b` with
    /// fully-zero K-groups skipped.
    NtNm,
}

struct Shape {
    label: &'static str,
    variant: Variant,
    m: usize,
    k: usize,
    n: usize,
}

const fn shape(label: &'static str, variant: Variant, m: usize, k: usize, n: usize) -> Shape {
    Shape {
        label,
        variant,
        m,
        k,
        n,
    }
}

fn shapes(smoke: bool) -> Vec<Shape> {
    if smoke {
        vec![
            shape("square", Variant::Nn, 192, 192, 192),
            shape("attn scores", Variant::Nt, 128, 64, 128),
            shape("mlp fc1", Variant::Nn, 128, 128, 256),
            shape("mlp fc1 f16-w", Variant::NnF16, 128, 128, 256),
            shape("mlp fc1 int8-w", Variant::NnQ8, 128, 128, 256),
            shape("mlp fc1 nf4-w", Variant::NnQ4, 128, 128, 256),
            shape("mlp fc1 nm24-w", Variant::NtNm, 128, 128, 256),
            shape("grad dW", Variant::Tn, 128, 128, 128),
        ]
    } else {
        vec![
            shape("square 256", Variant::Nn, 256, 256, 256),
            shape("square 512", Variant::Nn, 512, 512, 512),
            shape("square 1024", Variant::Nn, 1024, 1024, 1024),
            shape("square 512 f16-w", Variant::NnF16, 512, 512, 512),
            shape("attn scores s=512", Variant::Nt, 512, 64, 512),
            shape("attn context s=512", Variant::Nn, 512, 512, 64),
            shape("mlp fc1 512x256x1024", Variant::Nn, 512, 256, 1024),
            shape("mlp fc1 f16-w 512x256x1024", Variant::NnF16, 512, 256, 1024),
            shape("mlp fc1 int8-w 512x256x1024", Variant::NnQ8, 512, 256, 1024),
            shape("mlp fc1 nf4-w 512x256x1024", Variant::NnQ4, 512, 256, 1024),
            shape("mlp fc1 nm24-w 512x256x1024", Variant::NtNm, 512, 256, 1024),
            shape("mlp fc2 512x1024x256", Variant::Nn, 512, 1024, 256),
            shape("grad dW 256x512x1024", Variant::Tn, 256, 512, 1024),
        ]
    }
}

struct Operands {
    a: Vec<f32>,
    b: Vec<f32>,
    /// f16 encoding of `b`, used by the `NnF16` variant.
    bits: Vec<u16>,
    /// Int8 block encoding of `b` (codes, scales), used by `NnQ8`.
    q8: (Vec<i8>, Vec<f32>),
    /// NF4 block encoding of `b` (packed nibbles, scales), used by `NnQ4`.
    q4: (Vec<u8>, Vec<f32>),
    /// 2:4 compacted encoding of `b` (kept values, group masks), used by
    /// `NtNm` (B is n×k there).
    nm: (Vec<f32>, Vec<u8>),
}

fn run(be: &dyn KernelBackend, s: &Shape, ops: &Operands, c: &mut [f32]) {
    let (m, k, n) = (s.m, s.k, s.n);
    let (a, b) = (&ops.a[..], &ops.b[..]);
    match s.variant {
        Variant::Nn => be.gemm(&Gemm::nn(m, k, n, a, k, b, n), c, n),
        Variant::Nt => be.gemm(&Gemm::nt(m, k, n, a, k, b, k), c, n),
        Variant::Tn => be.gemm(&Gemm::tn(m, k, n, a, m, b, n), c, n),
        Variant::NnF16 => be.gemm(&Gemm::nn(m, k, n, a, k, &ops.bits[..], n), c, n),
        Variant::NnQ8 => {
            let view = lx_kernels::Q8View::new(&ops.q8.0, &ops.q8.1);
            be.gemm(&Gemm::nn(m, k, n, a, k, view, n), c, n)
        }
        Variant::NnQ4 => {
            let view = lx_kernels::Q4View::new(&ops.q4.0, &ops.q4.1, s.k * s.n);
            be.gemm(&Gemm::nn(m, k, n, a, k, view, n), c, n)
        }
        Variant::NtNm => {
            let view = lx_kernels::NmView::new(&ops.nm.0, &ops.nm.1, s.n, s.k, 2, 4);
            be.gemm(&Gemm::nt(m, k, n, a, k, view, k), c, n)
        }
    }
}

/// Best-of-`reps` timing: the minimum is the standard noise-robust
/// microbenchmark statistic — one scheduler hiccup on a shared CI box
/// inflates the mean but cannot shrink the min, which is what keeps the
/// `--compare` speedup gate from flaking.
fn time(be: &dyn KernelBackend, s: &Shape, ops: &Operands, c: &mut [f32], reps: usize) -> f64 {
    run(be, s, ops, c); // warm-up
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        run(be, s, ops, c);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn max_rel_diff(x: &[f32], y: &[f32]) -> f32 {
    x.iter()
        .zip(y)
        .map(|(a, b)| {
            let d = (a - b).abs() / (1.0 + b.abs());
            // NaN must fail the gate, not vanish in fold(max).
            if d.is_finite() {
                d
            } else {
                f32::INFINITY
            }
        })
        .fold(0.0, f32::max)
}

fn main() {
    let cli = BenchCli::parse("kernel_bench");
    // `--probe-isa` answers "can this runner execute that matrix arm?" and
    // nothing else — it must run before any policy install or benching.
    if let Some(name) = cli.value("--probe-isa") {
        match Isa::parse(name) {
            Some(isa) if isa.supported() => {
                println!("kernel_bench: isa '{}' supported on this CPU", isa.name());
                std::process::exit(0);
            }
            Some(isa) => {
                println!(
                    "kernel_bench: isa '{}' NOT supported on this CPU",
                    isa.name()
                );
                std::process::exit(2);
            }
            None => {
                eprintln!("kernel_bench: unknown isa '{name}' (expected scalar|avx2|avx512|neon)");
                std::process::exit(2);
            }
        }
    }
    let smoke = cli.smoke;
    let policy = lx_runtime::kernel_policy::install_tuned();
    let threads = lx_parallel::pool().threads();
    println!(
        "== kernel_bench: Reference vs Packed (policy: MC={} KC={} NC={}, packed ≥ {} flops, \
         isa: {}, threads: {}{}) ==\n",
        policy.tiles.mc,
        policy.tiles.kc,
        policy.tiles.nc,
        policy.min_flops_packed,
        lx_kernels::active_isa().name(),
        threads,
        if smoke { ", smoke" } else { "" }
    );
    header(&[
        "shape",
        "m×k×n",
        "ref ms",
        "packed ms",
        "speedup",
        "auto picks",
        "max rel diff",
    ]);
    let mut failures = 0usize;
    let mut best_speedup = 0.0f64;
    for s in shapes(smoke) {
        let (asz, bsz) = match s.variant {
            Variant::Nn | Variant::NnF16 | Variant::NnQ8 | Variant::NnQ4 => (s.m * s.k, s.k * s.n),
            Variant::Nt | Variant::NtNm => (s.m * s.k, s.n * s.k),
            Variant::Tn => (s.k * s.m, s.k * s.n),
        };
        let a = randn_vec(asz, 1.0, 1);
        let b = randn_vec(bsz, 1.0, 2);
        let bits = match s.variant {
            Variant::NnF16 => lx_kernels::half::encode_slice(&b),
            _ => Vec::new(),
        };
        let q8 = match s.variant {
            Variant::NnQ8 => lx_quant::q8::quantize(&b),
            _ => (Vec::new(), Vec::new()),
        };
        let q4 = match s.variant {
            Variant::NnQ4 => lx_quant::nf4::quantize(&b),
            _ => (Vec::new(), Vec::new()),
        };
        let nm = match s.variant {
            Variant::NtNm => lx_quant::nm::encode(&b, s.n, s.k, 2, 4),
            _ => (Vec::new(), Vec::new()),
        };
        let ops = Operands {
            a,
            b,
            bits,
            q8,
            q4,
            nm,
        };
        let mut c_ref = vec![0.0f32; s.m * s.n];
        let mut c_packed = vec![0.0f32; s.m * s.n];
        let flops = 2.0 * (s.m * s.k * s.n) as f64;
        let reps = if smoke {
            // Enough samples for the min to be stable: the compared smoke
            // shapes run in tens of microseconds, so 5 reps are still cheap.
            5
        } else {
            ((2e9 / flops) as usize).clamp(2, 20)
        };
        let t_ref = time(&REFERENCE, &s, &ops, &mut c_ref, reps);
        let t_packed = time(&PACKED, &s, &ops, &mut c_packed, reps);
        let diff = max_rel_diff(&c_packed, &c_ref);
        if diff > 1e-4 {
            failures += 1;
        }
        let speedup = t_ref / t_packed;
        best_speedup = best_speedup.max(speedup);
        // What the dispatcher actually does for this shape.
        let auto_picks = lx_kernels::auto_choice(s.m, s.k, s.n);
        let mut c_auto = vec![0.0f32; s.m * s.n];
        run(&AUTO, &s, &ops, &mut c_auto);
        if max_rel_diff(&c_auto, &c_ref) > 1e-4 {
            failures += 1;
        }
        row(&[
            s.label.to_string(),
            format!("{}x{}x{}", s.m, s.k, s.n),
            format!("{:.2}", t_ref * 1e3),
            format!("{:.2}", t_packed * 1e3),
            format!("{speedup:.2}x"),
            auto_picks.to_string(),
            format!("{diff:.2e}"),
        ]);
    }
    println!(
        "\nbest packed speedup: {best_speedup:.2}x (acceptance bar: ≥2x on at least one shape)"
    );
    let mut gate_failed = false;

    // ---- Gates: parallel scaling and fused-epilogue wins ------------------
    // Floors only enforce where the ratios mean something: the pool must
    // actually have ≥2 workers AND the host must expose ≥2 cores (a 1-core
    // box timeslices the "parallel" leg and any ratio is noise).
    let avail = std::thread::available_parallelism().map_or(1, |n| n.get());
    let enforce = threads >= 2 && avail >= 2;
    // The gate shapes run in well under a millisecond, so a deeper best-of
    // min is cheap and is what keeps sub-1.5x ratio floors from flaking.
    let gate_reps = if smoke { 15 } else { 30 };
    println!();
    header(&[
        "gate", "m×k×n", "base ms", "new ms", "speedup", "floor", "status",
    ]);

    // Parallel scaling: the same packed GEMM single-worker vs pooled, on the
    // large shape class (256³ clears every min_flops crossover). The two legs
    // write worker-disjoint row panels in the same order, so the results must
    // be bit-identical.
    {
        let (m, k, n) = (256usize, 256usize, 256usize);
        let a = randn_vec(m * k, 1.0, 11);
        let b = randn_vec(k * n, 1.0, 12);
        let mut c_seq = vec![0.0f32; m * n];
        let mut c_par = vec![0.0f32; m * n];
        let t_seq = lx_kernels::with_sequential(|| {
            PACKED.gemm(&Gemm::nn(m, k, n, &a, k, &b[..], n), &mut c_seq, n);
            let mut best = f64::INFINITY;
            for _ in 0..gate_reps {
                let t0 = Instant::now();
                PACKED.gemm(&Gemm::nn(m, k, n, &a, k, &b[..], n), &mut c_seq, n);
                best = best.min(t0.elapsed().as_secs_f64());
            }
            best
        });
        PACKED.gemm(&Gemm::nn(m, k, n, &a, k, &b[..], n), &mut c_par, n);
        let mut t_par = f64::INFINITY;
        for _ in 0..gate_reps {
            let t0 = Instant::now();
            PACKED.gemm(&Gemm::nn(m, k, n, &a, k, &b[..], n), &mut c_par, n);
            t_par = t_par.min(t0.elapsed().as_secs_f64());
        }
        let identical = c_seq
            .iter()
            .zip(&c_par)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        if !identical {
            eprintln!("kernel_bench: parallel packed GEMM is not bit-identical to sequential");
            failures += 1;
        }
        let speedup = t_seq / t_par;
        let status = if !identical {
            "FAIL (bits)"
        } else if !enforce {
            eprintln!(
                "kernel_bench: SKIP parallel-scaling floor — pool has {threads} thread(s), \
                 host exposes {avail} core(s)"
            );
            "skip"
        } else if speedup >= 1.4 {
            "ok"
        } else {
            eprintln!(
                "kernel_bench: parallel scaling {speedup:.2}x below the 1.40x floor \
                 at {threads} threads"
            );
            gate_failed = true;
            "FAIL"
        };
        row(&[
            "parallel scaling".to_string(),
            format!("{m}x{k}x{n}"),
            format!("{:.2}", t_seq * 1e3),
            format!("{:.2}", t_par * 1e3),
            format!("{speedup:.2}x"),
            "1.40x".to_string(),
            status.to_string(),
        ]);
    }

    // Fused epilogues: gemm + serial epilogue passes (what the model paths
    // did before fusion) vs one call with the epilogue in the descriptor. The fused write-back applies
    // the identical scalar ops per element after full accumulation, so the
    // outputs must match bit-for-bit — asserted unconditionally for both
    // rows. The perf floor enforces on the bias+GELU row: the tanh sweep
    // dominates and the fused variant runs it on the GEMM workers instead of
    // as a serial pass, so at ≥2 threads the win is compute-bound and
    // machine-independent. The bias-only row (the production fusion — the
    // MLP keeps GELU unfused because backward needs the pre-activation) is
    // reported but not gated: its win is saved C traffic, which a large
    // last-level cache can legitimately erase.
    {
        // FC1-shaped with an 8 MiB C: the fusion win is skipping a
        // read-modify-write pass over C, which only shows once C spills the
        // last-level cache — at 1 MiB the serial pass is LLC-resident and
        // free, and the gate would measure noise.
        let (m, k, n) = (512usize, 64usize, 4096usize);
        let a = randn_vec(m * k, 1.0, 13);
        let b = randn_vec(k * n, 1.0, 14);
        let bias = randn_vec(n, 1.0, 15);
        let mut fusion_gate = |label: &str, gelu_after: bool, floor: Option<f64>, reps: usize| {
            let mut c_unfused = vec![0.0f32; m * n];
            let mut c_fused = vec![0.0f32; m * n];
            let unfused = |c: &mut [f32]| {
                PACKED.gemm(&Gemm::nn(m, k, n, &a, k, &b[..], n), c, n);
                for r in 0..m {
                    for (v, bj) in c[r * n..(r + 1) * n].iter_mut().zip(&bias) {
                        *v += bj;
                    }
                }
                if gelu_after {
                    for v in c.iter_mut() {
                        *v = lx_kernels::gelu(*v);
                    }
                }
            };
            let ep = if gelu_after {
                Epilogue::BiasGelu(&bias)
            } else {
                Epilogue::Bias(&bias)
            };
            let fused = |c: &mut [f32]| {
                PACKED.gemm(&Gemm::nn(m, k, n, &a, k, &b[..], n).epilogue(ep), c, n);
            };
            unfused(&mut c_unfused);
            let mut t_unfused = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                unfused(&mut c_unfused);
                t_unfused = t_unfused.min(t0.elapsed().as_secs_f64());
            }
            fused(&mut c_fused);
            let mut t_fused = f64::INFINITY;
            for _ in 0..reps {
                let t0 = Instant::now();
                fused(&mut c_fused);
                t_fused = t_fused.min(t0.elapsed().as_secs_f64());
            }
            let identical = c_unfused
                .iter()
                .zip(&c_fused)
                .all(|(x, y)| x.to_bits() == y.to_bits());
            if !identical {
                eprintln!("kernel_bench: fused {label} epilogue is not bit-identical to unfused");
                failures += 1;
            }
            let speedup = t_unfused / t_fused;
            let status = if !identical {
                "FAIL (bits)"
            } else if floor.is_none() {
                "report-only"
            } else if !enforce {
                eprintln!(
                    "kernel_bench: SKIP fused-{label} floor — pool has {threads} thread(s), \
                     host exposes {avail} core(s)"
                );
                "skip"
            } else if speedup >= floor.expect("checked above") {
                "ok"
            } else {
                eprintln!(
                    "kernel_bench: fused {label} {speedup:.2}x below the {:.2}x floor",
                    floor.expect("checked above")
                );
                gate_failed = true;
                "FAIL"
            };
            row(&[
                format!("fused {label}"),
                format!("{m}x{k}x{n}"),
                format!("{:.2}", t_unfused * 1e3),
                format!("{:.2}", t_fused * 1e3),
                format!("{speedup:.2}x"),
                floor.map_or("-".to_string(), |f| format!("{f:.2}x")),
                status.to_string(),
            ]);
        };
        fusion_gate("bias", false, None, gate_reps);
        // A shallower min keeps the smoke run fast on the 2M-element GELU
        // sweeps; tanh throughput is stable enough that it still gates.
        fusion_gate("bias+gelu", true, Some(1.1), gate_reps.min(5));
    }

    // Pack-skip: the fused nm GEMM expands 2:4 storage inside `pack_b`
    // (skipping fully-zero K-groups) instead of materialising a dense f32
    // weight first. The baseline leg is what a storage-only port must do on
    // every call: decode the compacted weight into a dense scratch, then run
    // the dense packed `gemm_nt`. A serving-style skinny m on a 1024x1024
    // backbone makes the per-call decode the dominant cost, which is exactly
    // the regime the fusion exists for. Unlike the parallel/epilogue floors
    // this one enforces even on one core: both legs run the same GEMM, the
    // win is elided decode work, and a ratio of best-of mins on the same box
    // is stable without parallelism.
    {
        let (m, k, n) = (8usize, 1024usize, 1024usize);
        let a = randn_vec(m * k, 1.0, 16);
        let w = randn_vec(n * k, 1.0, 17);
        let (vals, masks) = lx_quant::nm::encode(&w, n, k, 2, 4);
        let view = || lx_kernels::NmView::new(&vals, &masks, n, k, 2, 4);
        let mut c_dense = vec![0.0f32; m * n];
        let mut c_fused = vec![0.0f32; m * n];
        let mut scratch = vec![0.0f32; n * k];
        let dense_leg = |c: &mut [f32], scratch: &mut [f32]| {
            lx_quant::nm::decode(&vals, &masks, n, k, 2, 4, scratch);
            PACKED.gemm(&Gemm::nt(m, k, n, &a, k, &scratch[..], k), c, n);
        };
        dense_leg(&mut c_dense, &mut scratch);
        let mut t_dense = f64::INFINITY;
        for _ in 0..gate_reps {
            let t0 = Instant::now();
            dense_leg(&mut c_dense, &mut scratch);
            t_dense = t_dense.min(t0.elapsed().as_secs_f64());
        }
        PACKED.gemm(&Gemm::nt(m, k, n, &a, k, view(), k), &mut c_fused, n);
        let mut t_fused = f64::INFINITY;
        for _ in 0..gate_reps {
            let t0 = Instant::now();
            PACKED.gemm(&Gemm::nt(m, k, n, &a, k, view(), k), &mut c_fused, n);
            t_fused = t_fused.min(t0.elapsed().as_secs_f64());
        }
        let identical = c_dense
            .iter()
            .zip(&c_fused)
            .all(|(x, y)| x.to_bits() == y.to_bits());
        if !identical {
            eprintln!("kernel_bench: fused nm GEMM is not bit-identical to decode-then-dense");
            failures += 1;
        }
        let speedup = t_dense / t_fused;
        let status = if !identical {
            "FAIL (bits)"
        } else if speedup >= 1.3 {
            "ok"
        } else {
            eprintln!("kernel_bench: nm pack-skip {speedup:.2}x below the 1.30x floor");
            gate_failed = true;
            "FAIL"
        };
        row(&[
            "nm pack-skip".to_string(),
            format!("{m}x{k}x{n}"),
            format!("{:.2}", t_dense * 1e3),
            format!("{:.2}", t_fused * 1e3),
            format!("{speedup:.2}x"),
            "1.30x".to_string(),
            status.to_string(),
        ]);
    }

    cli.finish();
    if let Some(path) = cli.value("--compare") {
        let tolerance = cli
            .value("--tolerance")
            .map(|t| {
                t.parse::<f64>()
                    .expect("--tolerance takes a fraction, e.g. 0.35")
            })
            .unwrap_or(0.35);
        match load_bench_json(std::path::Path::new(&path)) {
            Ok(baseline) => {
                let (checked, regressions) =
                    lx_bench::compare_to_baseline(&baseline, "speedup", tolerance);
                println!(
                    "\nbench-regression gate vs {path}: {} comparisons at {:.0}% tolerance",
                    checked.len(),
                    tolerance * 100.0
                );
                for line in &checked {
                    println!("  {line}");
                }
                for line in &regressions {
                    eprintln!("  REGRESSION {line}");
                }
                if checked.is_empty() && regressions.is_empty() {
                    eprintln!("kernel_bench: baseline matched no rows — wrong file?");
                    gate_failed = true;
                }
                gate_failed |= !regressions.is_empty();
            }
            Err(e) => {
                eprintln!("kernel_bench: cannot load baseline: {e}");
                gate_failed = true;
            }
        }
    }
    if failures > 0 {
        eprintln!("kernel_bench: {failures} backend mismatches above 1e-4");
        std::process::exit(1);
    }
    if smoke && best_speedup < 1.0 {
        // The smoke gate is deliberately lenient on shared CI boxes: packed
        // must at least not *lose* end-to-end on the probe shapes.
        eprintln!("kernel_bench: packed slower than reference on every smoke shape");
        std::process::exit(1);
    }
    if gate_failed {
        std::process::exit(1);
    }
}
