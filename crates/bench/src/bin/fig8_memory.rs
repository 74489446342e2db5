//! **Figure 8**: memory footprints of OPT fine-tuning across sequence
//! lengths — dense, Long Exposure, and Long Exposure (optimal = frozen MLP
//! weights offloaded to host), with OOM detection against the A100.
//!
//! Paper: O(s²)→O(s) attention buffers, up to 2.77× reduction for OPT-1.3B
//! (1.69× for OPT-350M); dense OOMs first at long sequences.
//!
//! Also reports *measured* peak tensor bytes from the real allocator
//! tracker on sim-model steps.

use long_exposure::engine::StepMode;
use lx_bench::{calibrated_engine, default_opt, header, mean_step, row};
use lx_model::{ModelConfig, Precision};
use lx_peft::PeftMethod;
use lx_runtime::memsim::{step_memory, MemoryMode};
use lx_runtime::DeviceSpec;
use lx_tensor::memtrack;

fn main() {
    let cli = lx_bench::BenchCli::parse("fig8_memory");
    println!("== Fig. 8 (modelled): paper dims, A100-80GB, batch 4, LoRA ==\n");
    header(&[
        "model",
        "seq",
        "dense GB",
        "long-exp GB",
        "optimal GB",
        "reduction (opt)",
        "dense OOM?",
    ]);
    let dev = DeviceSpec::a100();
    let (attn_d, mlp_d, lf) = (0.25, 0.45, 0.003);
    for (name, cfg) in [
        ("opt-350m", ModelConfig::opt_350m()),
        ("opt-1.3b", ModelConfig::opt_1_3b()),
    ] {
        for seq in [512usize, 1024, 2048, 4096] {
            let dense = step_memory(&cfg, 4, seq, MemoryMode::Dense, 1.0, 1.0, lf);
            let lx = step_memory(&cfg, 4, seq, MemoryMode::LongExposure, attn_d, mlp_d, lf);
            let opt = step_memory(
                &cfg,
                4,
                seq,
                MemoryMode::LongExposureOptimal,
                attn_d,
                mlp_d,
                lf,
            );
            row(&[
                name.to_string(),
                seq.to_string(),
                format!(
                    "{:.1}{}",
                    dense.total_gb(),
                    if dense.oom_on(&dev) { " (OOM)" } else { "" }
                ),
                format!("{:.1}", lx.total_gb()),
                format!("{:.1}", opt.total_gb()),
                format!("{:.2}x", dense.total() / opt.total()),
                if dense.oom_on(&dev) { "yes" } else { "no" }.to_string(),
            ]);
        }
    }
    println!("\npaper reference: 2.77x reduction (OPT-1.3B), 1.69x (OPT-350M); dense OOMs at long seq.\n");

    println!("== Fig. 8 (measured): real peak tensor bytes on sim model steps ==\n");
    header(&["model", "seq", "dense MB", "long-exp MB", "reduction"]);
    let cfg = ModelConfig::opt_sim_small();
    for seq in [256usize, 512] {
        let batch = 1;
        let (mut engine, mut batcher) =
            calibrated_engine(cfg.clone(), PeftMethod::lora_default(), batch, seq, 42);
        let mut opt = default_opt();
        let ((), dense_peak) = memtrack::measure_peak(|| {
            mean_step(
                &mut engine,
                &mut batcher,
                batch,
                seq,
                StepMode::Dense,
                2,
                &mut opt,
            );
        });
        let ((), lx_peak) = memtrack::measure_peak(|| {
            mean_step(
                &mut engine,
                &mut batcher,
                batch,
                seq,
                StepMode::Sparse,
                2,
                &mut opt,
            );
        });
        row(&[
            cfg.name.clone(),
            seq.to_string(),
            format!("{:.1}", dense_peak as f64 / 1e6),
            format!("{:.1}", lx_peak as f64 / 1e6),
            format!("{:.2}x", dense_peak as f64 / lx_peak as f64),
        ]);
    }
    println!(
        "\nshape to check: attention-buffer term grows 4x per seq doubling when dense, ~2x sparse."
    );

    println!("\n== Precision modes (measured): backbone storage f32/f16/int8/nf4/nm24 ==\n");
    header(&[
        "model",
        "precision",
        "backbone MB (memtrack)",
        "backbone MB (storage)",
        "ratio vs f32",
    ]);
    // The memtrack column is the live-tensor delta of actually building the
    // backbone at each precision — the real allocator-tracked footprint —
    // and the storage column is the dtype-accounted sum over parameters.
    // The two agree because FrozenTensor registers its true footprint: 2-byte
    // f16 elements, block codes plus per-block scales, N:M survivors plus
    // masks.
    let mut f32_measured = 0usize;
    let mut ratios: Vec<(Precision, f64)> = Vec::new();
    for precision in [
        Precision::F32,
        Precision::F16Frozen,
        Precision::Int8Frozen,
        Precision::Nf4Frozen,
        Precision::Nm24Frozen,
    ] {
        let before = memtrack::current_bytes();
        let mut model = lx_bench::sim_model(ModelConfig::opt_sim_small(), 42);
        model.freeze_all();
        model.set_precision(precision);
        let measured = memtrack::current_bytes() - before;
        let storage = model.param_storage_bytes();
        if precision == Precision::F32 {
            f32_measured = measured;
        }
        let ratio = measured as f64 / f32_measured as f64;
        ratios.push((precision, ratio));
        row(&[
            model.config.name.clone(),
            precision.to_string(),
            format!("{:.2}", measured as f64 / 1e6),
            format!("{:.2}", storage as f64 / 1e6),
            format!("{:.3}x", ratio),
        ]);
    }
    println!(
        "\nacceptance (measured, vs the f32 run): f16 ≤ 0.55x, int8 ≤ 0.30x, nf4 ≤ 0.17x, \
         nm24 ≤ 0.60x (matrices shrink; biases/LayerNorm stay f32; 2:4 matrices are \
         0.5625x — half the values plus one mask byte per group of four)."
    );
    if cli.smoke {
        let gates = [
            (Precision::F16Frozen, 0.55),
            (Precision::Int8Frozen, 0.30),
            (Precision::Nf4Frozen, 0.17),
            (Precision::Nm24Frozen, 0.60),
        ];
        let mut failed = false;
        for (precision, gate) in gates {
            let ratio = ratios
                .iter()
                .find(|(p, _)| *p == precision)
                .map(|(_, r)| *r)
                .expect("precision measured above");
            if ratio > gate {
                eprintln!(
                    "fig8_memory smoke gate: {precision} measured backbone is {ratio:.3}x of \
                     f32, gate is {gate}x"
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
    }
    cli.finish();
}
