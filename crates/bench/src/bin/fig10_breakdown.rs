//! **Figure 10**: per-phase breakdown of PEFT fine-tuning with and without
//! Long Exposure, including predictor overhead.
//!
//! Paper: Long Exposure shrinks forward and backward across LoRA / Adapter /
//! BitFit while prediction overhead stays marginal.

use long_exposure::engine::StepMode;
use lx_bench::{calibrated_engine, default_opt, fmt_ms, header, mean_step, row};
use lx_model::{ModelConfig, StepOutcome};
use lx_peft::PeftMethod;
use std::time::Duration;

fn main() {
    let cli = lx_bench::BenchCli::parse("fig10_breakdown");
    let (batch, seq, steps) = (2, 256, 3);
    let cfg = ModelConfig::opt_sim_small();
    println!(
        "== Fig. 10: per-phase breakdown ({}, batch {batch}, seq {seq}) ==\n",
        cfg.name
    );
    header(&[
        "method",
        "predict",
        "forward",
        "backward",
        "optim",
        "total (ms)",
        "speedup",
    ]);
    let methods = [
        ("Full", PeftMethod::Full),
        ("LoRA", PeftMethod::lora_default()),
        ("Adapter", PeftMethod::adapter_default()),
        ("BitFit", PeftMethod::BitFit),
    ];
    let mut verdicts = Vec::new();
    for (name, method) in methods {
        let (mut engine, mut batcher) = calibrated_engine(cfg.clone(), method, batch, seq, 42);
        let mut opt = default_opt();
        let dense = mean_step(
            &mut engine,
            &mut batcher,
            batch,
            seq,
            StepMode::Dense,
            steps,
            &mut opt,
        );
        row(&[
            format!("{name} (dense)"),
            "-".into(),
            fmt_ms(dense.forward),
            fmt_ms(dense.backward),
            fmt_ms(dense.optim),
            fmt_ms(dense.total()),
            "1.00x".into(),
        ]);
        let lx = mean_step(
            &mut engine,
            &mut batcher,
            batch,
            seq,
            StepMode::Sparse,
            steps,
            &mut opt,
        );
        row(&[
            format!("{name} (+LongExposure)"),
            fmt_ms(lx.predict),
            fmt_ms(lx.forward),
            fmt_ms(lx.backward),
            fmt_ms(lx.optim),
            fmt_ms(lx.total()),
            format!(
                "{:.2}x",
                dense.total().as_secs_f64() / lx.total().as_secs_f64()
            ),
        ]);
        verdicts.push(verdict(name, &dense, &lx));
    }
    // Computed from the rows above, so the printed claim cannot contradict
    // the numbers (paper: forward and backward shrink, predict ~1-3%).
    println!("\nverdict (paper: +LongExposure cuts forward & backward; predict ~1-3% of total):");
    for v in verdicts {
        println!("  {v}");
    }
    cli.finish();
}

/// One method's verdict line: whether +LongExposure cut each phase, as the
/// ratio to the dense phase, and the predict share of its total.
fn verdict(name: &str, dense: &StepOutcome, lx: &StepOutcome) -> String {
    let phase = |what: &str, d: Duration, l: Duration| {
        let r = l.as_secs_f64() / d.as_secs_f64();
        let cut = if r < 1.0 { "cut" } else { "NOT cut" };
        format!("{what} {cut} ({r:.2}x of dense)")
    };
    format!(
        "{name}: {}, {}; predict {:.1}% of the +LongExposure total",
        phase("forward", dense.forward, lx.forward),
        phase("backward", dense.backward, lx.backward),
        100.0 * lx.predict.as_secs_f64() / lx.total().as_secs_f64()
    )
}
