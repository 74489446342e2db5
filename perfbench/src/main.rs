//! The repository benchmark.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lora-s256|nm24-s64|serve-mixed|all> --seed <n> \
//!     --seconds <n> --trace <0|1> [--baseline <result.tsv>]
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics with tracing off; `--trace 1` is the separate traced run that
//! reports the per-layer metrics and writes its spans as a Chrome trace to
//! `bench_out/`. Each run prints a readable report (every metric with unit
//! and sample count, then every correctness check) and, as its last line,
//! one JSON object with `correct`, `attempted`, `failed` and `metrics`. A
//! failed check exits non-zero. The run's result file, with its provenance,
//! goes to `bench_out/<workload>-trace<t>.tsv`; `--baseline` compares the
//! run against such a file and refuses if the provenance differs.
//! `--workload all` runs the three workloads one process each.
//! See `perfbench/METRICS.md` for what every metric means.

mod counters;
mod provenance;
mod replay;
mod report;
mod serve;
mod stats;
mod train;

use provenance::Provenance;
use report::Report;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

pub const WORKLOADS: [&str; 3] = ["lora-s256", "nm24-s64", "serve-mixed"];

/// The end-to-end metrics every untraced run reports:
/// `(name, unit, better)`.
pub const END_TO_END: [(&str, &str, &str); 10] = [
    ("lx_tok_s", "tok/s", "higher"),
    ("dense_tok_s", "tok/s", "higher"),
    ("lx_speedup", "x", "higher"),
    ("loss_ratio", "x", "lower"),
    ("p50_ms", "ms", "lower"),
    ("p90_ms", "ms", "lower"),
    ("ref_p50_ms", "ms", "lower"),
    ("ref_p90_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_mb", "MB", "lower"),
];

/// The per-layer metrics every traced run reports: `(name, unit, better)`.
pub fn per_layer_names() -> Vec<(String, &'static str, &'static str)> {
    let mut v = Vec::new();
    for arm in ["lx", "dense"] {
        for (name, unit, better) in replay::ARM_METRICS {
            v.push((format!("{arm}.{name}"), unit, better));
        }
    }
    for (name, unit, better) in serve::SERVE_METRICS {
        v.push((name.to_string(), unit, better));
    }
    v
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut baseline) =
        (None, None, None, None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--baseline" => baseline = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?} or all)"
        ));
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=600).contains(&seconds) {
        return Err("--seconds must be 1..=600".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        baseline,
    })
}

/// The benchmark drives the repository's crates from the repository root;
/// anywhere else there is nothing to measure.
fn check_root() -> Result<(), String> {
    for dir in ["crates/core", "crates/model", "crates/kernels"] {
        if !Path::new(dir).is_dir() {
            return Err(format!("{dir} not found: run from the repository root"));
        }
    }
    Ok(())
}

/// Pin the configuration a measured run uses and refuse anything that
/// would make it unrepresentative. The pool is sized to the host's cores
/// unless `LX_THREADS` overrides it (the provenance records either), and
/// the kernel policy stays the default an embedding user gets: no
/// timing-based autotune inside a measured run.
fn pin_configuration() -> Result<(), String> {
    if std::env::var("LX_KERNEL_AUTOTUNE").as_deref() == Ok("1") {
        return Err("LX_KERNEL_AUTOTUNE=1: measured runs must not run the autotune probe".into());
    }
    if std::env::var("LX_TRACE").is_ok_and(|v| !v.is_empty()) {
        return Err("LX_TRACE is set: the service would trace the untraced runs".into());
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if !lx_parallel::set_global_threads(cores) {
        return Err("the worker pool started before its width was set".into());
    }
    Ok(())
}

fn run_one(args: &Args) -> Result<ExitCode, String> {
    check_root()?;
    pin_configuration()?;
    let prov = Provenance::collect(&args.workload, args.seconds, args.trace);
    println!(
        "== perfbench {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for (k, v) in prov.entries() {
        println!("provenance {k} = {v}");
    }
    let baseline = match &args.baseline {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("baseline {}: {e}", path.display()))?;
            let stored = report::read_tsv(&text)?;
            prov.comparable_with(&stored.provenance)?;
            Some(stored)
        }
        None => None,
    };
    let policy = lx_kernels::current_policy();
    let mut r = Report::default();
    let secs = args.seconds as f64;
    let out_dir = Path::new("bench_out");
    match (args.workload.as_str(), args.trace) {
        ("lora-s256", false) => train::run(&train::LORA_S256, args.seed, secs, &mut r),
        ("nm24-s64", false) => train::run(&train::NM24_S64, args.seed, secs, &mut r),
        ("serve-mixed", false) => serve::run(args.seed, secs, &mut r),
        ("lora-s256", true) => replay::traced(&train::LORA_S256, args.seed, secs, out_dir, &mut r),
        ("nm24-s64", true) => replay::traced(&train::NM24_S64, args.seed, secs, out_dir, &mut r),
        ("serve-mixed", true) => serve::traced(args.seed, secs, out_dir, &mut r),
        _ => unreachable!("workload validated in parse_args"),
    }
    r.check(
        "kernel policy untouched during the run",
        lx_kernels::current_policy() == policy,
        format!("{:?}", lx_kernels::current_policy()),
    );
    let section = if args.trace {
        "per_layer"
    } else {
        "end_to_end"
    };
    let declared = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e}"))
        .and_then(|text| declared_names(&text, section));
    let got: Vec<String> = r.metrics.iter().map(|m| m.name.clone()).collect();
    r.check(
        "reported metric set matches BENCHMARK.json",
        declared.as_ref() == Ok(&got),
        match &declared {
            Ok(names) => format!(
                "{} reported, {} declared in {section}",
                got.len(),
                names.len()
            ),
            Err(e) => e.clone(),
        },
    );
    if let Some(stored) = &baseline {
        if stored.seed == Some(args.seed) && stored.digest.is_some() {
            r.check(
                "same seed as the baseline gives identical outputs",
                stored.digest == r.digest,
                format!(
                    "digest {:016x} vs baseline {:016x}",
                    r.digest.unwrap_or(0),
                    stored.digest.unwrap_or(0)
                ),
            );
        }
    }
    print!("{}", r.render());
    if let Some(stored) = baseline {
        println!("against baseline (provenance matches):");
        for (name, base, unit) in &stored.metrics {
            if let Some(now) = r.get(name) {
                println!(
                    "  {name:<34} {base:>14.4} -> {now:>14.4} {unit} ({:+.1}%)",
                    100.0 * (now / base - 1.0)
                );
            }
        }
    }
    let path = out_dir.join(format!(
        "{}-trace{}.tsv",
        args.workload,
        u8::from(args.trace)
    ));
    r.write_tsv(args.seed, &prov, &path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("{}", r.summary_json());
    Ok(if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The metric names declared under `section` of `BENCHMARK.json`, in order.
/// A purpose-built scan, not a JSON parser: it relies on the section being
/// an array of flat objects whose first key is `"name"`.
fn declared_names(text: &str, section: &str) -> Result<Vec<String>, String> {
    let key = format!("\"{section}\"");
    let start = text
        .find(&key)
        .ok_or_else(|| format!("BENCHMARK.json has no {key}"))?;
    let body = &text[start..];
    let open = body.find('[').ok_or("section is not an array")?;
    let close = body.find(']').ok_or("unterminated section")?;
    let names = body[open..close]
        .split("\"name\"")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect();
    Ok(names)
}

/// `--workload all`: each workload in its own process, one after another.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let mut ok = true;
    for w in WORKLOADS {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--workload",
            w,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            if args.trace { "1" } else { "0" },
        ]);
        let status = cmd.status().map_err(|e| format!("running {w}: {e}"))?;
        ok &= status.success();
        if !status.success() {
            eprintln!("perfbench: workload {w} failed ({status})");
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.workload == "all" {
            run_all(&args)
        } else {
            run_one(&args)
        }
    });
    result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<String> {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        declared_names(&text, section).expect("section present")
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let per_layer: Vec<String> = per_layer_names().into_iter().map(|(n, _, _)| n).collect();
        assert_eq!(declared("per_layer"), per_layer);
    }

    #[test]
    fn declared_names_scans_one_section() {
        let text = r#"{"a": [{"name": "x", "unit": "ms"}], "b": [{"name": "y"}, {"name": "z"}]}"#;
        assert_eq!(declared_names(text, "b").expect("b"), vec!["y", "z"]);
        assert_eq!(declared_names(text, "a").expect("a"), vec!["x"]);
        assert!(declared_names(text, "c").is_err());
    }
}
