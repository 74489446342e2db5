//! Hand-rolled public-API snapshot: the `pub fn` / `pub struct` / `pub enum`
//! / `pub trait` / `pub use` surface of the crates in [`CRATES`] is extracted
//! from the sources and compared against a committed baseline
//! (`tests/api/public_api.txt`). Unreviewed drift — a forgotten `pub`, a
//! resurrected legacy entry point, a renamed builder, one more per-dtype GEMM
//! variant — fails CI.
//!
//! To accept an intentional change, regenerate the baseline:
//!
//! ```sh
//! LX_UPDATE_API=1 cargo test -p lx-integration --test api_surface
//! ```
//!
//! and commit the diff together with the API change.

use std::path::{Path, PathBuf};

/// Crates whose public surface is under snapshot control.
const CRATES: &[(&str, &str)] = &[
    ("lx-obs", "crates/obs/src"),
    ("lx-quant", "crates/quant/src"),
    ("lx-kernels", "crates/kernels/src"),
    ("lx-tensor", "crates/tensor/src"),
    ("lx-model", "crates/model/src"),
    ("lx-core", "crates/core/src"),
    ("lx-serve", "crates/serve/src"),
    ("lx-cluster", "crates/cluster/src"),
];

const BASELINE: &str = "api/public_api.txt";

/// Item prefixes that constitute the public surface. `pub(crate)` and
/// friends never match (the prefix requires `pub` + space + keyword).
const PREFIXES: &[&str] = &[
    "pub fn ",
    "pub unsafe fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub type ",
    "pub const ",
    "pub static ",
    "pub use ",
    "pub mod ",
];

fn repo_root() -> PathBuf {
    // The tests crate lives at <repo>/tests.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repo root")
        .to_path_buf()
}

/// Collapse whitespace runs so rustfmt churn can't move the baseline.
fn normalize(sig: &str) -> String {
    let mut out = String::with_capacity(sig.len());
    let mut last_space = false;
    for c in sig.chars() {
        if c.is_whitespace() {
            if !last_space {
                out.push(' ');
            }
            last_space = true;
        } else {
            out.push(c);
            last_space = false;
        }
    }
    out.trim().to_string()
}

/// Extract the normalized public item signatures of one source file. Test
/// modules are excluded: in this codebase every `#[cfg(test)]` block sits at
/// the bottom of its file, so extraction simply stops there.
fn extract(src: &str) -> Vec<String> {
    let mut items = Vec::new();
    let mut pending: Option<String> = None;
    for line in src.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if pending.is_none() && PREFIXES.iter().any(|p| trimmed.starts_with(p)) {
            pending = Some(String::new());
        }
        if let Some(sig) = &mut pending {
            if !sig.is_empty() {
                sig.push(' ');
            }
            sig.push_str(trimmed);
            // Re-exports keep their full (possibly brace-grouped, possibly
            // multi-line) name list up to the terminating semicolon — a name
            // added to or dropped from `pub use foo::{..}` is API drift too.
            // Everything else is complete at its body brace or semicolon;
            // the body is cut off and the declaration kept.
            if sig.starts_with("pub use ") {
                if sig.ends_with(';') {
                    let decl = sig.trim_end_matches(';').trim().to_string();
                    items.push(normalize(&decl));
                    pending = None;
                }
            } else if let Some(cut) = sig.find('{') {
                let decl = sig[..cut].trim().to_string();
                items.push(normalize(&decl));
                pending = None;
            } else if sig.ends_with(';') {
                let decl = sig.trim_end_matches(';').trim().to_string();
                items.push(normalize(&decl));
                pending = None;
            }
        }
    }
    items.sort();
    items.dedup();
    items
}

fn current_surface() -> String {
    let root = repo_root();
    let mut out = String::new();
    for (krate, dir) in CRATES {
        let mut files: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap_or_else(|e| panic!("read {dir}: {e}"))
            .map(|e| e.expect("dir entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "rs"))
            .collect();
        files.sort();
        for file in files {
            let src = std::fs::read_to_string(&file).expect("read source");
            let items = extract(&src);
            if items.is_empty() {
                continue;
            }
            let rel = file.strip_prefix(&root).unwrap().display();
            out.push_str(&format!("## {krate} {rel}\n"));
            for item in items {
                out.push_str(&item);
                out.push('\n');
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn public_api_matches_committed_baseline() {
    let current = current_surface();
    let baseline_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(BASELINE);
    if std::env::var("LX_UPDATE_API").is_ok() {
        std::fs::create_dir_all(baseline_path.parent().unwrap()).expect("mkdir api/");
        std::fs::write(&baseline_path, &current).expect("write baseline");
        println!("regenerated {}", baseline_path.display());
        return;
    }
    let committed = std::fs::read_to_string(&baseline_path).unwrap_or_else(|e| {
        panic!(
            "missing API baseline {} ({e}); run LX_UPDATE_API=1 cargo test -p \
             lx-integration --test api_surface",
            baseline_path.display()
        )
    });
    if committed != current {
        // Line-level diff keeps the failure actionable without a diff tool.
        let old: Vec<&str> = committed.lines().collect();
        let new: Vec<&str> = current.lines().collect();
        let removed: Vec<&&str> = old.iter().filter(|l| !new.contains(l)).collect();
        let added: Vec<&&str> = new.iter().filter(|l| !old.contains(l)).collect();
        panic!(
            "public API drifted from the committed baseline.\n\
             removed ({}):\n  {}\nadded ({}):\n  {}\n\
             If intentional, regenerate with LX_UPDATE_API=1 cargo test -p \
             lx-integration --test api_surface and commit the diff.",
            removed.len(),
            removed
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join("\n  "),
            added.len(),
            added
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join("\n  "),
        );
    }
}

#[test]
fn legacy_model_entry_points_stay_retired() {
    // The api_redesign contract: the six pre-StepRequest entry points must
    // never resurface on `TransformerModel`'s public API. Only the model's
    // own file is in scope — layers keep their `forward`, and the engine
    // keeps its StepOutcome-returning `train_step` wrapper.
    let current = current_surface();
    let model_section: String = current
        .split("## ")
        .find(|s| s.starts_with("lx-model crates/model/src/model.rs"))
        .expect("model.rs section in surface")
        .to_string();
    for legacy in [
        "pub fn forward(",
        "pub fn backward(",
        "pub fn forward_planned(",
        "pub fn forward_with_captures(",
        "pub fn train_step(",
        "pub fn train_step_scaled(",
        "pub fn score_continuation(&mut self",
    ] {
        assert!(
            !model_section.contains(legacy),
            "legacy TransformerModel entry point resurfaced: {legacy}"
        );
    }
    // The replacement is present instead.
    let exec_section: String = current
        .split("## ")
        .find(|s| s.starts_with("lx-model crates/model/src/exec.rs"))
        .expect("exec.rs section in surface")
        .to_string();
    assert!(exec_section.contains("pub fn execute"));
    assert!(exec_section.contains("pub struct StepRequest"));
    assert!(exec_section.contains("pub struct StepOutcome"));
}
