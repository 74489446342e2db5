//! Where a result came from: host cores, pool width, kernel ISA, backend
//! and dispatch policy, every `LX_*` setting, and the source revision.
//!
//! Two results are comparable only when every configuration entry matches;
//! the revision and source hash are recorded but exempt, since comparing
//! revisions is the point of a benchmark.

use std::collections::BTreeMap;
use std::path::Path;

/// Entries that identify the code, not the configuration it ran under.
const REVISION_KEYS: [&str; 2] = ["git_rev", "source_fnv64"];

#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Provenance(BTreeMap<String, String>);

impl Provenance {
    pub fn from_entries(entries: Vec<(String, String)>) -> Self {
        Provenance(entries.into_iter().collect())
    }

    pub fn entries(&self) -> impl Iterator<Item = (&String, &String)> {
        self.0.iter()
    }

    pub fn set(&mut self, key: &str, value: impl ToString) {
        self.0.insert(key.to_string(), value.to_string());
    }

    /// Describe every configuration entry on which `self` and `other`
    /// differ (empty = comparable).
    pub fn mismatches(&self, other: &Provenance) -> Vec<String> {
        let keys: std::collections::BTreeSet<&String> =
            self.0.keys().chain(other.0.keys()).collect();
        keys.into_iter()
            .filter(|k| !REVISION_KEYS.contains(&k.as_str()))
            .filter_map(|k| {
                let (a, b) = (self.0.get(k), other.0.get(k));
                (a != b).then(|| {
                    format!(
                        "{k}: {} vs {}",
                        a.map_or("(absent)", |s| s.as_str()),
                        b.map_or("(absent)", |s| s.as_str())
                    )
                })
            })
            .collect()
    }

    /// Refuse to compare against `baseline` unless the configurations match.
    pub fn comparable_with(&self, baseline: &Provenance) -> Result<(), String> {
        let diff = self.mismatches(baseline);
        if diff.is_empty() {
            Ok(())
        } else {
            Err(format!(
                "refusing to compare: provenance differs from the baseline ({})",
                diff.join("; ")
            ))
        }
    }

    /// Stamp the running process: the caller has already sized the pool and
    /// must not have installed a tuned kernel policy.
    pub fn collect(workload: &str, seconds: u64, trace: bool) -> Provenance {
        let mut p = Provenance::default();
        p.set("workload", workload);
        p.set("run_seconds", seconds);
        p.set("trace", u8::from(trace));
        p.set(
            "cores",
            std::thread::available_parallelism().map_or(1, |n| n.get()),
        );
        p.set("pool_threads", lx_parallel::pool().threads());
        p.set("isa", lx_kernels::active_isa().name());
        p.set(
            "kernel_backend",
            std::env::var("LX_KERNEL_BACKEND").unwrap_or_else(|_| "auto".into()),
        );
        let policy = lx_kernels::current_policy();
        p.set("policy.min_flops_packed", policy.min_flops_packed);
        p.set(
            "policy.tiles",
            format!(
                "mc={} kc={} nc={}",
                policy.tiles.mc, policy.tiles.kc, policy.tiles.nc
            ),
        );
        p.set(
            "policy.isa_pin",
            policy.isa.map_or("none", |isa| isa.name()),
        );
        p.set(
            "policy.is_default",
            policy == lx_kernels::KernelPolicy::default(),
        );
        // Every LX_* knob changes what is measured (LX_THREADS included),
        // so each one set in the environment is part of the configuration.
        let mut knobs: Vec<(String, String)> = std::env::vars()
            .filter(|(k, _)| k.starts_with("LX_"))
            .collect();
        knobs.sort();
        p.set(
            "env.LX_THREADS",
            std::env::var("LX_THREADS").unwrap_or_else(|_| "unset".into()),
        );
        for (k, v) in knobs {
            p.set(&format!("env.{k}"), v);
        }
        p.set("git_rev", git_rev());
        p.set(
            "source_fnv64",
            format!("{:016x}", source_hash(Path::new("crates"))),
        );
        p
    }
}

/// `git rev-parse HEAD`, or `none` outside a git checkout. Git may not
/// look above the working directory for a repository: the benchmark reads
/// nothing outside its checkout.
fn git_rev() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a over every file under `root` (sorted paths, then contents): a
/// revision stamp that also works where the checkout is not a git
/// repository.
fn source_hash(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(rd) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in rd.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut h: u64 = 0xcbf29ce484222325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for f in files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(&f).unwrap_or_default());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prov(pairs: &[(&str, &str)]) -> Provenance {
        Provenance::from_entries(
            pairs
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
        )
    }

    #[test]
    fn identical_configuration_is_comparable_across_revisions() {
        let a = prov(&[("cores", "2"), ("isa", "avx512"), ("git_rev", "aaa")]);
        let b = prov(&[("cores", "2"), ("isa", "avx512"), ("git_rev", "bbb")]);
        assert!(a.comparable_with(&b).is_ok());
    }

    #[test]
    fn a_provenance_mismatch_is_refused() {
        let a = prov(&[("cores", "2"), ("env.LX_THREADS", "2"), ("isa", "avx512")]);
        let b = prov(&[("cores", "2"), ("env.LX_THREADS", "1"), ("isa", "avx2")]);
        let err = a.comparable_with(&b).expect_err("mismatch must be refused");
        assert!(err.contains("refusing to compare"), "{err}");
        assert!(err.contains("env.LX_THREADS: 2 vs 1"), "{err}");
        assert!(err.contains("isa: avx512 vs avx2"), "{err}");
        // A key present on one side only is a mismatch too.
        let c = prov(&[
            ("cores", "2"),
            ("env.LX_THREADS", "2"),
            ("isa", "avx512"),
            ("env.LX_KERNEL_ISA", "avx2"),
        ]);
        let err = a
            .comparable_with(&c)
            .expect_err("extra knob must be refused");
        assert!(err.contains("env.LX_KERNEL_ISA: (absent) vs avx2"), "{err}");
    }

    #[test]
    fn source_hash_is_stable_and_content_sensitive() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        assert_eq!(source_hash(&here), source_hash(&here));
        assert_ne!(source_hash(&here), source_hash(&here.join("stats.rs")));
    }
}
