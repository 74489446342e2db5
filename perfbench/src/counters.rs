//! Snapshots of the library's always-on counters, taken at the benchmark's
//! own call boundaries so deltas attribute work to one public call.

use lx_obs::registry;

/// Kernel-layer counts: observed GEMM calls split by the backend that ran
/// them and by FLOP class, plus GEMM nanoseconds (recorded by the
/// `kernel.gemm.ns` histograms only while a trace session is active).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Kernel {
    pub calls: u64,
    pub reference: u64,
    pub packed: u64,
    /// `[tiny, small, medium, large]`.
    pub class: [u64; 4],
    pub gemm_ns: u64,
}

const CLASSES: [&str; 4] = ["tiny", "small", "medium", "large"];

/// Value of label `key` inside a registry key like `name{a="x",b="y"}`.
fn label<'a>(key: &'a str, name: &str) -> Option<&'a str> {
    let pat = format!("{name}=\"");
    let start = key.find(&pat)? + pat.len();
    let len = key[start..].find('"')?;
    Some(&key[start..start + len])
}

impl Kernel {
    pub fn now() -> Kernel {
        let mut k = Kernel::default();
        for (key, v) in registry().counters() {
            if !key.starts_with("kernel.gemm.calls{") {
                continue;
            }
            k.calls += v;
            match label(&key, "backend") {
                Some("reference") => k.reference += v,
                Some("packed") => k.packed += v,
                _ => {}
            }
            if let Some(i) = label(&key, "class").and_then(|c| CLASSES.iter().position(|&x| x == c))
            {
                k.class[i] += v;
            }
        }
        k.gemm_ns = registry()
            .histograms()
            .into_iter()
            .filter(|(key, _)| key.starts_with("kernel.gemm.ns{"))
            .map(|(_, h)| h.sum)
            .sum();
        k
    }

    pub fn since(&self, mark: &Kernel) -> Kernel {
        let mut class = [0; 4];
        for (i, c) in class.iter_mut().enumerate() {
            *c = self.class[i] - mark.class[i];
        }
        Kernel {
            calls: self.calls - mark.calls,
            reference: self.reference - mark.reference,
            packed: self.packed - mark.packed,
            class,
            gemm_ns: self.gemm_ns - mark.gemm_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_parse_out_of_registry_keys() {
        let key = "kernel.gemm.calls{backend=\"packed\",class=\"tiny\",dtype=\"f32\"}";
        assert_eq!(label(key, "backend"), Some("packed"));
        assert_eq!(label(key, "class"), Some("tiny"));
        assert_eq!(label(key, "isa"), None);
    }

    #[test]
    fn gemm_counts_split_by_backend_and_class() {
        let a = Kernel::now();
        let x = vec![1.0f32; 8 * 8];
        let mut c = vec![0.0f32; 8 * 8];
        lx_kernels::gemm(8, 8, 8, &x, &x, &mut c, 0.0);
        let d = Kernel::now().since(&a);
        // Other tests in this binary may issue GEMMs concurrently, so the
        // delta is a lower bound; the split must still add up.
        assert!(d.calls >= 1);
        assert_eq!(d.reference + d.packed, d.calls);
        assert_eq!(d.class.iter().sum::<u64>(), d.calls);
    }
}
