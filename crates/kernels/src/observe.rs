//! GEMM observability: the [`Observed`] wrapper backend.
//!
//! Every call through [`crate::dispatch::backend`] passes through an
//! `Observed` wrapper that attributes the call to the backend that actually
//! ran it (for [`crate::dispatch::Auto`], the routed choice), to a FLOP
//! shape class, and to the storage dtype of the B operand, then bumps
//! `kernel.gemm.calls{backend,class,dtype,isa,threads}` in the global
//! [`lx_obs`] registry. The `isa` and `threads` labels are process-wide
//! constants (the active microkernel arm and the pool width), captured once
//! at table init so CI matrix arms can tell their metric streams apart.
//! Call counting is one relaxed atomic add; per-call *latency*
//! (`kernel.gemm.ns{…}`) is only measured while
//! [`lx_obs::timing_enabled`] — two `Instant` reads per GEMM are noise for
//! Fig. 12 shapes but not for the thousands of tiny per-block sparse GEMMs,
//! and the disabled path must stay under the 1% `step_bench` overhead gate.

use crate::backend::KernelBackend;
use crate::descriptor::{BOperand, Gemm};
use crate::dispatch::auto_choice;
use lx_obs::{registry, timing_enabled, Counter, Histogram};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// FLOP-count shape classes for GEMM attribution.
const CLASSES: [&str; 4] = ["tiny", "small", "medium", "large"];

/// Class index by `2·m·k·n` FLOPs: tiny < 2^17 ≤ small < 2^21 ≤ medium
/// < 2^25 ≤ large.
fn class(m: usize, k: usize, n: usize) -> usize {
    let flops = 2 * (m as u64) * (k as u64) * (n as u64);
    match flops {
        f if f < 1 << 17 => 0,
        f if f < 1 << 21 => 1,
        f if f < 1 << 25 => 2,
        _ => 3,
    }
}

struct GemmStats {
    calls: Arc<Counter>,
    time_ns: Arc<Histogram>,
}

/// The `reference`/`packed` × class × dtype instrument table, registered
/// once.
fn stats(backend: &'static str, class: usize, dtype: usize) -> &'static GemmStats {
    static TABLE: OnceLock<Vec<GemmStats>> = OnceLock::new();
    let table = TABLE.get_or_init(|| {
        // Process-wide constant labels: the microkernel arm and pool width
        // never change after startup, so they cost no extra table entries.
        let isa = crate::isa::active_isa().name();
        let threads: &'static str =
            Box::leak(lx_parallel::pool().threads().to_string().into_boxed_str());
        let mut v = Vec::with_capacity(2 * CLASSES.len() * BOperand::DTYPES.len());
        for be in ["reference", "packed"] {
            for cls in CLASSES {
                for dt in BOperand::DTYPES {
                    let labels = [
                        ("backend", be),
                        ("class", cls),
                        ("dtype", dt),
                        ("isa", isa),
                        ("threads", threads),
                    ];
                    v.push(GemmStats {
                        calls: registry().counter_labeled("kernel.gemm.calls", &labels),
                        time_ns: registry().histogram_labeled("kernel.gemm.ns", &labels),
                    });
                }
            }
        }
        v
    });
    let be = usize::from(backend == "packed");
    &table[(be * CLASSES.len() + class) * BOperand::DTYPES.len() + dtype]
}

/// A [`KernelBackend`] that delegates to `inner` and records call counts and
/// (when timing is enabled) latency into the global metrics registry.
pub struct Observed {
    inner: &'static dyn KernelBackend,
}

impl Observed {
    pub const fn new(inner: &'static dyn KernelBackend) -> Self {
        Observed { inner }
    }

    /// The backend name a call of this shape is attributed to (resolves
    /// `auto` to its routed choice).
    fn attribute(&self, m: usize, k: usize, n: usize) -> &'static str {
        let name = self.inner.name();
        if name == "auto" {
            auto_choice(m, k, n)
        } else {
            name
        }
    }
}

impl KernelBackend for Observed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn gemm(&self, g: &Gemm<'_>, c: &mut [f32], ldc: usize) {
        let s = stats(
            self.attribute(g.m, g.k, g.n),
            class(g.m, g.k, g.n),
            g.b.kind(),
        );
        if timing_enabled() {
            let t0 = Instant::now();
            self.inner.gemm(g, c, ldc);
            s.time_ns.record_duration(t0.elapsed());
        } else {
            self.inner.gemm(g, c, ldc);
        }
        s.calls.inc();
    }
}

/// Total observed GEMM calls across all backends, shape classes, and dtypes
/// — a cheap "how many kernels did that step issue" probe for overhead
/// accounting.
pub fn gemm_call_total() -> u64 {
    let mut total = 0;
    for be in ["reference", "packed"] {
        for (i, _) in CLASSES.iter().enumerate() {
            for (d, _) in BOperand::DTYPES.iter().enumerate() {
                total += stats(be, i, d).calls.get();
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::REFERENCE;

    #[test]
    fn shape_classes_split_at_flop_boundaries() {
        assert_eq!(class(4, 4, 4), 0);
        assert_eq!(class(32, 64, 32), 1); // 2·32·64·32 = 2^17 exactly: first small shape
        assert_eq!(class(64, 64, 64), 1);
        assert_eq!(class(128, 256, 128), 2);
        assert_eq!(class(512, 512, 512), 3);
    }

    #[test]
    fn observed_counts_calls_and_delegates() {
        let observed = Observed::new(&REFERENCE);
        assert_eq!(observed.name(), "reference");
        let before = stats("reference", 0, 0).calls.get();
        let a = [1.0f32, 2.0, 3.0, 4.0];
        let b = [5.0f32, 6.0, 7.0, 8.0];
        let mut c = [0.0f32; 4];
        observed.gemm(&Gemm::nn(2, 2, 2, &a, 2, &b[..], 2), &mut c, 2);
        assert_eq!(stats("reference", 0, 0).calls.get(), before + 1);
        // 2x2 result actually computed by the inner backend.
        assert_eq!(c, [19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn quantized_calls_land_in_their_dtype_bucket() {
        let observed = Observed::new(&REFERENCE);
        let vals: Vec<f32> = (0..4).map(|i| i as f32 - 1.5).collect();
        let (codes, scales) = lx_quant::q8::quantize(&vals);
        let view = lx_quant::Q8View::new(&codes, &scales);
        let q8 = BOperand::Q8(view).kind();
        let before_q8 = stats("reference", 0, q8).calls.get();
        let before_f32 = stats("reference", 0, 0).calls.get();
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let mut c = [0.0f32; 4];
        observed.gemm(&Gemm::nn(2, 2, 2, &a, 2, view, 2), &mut c, 2);
        assert_eq!(stats("reference", 0, q8).calls.get(), before_q8 + 1);
        assert_eq!(
            stats("reference", 0, 0).calls.get(),
            before_f32,
            "the f32 bucket must not double-count a quantized call"
        );
    }
}
