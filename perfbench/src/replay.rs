//! The traced run: per-layer metrics for both arms.
//!
//! 1. Untraced pairs give each arm's reference step time.
//! 2. The same pairs run again inside an `lx_obs::TraceSession`, every
//!    engine call wrapped in a benchmark-owned span, with counter deltas
//!    taken at the same boundaries; the ratio to (1) is the tracing
//!    overhead.
//! 3. A real step's `SparsePlan` is replayed sublayer by sublayer through
//!    the public `TransformerModel` fields (`embedding`, `blocks[i].{ln1,
//!    attn, ln2, mlp}`, `ln_f`), each call in its own span, and its loss
//!    and gradients must be bit-identical to
//!    `execute(StepRequest::grad(..).plan(&plan))` on the same batch. The
//!    predictors are then timed on the block inputs the replay saw.
//!
//! Sublayer times are span self times (a span minus its children).

use crate::counters::Kernel;
use crate::report::Report;
use crate::stats::{mean, median, ms, ns_ms};
use crate::train::{measured, run_pairs, Arm, ArmStep, Paired, TrainWorkload};
use lx_model::{loss, SparsePlan, StepRequest, TransformerModel};
use lx_obs::{Span, SpanRecord, TraceSession};
use lx_tensor::{gemm::matmul_tn, Tensor};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;

/// Replays per arm; sublayer metrics are means over them.
const REPLAYS: usize = 5;
/// Measured pairs in each of the untraced and traced loops.
const LOOP_PAIRS: usize = 20;

/// Per-arm metrics, reported as `lx.<name>` and `dense.<name>`.
pub const ARM_METRICS: [(&str, &str, &str); 36] = [
    ("step_ms", "ms", "lower"),
    ("kernels.gemm_calls", "count", "lower"),
    ("kernels.gemm_calls.reference", "count", "lower"),
    ("kernels.gemm_calls.packed", "count", "lower"),
    ("kernels.gemm_calls.tiny", "count", "lower"),
    ("kernels.gemm_calls.small", "count", "lower"),
    ("kernels.gemm_calls.medium", "count", "lower"),
    ("kernels.gemm_calls.large", "count", "lower"),
    ("kernels.gemm_ms", "ms", "lower"),
    ("model.attn.fwd_ms", "ms", "lower"),
    ("model.attn.bwd_ms", "ms", "lower"),
    ("model.attn.fwd.gemm_calls", "count", "lower"),
    ("model.attn.bwd.gemm_calls", "count", "lower"),
    ("model.attn.gemm_ms", "ms", "lower"),
    ("model.mlp.fwd_ms", "ms", "lower"),
    ("model.mlp.bwd_ms", "ms", "lower"),
    ("model.mlp.fwd.gemm_calls", "count", "lower"),
    ("model.mlp.bwd.gemm_calls", "count", "lower"),
    ("model.mlp.gemm_ms", "ms", "lower"),
    ("model.slab_decodes", "count", "lower"),
    ("model.embed_ms", "ms", "lower"),
    ("model.ln_ms", "ms", "lower"),
    ("model.head_loss_ms", "ms", "lower"),
    ("model.residual_ms", "ms", "lower"),
    ("model.fwd_ms", "ms", "lower"),
    ("model.bwd_ms", "ms", "lower"),
    ("model.optim_ms", "ms", "lower"),
    ("core.predict_ms", "ms", "lower"),
    ("core.predict.attn_ms", "ms", "lower"),
    ("core.predict.mlp_ms", "ms", "lower"),
    ("core.attn_density", "ratio", "lower"),
    ("core.mlp_density", "ratio", "lower"),
    ("tensor.allocs_per_step", "count", "lower"),
    ("tensor.workspace_hit_rate", "ratio", "higher"),
    ("trace.span_coverage", "ratio", "higher"),
    ("trace.overhead", "x", "lower"),
];

/// Self time of every record: its duration minus the durations of its
/// direct children (records nested inside it on the same thread).
pub fn self_times(records: &[SpanRecord]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..records.len()).collect();
    // Parents sort before the children they contain.
    order.sort_by_key(|&i| {
        let r = &records[i];
        (r.tid, r.start_ns, std::cmp::Reverse(r.dur_ns))
    });
    let mut selfs: Vec<u64> = records.iter().map(|r| r.dur_ns).collect();
    let mut stack: Vec<usize> = Vec::new();
    for i in order {
        while let Some(&top) = stack.last() {
            if records[top].contains(&records[i]) {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            selfs[parent] = selfs[parent].saturating_sub(records[i].dur_ns);
        }
        stack.push(i);
    }
    selfs
}

/// Sublayer GEMM counters gathered during one arm's replays.
#[derive(Default)]
struct Sublayers {
    attn_fwd: Kernel,
    attn_bwd: Kernel,
    mlp_fwd: Kernel,
    mlp_bwd: Kernel,
}

fn add(acc: &mut Kernel, d: Kernel) {
    acc.calls += d.calls;
    acc.gemm_ns += d.gemm_ns;
}

/// Run `f` inside a benchmark span tagged with the arm (and layer).
fn span<R>(name: &'static str, arm: &str, layer: Option<usize>, f: impl FnOnce() -> R) -> R {
    let mut s = Span::enter(name).cat("replay").tenant(arm);
    if let Some(l) = layer {
        s = s.layer(l as u32);
    }
    let out = f();
    drop(s);
    out
}

/// [`span`] with the kernel-counter delta across it added to `acc`.
fn counted<R>(
    acc: &mut Kernel,
    name: &'static str,
    arm: &str,
    layer: usize,
    f: impl FnOnce() -> R,
) -> R {
    let k0 = Kernel::now();
    let out = span(name, arm, Some(layer), f);
    add(acc, Kernel::now().since(&k0));
    out
}

/// One gradient step replayed sublayer by sublayer, mirroring
/// `TransformerModel::execute` in `Grad` mode. Returns the loss and the
/// block input of every layer.
fn replay_step(
    m: &mut TransformerModel,
    w: &TrainWorkload,
    ids: &[u32],
    targets: &[i32],
    plan: Option<&SparsePlan>,
    arm: &str,
    sub: &mut Sublayers,
) -> (f32, Vec<Tensor>) {
    let (batch, seq) = (w.batch, w.seq);
    let eff = m.effective_seq(seq);
    m.zero_grads();
    let _root = Span::enter("replay.step").cat("replay").tenant(arm);
    let mut inputs = Vec::with_capacity(m.blocks.len());
    let mut x = span("replay.embed", arm, None, || {
        m.embedding.forward(ids, batch, seq)
    });
    for (l, blk) in m.blocks.iter_mut().enumerate() {
        inputs.push(x.clone());
        let lp = plan.and_then(|p| p.layer(l));
        let normed = span("replay.ln", arm, Some(l), || blk.ln1.forward(&x));
        let mut a = counted(&mut sub.attn_fwd, "replay.attn.fwd", arm, l, || {
            blk.attn
                .forward(&normed, batch, eff, lp.and_then(|p| p.attn.as_ref()))
        });
        if let Some(ad) = &mut blk.adapter1 {
            a = span("replay.adapter", arm, Some(l), || ad.forward(&a));
        }
        let mut x1 = x.clone();
        span("replay.residual", arm, Some(l), || x1.add_assign(&a));
        let normed2 = span("replay.ln", arm, Some(l), || blk.ln2.forward(&x1));
        let mut y = counted(&mut sub.mlp_fwd, "replay.mlp.fwd", arm, l, || {
            blk.mlp.forward(&normed2, lp.and_then(|p| p.mlp.as_ref()))
        });
        if let Some(ad) = &mut blk.adapter2 {
            y = span("replay.adapter", arm, Some(l), || ad.forward(&y));
        }
        span("replay.residual", arm, Some(l), || x1.add_assign(&y));
        x = x1;
    }
    let h = span("replay.ln", arm, None, || m.ln_f.forward(&x));
    let (loss, dlogits) = span("replay.head_loss", arm, None, || {
        let logits = m.embedding.tokens.matmul_nt(&h);
        loss::cross_entropy(&logits, targets)
    });
    let dh = span("replay.head_loss", arm, None, || {
        let dh = m.embedding.tokens.matmul(&dlogits);
        if m.embedding.tokens.trainable {
            let demb = matmul_tn(&dlogits, &h);
            m.embedding.tokens.accumulate_grad(&demb);
        }
        dh
    });
    let mut dx = span("replay.ln", arm, None, || m.ln_f.backward(&dh));
    for (l, blk) in m.blocks.iter_mut().enumerate().rev() {
        let mut dmlp = dx.clone();
        if let Some(ad) = &mut blk.adapter2 {
            dmlp = span("replay.adapter", arm, Some(l), || ad.backward(&dmlp));
        }
        let dnormed2 = counted(&mut sub.mlp_bwd, "replay.mlp.bwd", arm, l, || {
            blk.mlp.backward(&dmlp)
        });
        let mut dx1 = span("replay.ln", arm, Some(l), || blk.ln2.backward(&dnormed2));
        span("replay.residual", arm, Some(l), || dx1.add_assign(&dx));
        let mut dattn = dx1.clone();
        if let Some(ad) = &mut blk.adapter1 {
            dattn = span("replay.adapter", arm, Some(l), || ad.backward(&dattn));
        }
        let dnormed = counted(&mut sub.attn_bwd, "replay.attn.bwd", arm, l, || {
            blk.attn.backward(&dattn)
        });
        let mut dxl = span("replay.ln", arm, Some(l), || blk.ln1.backward(&dnormed));
        span("replay.residual", arm, Some(l), || dxl.add_assign(&dx1));
        dx = dxl;
    }
    span("replay.embed", arm, None, || m.embedding.backward(&dx));
    (loss, inputs)
}

/// Bit pattern of every trainable gradient, in parameter order.
fn grad_bits(m: &mut TransformerModel) -> Vec<u32> {
    let mut bits = Vec::new();
    m.for_each_param(&mut |p| {
        if let Some(g) = &p.grad {
            bits.extend(g.as_slice().iter().map(|v| v.to_bits()));
        }
    });
    bits
}

/// What one arm's replays produced.
struct ArmReplay {
    sub: Sublayers,
    /// Replays whose loss and gradients matched `execute` bit for bit.
    identical: usize,
    first_mismatch: Option<String>,
}

/// Take a real step, then check and time its replay, `REPLAYS` times.
fn replay_arm(arm: &mut Arm, w: &TrainWorkload, tag: &str) -> ArmReplay {
    let mut out = ArmReplay {
        sub: Sublayers::default(),
        identical: 0,
        first_mismatch: None,
    };
    for i in 0..REPLAYS {
        let (ids, targets) = arm.next_batch(w);
        let real = arm.step(w, &ids, &targets);
        let plan = real.out.plan.clone();
        let m = &mut arm.engine.model;
        let mut req = StepRequest::grad(&ids, &targets, w.batch, w.seq);
        if let Some(p) = &plan {
            req = req.plan(p);
        }
        let exec = span("bench.execute_grad", tag, None, || m.execute(req));
        let exec_grads = grad_bits(m);
        let (loss, inputs) = m.workspace_scope(|m| {
            replay_step(m, w, &ids, &targets, plan.as_ref(), tag, &mut out.sub)
        });
        let same = loss.to_bits() == exec.loss.to_bits() && grad_bits(m) == exec_grads;
        if same {
            out.identical += 1;
        } else if out.first_mismatch.is_none() {
            out.first_mismatch = Some(format!("replay {i}: loss {loss} vs execute {}", exec.loss));
        }
        if plan.is_some() {
            let eff = m.effective_seq(w.seq);
            for (l, x) in inputs.iter().enumerate() {
                let e = &arm.engine;
                span("replay.predict.attn", tag, Some(l), || {
                    black_box(e.predict_attention_masks(l, x, w.batch, eff))
                });
                span("replay.predict.mlp", tag, Some(l), || {
                    black_box(e.predict_mlp_set(l, x))
                });
            }
        }
    }
    out
}

fn med(steps: &[&ArmStep], f: impl Fn(&ArmStep) -> f64) -> f64 {
    median(&steps.iter().map(|s| f(s)).collect::<Vec<_>>())
}

fn avg(steps: &[&ArmStep], f: impl Fn(&ArmStep) -> f64) -> f64 {
    mean(&steps.iter().map(|s| f(s)).collect::<Vec<_>>())
}

/// Traced run of a training workload.
pub fn traced(w: &TrainWorkload, seed: u64, seconds: f64, out_dir: &Path, r: &mut Report) {
    traced_with(w, seed, seconds, out_dir, r, crate::serve::not_exercised);
}

/// Traced run at workload shape `w`; `extra` runs inside the same trace
/// session after the replay and adds its own metrics.
pub fn traced_with(
    w: &TrainWorkload,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    r: &mut Report,
    extra: impl FnOnce(&mut Report),
) {
    let mut paired = Paired::build(w, seed);
    let untraced = run_pairs(&mut paired, w, seconds / 2.0, LOOP_PAIRS, 0);
    let first = untraced.len();
    let session = TraceSession::with_capacity(1 << 18).expect("no other trace session is active");
    let traced = run_pairs(&mut paired, w, 0.0, LOOP_PAIRS, first);
    let lx_replay = replay_arm(&mut paired.lx, w, "lx");
    let dense_replay = replay_arm(&mut paired.dense, w, "dense");
    let mut extra_metrics = Report::default();
    extra(&mut extra_metrics);
    let trace = session.finish();

    let path = out_dir.join(format!("trace-{}-seed{seed}.json", w.name));
    let written = std::fs::create_dir_all(out_dir).and_then(|_| trace.write_chrome(&path));
    r.check(
        "trace written",
        written.is_ok(),
        format!(
            "{} ({} spans): {written:?}",
            path.display(),
            trace.records.len()
        ),
    );
    r.check(
        "trace ring kept every span",
        trace.dropped == 0,
        format!("{} dropped", trace.dropped),
    );

    // Self time per (arm, span name), summed over the arm's replays.
    let selfs = self_times(&trace.records);
    let mut by_name: BTreeMap<(String, &str), f64> = BTreeMap::new();
    for (rec, s) in trace.records.iter().zip(&selfs) {
        if let Some(arm) = &rec.tenant {
            *by_name.entry((arm.to_string(), rec.name)).or_default() += *s as f64;
        }
    }

    let mut all_attempted = 0u64;
    let mut all_failed = 0u64;
    for (tag, rep) in [("lx", &lx_replay), ("dense", &dense_replay)] {
        let un: Vec<&ArmStep> = measured(&untraced).iter().map(|p| p.arm(tag)).collect();
        let tr: Vec<&ArmStep> = measured(&traced).iter().map(|p| p.arm(tag)).collect();
        let (n, nt) = (un.len(), tr.len());
        // Mean self time of one replay's spans named `name` on this arm.
        let self_ms = |name: &str| {
            let total = by_name
                .get(&(tag.to_string(), name))
                .copied()
                .unwrap_or(0.0);
            ns_ms(total) / REPLAYS as f64
        };
        let replay_spans_ms: f64 = by_name
            .iter()
            .filter(|((a, n), _)| a == tag && n.starts_with("replay.") && *n != "replay.step")
            .map(|(_, v)| ns_ms(*v) / REPLAYS as f64)
            .sum();
        let untraced_ms = med(&un, |s| ms(s.wall));
        let covered = replay_spans_ms + avg(&un, |s| ms(s.out.optim));
        let sub = &rep.sub;
        let calls = |k: &Kernel| k.calls as f64 / REPLAYS as f64;
        let gemm_ms =
            |a: &Kernel, b: &Kernel| ns_ms((a.gemm_ns + b.gemm_ns) as f64) / REPLAYS as f64;
        let ws_hits: u64 = un.iter().map(|s| s.ws_hits).sum();
        let ws_all: u64 = un.iter().map(|s| s.ws_hits + s.ws_misses).sum();
        let values: [(&str, f64, usize); 36] = [
            ("step_ms", untraced_ms, n),
            (
                "kernels.gemm_calls",
                avg(&tr, |s| s.kernel.calls as f64),
                nt,
            ),
            (
                "kernels.gemm_calls.reference",
                avg(&tr, |s| s.kernel.reference as f64),
                nt,
            ),
            (
                "kernels.gemm_calls.packed",
                avg(&tr, |s| s.kernel.packed as f64),
                nt,
            ),
            (
                "kernels.gemm_calls.tiny",
                avg(&tr, |s| s.kernel.class[0] as f64),
                nt,
            ),
            (
                "kernels.gemm_calls.small",
                avg(&tr, |s| s.kernel.class[1] as f64),
                nt,
            ),
            (
                "kernels.gemm_calls.medium",
                avg(&tr, |s| s.kernel.class[2] as f64),
                nt,
            ),
            (
                "kernels.gemm_calls.large",
                avg(&tr, |s| s.kernel.class[3] as f64),
                nt,
            ),
            (
                "kernels.gemm_ms",
                med(&tr, |s| ns_ms(s.kernel.gemm_ns as f64)),
                nt,
            ),
            ("model.attn.fwd_ms", self_ms("replay.attn.fwd"), REPLAYS),
            ("model.attn.bwd_ms", self_ms("replay.attn.bwd"), REPLAYS),
            ("model.attn.fwd.gemm_calls", calls(&sub.attn_fwd), REPLAYS),
            ("model.attn.bwd.gemm_calls", calls(&sub.attn_bwd), REPLAYS),
            (
                "model.attn.gemm_ms",
                gemm_ms(&sub.attn_fwd, &sub.attn_bwd),
                REPLAYS,
            ),
            ("model.mlp.fwd_ms", self_ms("replay.mlp.fwd"), REPLAYS),
            ("model.mlp.bwd_ms", self_ms("replay.mlp.bwd"), REPLAYS),
            ("model.mlp.fwd.gemm_calls", calls(&sub.mlp_fwd), REPLAYS),
            ("model.mlp.bwd.gemm_calls", calls(&sub.mlp_bwd), REPLAYS),
            (
                "model.mlp.gemm_ms",
                gemm_ms(&sub.mlp_fwd, &sub.mlp_bwd),
                REPLAYS,
            ),
            ("model.slab_decodes", avg(&un, |s| s.slab_decodes as f64), n),
            ("model.embed_ms", self_ms("replay.embed"), REPLAYS),
            ("model.ln_ms", self_ms("replay.ln"), REPLAYS),
            ("model.head_loss_ms", self_ms("replay.head_loss"), REPLAYS),
            ("model.residual_ms", self_ms("replay.residual"), REPLAYS),
            ("model.fwd_ms", med(&un, |s| ms(s.out.forward)), n),
            ("model.bwd_ms", med(&un, |s| ms(s.out.backward)), n),
            ("model.optim_ms", med(&un, |s| ms(s.out.optim)), n),
            ("core.predict_ms", med(&un, |s| ms(s.out.predict)), n),
            (
                "core.predict.attn_ms",
                self_ms("replay.predict.attn"),
                REPLAYS,
            ),
            (
                "core.predict.mlp_ms",
                self_ms("replay.predict.mlp"),
                REPLAYS,
            ),
            (
                "core.attn_density",
                avg(&un, |s| s.out.attn_density.unwrap_or(1.0) as f64),
                n,
            ),
            (
                "core.mlp_density",
                avg(&un, |s| s.out.mlp_density.unwrap_or(1.0) as f64),
                n,
            ),
            ("tensor.allocs_per_step", avg(&un, |s| s.allocs as f64), n),
            (
                "tensor.workspace_hit_rate",
                ws_hits as f64 / ws_all.max(1) as f64,
                n,
            ),
            ("trace.span_coverage", covered / untraced_ms, REPLAYS),
            ("trace.overhead", med(&tr, |s| ms(s.wall)) / untraced_ms, nt),
        ];
        for ((name, value, samples), (declared, unit, _)) in values.iter().zip(ARM_METRICS) {
            assert_eq!(*name, declared, "values follow ARM_METRICS order");
            r.metric(&format!("{tag}.{name}"), unit, *value, *samples);
        }
        r.check(
            &format!("{tag} replay bit-identical to execute"),
            rep.identical == REPLAYS,
            rep.first_mismatch
                .clone()
                .unwrap_or_else(|| format!("{REPLAYS} of {REPLAYS} replays: loss and gradients")),
        );
        all_attempted += (un.len() + tr.len()) as u64;
        all_failed += un.iter().chain(&tr).filter(|s| !s.ok()).count() as u64;
    }
    r.attempted += all_attempted;
    r.failed += all_failed;
    r.check(
        "every loss finite, no skipped step",
        all_failed == 0,
        format!("{all_failed} of {all_attempted} steps failed"),
    );
    r.metrics.extend(extra_metrics.metrics);
    r.checks.extend(extra_metrics.checks);
    r.attempted += extra_metrics.attempted;
    r.failed += extra_metrics.failed;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &'static str, tid: u64, start: u64, dur: u64) -> SpanRecord {
        SpanRecord {
            name,
            cat: "t",
            tenant: None,
            layer: None,
            index: None,
            start_ns: start,
            dur_ns: dur,
            tid,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let records = vec![
            rec("root", 1, 0, 100),
            rec("child", 1, 10, 40),
            rec("grandchild", 1, 15, 20),
            rec("sibling", 1, 60, 30),
            // Same interval on another thread: not a child.
            rec("other", 2, 10, 50),
            // Shares the root's start: still nested inside it.
            rec("first", 1, 0, 5),
        ];
        let s = self_times(&records);
        assert_eq!(s, vec![100 - 40 - 30 - 5, 40 - 20, 20, 30, 50, 5]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(s[0] + s[1] + s[2] + s[3] + s[5], 100);
    }
}
