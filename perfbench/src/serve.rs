//! The `serve-mixed` workload: `FinetuneService` over opt-sim-small with an
//! f16 frozen backbone, FairShare slices of two steps and one shared
//! calibration.
//!
//! Phase 1 is an open loop: one client thread submits on a seeded schedule
//! at a fixed mean rate, (train, eval) job pairs alone or three at once, and
//! each job's latency is timed from its *scheduled* send time. Phase 2
//! measures capacity: the same mix submitted all at once as a burst,
//! alternately to the Long Exposure service and to a dense service over the
//! same backbone, so the service layer reports the same LX-versus-dense
//! comparison as the training workloads.

use crate::report::Report;
use crate::stats::{mean, median, min_samples_for, ms, tail};
use crate::train::{backbone, calibration_batches, engine_config, TrainWorkload};
use long_exposure::StepMode;
use lx_model::{ModelConfig, Precision};
use lx_serve::{
    AdapterRegistry, DatasetSpec, FinetuneService, JobReport, JobSpec, JobTicket, MetricsSnapshot,
    SchedPolicy, Scheduler, ServeConfig,
};
use lx_tensor::memtrack;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The service's job shape, as a training workload for the traced replay.
pub const SHAPE: TrainWorkload = TrainWorkload {
    name: "serve-mixed",
    model: ModelConfig::opt_sim_small,
    precision: Precision::F16Frozen,
    batch: 1,
    seq: 128,
};
const TRAIN_STEPS: u64 = 8;
const EVAL_STEPS: u64 = 2;
const SLICE_STEPS: u64 = 2;
/// Open-loop gap per (train, eval) job pair, drawn uniformly from this
/// range: about 60% of the measured capacity of the mix on a 2-core AVX-512
/// host, fixed so every build is offered the same load. The shortest gap
/// still exceeds a pair's work by half, so a group normally finds the
/// service idle and the tails measure the service, not a backlog.
pub const PAIR_GAP: (Duration, Duration) = (Duration::from_millis(320), Duration::from_millis(400));
/// Pairs per arrival group, repeated: twelve lone pairs, then three pairs at
/// once. See [`arrival_schedule`].
const GROUPS: [usize; 13] = [1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3];
/// Jobs per capacity burst (half train, half eval).
const BURST_JOBS: usize = 8;
/// Burst pairs a run always completes; the loss comparison uses exactly
/// these.
const MIN_BURST_PAIRS: usize = 8;
/// Share of `--seconds` given to the open loop; the rest is capacity.
const OPEN_SHARE: f64 = 0.6;
const SETUPS: usize = 3;

pub const SERVE_METRICS: [(&str, &str, &str); 7] = [
    ("serve.swap_ms_per_slice", "ms", "lower"),
    ("serve.queue_wait_ms.p50", "ms", "lower"),
    ("serve.queue_wait_ms.p90", "ms", "lower"),
    ("serve.busy_ms_per_step", "ms", "lower"),
    ("serve.utilisation", "ratio", "lower"),
    ("serve.slices_per_job", "count", "lower"),
    ("serve.gen_late_ms", "ms", "lower"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Train,
    Eval,
}

fn steps_of(kind: Kind) -> u64 {
    match kind {
        Kind::Train => TRAIN_STEPS,
        Kind::Eval => EVAL_STEPS,
    }
}

/// A job of the mix. `salt` fixes its data and adapter, so the same salt on
/// both services is the same job.
fn job(tenant: String, seed: u64, salt: u64, kind: Kind) -> JobSpec {
    let mut spec = JobSpec::lora(tenant, steps_of(kind), SHAPE.batch, SHAPE.seq);
    spec.dataset = DatasetSpec::E2e {
        world_seed: 0x5eed ^ seed,
        salt,
    };
    spec.adapter_seed = salt ^ 0xada9;
    spec.stream_len = 4096;
    spec.eval_only = kind == Kind::Eval;
    spec
}

/// Job `k` of a capacity burst: even jobs train, odd jobs evaluate.
fn kind_of(k: usize) -> Kind {
    if k.is_multiple_of(2) {
        Kind::Train
    } else {
        Kind::Eval
    }
}

/// Spawn a service in `mode` (the Long Exposure one calibrates its shared
/// predictors first) and warm it with one job of each kind.
fn spawn(mode: StepMode, seed: u64) -> FinetuneService {
    let cfg = (SHAPE.model)();
    let vocab = cfg.vocab_size;
    let mut model = backbone(cfg);
    model.freeze_all();
    let mut scheduler = Scheduler::new(
        model,
        engine_config(SHAPE.seq),
        ServeConfig {
            slice_steps: SLICE_STEPS,
            policy: SchedPolicy::FairShare,
            mode,
            prefetch: true,
            precision: SHAPE.precision,
        },
        Arc::new(AdapterRegistry::in_memory()),
    );
    if mode == StepMode::Sparse {
        scheduler.calibrate_shared(&calibration_batches(vocab, seed, SHAPE.batch, SHAPE.seq));
    }
    let svc = FinetuneService::spawn(scheduler);
    for (i, kind) in [Kind::Train, Kind::Eval].into_iter().enumerate() {
        let report = svc
            .submit(job(format!("warm{i}"), seed, 900_000 + i as u64, kind))
            .wait();
        report.expect("warm-up job completes");
    }
    svc
}

struct Services {
    lx: FinetuneService,
    dense: FinetuneService,
}

fn spawn_both(seed: u64) -> Services {
    Services {
        lx: spawn(StepMode::Sparse, seed),
        dense: spawn(StepMode::Dense, seed),
    }
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and what came back when.
#[derive(Debug, Clone)]
pub struct Sent<T> {
    pub due: Instant,
    pub sent: Instant,
    pub result: T,
}

impl<T> Sent<T> {
    /// How late the generator ran for this request.
    pub fn late(&self) -> Duration {
        self.sent.saturating_duration_since(self.due)
    }
}

/// Latency from the due time: a stalled generator's delay is charged to
/// every request it pushed back.
pub fn latency_from_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// Send offsets and kinds for the open loop. Jobs come in (train, eval)
/// pairs, and pairs arrive in groups cycling through [`GROUPS`]: a group of
/// `n` pairs is due at one instant, its `n` train jobs sent first, then its
/// `n` eval jobs. FairShare breaks ties between jobs with no steps done by
/// submission order, so an eval job waits behind the first slice of every
/// train job in its group, and the three train jobs of a triple group share
/// the backbone to the end. A fifth of the jobs arrive in triple groups and
/// take two to three times as long as lone ones, so each latency quantile
/// falls inside one population rather than on the host's noise: the
/// medians are lone jobs, and the p90s are the second job of each kind in
/// a triple group, the middle of the jobs that queue because they arrived
/// together. With lone
/// pairs only, each p90 would be the slowest tenth of the run's host noise,
/// which moved it by up to a third between runs.
///
/// Each group is due `n` gaps after the previous one, `n` being the
/// previous group's pair count, each gap drawn uniformly from `gap` with
/// `seed`. Whole cycles are added until there are at least `min_requests`
/// jobs and the last group is due at or after `window`, so the triple
/// groups always make up the same share.
pub fn arrival_schedule(
    seed: u64,
    gap: (Duration, Duration),
    min_requests: usize,
    window: Duration,
) -> Vec<(Duration, Kind)> {
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut draw = || {
        // splitmix64 → uniform in [0, 1).
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        let u = (z >> 11) as f64 / (1u64 << 53) as f64;
        gap.0 + (gap.1 - gap.0).mul_f64(u)
    };
    let mut at = Duration::ZERO;
    let mut prev = 1;
    let mut out = Vec::new();
    while out.len() < min_requests || at < window {
        for n in GROUPS {
            for _ in 0..prev {
                at += draw();
            }
            out.extend(std::iter::repeat_n((at, Kind::Train), n));
            out.extend(std::iter::repeat_n((at, Kind::Eval), n));
            prev = n;
        }
    }
    out
}

/// Drive `send(i)` at `start + offsets[i]`. The schedule never slips: a
/// late send is recorded as late, and the next request keeps its own due
/// time.
pub fn open_loop<T>(
    start: Instant,
    offsets: &[Duration],
    mut send: impl FnMut(usize) -> T,
) -> Vec<Sent<T>> {
    offsets
        .iter()
        .enumerate()
        .map(|(i, &offset)| {
            let due = start + offset;
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let result = send(i);
            Sent { due, sent, result }
        })
        .collect()
}

/// A completed job as the client saw it.
struct Done {
    kind: Kind,
    done: Instant,
    report: Result<JobReport, String>,
    /// Progress events the ticket streamed.
    events: usize,
}

struct OpenLoopResult {
    jobs: Vec<Sent<Done>>,
    /// From the start to the last due time.
    offered: Duration,
    /// From the start to the last completion.
    window: Duration,
    before: MetricsSnapshot,
    after: MetricsSnapshot,
}

/// Phase 1: the open loop against the Long Exposure service.
fn run_open_loop(svc: &FinetuneService, seed: u64, window: Duration) -> OpenLoopResult {
    let schedule = arrival_schedule(seed, PAIR_GAP, 2 * min_samples_for(0.90), window);
    let offsets: Vec<Duration> = schedule.iter().map(|&(at, _)| at).collect();
    let before = svc.metrics();
    let start = Instant::now() + Duration::from_millis(5);
    let jobs = std::thread::scope(|scope| {
        let handles = open_loop(start, &offsets, |i| {
            let kind = schedule[i].1;
            let ticket = svc.submit(job(format!("o{i}"), seed, i as u64, kind));
            // A waiter per job stamps its completion the moment it lands;
            // the generator itself never blocks on a reply.
            scope.spawn(move || {
                let report = ticket.wait();
                let done = Instant::now();
                let events = ticket.progress().count();
                Done {
                    kind,
                    done,
                    report,
                    events,
                }
            })
        });
        handles
            .into_iter()
            .map(|s| Sent {
                due: s.due,
                sent: s.sent,
                result: s.result.join().expect("waiter thread panicked"),
            })
            .collect::<Vec<_>>()
    });
    let window = jobs
        .iter()
        .map(|j| j.result.done)
        .max()
        .expect("jobs were sent")
        .saturating_duration_since(start);
    OpenLoopResult {
        jobs,
        offered: *offsets.last().expect("non-empty schedule"),
        window,
        before,
        after: svc.metrics(),
    }
}

/// One capacity burst: `BURST_JOBS` jobs at once; returns (wall, tokens,
/// train-job final losses, failed jobs). A job fails unless it completes
/// with its step count, one progress event per step and finite losses.
fn burst(svc: &FinetuneService, seed: u64, tag: &str, k: usize) -> (Duration, u64, Vec<f64>, u64) {
    let t0 = Instant::now();
    let tickets: Vec<(Kind, JobTicket)> = (0..BURST_JOBS)
        .map(|j| {
            let kind = kind_of(j);
            let salt = 500_000 + (k * BURST_JOBS + j) as u64;
            let spec = job(format!("c{k}{tag}{j}"), seed, salt, kind);
            (kind, svc.submit(spec))
        })
        .collect();
    let reports: Vec<Result<JobReport, String>> = tickets.iter().map(|(_, t)| t.wait()).collect();
    let wall = t0.elapsed();
    let mut tokens = 0;
    let mut losses = Vec::new();
    let mut failed = 0;
    for ((kind, ticket), report) in tickets.iter().zip(reports) {
        let ok = report.is_ok_and(|rep| {
            tokens += rep.steps * (SHAPE.batch * SHAPE.seq) as u64;
            if *kind == Kind::Train {
                losses.push(rep.final_loss() as f64);
            }
            let want = steps_of(*kind);
            rep.steps == want
                && rep.losses.len() as u64 == want
                && ticket.progress().count() as u64 == want
                && rep.losses.iter().all(|l| l.is_finite())
        });
        failed += u64::from(!ok);
    }
    (wall, tokens, losses, failed)
}

struct Capacity {
    lx_tok_s: Vec<f64>,
    dense_tok_s: Vec<f64>,
    ratio: Vec<f64>,
    lx_loss: Vec<f64>,
    dense_loss: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// Phase 2: burst pairs, the first service alternating, until `window` has
/// passed and at least `MIN_BURST_PAIRS` pairs ran.
fn run_capacity(s: &Services, seed: u64, window: Duration) -> Capacity {
    let mut c = Capacity {
        lx_tok_s: vec![],
        dense_tok_s: vec![],
        ratio: vec![],
        lx_loss: vec![],
        dense_loss: vec![],
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    for k in 0.. {
        if k >= MIN_BURST_PAIRS && start.elapsed() >= window {
            break;
        }
        let run_lx = |c: &mut Capacity| {
            let (wall, tok, losses, failed) = burst(&s.lx, seed, "l", k);
            c.lx_tok_s.push(tok as f64 / wall.as_secs_f64());
            if k < MIN_BURST_PAIRS {
                c.lx_loss.extend(losses);
            }
            c.failed += failed;
            wall
        };
        let run_dense = |c: &mut Capacity| {
            let (wall, tok, losses, failed) = burst(&s.dense, seed, "d", k);
            c.dense_tok_s.push(tok as f64 / wall.as_secs_f64());
            if k < MIN_BURST_PAIRS {
                c.dense_loss.extend(losses);
            }
            c.failed += failed;
            wall
        };
        let (lx, dense) = if k.is_multiple_of(2) {
            let lx = run_lx(&mut c);
            (lx, run_dense(&mut c))
        } else {
            let dense = run_dense(&mut c);
            (run_lx(&mut c), dense)
        };
        c.ratio.push(dense.as_secs_f64() / lx.as_secs_f64());
        c.attempted += 2 * BURST_JOBS as u64;
    }
    c
}

/// Latencies (ms from due time) of one kind's jobs that completed.
fn latencies(ol: &OpenLoopResult, kind: Kind) -> Vec<f64> {
    ol.jobs
        .iter()
        .filter(|j| j.result.kind == kind && j.result.report.is_ok())
        .map(|j| ms(latency_from_due(j.due, j.result.done)))
        .collect()
}

/// Check every open-loop job and count failures: rejected, failed, wrong
/// step count, missing progress events, non-finite loss.
fn audit(ol: &OpenLoopResult, r: &mut Report) -> u64 {
    let mut bad = Vec::new();
    for (i, j) in ol.jobs.iter().enumerate() {
        let want = steps_of(j.result.kind);
        match &j.result.report {
            Err(e) => bad.push(format!("job {i} rejected: {e}")),
            Ok(rep) => {
                if rep.steps != want || rep.losses.len() as u64 != want {
                    bad.push(format!(
                        "job {i}: {} steps, {} losses, want {want}",
                        rep.steps,
                        rep.losses.len()
                    ));
                } else if j.result.events as u64 != want {
                    bad.push(format!(
                        "job {i}: {} progress events, want {want}",
                        j.result.events
                    ));
                } else if !rep.losses.iter().all(|l| l.is_finite()) {
                    bad.push(format!("job {i}: non-finite loss"));
                }
            }
        }
    }
    r.check(
        "every job completes with its step count and events",
        bad.is_empty(),
        bad.first()
            .cloned()
            .unwrap_or_else(|| format!("{} jobs", ol.jobs.len())),
    );
    bad.len() as u64
}

/// The untraced run: end-to-end metrics and correctness checks.
pub fn run(seed: u64, seconds: f64, r: &mut Report) {
    memtrack::reset_peak();
    let t0 = Instant::now();
    let services = spawn_both(seed);
    let mut setups = vec![t0.elapsed().as_secs_f64()];
    let open = Duration::from_secs_f64(seconds * OPEN_SHARE);
    let ol = run_open_loop(&services.lx, seed, open);
    let cap = run_capacity(
        &services,
        seed,
        Duration::from_secs_f64(seconds * (1.0 - OPEN_SHARE)),
    );
    let peak = memtrack::peak_bytes();
    drop(services);
    for _ in 1..SETUPS {
        let t0 = Instant::now();
        let again = spawn_both(seed);
        setups.push(t0.elapsed().as_secs_f64());
        drop(again);
    }

    r.digest = Some(crate::report::fnv64(
        cap.lx_loss
            .iter()
            .chain(&cap.dense_loss)
            .map(|l| l.to_bits()),
    ));
    let failed = audit(&ol, r) + cap.failed;
    let attempted = ol.jobs.len() as u64 + cap.attempted;
    r.attempted += attempted;
    r.failed += failed;
    r.check(
        "every burst job completes with its step count and events",
        cap.failed == 0,
        format!("{} of {} burst jobs failed", cap.failed, cap.attempted),
    );

    let train = latencies(&ol, Kind::Train);
    let eval = latencies(&ol, Kind::Eval);
    let (train_p90, eval_p90) = (tail(&train, 0.90), tail(&eval, 0.90));
    let bursts = cap.ratio.len();
    let (lx_loss, dense_loss) = (mean(&cap.lx_loss), mean(&cap.dense_loss));
    r.metric_note(
        "lx_tok_s",
        "tok/s",
        median(&cap.lx_tok_s),
        bursts,
        "LX service capacity, median burst".into(),
    );
    r.metric_note(
        "dense_tok_s",
        "tok/s",
        median(&cap.dense_tok_s),
        bursts,
        "dense service capacity, median burst".into(),
    );
    r.metric_note(
        "lx_speedup",
        "x",
        median(&cap.ratio),
        bursts,
        "median over burst pairs of dense/LX burst time".into(),
    );
    r.metric_note(
        "loss_ratio",
        "x",
        lx_loss / dense_loss,
        cap.lx_loss.len(),
        "final train-job loss, LX/dense service".into(),
    );
    r.metric_note(
        "p50_ms",
        "ms",
        median(&train),
        train.len(),
        "train job latency from due time".into(),
    );
    r.metric_note(
        "p90_ms",
        "ms",
        train_p90.value,
        train.len(),
        format!("train job p{:.0}", train_p90.q * 100.0),
    );
    r.metric_note(
        "ref_p50_ms",
        "ms",
        median(&eval),
        eval.len(),
        "eval job latency from due time".into(),
    );
    r.metric_note(
        "ref_p90_ms",
        "ms",
        eval_p90.value,
        eval.len(),
        format!("eval job p{:.0}", eval_p90.q * 100.0),
    );
    r.metric_note(
        "setup_s",
        "s",
        median(&setups),
        setups.len(),
        "median of set-ups (backbones, calibration, both services)".into(),
    );
    r.metric("peak_mb", "MB", peak as f64 / 1e6, 1);

    r.alias("train_job_p50_ms", "ms", median(&train), train.len());
    r.alias("train_job_p90_ms", "ms", train_p90.value, train.len());
    r.alias("eval_job_p50_ms", "ms", median(&eval), eval.len());
    r.alias("eval_job_p90_ms", "ms", eval_p90.value, eval.len());
    r.alias("capacity_tok_s", "tok/s", median(&cap.lx_tok_s), bursts);
    r.alias("setup_s", "s", median(&setups), setups.len());
    r.alias("peak_mb", "MB", peak as f64 / 1e6, 1);
    r.alias(
        "error_rate",
        "ratio",
        failed as f64 / attempted as f64,
        attempted as usize,
    );
    let late: Vec<f64> = ol.jobs.iter().map(|j| ms(j.late())).collect();
    r.alias("gen_late_p90_ms", "ms", tail(&late, 0.90).value, late.len());
    r.alias(
        "offered_jobs_s",
        "1/s",
        ol.jobs.len() as f64 / ol.offered.as_secs_f64(),
        ol.jobs.len(),
    );

    r.check(
        "p90 backed by >= 10 samples beyond it",
        train_p90.backed(0.90) && eval_p90.backed(0.90),
        format!("{} train, {} eval jobs", train.len(), eval.len()),
    );
    r.check(
        "LX service loss within envelope of dense",
        (lx_loss - dense_loss).abs() <= crate::train::LOSS_ENVELOPE,
        format!(
            "|{lx_loss:.4} - {dense_loss:.4}| <= {}",
            crate::train::LOSS_ENVELOPE
        ),
    );
}

/// Service-layer metrics over the open-loop window.
fn serve_metrics(ol: &OpenLoopResult, r: &mut Report) {
    let (b, a) = (&ol.before, &ol.after);
    let (mut swap, mut slices) = (Duration::ZERO, 0u64);
    for (tenant, m) in &a.per_tenant {
        let prev = b.per_tenant.get(tenant);
        swap += m.swap - prev.map_or(Duration::ZERO, |p| p.swap);
        slices += m.slices - prev.map_or(0, |p| p.slices);
    }
    let steps = a.total_steps - b.total_steps;
    let busy = a.total_busy - b.total_busy;
    let jobs = (a.completed_jobs - b.completed_jobs).max(1);
    let waits: Vec<f64> = ol
        .jobs
        .iter()
        .filter_map(|j| {
            let rep = j.result.report.as_ref().ok()?;
            Some(ms(
                latency_from_due(j.due, j.result.done).saturating_sub(rep.busy)
            ))
        })
        .collect();
    let late: Vec<f64> = ol.jobs.iter().map(|j| ms(j.late())).collect();
    let (w50, w90, l90) = (median(&waits), tail(&waits, 0.90), tail(&late, 0.90));
    r.metric(
        "serve.swap_ms_per_slice",
        "ms",
        ms(swap) / slices.max(1) as f64,
        slices as usize,
    );
    r.metric("serve.queue_wait_ms.p50", "ms", w50, waits.len());
    r.metric_note(
        "serve.queue_wait_ms.p90",
        "ms",
        w90.value,
        waits.len(),
        format!("p{:.0}", w90.q * 100.0),
    );
    r.metric(
        "serve.busy_ms_per_step",
        "ms",
        ms(busy) / steps.max(1) as f64,
        steps as usize,
    );
    r.metric_note(
        "serve.utilisation",
        "ratio",
        busy.as_secs_f64() / ol.window.as_secs_f64(),
        1,
        "busy / open-loop window".into(),
    );
    r.metric(
        "serve.slices_per_job",
        "count",
        slices as f64 / jobs as f64,
        jobs as usize,
    );
    r.metric_note(
        "serve.gen_late_ms",
        "ms",
        l90.value,
        late.len(),
        format!("generator lateness p{:.0}", l90.q * 100.0),
    );
}

/// Service-layer metrics on a workload that does not run the service.
pub fn not_exercised(r: &mut Report) {
    for (name, unit, _) in SERVE_METRICS {
        r.metric_note(
            name,
            unit,
            0.0,
            0,
            "service not on this workload's path".into(),
        );
    }
}

/// The traced run: the per-sublayer replay at the service's job shape,
/// then the open loop with the trace session recording, for the
/// service-layer metrics.
pub fn traced(seed: u64, seconds: f64, out_dir: &Path, r: &mut Report) {
    let lx = spawn(StepMode::Sparse, seed);
    let half = seconds / 2.0;
    crate::replay::traced_with(&SHAPE, seed, half, out_dir, r, |r| {
        let ol = run_open_loop(&lx, seed, Duration::from_secs_f64(half));
        r.attempted += ol.jobs.len() as u64;
        r.failed += audit(&ol, r);
        serve_metrics(&ol, r);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_counts_from_the_due_time_not_the_send_time() {
        let due = Instant::now();
        let sent = due + Duration::from_millis(40);
        let done = sent + Duration::from_millis(10);
        let s = Sent {
            due,
            sent,
            result: (),
        };
        assert_eq!(s.late(), Duration::from_millis(40));
        assert_eq!(latency_from_due(s.due, done), Duration::from_millis(50));
    }

    #[test]
    fn a_stalled_generator_keeps_the_schedule_and_reports_lateness() {
        let start = Instant::now();
        let offsets: Vec<Duration> = (0..8).map(|i| Duration::from_millis(5 * i)).collect();
        let sent = open_loop(start, &offsets, |i| {
            if i == 2 {
                // Stall well past several due times.
                std::thread::sleep(Duration::from_millis(30));
            }
            i
        });
        assert_eq!(sent.len(), 8);
        for (i, s) in sent.iter().enumerate() {
            assert_eq!(s.result, i);
            // Due times stay on the schedule: the loop is open.
            assert_eq!(s.due, start + offsets[i]);
            assert!(s.sent >= s.due);
        }
        // Request 3 was due during the stall and went out late.
        assert!(
            sent[3].late() >= Duration::from_millis(15),
            "{:?}",
            sent[3].late()
        );
        // Its latency from due therefore includes the stall.
        assert!(latency_from_due(sent[3].due, sent[3].sent) >= sent[3].late());
    }

    #[test]
    fn arrival_schedule_is_seeded_grouped_and_meets_both_floors() {
        let gap = (Duration::from_millis(300), Duration::from_millis(500));
        let a = arrival_schedule(7, gap, 200, Duration::from_secs(1));
        assert_eq!(a, arrival_schedule(7, gap, 200, Duration::from_secs(1)));
        assert_ne!(a, arrival_schedule(8, gap, 200, Duration::from_secs(1)));
        // Whole cycles of groups: 12 lone pairs and a triple, 30 jobs.
        assert_eq!(a.len(), 210);
        let (mut rest, mut prev) = (&a[..], None::<(Duration, usize)>);
        for &n in GROUPS.iter().cycle().take(7 * GROUPS.len()) {
            let (group, tail) = rest.split_at(2 * n);
            rest = tail;
            // Train jobs first, then as many eval jobs, all due together.
            for (i, &(at, kind)) in group.iter().enumerate() {
                assert_eq!(kind, if i < n { Kind::Train } else { Kind::Eval });
                assert_eq!(at, group[0].0);
            }
            // The gap to a group scales with the pairs of the one before.
            let (after, pairs) = prev.unwrap_or((Duration::ZERO, 1));
            let g = (group[0].0 - after) / pairs as u32;
            assert!(g >= gap.0 && g < gap.1, "{g:?}");
            prev = Some((group[0].0, n));
        }
        assert!(rest.is_empty());
        // The draws cover the range rather than sit at one end: one gap
        // before the first group and one per pair of each group but the
        // last, 1 + 105 - 3.
        let mean = a[209].0.as_secs_f64() / 103.0;
        assert!((0.38..0.42).contains(&mean), "{mean}");
        // A long window keeps sending past the minimum count, in whole
        // cycles.
        let b = arrival_schedule(7, gap, 10, Duration::from_secs(20));
        assert!(b.len() > 10 && b.last().expect("non-empty").0 >= Duration::from_secs(20));
        assert_eq!(b.len() % 30, 0);
    }

    #[test]
    fn the_mix_alternates_train_and_eval_with_fixed_data() {
        assert_eq!(kind_of(0), Kind::Train);
        assert_eq!(kind_of(1), Kind::Eval);
        let a = job("a".into(), 7, 3, Kind::Train);
        let b = job("b".into(), 7, 3, Kind::Train);
        assert_eq!(a.dataset, b.dataset);
        assert_eq!(a.adapter_seed, b.adapter_seed);
        assert_eq!(a.steps, TRAIN_STEPS);
        let e = job("e".into(), 7, 4, Kind::Eval);
        assert!(e.eval_only && e.steps == EVAL_STEPS);
        assert!(a.validate().is_ok() && e.validate().is_ok());
    }
}
