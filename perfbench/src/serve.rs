//! `serve-mix`: the job server under open-loop load.
//!
//! One generator thread submits jobs on a fixed schedule and polls
//! `JobServer::outcome` for every outstanding job (not in submission
//! order, so a slow job is never charged to the jobs behind it). Latency
//! runs from each job's *due* time. Two light tenants (N=4096, L=4,
//! `Rotate, AddPlain, Rotate`) and one heavy tenant (N=8192, L=8,
//! `(Square, Rescale, Rotate, AddPlain) x 3`) are mixed 3:1. The load is
//! offered at two fixed rates, `serve_lo` then `serve_hi`, on one server
//! with the default journal, fsync batching and checkpoints. The warm-up
//! length puts one 256-completion journal compaction inside each phase.
//!
//! Every `Ok` output must be bit-identical to the serial executor
//! reference computed at set-up, and no outcome may be `Internal`.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cl_boot::BootstrapKeys;
use cl_ckks::{CkksContext, CkksParams, GuardrailPolicy, HintCache, KeySwitchKind};
use cl_runtime::{ExecutorConfig, PipelineExecutor, PipelineOp, Program, RunOutcome};
use cl_server::{Blob, JobId, JobServer, JobSpec, OutcomeCode, ServerConfig};
use cl_trace::OpSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Outcome;
use crate::stats::{self, precision_bits, Request};
use crate::trace::Tracer;
use crate::util::{self, ms, secs};

/// Offered load of the two phases, jobs/s.
pub const RATE_LO: f64 = 10.0;
/// See [`RATE_LO`].
pub const RATE_HI: f64 = 18.0;
/// Jobs per phase: the fewest for which p95 has ten samples beyond it.
const PHASE_JOBS: usize = 200;
/// Journal completions between compactions (the server default).
const COMPACT_EVERY: usize = 256;
/// Warm-up completions. With 200-job phases, compactions then fall at
/// job 72 of `serve_lo` and job 128 of `serve_hi`.
const WARMUP_JOBS: usize = 184;
/// Warm-up jobs in flight at once (below the per-tenant queue bound).
const WARMUP_WINDOW: usize = 8;
/// Warm-up jobs run one at a time to measure each class's service time.
const SERVICE_PROBES: usize = 4;
/// Goodput latency limit: about twice the heavy class's one-at-a-time
/// service time (≈140 ms), so goodput falls when heavy jobs slow down or
/// the queue behind them grows, not only when jobs are refused.
pub const LIMIT_MS: f64 = 300.0;
/// Distinct encrypted inputs per tenant.
const INPUTS: usize = 4;
/// Light jobs per heavy job.
const LIGHT_PER_HEAVY: usize = 3;
/// Bound on draining the last outstanding jobs.
const DRAIN_LIMIT: Duration = Duration::from_secs(60);
/// Generator poll interval while waiting for a due time.
const POLL: Duration = Duration::from_micros(500);

/// Server worker threads: `nproc / CL_THREADS`, at least 1, so compute
/// threads never exceed the cores.
pub fn workers() -> usize {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = std::env::var("CL_THREADS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(nproc)
        .max(1);
    (nproc / threads).max(1)
}

#[derive(Clone, Copy, PartialEq)]
enum Class {
    Light,
    Heavy,
}

struct Tenant {
    id: String,
    class: Class,
    program: Blob,
    keys: Blob,
    inputs: Vec<Blob>,
    expected: Vec<Vec<u8>>,
}

struct Setup {
    server: JobServer,
    root: PathBuf,
    tenants: Vec<Tenant>,
    /// Median one-at-a-time service time, light then heavy.
    service_ms: [f64; 2],
    errors: Vec<f64>,
}

/// Builds one tenant: keys, inputs, and serial references (whose decrypt
/// errors against the plain program go to `precision`). Adds the key
/// generation time to `keygen_s`.
fn tenant(
    id: &str,
    class: Class,
    seed: u64,
    precision: &mut Vec<f64>,
    keygen_s: &mut f64,
) -> (Tenant, Arc<CkksContext>) {
    let (ring, levels) = match class {
        Class::Light => (4096, 4),
        Class::Heavy => (8192, 8),
    };
    let params = CkksParams::builder()
        .ring_degree(ring)
        .levels(levels)
        .special_limbs(levels)
        .limb_bits(45)
        .scale_bits(45)
        .build()
        .expect("serve-mix parameters are valid");
    let ctx = Arc::new(
        CkksContext::new(params)
            .expect("serve-mix context")
            .with_policy(GuardrailPolicy::Strict {
                min_budget_bits: -200.0,
            }),
    );
    let slots = ctx.params().slots();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut vec =
        |amp: f64| -> Vec<f64> { (0..slots).map(|_| rng.gen_range(-amp..=amp)).collect() };
    let (steps, ops): (Vec<i64>, Vec<PipelineOp>) = match class {
        Class::Light => {
            let (r1, r2) = (1 + (seed % 7) as i64, 9 + (seed % 5) as i64);
            (
                vec![r1, r2],
                vec![
                    PipelineOp::Rotate(r1),
                    PipelineOp::AddPlain(vec(0.25)),
                    PipelineOp::Rotate(r2),
                ],
            )
        }
        Class::Heavy => {
            let r = 1 + (seed % 11) as i64;
            let mut ops = Vec::new();
            for _ in 0..3 {
                ops.extend([
                    PipelineOp::Square,
                    PipelineOp::Rescale,
                    PipelineOp::Rotate(r),
                    PipelineOp::AddPlain(vec(0.25)),
                ]);
            }
            (vec![r], ops)
        }
    };
    let program = Program::from_ops(ops);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7E4A);
    let t = Instant::now();
    let sk = ctx.keygen_sparse(64, &mut rng);
    let keys = BootstrapKeys::generate(&ctx, &sk, KeySwitchKind::Standard, &steps, &mut rng);
    *keygen_s += secs(t);
    // Serial references, decrypted against the plain program.
    let mut reference = PipelineExecutor::new(
        &ctx,
        &keys,
        ExecutorConfig {
            checkpoint_every: 0,
            max_retries: 1,
            checkpoint_dir: None,
        },
    )
    .expect("strict-policy executor");
    let mut inputs = Vec::new();
    let mut expected = Vec::new();
    for _ in 0..INPUTS {
        let x: Vec<f64> = (0..slots).map(|_| rng.gen_range(-0.5..=0.5)).collect();
        let ct = ctx.encrypt(
            &ctx.encode(&x, ctx.default_scale(), ctx.max_level()),
            &sk,
            &mut rng,
        );
        let out = match reference.run(&ct, &program) {
            Ok(RunOutcome::Completed(out)) => out,
            other => panic!("serial reference for {id} failed: {other:?}"),
        };
        let got = ctx.decode(&ctx.decrypt(&out, &sk), slots);
        precision.push(util::max_abs_err(&got, &eval_plain(&program, x)));
        inputs.push(Blob::new(ctx.serialize_ciphertext(&ct)));
        expected.push(ctx.serialize_ciphertext(&out));
    }
    let t = Tenant {
        id: id.to_string(),
        class,
        program: Blob::new(program.serialize(ctx.params_fingerprint())),
        keys: Blob::new(keys.serialize(&ctx)),
        inputs,
        expected,
    };
    (t, ctx)
}

/// The plain-slot meaning of a tenant program (rotation is a cyclic left
/// shift; rescale is scale bookkeeping).
fn eval_plain(program: &Program, mut x: Vec<f64>) -> Vec<f64> {
    let n = x.len();
    for op in program.ops() {
        x = match op {
            PipelineOp::Square => x.iter().map(|v| v * v).collect(),
            PipelineOp::Rescale => x,
            PipelineOp::AddPlain(p) => x.iter().zip(p).map(|(a, b)| a + b).collect(),
            PipelineOp::Rotate(s) => {
                let s = s.rem_euclid(n as i64) as usize;
                (0..n).map(|i| x[(i + s) % n]).collect()
            }
            other => unreachable!("tenant programs do not use {}", other.name()),
        };
    }
    x
}

/// Key-cache hits and misses, jobs shed, retries spent and jobs failed,
/// summed over the tenants' reports.
fn tenant_totals(s: &Setup) -> Option<[u64; 5]> {
    let mut sum = [0u64; 5];
    for t in &s.tenants {
        let r = s.server.tenant_report(&t.id)?;
        let row = [
            r.key_cache.hits,
            r.key_cache.misses,
            r.jobs_shed,
            r.retries_spent,
            r.jobs_failed,
        ];
        for (acc, v) in sum.iter_mut().zip(row) {
            *acc += v;
        }
    }
    Some(sum)
}

fn spec(t: &Tenant, input: usize) -> JobSpec {
    JobSpec::new(
        &t.id,
        t.program.clone(),
        t.inputs[input].clone(),
        t.keys.clone(),
    )
}

/// Submits a warm-up job; set-up keeps below the admission limits, so a
/// refusal is a bug.
fn submit_warmup(server: &JobServer, spec: &JobSpec) -> JobId {
    match server.submit(spec.clone()) {
        Ok(h) => h.id,
        Err(e) => panic!("warm-up submit failed: {e}"),
    }
}

fn setup(seed: u64, dir: &Path, rep: usize, tracer: &mut Tracer, keygen_s: &mut Vec<f64>) -> Setup {
    let mut errors = Vec::new();
    let mut keygen = 0.0;
    let mut tenants = Vec::new();
    let mut ctxs = Vec::new();
    let roster = [
        ("light-a", Class::Light),
        ("light-b", Class::Light),
        ("heavy", Class::Heavy),
    ];
    tracer.span("serve.tenants", || {
        for (i, (id, class)) in roster.iter().enumerate() {
            let (t, ctx) = tenant(
                id,
                *class,
                seed.wrapping_mul(31).wrapping_add(i as u64),
                &mut errors,
                &mut keygen,
            );
            tenants.push(t);
            ctxs.push(ctx);
        }
    });
    keygen_s.push(keygen);
    let root = dir.join(format!("serve-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let server = tracer.span("server.start", || {
        let server = JobServer::start(ServerConfig {
            workers: workers(),
            checkpoint_root: root.clone(),
            ..ServerConfig::default()
        })
        .expect("server starts");
        for (t, ctx) in tenants.iter().zip(&ctxs) {
            server
                .register_tenant(&t.id, Arc::clone(ctx))
                .expect("tenant registers");
        }
        server
    });
    // Warm-up: fills the key caches and hint caches and positions the
    // journal's compaction counter. The last probes run one at a time.
    let mut service = [Vec::new(), Vec::new()];
    tracer.span("server.warmup", || {
        // A bounded window keeps the warm-up below the admission limits:
        // a shed job would journal a failure and shift the compaction
        // points.
        let mut window = std::collections::VecDeque::new();
        for i in 0..WARMUP_JOBS - 2 * SERVICE_PROBES {
            if window.len() == WARMUP_WINDOW {
                let o = server.wait(window.pop_front().expect("window is full"));
                assert!(
                    o.is_ok(),
                    "warm-up job failed: {} {}",
                    o.code.as_u16(),
                    o.detail
                );
            }
            let t = &tenants[if i % 23 == 0 { 2 } else { i % 2 }];
            window.push_back(submit_warmup(&server, &spec(t, i % INPUTS)));
        }
        for id in window {
            let o = server.wait(id);
            assert!(
                o.is_ok(),
                "warm-up job failed: {} {}",
                o.code.as_u16(),
                o.detail
            );
        }
        for i in 0..2 * SERVICE_PROBES {
            let t = &tenants[if i % 2 == 0 { 0 } else { 2 }];
            let start = Instant::now();
            let o = server.wait(submit_warmup(&server, &spec(t, i % INPUTS)));
            assert!(o.is_ok(), "service probe failed: {}", o.detail);
            service[usize::from(t.class == Class::Heavy)].push(ms(start.elapsed()));
        }
    });
    let med = |v: &[f64]| stats::median(v).unwrap_or(f64::NAN);
    Setup {
        server,
        root,
        tenants,
        service_ms: [med(&service[0]), med(&service[1])],
        errors,
    }
}

/// One scheduled request of the measured phases.
struct Job {
    phase: usize,
    tenant: usize,
    input: usize,
    due: Instant,
    sent: Instant,
    admit: Duration,
    done: Option<Instant>,
}

/// Runs the workload. `seconds` scales the phases up; each has at least
/// [`PHASE_JOBS`] jobs so that its p95 is quotable.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer, dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut keygen = Vec::new();
    let mut s: Option<Setup> = None;
    for rep in 0..util::SETUP_REPEATS {
        if let Some(old) = s.take() {
            old.server.shutdown();
            let _ = std::fs::remove_dir_all(&old.root);
        }
        let t = Instant::now();
        s = Some(setup(seed, dir, rep, tracer, &mut keygen));
        setups.push(secs(t));
    }
    let s = s.expect("at least one set-up");
    util::record_median(&mut out, "setup_s", &setups);
    util::record_median(&mut out, "ckks.keygen_s", &keygen);
    out.set("server.service_ms.light", s.service_ms[0], SERVICE_PROBES);
    out.set("server.service_ms.heavy", s.service_ms[1], SERVICE_PROBES);
    out.set(
        "ckks.precision_bits",
        precision_bits(&s.errors),
        s.errors.len(),
    );
    for (i, e) in s.errors.iter().enumerate() {
        if *e > 1.0 / 1024.0 {
            out.violate(format!(
                "serve-mix reference {i}: max error {e:.3e} > 2^-10"
            ));
        }
    }

    // The schedule: fixed inter-arrival times and a fixed class pattern
    // (every fourth job heavy), seeded light tenant and input. A seeded
    // class mix would add its own run-to-run spread to the latencies.
    let phases = [
        (
            "serve_lo",
            RATE_LO,
            PHASE_JOBS.max((RATE_LO * seconds / 2.0) as usize),
        ),
        (
            "serve_hi",
            RATE_HI,
            PHASE_JOBS.max((RATE_HI * seconds / 2.0) as usize),
        ),
    ];
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = Vec::new();
    for &(_, _, n) in &phases {
        for i in 0..n {
            let tenant = if i % (LIGHT_PER_HEAVY + 1) == 0 {
                2
            } else {
                rng.gen_range(0..2)
            };
            plan.push((tenant, rng.gen_range(0..INPUTS)));
        }
    }
    let total_done = WARMUP_JOBS + plan.len();
    out.notes.push(format!(
        "serve-mix: {} workers, rates {RATE_LO}/{RATE_HI} jobs/s, {} + {} jobs after {WARMUP_JOBS} warm-up; \
         compactions at completions {:?}; service light {:.1} ms, heavy {:.1} ms",
        workers(),
        phases[0].2,
        phases[1].2,
        (1..=total_done / COMPACT_EVERY).map(|k| k * COMPACT_EVERY).collect::<Vec<_>>(),
        s.service_ms[0],
        s.service_ms[1],
    ));

    let reports_before = tenant_totals(&s).expect("tenants are registered");
    let cache_before = HintCache::global().stats();
    let ops_before = OpSnapshot::capture();
    let mut jobs: Vec<Job> = Vec::with_capacity(plan.len());
    let mut outstanding: Vec<(usize, JobId)> = Vec::new();
    let mut queue_max = 0usize;
    let (mut checkpoints, mut checkpoint_bytes) = (0u64, 0u64);
    let mut bytes = (0usize, 0usize);
    let mut poll = |jobs: &mut Vec<Job>,
                    outstanding: &mut Vec<(usize, JobId)>,
                    out: &mut Outcome| {
        let mut k = 0;
        while k < outstanding.len() {
            let (j, id) = outstanding[k];
            let Some(o) = s.server.outcome(id) else {
                k += 1;
                continue;
            };
            let now = Instant::now();
            outstanding.swap_remove(k);
            let job = &mut jobs[j];
            checkpoints += o.recovery.checkpoints_written;
            checkpoint_bytes += o.recovery.bytes_written;
            if o.code == OutcomeCode::Internal {
                out.violate(format!("serve-mix job {j}: Internal outcome: {}", o.detail));
            }
            if o.is_ok() {
                if o.output.as_deref() == Some(s.tenants[job.tenant].expected[job.input].as_slice())
                {
                    job.done = Some(now);
                } else {
                    out.violate(format!(
                        "serve-mix job {j}: output differs from the serial reference"
                    ));
                }
            }
        }
    };
    let origin = Instant::now() + Duration::from_millis(20);
    let mut phase_start = origin;
    let mut next = 0usize;
    for (p, &(_, rate, n)) in phases.iter().enumerate() {
        for i in 0..n {
            let due = phase_start + Duration::from_secs_f64(i as f64 / rate);
            loop {
                poll(&mut jobs, &mut outstanding, &mut out);
                let now = Instant::now();
                if now >= due {
                    break;
                }
                std::thread::sleep(POLL.min(due - now));
            }
            let (tenant, input) = plan[next];
            let t = &s.tenants[tenant];
            let job_spec = spec(t, input);
            bytes.0 += job_spec.key_blob.len();
            bytes.1 += job_spec.input_blob.len();
            let sent = Instant::now();
            let admitted = s.server.submit(job_spec);
            let admit = sent.elapsed();
            jobs.push(Job {
                phase: p,
                tenant,
                input,
                due,
                sent,
                admit,
                done: None,
            });
            if let Ok(h) = admitted {
                outstanding.push((next, h.id));
            }
            queue_max = queue_max.max(s.server.queued());
            next += 1;
        }
        phase_start += Duration::from_secs_f64(n as f64 / rate);
    }
    let drain = Instant::now();
    while !outstanding.is_empty() && drain.elapsed() < DRAIN_LIMIT {
        poll(&mut jobs, &mut outstanding, &mut out);
        std::thread::sleep(POLL);
    }
    if !outstanding.is_empty() {
        out.violate(format!(
            "serve-mix: {} jobs still outstanding after {DRAIN_LIMIT:?}",
            outstanding.len()
        ));
    }

    // Accounting.
    let as_ms = |t: Instant| t.saturating_duration_since(origin).as_secs_f64() * 1e3;
    let reqs: Vec<Request> = jobs
        .iter()
        .map(|j| Request {
            due_ms: as_ms(j.due),
            sent_ms: as_ms(j.sent),
            done_ms: j.done.map(as_ms),
        })
        .collect();
    let lat: Vec<Option<f64>> = reqs.iter().map(Request::latency_ms).collect();
    let ok: Vec<f64> = lat.iter().flatten().copied().collect();
    util::record_median(&mut out, "job_p50_ms", &ok);
    out.attempted = jobs.len() as u64;
    out.failed = (jobs.len() - ok.len()) as u64;
    out.set("ok_ratio", ok.len() as f64 / jobs.len() as f64, jobs.len());
    for (p, &(name, rate, n)) in phases.iter().enumerate() {
        let phase_lat: Vec<Option<f64>> = jobs
            .iter()
            .zip(&lat)
            .filter(|(j, _)| j.phase == p)
            .map(|(_, l)| *l)
            .collect();
        let phase_ok: Vec<f64> = phase_lat.iter().flatten().copied().collect();
        out.notes.push(util::latency_note(name, &phase_ok));
        util::record_median(&mut out, &format!("{name}.p50_ms"), &phase_ok);
        match stats::percentile(&phase_ok, 95.0) {
            Some(v) if stats::supports(phase_ok.len(), 95.0) => {
                out.set(&format!("{name}.p95_ms"), v, phase_ok.len());
            }
            _ => out.violate(format!(
                "{name}: {} samples do not support a p95",
                phase_ok.len()
            )),
        }
        let goodput = stats::goodput(&phase_lat, LIMIT_MS, n as f64 / rate);
        out.set(&format!("{name}.goodput_jobs_s"), goodput, n);
        if p == 1 {
            out.set("goodput_jobs_s", goodput, n);
        }
    }
    let admit_ms: Vec<f64> = jobs.iter().map(|j| ms(j.admit)).collect();
    util::record_median(&mut out, "server.admit_ms.p50", &admit_ms);
    out.set(
        "server.admit_ms.max",
        admit_ms.iter().copied().fold(0.0, f64::max),
        admit_ms.len(),
    );
    out.set(
        "server.gen_lag_ms.max",
        stats::max_lag_ms(&reqs),
        reqs.len(),
    );
    let wait: Vec<f64> = jobs
        .iter()
        .zip(&lat)
        .filter_map(|(j, l)| {
            l.map(|l| l - s.service_ms[usize::from(s.tenants[j.tenant].class == Class::Heavy)])
        })
        .collect();
    util::record_median(&mut out, "server.wait_ms.p50", &wait);
    if let Some(v) = stats::percentile(&wait, 95.0) {
        out.set("server.wait_ms.p95", v, wait.len());
    }
    out.set("server.queue_depth_max", queue_max as f64, jobs.len());
    out.set("runtime.checkpoints_written", checkpoints as f64, ok.len());
    out.set(
        "runtime.checkpoint_bytes",
        checkpoint_bytes as f64,
        ok.len(),
    );
    out.set(
        "ckks.key_blob_bytes",
        bytes.0 as f64 / jobs.len() as f64,
        jobs.len(),
    );
    out.set(
        "ckks.ct_blob_bytes",
        bytes.1 as f64 / jobs.len() as f64,
        jobs.len(),
    );
    util::record_hint_cache(&mut out, &cache_before);
    let ops = OpSnapshot::capture().delta_since(&ops_before);
    // Workload totals: with several workers the counters are
    // process-global, so per-job attribution would be a guess.
    util::record_kernels(&mut out, &[ops]);

    let now = tenant_totals(&s).expect("tenants are registered");
    let [hits, misses, shed, retries, failed]: [u64; 5] =
        std::array::from_fn(|k| now[k] - reports_before[k]);
    let lookups = hits + misses;
    out.set(
        "server.key_cache.hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        lookups as usize,
    );
    out.set("server.jobs_shed", shed as f64, 1);
    out.set("server.retries_spent", retries as f64, 1);
    out.set("server.jobs_failed", failed as f64, 1);

    if tracer.is_on() {
        // Jobs overlap in time, so their spans are recorded after the
        // fact: the root runs from the due time to the observed outcome,
        // and admission is its one attributed child (queue wait and
        // service happen inside the server).
        for (j, job) in jobs.iter().enumerate() {
            let Some(done) = job.done else { continue };
            tracer.set_job(j as u64);
            let root = tracer.record("job", job.due, done, None);
            tracer.record("server.submit", job.sent, job.sent + job.admit, root);
        }
        tracer.set_job(crate::trace::NO_JOB);
    }
    out.set("peak_rss_mb", util::peak_rss_mb(), 1);
    s.server.shutdown();
    let _ = std::fs::remove_dir_all(&s.root);
    out
}
