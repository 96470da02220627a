//! `deep-boot`: unbounded depth with bootstrapping in the loop.
//!
//! Closed loop, one client. Each job encrypts one vector and runs it
//! through `[Bootstrap, (Square, Rescale, MulPlainRescale(w),
//! AddPlain(b)) x 2] x 4` on a `PipelineExecutor` with a bootstrapper,
//! then decrypts and checks it against the plain recurrence
//! `x <- w*x^2 + b`.
//!
//! The untraced run times whole jobs. The traced run executes the same
//! job with every bootstrap driven stage by stage through
//! `Bootstrapper::try_step`, and the straight-line segments between them
//! through the executor, so each layer call gets its own span.

use std::time::Instant;

use cl_boot::{BootState, BootstrapKeys, Bootstrapper};
use cl_ckks::{
    Ciphertext, CkksContext, CkksParams, GuardrailPolicy, HintCache, KeySwitchKind, SecretKey,
};
use cl_runtime::{ExecutorConfig, PipelineExecutor, PipelineOp, Program, RunOutcome};
use cl_trace::OpSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Outcome;
use crate::stats::precision_bits;
use crate::trace::Tracer;
use crate::util::{self, ms, secs};

const RING: usize = 1024;
const LEVELS: usize = 20;
/// Hamming weight of the sparse secret (bounds the EvalMod range).
const HAMMING: usize = 8;
const ROUNDS: usize = 4;
const STEPS_PER_ROUND: usize = 2;
/// Strict-policy floor on the estimator's signed budget. The estimator
/// reports about -5357 bits inside a bootstrap at N = 1024, below the
/// -5000 the N = 64 smoke tests use, while the measured precision is
/// 7-10 bits; see `perfbench/NOTES.md`.
pub const BUDGET_FLOOR_BITS: f64 = -6000.0;
/// Correctness gate: max |decrypt - reference| over all slots.
pub const MAX_ERR: f64 = 1.0 / 16.0;
/// Goodput latency limit for one job.
const LIMIT_MS: f64 = 5000.0;
/// Slot values stay in `[-X_MAX, X_MAX]`. The sine-based EvalMod loses
/// accuracy as messages approach `q0 / scale` (values at 1.0 fail; see
/// NOTES.md), so the recurrence is kept at half that.
const X_MAX: f64 = 0.5;

const STEP_NAMES: [&str; 5] = [
    "boot.step.mod_raise",
    "boot.step.coeff_to_slot",
    "boot.step.eval_mod_re",
    "boot.step.eval_mod_im",
    "boot.step.slot_to_coeff",
];

struct Setup {
    ctx: CkksContext,
    sk: SecretKey,
    booter: Bootstrapper,
    keys: BootstrapKeys,
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Setup {
    fn build(seed: u64, tracer: &mut Tracer) -> (Self, f64, f64) {
        let t = Instant::now();
        let params = CkksParams::builder()
            .ring_degree(RING)
            .levels(LEVELS)
            .special_limbs(LEVELS)
            .limb_bits(45)
            .scale_bits(45)
            .build()
            .expect("deep-boot parameters are valid");
        let mut rng = StdRng::seed_from_u64(seed ^ 0xB007);
        let (ctx, sk) = tracer.span("ckks.keygen", || {
            let ctx = CkksContext::new(params)
                .expect("deep-boot context")
                .with_policy(GuardrailPolicy::Strict {
                    min_budget_bits: BUDGET_FLOOR_BITS,
                });
            let sk = ctx.keygen_sparse(HAMMING, &mut rng);
            (ctx, sk)
        });
        let keygen_s = secs(t);
        let tb = Instant::now();
        let (booter, keys) = tracer.span("boot.precompute", || {
            let booter = Bootstrapper::new(&ctx, HAMMING);
            let keys = booter.keygen(&ctx, &sk, KeySwitchKind::Boosted { digits: 1 }, &mut rng);
            (booter, keys)
        });
        let precompute_s = secs(tb);
        let slots = ctx.params().slots();
        // Weights keep the recurrence inside [-X_MAX, X_MAX]:
        // |w x^2 + b| <= W_MAX * X_MAX^2 + X_MAX / 2 <= X_MAX.
        let w = (0..slots).map(|_| rng.gen_range(0.5..=1.0)).collect();
        let b = (0..slots)
            .map(|_| rng.gen_range(-X_MAX / 2.0..=X_MAX / 2.0))
            .collect();
        (
            Setup {
                ctx,
                sk,
                booter,
                keys,
                w,
                b,
            },
            keygen_s,
            precompute_s,
        )
    }

    /// The straight-line part of one round.
    fn segment(&self) -> Program {
        let mut p = Program::new();
        for _ in 0..STEPS_PER_ROUND {
            p = p
                .then(PipelineOp::Square)
                .then(PipelineOp::Rescale)
                .then(PipelineOp::MulPlainRescale(self.w.clone()))
                .then(PipelineOp::AddPlain(self.b.clone()));
        }
        p
    }

    fn program(&self) -> Program {
        let seg = self.segment();
        let mut ops = Vec::new();
        for _ in 0..ROUNDS {
            ops.push(PipelineOp::Bootstrap);
            ops.extend(seg.ops().iter().cloned());
        }
        Program::from_ops(ops)
    }

    fn reference(&self, x0: &[f64]) -> Vec<f64> {
        let mut x = x0.to_vec();
        for _ in 0..ROUNDS * STEPS_PER_ROUND {
            for ((v, w), b) in x.iter_mut().zip(&self.w).zip(&self.b) {
                *v = w * *v * *v + b;
            }
        }
        x
    }

    fn executor(&self) -> PipelineExecutor<'_> {
        let config = ExecutorConfig {
            checkpoint_every: 0,
            max_retries: 1,
            checkpoint_dir: None,
        };
        PipelineExecutor::new(&self.ctx, &self.keys, config)
            .expect("strict-policy executor")
            .with_bootstrapper(&self.booter)
    }
}

fn completed(outcome: cl_ckks::FheResult<RunOutcome>) -> Result<Ciphertext, String> {
    match outcome {
        Ok(RunOutcome::Completed(ct)) => Ok(ct),
        Ok(RunOutcome::Crashed) => Err("executor crashed without a fault plan".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// Runs one traced job: bootstraps stage by stage, segments through the
/// executor. Returns the output ciphertext.
fn traced_job(
    s: &Setup,
    exec: &mut PipelineExecutor<'_>,
    seg: &Program,
    ct: Ciphertext,
    tracer: &mut Tracer,
) -> Result<Ciphertext, String> {
    let mut ct = ct;
    for _ in 0..ROUNDS {
        let boot = tracer.enter("boot.bootstrap");
        let mut state = BootState::Start { ct };
        for name in STEP_NAMES {
            state = tracer
                .span(name, || s.booter.try_step(&s.ctx, state, &s.keys))
                .map_err(|e| format!("{name}: {e}"))?;
        }
        tracer.exit(boot);
        ct = match state {
            BootState::Done { ct } => ct,
            other => return Err(format!("bootstrap stopped at {}", other.stage_name())),
        };
        ct = tracer.span("runtime.run", || completed(exec.run(&ct, seg)))?;
    }
    Ok(ct)
}

/// Runs the workload for `seconds` of measured jobs.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut keygen = Vec::new();
    let mut precompute = Vec::new();
    let mut setup = None;
    for rep in 0..util::SETUP_REPEATS {
        drop(setup.take());
        let t = Instant::now();
        let (s, k, p) = Setup::build(seed, tracer);
        let program = s.program();
        setups.push(secs(t));
        keygen.push(k);
        precompute.push(p);
        if rep + 1 == util::SETUP_REPEATS {
            setup = Some((s, program));
        }
    }
    let (s, program) = setup.expect("at least one set-up");
    util::record_median(&mut out, "setup_s", &setups);
    util::record_median(&mut out, "ckks.keygen_s", &keygen);
    util::record_median(&mut out, "boot.precompute_s", &precompute);
    out.notes.push(format!(
        "deep-boot: N={RING} L={LEVELS} h={HAMMING} boosted d=1, {ROUNDS} bootstraps/job, \
         |x|<={X_MAX}, strict floor {BUDGET_FLOOR_BITS} bits, gate max err {MAX_ERR}"
    ));

    let slots = s.ctx.params().slots();
    let mut rng = StdRng::seed_from_u64(seed);
    let seg = s.segment();
    let mut exec = s.executor();
    let mut lat = Vec::new();
    let mut errors = Vec::new();
    let mut budgets = Vec::new();
    let mut peak_live = 0u64;
    let cache_before = HintCache::global().stats();
    let mut ops = Vec::new();
    // Job 0's input and output: the traced run re-runs it through the
    // executor to prove the stage-by-stage path computes the same bits.
    let mut first: Option<(Ciphertext, Ciphertext)> = None;
    let start = Instant::now();
    let mut job = 0u64;
    while job == 0 || secs(start) < seconds {
        let x0: Vec<f64> = (0..slots).map(|_| rng.gen_range(-X_MAX..=X_MAX)).collect();
        let ops_before = OpSnapshot::capture();
        let t = Instant::now();
        let root = tracer.begin_job(job);
        let ct = tracer.span("ckks.encrypt", || {
            s.ctx.encrypt(
                &s.ctx.encode(&x0, s.ctx.default_scale(), 1),
                &s.sk,
                &mut rng,
            )
        });
        let result = if tracer.is_on() {
            traced_job(&s, &mut exec, &seg, ct.clone(), tracer)
        } else {
            completed(exec.run(&ct, &program))
        };
        if let (0, Ok(y)) = (job, &result) {
            first = Some((ct, y.clone()));
        }
        let decoded = result.map(|ct| {
            let got = tracer.span("ckks.decrypt", || {
                s.ctx.decode(&s.ctx.decrypt(&ct, &s.sk), slots)
            });
            (got, util::signed_budget_bits(&s.ctx, &ct))
        });
        tracer.end_job(root);
        let elapsed = ms(t.elapsed());
        ops.push(OpSnapshot::capture().delta_since(&ops_before));
        peak_live = peak_live.max(exec.take_telemetry().peak_live_cts);
        match decoded {
            Ok((got, budget)) => {
                let err = util::max_abs_err(&got, &s.reference(&x0));
                errors.push(err);
                budgets.push(budget);
                if err <= MAX_ERR {
                    lat.push(Some(elapsed));
                } else {
                    out.violate(format!(
                        "deep-boot job {job}: max error {err:.3e} > {MAX_ERR}"
                    ));
                    lat.push(None);
                }
            }
            Err(e) => {
                out.violate(format!("deep-boot job {job}: {e}"));
                lat.push(None);
            }
        }
        job += 1;
    }
    let loop_s = secs(start);
    util::record_closed_loop(&mut out, &lat, LIMIT_MS, loop_s);
    out.set("peak_rss_mb", util::peak_rss_mb(), 1);
    if !errors.is_empty() {
        out.set("ckks.precision_bits", precision_bits(&errors), errors.len());
        let worst = budgets.iter().copied().fold(f64::INFINITY, f64::min);
        out.set("ckks.output_budget_bits", worst, budgets.len());
    }
    out.set("runtime.peak_live_cts", peak_live as f64, job as usize);
    util::record_hint_cache(&mut out, &cache_before);
    util::record_kernels(&mut out, &ops);
    if tracer.is_on() {
        if let Some((x, traced)) = first {
            if completed(exec.run(&x, &program)).as_ref() != Ok(&traced) {
                out.violate(
                    "deep-boot: the stage-by-stage traced job differs from the executor run".into(),
                );
            }
        }
        let boots = tracer.durations_ms("boot.bootstrap").len();
        out.set(
            "boot.bootstraps_per_job",
            boots as f64 / job as f64,
            job as usize,
        );
        util::record_median(
            &mut out,
            "ckks.encrypt_ms",
            &tracer.durations_ms("ckks.encrypt"),
        );
        util::record_median(
            &mut out,
            "ckks.decrypt_ms",
            &tracer.durations_ms("ckks.decrypt"),
        );
        util::record_median(
            &mut out,
            "boot.bootstrap_ms",
            &tracer.durations_ms("boot.bootstrap"),
        );
        for (span, metric) in STEP_NAMES.iter().zip([
            "boot.step_ms.mod_raise",
            "boot.step_ms.coeff_to_slot",
            "boot.step_ms.eval_mod_re",
            "boot.step_ms.eval_mod_im",
            "boot.step_ms.slot_to_coeff",
        ]) {
            util::record_median(&mut out, metric, &tracer.durations_ms(span));
        }
        // One job runs ROUNDS executor segments; report the per-job sum.
        let seg_ms = tracer.durations_ms("runtime.run");
        let per_job: Vec<f64> = seg_ms.chunks(ROUNDS).map(|c| c.iter().sum()).collect();
        util::record_median(&mut out, "runtime.run_ms", &per_job);
    }
    out
}
