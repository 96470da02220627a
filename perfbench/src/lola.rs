//! `lola-infer`: wide, shallow encrypted inference through the compiler.
//!
//! Closed loop, one client. A two-layer LoLa-style network (BSGS matvec
//! over 64 diagonals, square, BSGS matvec over 16 diagonals, square) is
//! built as a `HeGraph` with seeded weights and compiled once by
//! `lower_to_program` (reorder on, no bootstrap). Each job encrypts one
//! input, runs it with `run_graph`, decrypts, and checks the result
//! against `cl_apps::eval_plain`.

use std::collections::BTreeMap;
use std::time::Instant;

use cl_apps::{eval_plain, RunnableWorkload};
use cl_boot::BootstrapKeys;
use cl_ckks::{CkksContext, CkksParams, GuardrailPolicy, HintCache, KeySwitchKind, SecretKey};
use cl_compiler::{lower_to_program, LowerOptions, LoweredProgram};
use cl_isa::{HeGraph, NodeId};
use cl_runtime::{ExecutorConfig, PipelineExecutor, RunOutcome};
use cl_trace::OpSnapshot;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::report::Outcome;
use crate::stats::precision_bits;
use crate::trace::Tracer;
use crate::util::{self, ms, secs};

const RING: usize = 8192;
const LEVELS: usize = 6;
/// (diagonals, stride) of the two layers.
const LAYERS: [(usize, i64); 2] = [(64, 1), (16, 1)];
/// Correctness gate: max |decrypt - eval_plain| over all slots.
pub const MAX_ERR: f64 = 1.0 / 1024.0;
/// Goodput latency limit for one job.
const LIMIT_MS: f64 = 2000.0;

/// One BSGS diagonal matvec (rescaled) followed by the square activation,
/// as in `cl_apps::lola_layer_runnable`, with seeded weights.
fn layer(
    g: &mut HeGraph,
    plain: &mut BTreeMap<NodeId, Vec<f64>>,
    x: NodeId,
    level: usize,
    (diags, stride): (usize, i64),
    slots: usize,
    rng: &mut StdRng,
) -> NodeId {
    let baby = (diags as f64).sqrt().ceil() as usize;
    let giant = diags.div_ceil(baby);
    // Weights in [-2, 2] / sqrt(diags) keep every layer's output O(1).
    let amp = 2.0 / (diags as f64).sqrt();
    let mut babies = vec![x];
    for i in 1..baby {
        babies.push(g.rotate(x, stride * i as i64));
    }
    let mut acc: Option<NodeId> = None;
    for j in 0..giant {
        let mut inner: Option<NodeId> = None;
        for &b in babies.iter().take((diags - j * baby).min(baby)) {
            let w = g.plain_input(level);
            plain.insert(w, (0..slots).map(|_| rng.gen_range(-amp..=amp)).collect());
            let term = g.mul_plain(b, w);
            inner = Some(inner.map_or(term, |a| g.add(a, term)));
        }
        let inner = inner.expect("every giant step has a diagonal");
        let rotated = if j == 0 {
            inner
        } else {
            g.rotate(inner, stride * (j * baby) as i64)
        };
        acc = Some(acc.map_or(rotated, |a| g.add(a, rotated)));
    }
    let y = g.rescale(acc.expect("at least one diagonal"));
    let sq = g.mul_ct(y, y);
    g.rescale(sq)
}

/// The two-layer network with weights drawn from `seed`.
fn network(slots: usize, seed: u64) -> RunnableWorkload {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10_1A);
    let mut g = HeGraph::new();
    let mut plain = BTreeMap::new();
    let x = g.input(LEVELS);
    let mut h = x;
    let mut level = LEVELS;
    for shape in LAYERS {
        h = layer(&mut g, &mut plain, h, level, shape, slots, &mut rng);
        level -= 2;
    }
    g.output(h);
    RunnableWorkload {
        name: "two-layer LoLa network",
        graph: g,
        plain,
        inputs: vec![x],
        input_level: LEVELS,
        slots,
    }
}

struct Setup {
    ctx: CkksContext,
    sk: SecretKey,
    keys: BootstrapKeys,
    net: RunnableWorkload,
    lowered: LoweredProgram,
}

fn setup(seed: u64, tracer: &mut Tracer, out: &mut Outcome, timings: &mut [Vec<f64>; 2]) -> Setup {
    let params = CkksParams::builder()
        .ring_degree(RING)
        .levels(LEVELS)
        .special_limbs(LEVELS)
        .limb_bits(45)
        .scale_bits(40)
        .build()
        .expect("lola-infer parameters are valid");
    let ctx = CkksContext::new(params)
        .expect("lola-infer context")
        .with_policy(GuardrailPolicy::Strict {
            min_budget_bits: -60.0,
        });
    let slots = ctx.params().slots();
    let net = network(slots, seed);
    let t = Instant::now();
    let lowered = tracer.span("compiler.lower", || {
        lower_to_program(
            &net.graph,
            &LowerOptions {
                slots,
                plain: net.plain.clone(),
                reorder: true,
                auto_bootstrap: None,
                max_live_cts: None,
            },
        )
    });
    timings[0].push(ms(t.elapsed()));
    let lowered = match lowered {
        Ok(l) => l,
        Err(e) => panic!("the network must lower: {e}"),
    };
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5EC);
    let (sk, keys) = tracer.span("ckks.keygen", || {
        let sk = ctx.keygen_sparse(64, &mut rng);
        let keys = BootstrapKeys::generate(
            &ctx,
            &sk,
            KeySwitchKind::Standard,
            &lowered.rotation_steps,
            &mut rng,
        );
        (sk, keys)
    });
    timings[1].push(secs(t));
    out.set("compiler.program_ops", lowered.program.len() as f64, 1);
    out.set("compiler.rotations", lowered.counts.rotations as f64, 1);
    out.set(
        "compiler.rotation_keys",
        lowered.rotation_steps.len() as f64,
        1,
    );
    out.set(
        "compiler.predicted_peak_live",
        lowered.predicted_peak_live as f64,
        1,
    );
    Setup {
        ctx,
        sk,
        keys,
        net,
        lowered,
    }
}

/// Runs the workload for `seconds` of measured jobs.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let mut timings = [Vec::new(), Vec::new()];
    let mut s = None;
    for _ in 0..util::SETUP_REPEATS {
        drop(s.take());
        let t = Instant::now();
        s = Some(setup(seed, tracer, &mut out, &mut timings));
        setups.push(secs(t));
    }
    let s = s.expect("at least one set-up");
    util::record_median(&mut out, "setup_s", &setups);
    util::record_median(&mut out, "compiler.lower_ms", &timings[0]);
    util::record_median(&mut out, "ckks.keygen_s", &timings[1]);
    out.notes.push(format!(
        "lola-infer: N={RING} L={LEVELS} layers {LAYERS:?}, {} ops, {} rotations, {} keys, gate max err {MAX_ERR}",
        s.lowered.program.len(),
        s.lowered.counts.rotations,
        s.lowered.rotation_steps.len()
    ));

    let ctx = &s.ctx;
    let slots = ctx.params().slots();
    let config = ExecutorConfig {
        checkpoint_every: 0,
        max_retries: 1,
        checkpoint_dir: None,
    };
    let mut exec = PipelineExecutor::new(ctx, &s.keys, config).expect("strict-policy executor");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut lat = Vec::new();
    let mut errors = Vec::new();
    let mut budgets = Vec::new();
    let mut peak_live = 0u64;
    let cache_before = HintCache::global().stats();
    let mut ops = Vec::new();
    let start = Instant::now();
    let mut job = 0u64;
    while job == 0 || secs(start) < seconds {
        let x: Vec<f64> = (0..slots).map(|_| rng.gen_range(-1.0..=1.0)).collect();
        let ops_before = OpSnapshot::capture();
        let t = Instant::now();
        let root = tracer.begin_job(job);
        let ct = tracer.span("ckks.encrypt", || {
            ctx.encrypt(
                &ctx.encode(&x, ctx.default_scale(), s.net.input_level),
                &s.sk,
                &mut rng,
            )
        });
        let result = tracer.span("runtime.run", || {
            exec.run_graph(std::slice::from_ref(&ct), &s.lowered.program)
        });
        let decoded = match result {
            Ok(RunOutcome::Completed(y)) => {
                let got = tracer.span("ckks.decrypt", || {
                    ctx.decode(&ctx.decrypt(&y, &s.sk), slots)
                });
                Ok((got, util::signed_budget_bits(ctx, &y)))
            }
            Ok(RunOutcome::Crashed) => Err("executor crashed without a fault plan".to_string()),
            Err(e) => Err(e.to_string()),
        };
        tracer.end_job(root);
        let elapsed = ms(t.elapsed());
        ops.push(OpSnapshot::capture().delta_since(&ops_before));
        peak_live = peak_live.max(exec.take_telemetry().peak_live_cts);
        match decoded {
            Ok((got, budget)) => {
                let err = util::max_abs_err(&got, &eval_plain(&s.net, &[x]));
                errors.push(err);
                budgets.push(budget);
                if err <= MAX_ERR {
                    lat.push(Some(elapsed));
                } else {
                    out.violate(format!(
                        "lola-infer job {job}: max error {err:.3e} > {MAX_ERR}"
                    ));
                    lat.push(None);
                }
            }
            Err(e) => {
                out.violate(format!("lola-infer job {job}: {e}"));
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
        out.set(
            "ckks.output_budget_bits",
            budgets.iter().copied().fold(f64::INFINITY, f64::min),
            budgets.len(),
        );
    }
    if peak_live != s.lowered.predicted_peak_live {
        out.violate(format!(
            "lola-infer: measured peak of {peak_live} live ciphertexts, compiler predicted {}",
            s.lowered.predicted_peak_live
        ));
    }
    out.set("runtime.peak_live_cts", peak_live as f64, job as usize);
    util::record_hint_cache(&mut out, &cache_before);
    util::record_kernels(&mut out, &ops);
    if tracer.is_on() {
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
            "runtime.run_ms",
            &tracer.durations_ms("runtime.run"),
        );
    }
    out
}
