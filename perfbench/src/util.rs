//! Small helpers shared by the workloads.

use std::time::{Duration, Instant};

use cl_ckks::{Ciphertext, CkksContext, HintCache, HintCacheStats};
use cl_trace::OpSnapshot;

use crate::report::Outcome;
use crate::stats::{median, Summary};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Largest absolute difference between `got` and `want`.
pub fn max_abs_err(got: &[f64], want: &[f64]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(g, w)| (g - w).abs())
        .fold(0.0, f64::max)
}

/// The noise estimator's remaining budget on `ct`, in bits, *unclamped*:
/// `log2 Q_level - log2 scale - noise estimate`. (`CkksContext::budget_bits`
/// clamps at zero, which would hide how pessimistic the estimate is.)
pub fn signed_budget_bits(ctx: &CkksContext, ct: &Ciphertext) -> f64 {
    let log_q: f64 = (0..ct.level())
        .map(|l| (ctx.rns().modulus_value(l as u32) as f64).log2())
        .sum();
    log_q - ct.scale().log2() - ct.noise_estimate_bits().max(0.0)
}

/// Records `name` as the median of `samples` (0 samples: nothing).
pub fn record_median(out: &mut Outcome, name: &str, samples: &[f64]) {
    if let Some(m) = median(samples) {
        out.set(name, m, samples.len());
    }
}

/// Records the global hint cache's activity since `before` was taken.
pub fn record_hint_cache(out: &mut Outcome, before: &HintCacheStats) {
    let now = HintCache::global().stats();
    let (hits, misses) = (now.hits - before.hits, now.misses - before.misses);
    out.set("ckks.hint_cache.hits", hits as f64, 1);
    out.set("ckks.hint_cache.misses", misses as f64, 1);
    out.set(
        "ckks.hint_cache.evictions",
        (now.evictions - before.evictions) as f64,
        1,
    );
    let lookups = hits + misses;
    let ratio = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    out.set("ckks.hint_cache.hit_ratio", ratio, lookups as usize);
}

/// Records kernel op counts as the median over `per_job` snapshots (one
/// per job, or one workload total). Counts are exact: the median picks
/// the steady-state job over the first one, which also fills caches.
pub fn record_kernels(out: &mut Outcome, per_job: &[OpSnapshot]) {
    const NAMES: [&str; 7] = [
        "kernel.ntt_passes",
        "kernel.base_conv_passes",
        "kernel.automorph_passes",
        "kernel.mult_passes",
        "kernel.rotations",
        "kernel.hint_regen",
        "kernel.bytes_computed",
    ];
    let rows: Vec<[u64; 7]> = per_job
        .iter()
        .map(|o| {
            [
                o.ntt + o.intt,
                o.base_conv,
                o.automorph,
                o.mult,
                o.rotations,
                o.hint_regen,
                o.bytes,
            ]
        })
        .collect();
    for (k, name) in NAMES.iter().enumerate() {
        let mut v: Vec<u64> = rows.iter().map(|r| r[k]).collect();
        v.sort_unstable();
        if let Some(&m) = v.get(v.len() / 2) {
            out.set(name, m as f64, v.len());
        }
    }
}

/// Records the closed-loop end-to-end metrics from per-job latencies
/// over a measured loop of `loop_s` seconds. A job counts towards
/// goodput when it passed its gate within `limit_ms`.
pub fn record_closed_loop(out: &mut Outcome, lat_ms: &[Option<f64>], limit_ms: f64, loop_s: f64) {
    let ok: Vec<f64> = lat_ms.iter().flatten().copied().collect();
    record_median(out, "job_p50_ms", &ok);
    out.notes.push(latency_note("jobs", &ok));
    out.set(
        "goodput_jobs_s",
        crate::stats::goodput(lat_ms, limit_ms, loop_s),
        lat_ms.len(),
    );
    out.set(
        "ok_ratio",
        ok.len() as f64 / lat_ms.len().max(1) as f64,
        lat_ms.len(),
    );
    out.attempted = lat_ms.len() as u64;
    out.failed = (lat_ms.len() - ok.len()) as u64;
}

/// A latency sample the way reports quote it: count, median, and the
/// highest percentile with ten samples beyond it.
pub fn latency_note(what: &str, samples_ms: &[f64]) -> String {
    match Summary::of(samples_ms) {
        None => format!("{what}: no samples"),
        Some(Summary {
            n,
            p50,
            tail: Some((p, v)),
        }) => {
            format!("{what}: n={n}, p50 {p50:.3} ms, p{p} {v:.3} ms")
        }
        Some(Summary { n, p50, tail: None }) => {
            format!("{what}: n={n}, p50 {p50:.3} ms (fewer than 20 samples: no tail percentile)")
        }
    }
}
