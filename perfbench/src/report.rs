//! Metric names, units and the run's output: a human-readable report
//! (every metric with its unit and sample count, plus the host record)
//! followed by one JSON result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: every workload reports all of them, untraced.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("job_p50_ms", "ms"),
    ("goodput_jobs_s", "jobs/s"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Metrics one workload owns. The untraced report prints them, with
/// `fail_ratio`, next to the end-to-end set; they are not part of the
/// JSON result because every end-to-end metric must be present and
/// non-zero on every workload.
const WORKLOAD_OWNED: &[(&str, &str)] = &[
    ("ckks.precision_bits", "bits"),
    ("serve_lo.p50_ms", "ms"),
    ("serve_lo.p95_ms", "ms"),
    ("serve_hi.p50_ms", "ms"),
    ("serve_hi.p95_ms", "ms"),
    ("serve_hi.goodput_jobs_s", "jobs/s"),
    ("sim_host_s", "s"),
];

/// The eight `cl_apps::all_benchmarks()` in Table 3 order, as metric
/// suffixes.
pub const SIM_BENCHES: [&str; 8] = [
    "resnet20",
    "logreg",
    "lstm",
    "packed_boot",
    "unpacked_boot",
    "lola_cifar_uw",
    "lola_mnist_uw",
    "lola_mnist_ew",
];

/// Per-layer metrics of the traced run. Every workload reports all of
/// them; a layer the workload bypasses reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = [
        ("boot.precompute_s", "s"),
        ("boot.bootstrap_ms", "ms"),
        ("boot.step_ms.mod_raise", "ms"),
        ("boot.step_ms.coeff_to_slot", "ms"),
        ("boot.step_ms.eval_mod_re", "ms"),
        ("boot.step_ms.eval_mod_im", "ms"),
        ("boot.step_ms.slot_to_coeff", "ms"),
        ("boot.bootstraps_per_job", "count"),
        ("ckks.keygen_s", "s"),
        ("ckks.encrypt_ms", "ms"),
        ("ckks.decrypt_ms", "ms"),
        ("ckks.hint_cache.hits", "count"),
        ("ckks.hint_cache.misses", "count"),
        ("ckks.hint_cache.evictions", "count"),
        ("ckks.hint_cache.hit_ratio", "ratio"),
        ("ckks.key_blob_bytes", "bytes"),
        ("ckks.ct_blob_bytes", "bytes"),
        ("ckks.output_budget_bits", "bits"),
        ("ckks.precision_bits", "bits"),
        ("compiler.lower_ms", "ms"),
        ("compiler.program_ops", "count"),
        ("compiler.rotations", "count"),
        ("compiler.rotation_keys", "count"),
        ("compiler.predicted_peak_live", "count"),
        ("runtime.run_ms", "ms"),
        ("runtime.peak_live_cts", "count"),
        ("runtime.checkpoints_written", "count"),
        ("runtime.checkpoint_bytes", "bytes"),
        ("server.admit_ms.p50", "ms"),
        ("server.admit_ms.max", "ms"),
        ("server.gen_lag_ms.max", "ms"),
        ("server.service_ms.light", "ms"),
        ("server.service_ms.heavy", "ms"),
        ("server.wait_ms.p50", "ms"),
        ("server.wait_ms.p95", "ms"),
        ("server.queue_depth_max", "count"),
        ("server.key_cache.hit_ratio", "ratio"),
        ("server.jobs_shed", "count"),
        ("server.retries_spent", "count"),
        ("server.jobs_failed", "count"),
        ("serve_lo.p50_ms", "ms"),
        ("serve_lo.p95_ms", "ms"),
        ("serve_hi.p50_ms", "ms"),
        ("serve_hi.p95_ms", "ms"),
        ("serve_hi.goodput_jobs_s", "jobs/s"),
        ("kernel.ntt_passes", "count"),
        ("kernel.base_conv_passes", "count"),
        ("kernel.automorph_passes", "count"),
        ("kernel.mult_passes", "count"),
        ("kernel.rotations", "count"),
        ("kernel.hint_regen", "count"),
        ("kernel.bytes_computed", "bytes"),
        ("sim_host_s", "s"),
        ("core.host_us_per_macro_op", "us"),
        ("trace.job_p50_ms", "ms"),
        ("trace.unattributed_ms", "ms"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect();
    for b in SIM_BENCHES {
        m.push((format!("compiler.schedule_host_s.{b}"), "s"));
        m.push((format!("core.sim_ms.{b}"), "ms"));
        m.push((format!("core.macro_ops.{b}"), "count"));
        m.push((format!("core.evictions.{b}"), "count"));
    }
    m
}

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Value {
    /// The value.
    pub value: f64,
    /// Samples it summarises (1 for a single measurement or count).
    pub n: usize,
}

/// Everything one workload run produces.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Jobs attempted in the measured loop.
    pub attempted: u64,
    /// Jobs that failed, were refused, or failed their gate.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<String, Value>,
    /// Correctness-gate violations, one line each.
    pub violations: Vec<String>,
    /// Free-form lines for the report (workload parameters, findings).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records `name = value` over `n` samples.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        self.values.insert(name.to_string(), Value { value, n });
    }

    /// Records a correctness-gate violation.
    pub fn violate(&mut self, what: String) {
        self.violations.push(what);
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prints the report and the final JSON line for `metrics` (the
/// end-to-end set untraced, the per-layer set traced). Missing per-layer
/// values (bypassed layers) read 0; a missing end-to-end value is a bug
/// in the workload and fails the run.
///
/// # Errors
///
/// Names a missing end-to-end metric.
pub fn emit(workload: &str, traced: bool, out: &Outcome, host: &str) -> Result<(), String> {
    let metrics: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    println!("host: {host}");
    for note in &out.notes {
        println!("note: {note}");
    }
    for v in &out.violations {
        println!("VIOLATION: {v}");
    }
    if !traced {
        let attempted = out.attempted.max(1);
        let fail_ratio = out.failed as f64 / attempted as f64;
        println!("metric {workload} fail_ratio = {fail_ratio} ratio (n={attempted}) [not gated]");
        for (name, unit) in WORKLOAD_OWNED {
            if let Some(v) = out.values.get(*name) {
                println!(
                    "metric {workload} {name} = {} {unit} (n={}) [not gated]",
                    v.value, v.n
                );
            }
        }
    }
    let mut json = String::new();
    for (name, unit) in &metrics {
        let v = match out.values.get(name) {
            Some(v) => *v,
            None if traced => Value { value: 0.0, n: 0 },
            None => {
                return Err(format!(
                    "{workload}: end-to-end metric {name} was not measured"
                ))
            }
        };
        println!("metric {workload} {name} = {} {unit} (n={})", v.value, v.n);
        if !json.is_empty() {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_num(v.value)
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        out.violations.is_empty(),
        out.attempted.max(1),
        out.failed
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The names and units in `BENCHMARK.json` are exactly the ones the
    /// program emits.
    #[test]
    fn benchmark_json_lists_exactly_the_emitted_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let body = &text[start..];
            let end = body.find(']').expect("section closes");
            body[..end]
                .split('{')
                .skip(1)
                .map(|entry| {
                    let field = |f: &str| {
                        let at = entry.find(&format!("\"{f}\": \"")).expect("field") + f.len() + 5;
                        entry[at..].split('"').next().expect("value").to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(section("end_to_end"), e2e);
        let layer: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section("per_layer"), layer);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
        assert!(before <= 16 + 128);
    }
}
