//! End-to-end and per-layer benchmark of the CraterLake reproduction.
//!
//! ```text
//! perfbench --workload <deep-boot|lola-infer|serve-mix|sim-suite>
//!           --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>] [--commit <id>]
//! ```
//!
//! Untraced (`--trace 0`) runs report the end-to-end metrics; traced runs
//! (`--trace 1`, a build with the `trace` feature) report the per-layer
//! metrics and write their spans to `<out-dir>/trace-<workload>-<seed>.json`.
//! The last line of standard output is the JSON result. See README.md.

mod deep_boot;
mod lola;
mod report;
mod serve;
mod sim;
mod stats;
mod trace;
mod util;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use report::Outcome;
use trace::Tracer;

const WORKLOADS: [&str; 4] = ["deep-boot", "lola-infer", "serve-mix", "sim-suite"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    out_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        traced: false,
        out_dir: PathBuf::from(".bench_build/perfbench"),
        commit: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.traced = value()? == "1",
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            "--commit" => args.commit = value()?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if args.traced && !cl_trace::enabled() {
        return Err("--trace 1 needs a build with the `trace` feature".into());
    }
    Ok(args)
}

/// The filesystem type of the mount holding `path` (from /proc/mounts).
fn filesystem_of(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn host_record(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": \"{cpu}\", \"backend\": \"{}\", \"cl_threads\": \"{}\", \
         \"server_workers\": {}, \"server_root_fs\": \"{}\", \"commit\": \"{}\", \"trace\": {}}}",
        cl_math::active_backend().name(),
        std::env::var("CL_THREADS").unwrap_or_else(|_| "unset".into()),
        serve::workers(),
        filesystem_of(&args.out_dir),
        args.commit,
        args.traced
    )
}

fn run_workload(name: &str, args: &Args, tracer: &mut Tracer) -> Outcome {
    match name {
        "deep-boot" => deep_boot::run(args.seed, args.seconds, tracer),
        "lola-infer" => lola::run(args.seed, args.seconds, tracer),
        "serve-mix" => serve::run(args.seed, args.seconds, tracer, &args.out_dir),
        "sim-suite" => sim::run(args.seconds, tracer),
        _ => unreachable!("workload names are validated"),
    }
}

/// Adds the traced run's attribution metrics and writes its spans.
fn finish_trace(name: &str, args: &Args, tracer: &Tracer, out: &mut Outcome) -> Result<(), String> {
    let jobs = tracer.attribution()?;
    let wall: Vec<f64> = jobs.iter().map(|j| j.wall_ns as f64 / 1e6).collect();
    let unattributed: Vec<f64> = jobs
        .iter()
        .map(|j| j.unattributed_ns as f64 / 1e6)
        .collect();
    util::record_median(out, "trace.job_p50_ms", &wall);
    util::record_median(out, "trace.unattributed_ms", &unattributed);
    if let Some(j) = jobs.first() {
        let parts: Vec<String> = j
            .self_ns
            .iter()
            .map(|(k, v)| format!("{k} {:.3} ms", *v as f64 / 1e6))
            .collect();
        out.notes.push(format!(
            "job {} self times: {}, unattributed {:.3} ms, wall {:.3} ms",
            j.job,
            parts.join(", "),
            j.unattributed_ns as f64 / 1e6,
            j.wall_ns as f64 / 1e6
        ));
    }
    let path = args
        .out_dir
        .join(format!("trace-{name}-{}.json", args.seed));
    std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    out.notes
        .push(format!("spans written to {}", path.display()));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("perfbench: {}: {e}", args.out_dir.display());
        return ExitCode::FAILURE;
    }
    let host = host_record(&args);
    let mut tracer = Tracer::new(args.traced);
    let mut out = run_workload(&args.workload, &args, &mut tracer);
    if args.traced {
        if let Err(e) = finish_trace(&args.workload, &args, &tracer, &mut out) {
            out.violate(format!("trace: {e}"));
        }
    }
    if let Err(e) = report::emit(&args.workload, args.traced, &out, &host) {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    if out.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
