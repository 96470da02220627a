//! `sim-suite`: the compiler's scheduler and the `cl-core` cycle model.
//!
//! Each job is one pass of `cl_compiler::compile_and_run` over all eight
//! `cl_apps::all_benchmarks()` on `craterlake_options`. No FHE arithmetic
//! runs. A set-up generates the graphs and runs a warm-up pass over every
//! benchmark but the largest (LSTM, which alone takes most of a pass).
//! Simulated results are exact: every compile of a benchmark, in set-up
//! or in a timed pass, must reproduce the first one's cycles, simulated
//! time, macro-op count and traffic bit for bit, and every statistic must
//! be finite and positive. The largest benchmark is compared only when a
//! second timed pass fits in the run. The register-file eviction count is
//! not exact at this commit (it varies by a few in 10^4 between passes;
//! NOTES.md, finding f), so it is reported from the first compile and not
//! gated.

use std::time::Instant;

use cl_apps::{all_benchmarks, Benchmark};
use cl_baselines::craterlake_options;
use cl_compiler::compile_and_run;

use crate::report::{Outcome, SIM_BENCHES};
use crate::trace::Tracer;
use crate::util::{self, ms, secs};

/// Goodput latency limit for one pass.
const LIMIT_MS: f64 = 60_000.0;

/// The simulated statistics every compile of a benchmark must reproduce.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SimStats {
    cycles: f64,
    sim_ms: f64,
    macro_ops: u64,
    traffic_bytes: f64,
}

/// Every compile of the suite in one run, per benchmark.
struct Compiles {
    host_ms: Vec<Vec<f64>>,
    first: Vec<Option<SimStats>>,
    evictions: Vec<Option<u64>>,
    job: u64,
}

impl Compiles {
    /// Compiles and simulates benchmark `i` as one traced job, checks its
    /// statistics, and returns `(host ms, macro-ops)`.
    fn run(
        &mut self,
        i: usize,
        b: &Benchmark,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> (f64, u64) {
        let root = tracer.begin_job(self.job);
        self.job += 1;
        let (arch, opts) = craterlake_options(b.n);
        let t = Instant::now();
        let stats = tracer.span("compiler.compile_and_run", || {
            compile_and_run(&b.graph, &arch, &opts)
        });
        let host_ms = ms(t.elapsed());
        tracer.end_job(root);
        self.host_ms[i].push(host_ms);
        let got = SimStats {
            cycles: stats.cycles,
            sim_ms: stats.exec_ms(&arch),
            macro_ops: stats.macro_ops,
            traffic_bytes: stats.total_traffic_bytes(),
        };
        let positive = [
            got.cycles,
            got.sim_ms,
            got.macro_ops as f64,
            got.traffic_bytes,
        ];
        if !positive.iter().all(|v| v.is_finite() && *v > 0.0) {
            out.violate(format!(
                "sim-suite {}: non-positive or non-finite stats {got:?}",
                b.name
            ));
        }
        self.evictions[i].get_or_insert(stats.evictions);
        match self.first[i] {
            None => self.first[i] = Some(got),
            Some(f) if f != got => {
                out.violate(format!(
                    "sim-suite {}: compile differs from the first: {got:?} vs {f:?}",
                    b.name
                ));
            }
            Some(_) => {}
        }
        (host_ms, got.macro_ops)
    }
}

/// Runs the workload: [`util::SETUP_REPEATS`] set-ups, then passes over
/// the suite while they fit in `seconds` (at least one).
pub fn run(seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let mut c = Compiles {
        host_ms: vec![Vec::new(); SIM_BENCHES.len()],
        first: vec![None; SIM_BENCHES.len()],
        evictions: vec![None; SIM_BENCHES.len()],
        job: 0,
    };
    let mut setups = Vec::new();
    let mut benches: Vec<Benchmark> = Vec::new();
    for _ in 0..util::SETUP_REPEATS {
        benches.clear();
        let t = Instant::now();
        benches = tracer.span("apps.all_benchmarks", all_benchmarks);
        assert_eq!(
            benches.len(),
            SIM_BENCHES.len(),
            "Table 3 has eight benchmarks"
        );
        let largest = (0..benches.len())
            .max_by_key(|&i| benches[i].graph.num_nodes())
            .expect("eight benchmarks");
        for (i, b) in benches.iter().enumerate() {
            if i != largest {
                c.run(i, b, tracer, &mut out);
            }
        }
        setups.push(secs(t));
    }
    util::record_median(&mut out, "setup_s", &setups);

    let mut pass_ms = Vec::new();
    let (mut pass_host_us, mut pass_macro_ops) = (0.0, 0u64);
    let start = Instant::now();
    // A pass takes most of a run, so a pass starts only if the last one
    // says it will end within `seconds`.
    while pass_ms
        .last()
        .is_none_or(|&p| secs(start) + p / 1e3 <= seconds)
    {
        let tp = Instant::now();
        for (i, b) in benches.iter().enumerate() {
            let (host_ms, macro_ops) = c.run(i, b, tracer, &mut out);
            pass_host_us += host_ms * 1e3;
            pass_macro_ops += macro_ops;
        }
        pass_ms.push(ms(tp.elapsed()));
    }
    let loop_s = secs(start);
    let lat: Vec<Option<f64>> = pass_ms.iter().map(|&p| Some(p)).collect();
    util::record_closed_loop(&mut out, &lat, LIMIT_MS, loop_s);
    if !out.violations.is_empty() {
        out.failed = out.attempted;
    }
    out.set("peak_rss_mb", util::peak_rss_mb(), 1);
    util::record_median(
        &mut out,
        "sim_host_s",
        &pass_ms.iter().map(|p| p / 1e3).collect::<Vec<_>>(),
    );
    out.set(
        "core.host_us_per_macro_op",
        pass_host_us / pass_macro_ops as f64,
        pass_macro_ops as usize,
    );

    for (i, key) in SIM_BENCHES.iter().enumerate() {
        let host_s: Vec<f64> = c.host_ms[i].iter().map(|m| m / 1e3).collect();
        util::record_median(
            &mut out,
            &format!("compiler.schedule_host_s.{key}"),
            &host_s,
        );
        let f = c.first[i].expect("every benchmark ran at least once");
        out.set(&format!("core.sim_ms.{key}"), f.sim_ms, 1);
        out.set(&format!("core.macro_ops.{key}"), f.macro_ops as f64, 1);
        let ev = c.evictions[i].expect("every benchmark ran at least once");
        out.set(&format!("core.evictions.{key}"), ev as f64, 1);
        out.notes.push(format!(
            "sim-suite {key}: {} nodes, {} compiles, host median {:.3} s, simulated {:.3} ms, {} macro-ops",
            benches[i].graph.num_nodes(),
            host_s.len(),
            crate::stats::median(&host_s).unwrap_or(f64::NAN),
            f.sim_ms,
            f.macro_ops
        ));
    }
    out
}
