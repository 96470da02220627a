//! Baseline models: the multicore CPU and the F1+ accelerator.
//!
//! The paper compares against a 32-core/64-thread 3.5 GHz Threadripper PRO
//! 3975WX running optimized FHE libraries (Sec. 8), and against F1+ — F1
//! scaled up to CraterLake's hardware budget with the best keyswitching
//! algorithm per level. We model:
//!
//! - [`CpuModel`]: an analytic throughput model — the same graphs are
//!   costed in scalar modular operations via `cl-isa`'s formulas and
//!   divided by an effective scalar-op throughput. The default constant is
//!   calibrated against the paper's own CPU measurement of packed
//!   bootstrapping (Lattigo, 17.2 s); [`CpuModel::from_host_ntt_bench`]
//!   instead measures this host's throughput with our own NTT kernel.
//! - F1+: not a separate model but an [`cl_core::ArchConfig`]
//!   ([`cl_core::ArchConfig::f1_plus`]) compiled with the
//!   per-level-best keyswitch policy ([`f1_plus_options`]).

#![warn(missing_docs)]
// Library code must propagate failures (`FheResult`/`?`) or `expect` with
// the violated invariant; tests are exempt. Enforced by scripts/verify.sh.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use cl_ckks::security::SecurityLevel;
use cl_compiler::{CompileOptions, KsPolicy};
use cl_core::ArchConfig;
use cl_isa::{cost, HeGraph, HeOp, KsAlgorithm};

/// Analytic CPU cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuModel {
    /// Effective scalar modular operations per second, all overheads
    /// included (memory stalls, reductions, cache misses).
    pub scalar_ops_per_sec: f64,
}

impl CpuModel {
    /// The paper-calibrated model: effective throughput chosen so our
    /// packed-bootstrapping operation count divides to the paper's
    /// measured 17.2 s on the 32-core Threadripper running Lattigo.
    pub fn paper_calibrated() -> Self {
        Self {
            scalar_ops_per_sec: 2.4e9,
        }
    }

    /// Calibrates against this host by timing our own NTT kernel (the
    /// dominant CPU primitive) and scaling to the reference machine's 32
    /// cores. Useful for relating the model to observable local numbers.
    pub fn from_host_ntt_bench() -> Self {
        let n = 1 << 13;
        let q = cl_math::generate_ntt_primes(n, 50, 1).expect("prime generation")[0];
        let table = cl_math::NttTable::new(n, q).expect("NTT table");
        let mut poly: Vec<u64> = (0..n as u64).map(|i| i % q).collect();
        let iters = 64;
        let start = std::time::Instant::now();
        for _ in 0..iters {
            table.forward(&mut poly);
            table.inverse(&mut poly);
        }
        let secs = start.elapsed().as_secs_f64();
        // Each NTT is (n/2)*log2(n) butterflies (1 mul + 2 add each); count
        // the multiply as the scalar op, as the cost formulas do.
        let muls = (iters * 2) as f64 * (n as f64 / 2.0) * (n as f64).log2();
        let single_core = muls / secs;
        // Scale to 32 cores with imperfect (75%) parallel efficiency, as
        // FHE libraries achieve on many-core parts.
        Self {
            scalar_ops_per_sec: single_core * 32.0 * 0.75,
        }
    }

    /// Scalar modular multiplies to execute `graph` at ring degree `n`
    /// with keyswitch variants chosen by `policy`.
    pub fn graph_scalar_ops(graph: &HeGraph, n: usize, policy: &KsPolicy) -> f64 {
        let (a, b) = Self::graph_scalar_ops_by_phase(graph, n, policy);
        a + b
    }

    /// Like [`CpuModel::graph_scalar_ops`], split into
    /// `(application, bootstrapping)` scalar operations by node phase —
    /// the blue/red split of Fig. 3.
    ///
    /// # Panics
    ///
    /// Panics if `policy` has no keyswitch algorithm at some node's level
    /// (see [`KsPolicy::try_algorithm`]).
    pub fn graph_scalar_ops_by_phase(graph: &HeGraph, n: usize, policy: &KsPolicy) -> (f64, f64) {
        let mut app = 0f64;
        let mut boot = 0f64;
        let nf = n as f64;
        let ntt_muls = nf / 2.0 * (nf).log2();
        for (_, node) in graph.iter() {
            let l = node.level as f64;
            let ops = match &node.op {
                HeOp::Input | HeOp::PlainInput | HeOp::Output(_) | HeOp::ModDrop(..) => 0.0,
                HeOp::Add(..) | HeOp::Sub(..) | HeOp::AddPlain(..) => 2.0 * l * nf * 0.25,
                HeOp::MulPlain(..) => 2.0 * l * nf,
                HeOp::Rescale(_) => 4.0 * l * nf + 2.0 * ntt_muls,
                HeOp::ModRaise(_, to) => {
                    let from = 3.0f64.min(l);
                    2.0 * (*to as f64 - from) * from * nf + 2.0 * *to as f64 * ntt_muls
                }
                HeOp::MulCt(..) | HeOp::Rotate(..) | HeOp::Conjugate(..) => {
                    let alg = policy
                        .try_algorithm(n, node.level, 28)
                        .expect("the keyswitch policy is satisfiable at this point");
                    let ks = match alg {
                        KsAlgorithm::Boosted(t) => cost::boosted_keyswitch_ops(node.level, t),
                        KsAlgorithm::Standard => cost::standard_keyswitch_ops(node.level),
                    };
                    let aux = if matches!(node.op, HeOp::MulCt(..)) {
                        4.0 * l * nf
                    } else {
                        2.0 * l * nf // automorphism applications
                    };
                    ks.scalar_muls(n) as f64 + aux
                }
            };
            match node.phase {
                cl_isa::Phase::App => app += ops,
                cl_isa::Phase::Bootstrap => boot += ops,
            }
        }
        (app, boot)
    }

    /// Modeled CPU execution time for a graph, in seconds.
    pub fn time_for_graph(&self, graph: &HeGraph, n: usize, policy: &KsPolicy) -> f64 {
        Self::graph_scalar_ops(graph, n, policy) / self.scalar_ops_per_sec
    }
}

/// The F1+ configuration and compile options used throughout the
/// evaluation: F1's architecture scaled up, running the most efficient
/// keyswitching algorithm at each level (standard below the crossover,
/// boosted above — Sec. 8).
pub fn f1_plus_options(n: usize) -> (ArchConfig, CompileOptions) {
    (
        ArchConfig::f1_plus(),
        CompileOptions {
            reorder: false,
            n,
            ks_policy: KsPolicy::BestPerLevel(SecurityLevel::Bits80),
        },
    )
}

/// The CraterLake configuration and compile options used throughout the
/// evaluation (80-bit security, security-driven keyswitch digits).
pub fn craterlake_options(n: usize) -> (ArchConfig, CompileOptions) {
    (
        ArchConfig::craterlake(),
        CompileOptions {
            reorder: false,
            n,
            ks_policy: KsPolicy::SecurityDriven(SecurityLevel::Bits80),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rotation_heavy_graph(level: usize, rots: usize) -> HeGraph {
        let mut g = HeGraph::new();
        let x = g.input(level);
        let mut acc = x;
        for i in 0..rots {
            let r = g.rotate(acc, 1 + (i % 4) as i64);
            acc = g.add(acc, r);
        }
        g.output(acc);
        g
    }

    #[test]
    fn cpu_time_scales_with_work() {
        let model = CpuModel::paper_calibrated();
        let policy = KsPolicy::SecurityDriven(SecurityLevel::Bits80);
        let small = rotation_heavy_graph(20, 4);
        let large = rotation_heavy_graph(20, 16);
        let ts = model.time_for_graph(&small, 1 << 16, &policy);
        let tl = model.time_for_graph(&large, 1 << 16, &policy);
        assert!(tl > 3.0 * ts && tl < 5.0 * ts);
    }

    #[test]
    fn deep_ops_cost_more_than_shallow() {
        let policy = KsPolicy::SecurityDriven(SecurityLevel::Bits80);
        let deep = rotation_heavy_graph(57, 8);
        let shallow = rotation_heavy_graph(8, 8);
        let od = CpuModel::graph_scalar_ops(&deep, 1 << 16, &policy);
        let os = CpuModel::graph_scalar_ops(&shallow, 1 << 16, &policy);
        assert!(od > 10.0 * os);
    }

    #[test]
    fn host_calibration_is_plausible() {
        let m = CpuModel::from_host_ntt_bench();
        // Anything from an emulated core to a huge server: 10^8..10^12.
        assert!(
            (1e8..1e12).contains(&m.scalar_ops_per_sec),
            "implausible throughput {:.3e}",
            m.scalar_ops_per_sec
        );
    }

    #[test]
    fn f1_options_use_best_per_level() {
        let (arch, opts) = f1_plus_options(1 << 16);
        assert_eq!(arch.name, "F1+");
        assert!(matches!(opts.ks_policy, KsPolicy::BestPerLevel(_)));
    }
}
