//! Scheduling: drives the machine through a graph in order, with next-use
//! chains for Belady residency and per-level keyswitch-variant selection.

use std::collections::HashMap;

use cl_ckks::security::{min_digits_for_level, SecurityLevel};
use cl_core::{ArchConfig, Machine, Stats, ValueClass};
use cl_isa::{HeGraph, HeOp, KsAlgorithm, NodeId, OpLabel, Phase, TrafficClass, ValueId};

use crate::lower::{lower_node, LoweredOp};

/// Errors surfaced while compiling a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum CompileError {
    /// No digit count can support the requested level at the requested
    /// security target: even the most aggressive decomposition exceeds the
    /// modulus budget `max_log_qp(n, security)`. Compiling anyway (the old
    /// behavior was a silent `Boosted(4)` fallback) would produce a plan
    /// that does not meet its own security claim.
    UnsatisfiableSecurity {
        /// Ring degree of the attempted configuration.
        n: usize,
        /// Ciphertext level the policy was asked to serve.
        level: usize,
        /// RNS limb width in bits.
        word_bits: u32,
        /// The security target that could not be met.
        security: SecurityLevel,
    },
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::UnsatisfiableSecurity {
                n,
                level,
                word_bits,
                security,
            } => write!(
                f,
                "no keyswitch digit count reaches level {level} at N={n} with \
                 {word_bits}-bit limbs under {security:?} security"
            ),
        }
    }
}

impl std::error::Error for CompileError {}

/// Keyswitch-variant selection policy (Sec. 3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KsPolicy {
    /// Always the same algorithm.
    Fixed(KsAlgorithm),
    /// The fewest digits that meet a security level at each level
    /// (CraterLake's policy: e.g. at 80-bit / `N = 64K`, 1-digit for
    /// `L <= 52`, 2-digit above).
    SecurityDriven(SecurityLevel),
    /// The per-level best algorithm including standard keyswitching below
    /// the boosted crossover (`L ≈ 14`) — the policy given to F1+ (Sec. 8).
    BestPerLevel(SecurityLevel),
}

impl KsPolicy {
    /// The algorithm chosen at level `l` for ring degree `n`.
    ///
    /// Returns [`CompileError::UnsatisfiableSecurity`] when no digit count
    /// can reach `l` within the security target's modulus budget — there is
    /// no sound fallback in that regime, so the error must propagate rather
    /// than compile a plan below its claimed security.
    pub fn try_algorithm(
        &self,
        n: usize,
        l: usize,
        word_bits: u32,
    ) -> Result<KsAlgorithm, CompileError> {
        let driven = |sec: SecurityLevel| {
            min_digits_for_level(n, sec, l, word_bits)
                .map(KsAlgorithm::Boosted)
                .ok_or(CompileError::UnsatisfiableSecurity {
                    n,
                    level: l,
                    word_bits,
                    security: sec,
                })
        };
        match *self {
            KsPolicy::Fixed(a) => Ok(a),
            KsPolicy::SecurityDriven(sec) => driven(sec),
            KsPolicy::BestPerLevel(sec) => {
                if l <= cl_isa::cost::boosted_crossover_level(n) {
                    Ok(KsAlgorithm::Standard)
                } else {
                    driven(sec)
                }
            }
        }
    }
}

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Ring degree the program runs at.
    pub n: usize,
    /// Keyswitch policy.
    pub ks_policy: KsPolicy,
    /// Apply the reuse-reordering pass (Sec. 6 step 2) before scheduling.
    /// Off by default: the benchmark generators already emit
    /// reuse-friendly orders.
    pub reorder: bool,
}

impl CompileOptions {
    /// Default options for the paper's main evaluation: `N = 64K`, 80-bit
    /// security-driven keyswitching.
    pub fn paper_default() -> Self {
        Self {
            n: 1 << 16,
            ks_policy: KsPolicy::SecurityDriven(SecurityLevel::Bits80),
            reorder: false,
        }
    }
}

/// Identifies a keyswitch hint by the key it applies. One hint object
/// serves all levels (lower-level uses stream a subset of its limbs, so a
/// resident hint covers them all).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KshKey {
    Relin,
    Rotation(i64),
    Conjugation,
}

/// Compiles `graph` for `arch` and executes it on the machine model,
/// returning the run's statistics.
///
/// This performs the compiler's two passes: first next-use analysis over
/// ciphertext values and keyswitch hints (feeding Belady eviction), then
/// in-order lowering and execution against the machine's resource
/// timelines.
///
/// # Panics
///
/// Panics if the graph is malformed (see [`HeGraph::validate`]), an operand
/// set exceeds the register file, or the keyswitch policy is unsatisfiable
/// at some node's level (use [`try_compile_and_run`] to handle that case).
pub fn compile_and_run(graph: &HeGraph, arch: &ArchConfig, opts: &CompileOptions) -> Stats {
    match try_compile_and_run(graph, arch, opts) {
        Ok(stats) => stats,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible variant of [`compile_and_run`]: returns a typed error when the
/// keyswitch policy cannot meet its security target at some node's level
/// instead of silently degrading the decomposition.
///
/// # Panics
///
/// Panics if the graph is malformed (see [`HeGraph::validate`]) or an
/// operand set exceeds the register file.
pub fn try_compile_and_run(
    graph: &HeGraph,
    arch: &ArchConfig,
    opts: &CompileOptions,
) -> Result<Stats, CompileError> {
    graph.validate();
    let n = opts.n;
    let word_bits = arch.word_bits;
    // Execution order: program order, or the reuse-grouping order.
    let order: Vec<NodeId> = if opts.reorder {
        crate::reuse_order(graph)
    } else {
        graph.iter().map(|(id, _)| id).collect()
    };
    let mut position = vec![0u32; graph.num_nodes()];
    for (pos, id) in order.iter().enumerate() {
        position[id.0 as usize] = pos as u32;
    }
    // Value ids are dense: node outputs take `0..num_nodes`, then each
    // keyswitch hint takes the next id, so every per-value table below is
    // a `Vec` indexed by id.
    let num_nodes = graph.num_nodes();
    let node_value = |id: NodeId| ValueId(id.0 as u64);
    // ---- Pass 1: the hint each node reads, and the highest level each
    // hint serves (hint `i` is value `num_nodes + i`).
    let mut ksh_ids: HashMap<KshKey, ValueId> = HashMap::new();
    let mut ksh_of_node: Vec<Option<ValueId>> = vec![None; num_nodes];
    let mut ksh_max_level: Vec<usize> = Vec::new();
    for &id in &order {
        let node = graph.node(id);
        if node.op.needs_keyswitch() {
            let key = match node.op {
                HeOp::MulCt(..) => KshKey::Relin,
                HeOp::Rotate(_, s) => KshKey::Rotation(s),
                HeOp::Conjugate(_) => KshKey::Conjugation,
                _ => unreachable!(),
            };
            let vid = *ksh_ids.entry(key).or_insert_with(|| {
                ksh_max_level.push(0);
                ValueId((num_nodes + ksh_max_level.len() - 1) as u64)
            });
            ksh_of_node[id.0 as usize] = Some(vid);
            let lmax = &mut ksh_max_level[vid.0 as usize - num_nodes];
            *lmax = (*lmax).max(node.level);
        }
    }
    // ---- Pass 2: uses of each value in execution order (positions feed
    // Belady's next-use distances), as one CSR table: the uses of value
    // `v` are `uses[start[v]..start[v + 1]]`. A ModDrop reads its operand
    // like any op: drops are distinct zero-cost values (see lowering), not
    // aliases whose uses would count as uses of the underlying value.
    let num_values = num_nodes + ksh_max_level.len();
    let reads_of = |id: NodeId| {
        let operands = graph.node(id).op.operands().into_iter().map(node_value);
        operands
            .chain(ksh_of_node[id.0 as usize])
            .map(|v| v.0 as usize)
    };
    let mut start = vec![0usize; num_values + 1];
    for &id in &order {
        for v in reads_of(id) {
            start[v + 1] += 1;
        }
    }
    for v in 0..num_values {
        start[v + 1] += start[v];
    }
    let mut uses = vec![0u32; start[num_values]];
    {
        let mut fill = start.clone();
        for &id in &order {
            for v in reads_of(id) {
                uses[fill[v]] = position[id.0 as usize];
                fill[v] += 1;
            }
        }
    }
    let uses_of = |v: ValueId| &uses[start[v.0 as usize]..start[v.0 as usize + 1]];
    // ---- Pass 3: declare values and execute in order.
    let mut machine = Machine::new(arch.clone());
    let ct_words = |level: usize| 2 * level as u64 * n as u64;
    for &id in &order {
        let node = graph.node(id);
        let class = match node.op {
            HeOp::Input => ValueClass::Backed(TrafficClass::Input),
            HeOp::PlainInput => ValueClass::Backed(TrafficClass::Input),
            _ => ValueClass::Intermediate,
        };
        let words = match node.op {
            HeOp::PlainInput => node.level as u64 * n as u64,
            _ => ct_words(node.level),
        };
        machine.declare(node_value(id), words, class);
    }
    // Hint sizes: size each hint for the highest level it serves (uses at
    // lower levels read a subset of the same object); seeded (KSHGen)
    // hints store only half.
    for (i, &lmax) in ksh_max_level.iter().enumerate() {
        let alg = opts.ks_policy.try_algorithm(n, lmax, word_bits)?;
        let lmax = lmax as u64;
        let polys = if arch.has_kshgen { 1 } else { 2 };
        let ksh_words = match alg {
            KsAlgorithm::Boosted(t) => {
                let alpha = lmax.div_ceil(t as u64);
                t as u64 * polys * (lmax + alpha) * n as u64
            }
            KsAlgorithm::Standard => lmax * polys * (lmax + 1) * n as u64,
        };
        let ksh = ValueId((num_nodes + i) as u64);
        machine.declare(ksh, ksh_words, ValueClass::Backed(TrafficClass::Ksh));
    }
    // Per value, how many of its uses have executed.
    let mut consumed = vec![0usize; num_values];
    let mut next_use_after = |v: ValueId| -> u32 {
        let c = &mut consumed[v.0 as usize];
        *c += 1;
        uses_of(v).get(*c).copied().unwrap_or(u32::MAX)
    };
    let first_use = |v: ValueId| -> u32 { uses_of(v).first().copied().unwrap_or(u32::MAX) };
    for &id in &order {
        let node = graph.node(id);
        let label = match node.phase {
            Phase::App => OpLabel::App,
            Phase::Bootstrap => OpLabel::Bootstrap,
        };
        let alg = opts.ks_policy.try_algorithm(n, node.level, word_bits)?;
        match lower_node(arch, n, &node.op, node.level, alg) {
            LoweredOp::None => {
                // Inputs/outputs/drops: still maintain use bookkeeping so
                // operand lifetimes stay correct. A ModDrop re-materializes
                // as a (free) new value: execute a zero-work op.
                let mut reads = Vec::new();
                for opnd in node.op.operands() {
                    let v = node_value(opnd);
                    reads.push((v, next_use_after(v)));
                }
                let writes = match node.op {
                    HeOp::ModDrop(..) => vec![(node_value(id), first_use(node_value(id)))],
                    HeOp::Input | HeOp::PlainInput => vec![],
                    _ => vec![],
                };
                if !reads.is_empty() || !writes.is_empty() {
                    machine.exec(&cl_isa::MacroOp::new(), n, &reads, &writes, label);
                }
            }
            LoweredOp::One(op) => {
                let mut reads = Vec::new();
                for opnd in node.op.operands() {
                    let v = node_value(opnd);
                    reads.push((v, next_use_after(v)));
                }
                if let Some(ksh) = ksh_of_node[id.0 as usize] {
                    reads.push((ksh, next_use_after(ksh)));
                }
                let out = node_value(id);
                let writes = vec![(out, first_use(out))];
                machine.exec(&op, n, &reads, &writes, label);
            }
        }
    }
    // Self-check: every recorded use must have been consumed exactly once
    // (a mismatch desynchronizes next-use chains and corrupts residency).
    for (v, &consumed) in consumed.iter().enumerate() {
        let recorded = uses_of(ValueId(v as u64)).len();
        debug_assert_eq!(
            consumed, recorded,
            "value {v}: {consumed} reads executed vs {recorded} recorded"
        );
    }
    Ok(machine.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cl_isa::FuKind;

    fn mul_chain(levels: usize, len: usize) -> HeGraph {
        let mut g = HeGraph::new();
        let mut x = g.input(levels);
        for _ in 0..len {
            let m = g.mul_ct(x, x);
            x = g.rescale(m);
        }
        g.output(x);
        g
    }

    #[test]
    fn mul_chain_runs_and_uses_resources() {
        let g = mul_chain(10, 8);
        let arch = ArchConfig::craterlake();
        let stats = compile_and_run(&g, &arch, &CompileOptions::paper_default());
        assert!(stats.cycles > 0.0);
        assert!(stats.fu_busy.get(&FuKind::Ntt).copied().unwrap_or(0.0) > 0.0);
        assert!(stats.fu_busy.get(&FuKind::Crb).copied().unwrap_or(0.0) > 0.0);
        // The relin hint at each level is fetched from memory.
        assert!(stats.traffic_of(TrafficClass::Ksh) > 0.0);
    }

    #[test]
    fn capacity_bound_evictions_are_deterministic() {
        // Sixteen squares summed pairwise: the two operands of each add
        // share a next use and a size, so under a small register file the
        // eviction scores tie and only the victim tie-break orders them.
        let mut g = HeGraph::new();
        let mut layer: Vec<NodeId> = (0..16)
            .map(|_| {
                let x = g.input(20);
                let sq = g.mul_ct(x, x);
                g.rescale(sq)
            })
            .collect();
        while layer.len() > 1 {
            layer = layer.chunks(2).map(|p| g.add(p[0], p[1])).collect();
        }
        g.output(layer[0]);
        let arch = ArchConfig::craterlake().with_rf_bytes(64 << 20);
        let opts = CompileOptions::paper_default();
        let runs: Vec<Stats> = (0..3).map(|_| compile_and_run(&g, &arch, &opts)).collect();
        assert!(
            runs[0].evictions_dirty > 0,
            "the graph must be capacity-bound"
        );
        for r in &runs[1..] {
            assert_eq!(r.evictions, runs[0].evictions);
            assert_eq!(r.evictions_dirty, runs[0].evictions_dirty);
            assert_eq!(r.dirty_evict_log, runs[0].dirty_evict_log);
        }
    }

    #[test]
    fn ksh_reuse_across_repeated_rotations() {
        // 20 rotations by the same amount at one level: the hint loads once.
        let mut g = HeGraph::new();
        let x = g.input(20);
        let mut acc = x;
        for _ in 0..20 {
            let r = g.rotate(acc, 3);
            acc = g.add(acc, r);
        }
        g.output(acc);
        let arch = ArchConfig::craterlake();
        let opts = CompileOptions::paper_default();
        let stats = compile_and_run(&g, &arch, &opts);
        // Seeded 1-digit hint at L=20: 1 * (20+20) * 65536 words * 3.5 B.
        let expect = 40.0 * 65536.0 * 3.5;
        assert!(
            (stats.traffic_of(TrafficClass::Ksh) - expect).abs() < 1.0,
            "KSH traffic {} vs {expect}",
            stats.traffic_of(TrafficClass::Ksh)
        );
    }

    #[test]
    fn kshgen_halves_hint_traffic() {
        let mut g = HeGraph::new();
        let x = g.input(30);
        let r = g.rotate(x, 1);
        g.output(r);
        let with_gen = compile_and_run(
            &g,
            &ArchConfig::craterlake(),
            &CompileOptions::paper_default(),
        );
        let without = compile_and_run(
            &g,
            &ArchConfig::craterlake().without_kshgen(),
            &CompileOptions::paper_default(),
        );
        let ratio = without.traffic_of(TrafficClass::Ksh) / with_gen.traffic_of(TrafficClass::Ksh);
        assert!((ratio - 2.0).abs() < 1e-9, "ratio {ratio}");
    }

    #[test]
    fn deep_keyswitch_much_slower_without_crb() {
        // A reuse-heavy deep workload (same rotation hint applied many
        // times, as BSGS kernels do): compute-bound, so losing the CRB and
        // chaining exposes the O(L^2) multiply/add wall (Table 4 shows
        // 8.8x-34.5x on the deep benchmarks).
        let mut g = HeGraph::new();
        let x = g.input(57);
        let mut acc = x;
        for _ in 0..20 {
            let r = g.rotate(acc, 7);
            acc = g.add(acc, r);
        }
        g.output(acc);
        let opts = CompileOptions::paper_default();
        let with_crb = compile_and_run(&g, &ArchConfig::craterlake(), &opts);
        let without = compile_and_run(
            &g,
            &ArchConfig::craterlake().without_crb_chaining(),
            &opts,
        );
        let slowdown = without.cycles / with_crb.cycles;
        assert!(
            slowdown > 5.0,
            "CRB/chaining should be worth >5x on deep keyswitching, got {slowdown}"
        );
    }

    #[test]
    fn reordering_reduces_hint_traffic_under_pressure() {
        // Interleaved rotations by two amounts at a level where each hint
        // is ~34 MB: with a register file too small for both hints, the
        // A,B,A,B,... order reloads a hint per op; the reuse order groups
        // them so each hint loads once.
        let mut g = HeGraph::new();
        let mut outs = Vec::new();
        for i in 0..12 {
            let x = g.input(57);
            let amount = if i % 2 == 0 { 3 } else { 7 };
            outs.push(g.rotate(x, amount));
        }
        for o in outs {
            g.output(o);
        }
        // RF sized to hold the working set of one rotation but not two
        // hints plus operands.
        let arch = ArchConfig::craterlake().with_rf_bytes(100 << 20);
        let base_opts = CompileOptions::paper_default();
        let reordered_opts = CompileOptions {
            reorder: true,
            ..base_opts.clone()
        };
        let base = compile_and_run(&g, &arch, &base_opts);
        let reordered = compile_and_run(&g, &arch, &reordered_opts);
        assert!(
            reordered.traffic_of(TrafficClass::Ksh) < base.traffic_of(TrafficClass::Ksh),
            "reordering should reduce hint traffic: {} vs {}",
            reordered.traffic_of(TrafficClass::Ksh),
            base.traffic_of(TrafficClass::Ksh)
        );
    }

    #[test]
    fn policy_picks_more_digits_at_high_levels() {
        let p = KsPolicy::SecurityDriven(SecurityLevel::Bits80);
        let low = p
            .try_algorithm(1 << 16, 30, 28)
            .expect("the keyswitch policy is satisfiable at this point");
        let high = p
            .try_algorithm(1 << 16, 60, 28)
            .expect("the keyswitch policy is satisfiable at this point");
        assert_eq!(low, KsAlgorithm::Boosted(1));
        assert_eq!(high, KsAlgorithm::Boosted(2));
        let f1 = KsPolicy::BestPerLevel(SecurityLevel::Bits80);
        assert_eq!(
            f1.try_algorithm(1 << 16, 8, 28)
                .expect("the keyswitch policy is satisfiable at this point"),
            KsAlgorithm::Standard
        );
        assert!(matches!(
            f1.try_algorithm(1 << 16, 40, 28)
                .expect("the keyswitch policy is satisfiable at this point"),
            KsAlgorithm::Boosted(_)
        ));
    }

    #[test]
    fn unreachable_security_point_is_a_typed_error_not_a_fallback() {
        // At 200-bit security / N = 64K / 28-bit limbs, the modulus budget
        // is ~41 limbs; level 57 is unreachable at ANY digit count. The old
        // code silently compiled it as Boosted(4).
        let p = KsPolicy::SecurityDriven(SecurityLevel::Bits200);
        let err = p.try_algorithm(1 << 16, 57, 28).unwrap_err();
        assert_eq!(
            err,
            CompileError::UnsatisfiableSecurity {
                n: 1 << 16,
                level: 57,
                word_bits: 28,
                security: SecurityLevel::Bits200,
            }
        );
        assert!(err.to_string().contains("level 57"));
        // BestPerLevel above the crossover propagates the same error...
        let f1 = KsPolicy::BestPerLevel(SecurityLevel::Bits200);
        assert!(f1.try_algorithm(1 << 16, 57, 28).is_err());
        // ...and the error surfaces from whole-graph compilation too.
        let mut g = HeGraph::new();
        let x = g.input(57);
        let m = g.mul_ct(x, x);
        g.output(m);
        let opts = CompileOptions {
            ks_policy: KsPolicy::SecurityDriven(SecurityLevel::Bits200),
            ..CompileOptions::paper_default()
        };
        let res = try_compile_and_run(&g, &ArchConfig::craterlake(), &opts);
        assert!(matches!(
            res,
            Err(CompileError::UnsatisfiableSecurity { level: 57, .. })
        ));
        // Reachable points still succeed unchanged.
        assert!(matches!(
            p.try_algorithm(1 << 16, 30, 28),
            Ok(KsAlgorithm::Boosted(_))
        ));
    }

    #[test]
    fn intermediate_spills_appear_under_capacity_pressure() {
        // Many big live values at L=57 on a small RF force spills.
        let mut g = HeGraph::new();
        let inputs: Vec<_> = (0..12).map(|_| g.input(57)).collect();
        let mut acc = inputs[0];
        // Touch all inputs twice with long reuse distances.
        for &i in &inputs[1..] {
            acc = g.add(acc, i);
        }
        for &i in &inputs[1..] {
            acc = g.add(acc, i);
        }
        g.output(acc);
        let small_rf = ArchConfig::craterlake().with_rf_bytes(64 << 20);
        let stats = compile_and_run(&g, &small_rf, &CompileOptions::paper_default());
        assert!(stats.evictions > 0, "expected capacity pressure");
    }
}
