//! The machine executor: resource timelines, residency, and DMA.
//!
//! The hardware is statically scheduled with no dynamic control (Sec. 4.1),
//! so execution time is fully determined by resource occupancy. The machine
//! tracks one timeline per shared resource — each FU kind, the register-file
//! ports, the inter-group network, and the HBM interface — plus
//! register-file *capacity* with Belady (MIN) eviction, the policy the
//! paper's compiler uses (Sec. 6). Resident values are kept in eviction
//! order, so picking a victim costs O(log R) in the number of resident
//! values, whatever the size of the program.
//!
//! Memory transfers are decoupled from compute (Sec. 4.1: "decoupled data
//! orchestration"): the HBM timeline advances independently, so loads only
//! delay an operation when bandwidth (not latency) is the constraint —
//! exactly the behaviour of ahead-of-use staging.

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};

use cl_isa::{FuKind, MacroOp, OpLabel, TrafficClass, ValueId};

use crate::{ArchConfig, Stats};

/// How a value behaves under the residency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueClass {
    /// Read-only, backed by memory (inputs, weights, keyswitch hints):
    /// evicted silently, reloaded with its traffic class.
    Backed(TrafficClass),
    /// Produced on chip: eviction writes it back (`IntermStore`), reloading
    /// costs `IntermLoad`.
    Intermediate,
}

#[derive(Debug, Clone)]
struct ValueState {
    words: u64,
    class: ValueClass,
    resident: bool,
    /// Cycle at which the value is available on chip.
    ready: f64,
    /// Next op index that uses this value (u32::MAX = never again).
    next_use: u32,
    /// Whether the value has ever been loaded (first load of a `Backed`
    /// value counts as its class; later reloads of intermediates count as
    /// IntermLoad).
    materialized: bool,
}

/// A resident value's place in the eviction order: (score, words, id).
/// The greatest key is the next victim.
type EvictKey = (u64, u64, Reverse<ValueId>);

impl ValueState {
    /// Victim selection is Belady's MIN adapted to variable-size,
    /// variable-cost values: rank by next-use distance, but weight dirty
    /// intermediates as costlier to displace (eviction writes them back AND
    /// reloading costs a second transfer), matching the paper's compiler
    /// preference for evicting clean, memory-backed operands like hints and
    /// weights. A dead value (no next use, or dying within the current op)
    /// is free to drop and ranks first. Ties go to the larger value, then
    /// to the lowest (oldest) id.
    fn evict_key(&self, id: ValueId) -> EvictKey {
        let score = if self.next_use == u32::MAX {
            u64::MAX
        } else {
            let dist = u64::from(self.next_use);
            match self.class {
                ValueClass::Backed(_) => 2 * dist,
                ValueClass::Intermediate => dist,
            }
        };
        (score, self.words, Reverse(id))
    }
}

/// The machine: executes macro-ops in schedule order.
///
/// The compiler drives it through three calls:
/// 1. [`Machine::declare`] each value (size + class) once,
/// 2. [`Machine::exec`] each macro-op with its reads/writes and next-use
///    information (for Belady),
/// 3. [`Machine::finish`] to close the schedule and read [`Stats`].
#[derive(Debug)]
pub struct Machine {
    cfg: ArchConfig,
    /// Next-free cycle per FU kind.
    fu_free: HashMap<FuKind, f64>,
    rf_free: f64,
    net_free: f64,
    hbm_free: f64,
    /// Completion time of the latest op (running makespan).
    makespan: f64,
    values: HashMap<ValueId, ValueState>,
    /// The resident values, keyed in eviction order.
    evict_order: BTreeSet<EvictKey>,
    resident_words: u64,
    stats: Stats,
    op_index: u32,
    /// Test reference model: pick victims by scanning the value table.
    #[cfg(test)]
    reference_scan: bool,
}

impl Machine {
    /// Creates a machine for the given architecture.
    pub fn new(cfg: ArchConfig) -> Self {
        Self {
            cfg,
            fu_free: HashMap::new(),
            rf_free: 0.0,
            net_free: 0.0,
            hbm_free: 0.0,
            makespan: 0.0,
            values: HashMap::new(),
            evict_order: BTreeSet::new(),
            resident_words: 0,
            stats: Stats::default(),
            op_index: 0,
            #[cfg(test)]
            reference_scan: false,
        }
    }

    /// The architecture being modeled.
    pub fn config(&self) -> &ArchConfig {
        &self.cfg
    }

    /// Declares a value (its size in words and residency class). Must
    /// precede any use.
    ///
    /// # Panics
    ///
    /// Panics if the value was already declared.
    pub fn declare(&mut self, id: ValueId, words: u64, class: ValueClass) {
        let prev = self.values.insert(
            id,
            ValueState {
                words,
                class,
                resident: false,
                ready: 0.0,
                next_use: u32::MAX,
                materialized: false,
            },
        );
        assert!(prev.is_none(), "value {id:?} declared twice");
    }

    /// True if the value is currently resident on chip.
    pub fn is_resident(&self, id: ValueId) -> bool {
        self.values.get(&id).map(|v| v.resident).unwrap_or(false)
    }

    fn word_bytes(&self) -> f64 {
        self.cfg.word_bytes()
    }

    /// Evicts values (Belady: farthest next use first) until `needed` words
    /// fit. Dirty intermediates are written back.
    fn make_room(&mut self, needed: u64) {
        let capacity_words = (self.cfg.rf_bytes as f64 / self.word_bytes()) as u64;
        assert!(
            needed <= capacity_words,
            "operand set ({needed} words) exceeds register file ({capacity_words} words)"
        );
        while self.resident_words + needed > capacity_words {
            let victim = self.pop_victim();
            let v = self
                .values
                .get_mut(&victim)
                .expect("eviction victim was selected from the value table");
            v.resident = false;
            let (words, class, nu) = (v.words, v.class, v.next_use);
            self.resident_words -= words;
            self.stats.evictions += 1;
            // A dead value (no future use) is discarded for free; a live
            // dirty intermediate must be written back before reuse.
            if class == ValueClass::Intermediate && nu != u32::MAX {
                self.stats.evictions_dirty += 1;
                let dist = nu.saturating_sub(self.op_index);
                self.stats.dirty_evict_log.push((words, dist, victim.0));
                let bytes = words as f64 * self.word_bytes();
                self.stats.add_traffic(TrafficClass::IntermStore, bytes);
                self.hbm_free += words as f64 / self.cfg.hbm_words_per_cycle();
                self.stats.hbm_busy += words as f64 / self.cfg.hbm_words_per_cycle();
            }
        }
    }

    /// Removes and returns the greatest resident value in eviction order.
    fn pop_victim(&mut self) -> ValueId {
        #[cfg(test)]
        if self.reference_scan {
            let victim = self.scan_victim();
            let key = self.values[&victim].evict_key(victim);
            self.evict_order.remove(&key);
            return victim;
        }
        let (_, _, Reverse(victim)) = self
            .evict_order
            .pop_last()
            .expect("capacity exceeded but nothing resident");
        victim
    }

    /// Reference victim picker for tests: a scan of the whole value table
    /// with the `f64` scores that [`ValueState::evict_key`] must order
    /// identically.
    #[cfg(test)]
    fn scan_victim(&self) -> ValueId {
        self.values
            .iter()
            .filter(|(_, v)| v.resident)
            .max_by(|(a_id, a), (b_id, b)| {
                let score = |v: &ValueState| {
                    if v.next_use == u32::MAX {
                        // Dead (or dying within the current op): free
                        // to drop, best possible victim.
                        return f64::INFINITY;
                    }
                    let dist = v.next_use as f64;
                    match v.class {
                        ValueClass::Backed(_) => dist,
                        ValueClass::Intermediate => dist * 0.5,
                    }
                };
                score(a)
                    .partial_cmp(&score(b))
                    .expect("eviction scores are distances or +inf, never NaN")
                    .then(a.words.cmp(&b.words))
                    .then(b_id.cmp(a_id))
            })
            .map(|(id, _)| *id)
            .expect("capacity exceeded but nothing resident")
    }

    /// Applies `f` to a declared value's state, keeping the eviction order
    /// in step with its residency and next use.
    fn update(&mut self, id: ValueId, f: impl FnOnce(&mut ValueState)) {
        let v = self
            .values
            .get_mut(&id)
            .unwrap_or_else(|| panic!("use of undeclared value {id:?}"));
        if v.resident {
            self.evict_order.remove(&v.evict_key(id));
        }
        f(v);
        if v.resident {
            self.evict_order.insert(v.evict_key(id));
        }
    }

    /// Ensures a value is resident, DMA-loading it if needed. Returns the
    /// cycle at which it is available.
    fn touch(&mut self, id: ValueId, next_use: u32) -> f64 {
        let (resident, words, class, ready, materialized) = {
            let v = self.values.get(&id).unwrap_or_else(|| {
                panic!("use of undeclared value {id:?}")
            });
            (v.resident, v.words, v.class, v.ready, v.materialized)
        };
        if resident {
            self.update(id, |v| v.next_use = next_use);
            return ready;
        }
        // Load it: make room, then stream from HBM.
        self.make_room(words);
        let load_class = match class {
            ValueClass::Backed(c) => c,
            ValueClass::Intermediate => {
                assert!(
                    materialized,
                    "intermediate {id:?} used before being produced"
                );
                TrafficClass::IntermLoad
            }
        };
        let bytes = words as f64 * self.word_bytes();
        self.stats.add_traffic(load_class, bytes);
        let dma_cycles = words as f64 / self.cfg.hbm_words_per_cycle();
        let done = self.hbm_free + dma_cycles;
        self.hbm_free = done;
        self.stats.hbm_busy += dma_cycles;
        self.update(id, |v| {
            v.resident = true;
            v.ready = done;
            v.next_use = next_use;
            v.materialized = true;
        });
        self.resident_words += words;
        done
    }

    /// Frees a value that will never be used again (no writeback).
    pub fn release(&mut self, id: ValueId) {
        if let Some(v) = self.values.get_mut(&id) {
            if v.resident {
                self.evict_order.remove(&v.evict_key(id));
                v.resident = false;
                self.resident_words -= v.words;
            }
            v.next_use = u32::MAX;
        }
    }

    /// Executes one macro-op.
    ///
    /// `reads` pairs each input value with the index of the *next* op that
    /// will use it (`u32::MAX` if this is the last use — it is then
    /// released). `writes` lists values this op produces with the index of
    /// their first use. `n` is the ring degree the op operates at.
    ///
    /// Returns the completion cycle.
    ///
    /// # Panics
    ///
    /// Panics if a value was not declared, or an intermediate is read
    /// before being produced.
    pub fn exec(
        &mut self,
        op: &MacroOp,
        n: usize,
        reads: &[(ValueId, u32)],
        writes: &[(ValueId, u32)],
        label: OpLabel,
    ) -> f64 {
        self.op_index += 1;
        // 1. Bring operands on chip.
        let mut ready = 0.0f64;
        for &(id, next_use) in reads {
            let r = self.touch(id, next_use);
            ready = ready.max(r);
        }
        // 2. Room for outputs.
        let out_words: u64 = writes
            .iter()
            .map(|(id, _)| self.values.get(id).expect("undeclared output").words)
            .sum();
        self.make_room(out_words);
        // 3. Resource occupancy.
        let pass = self.cfg.pass_cycles(n);
        let mut start = ready;
        // FU availability.
        for &(fu, passes) in &op.fu_passes {
            if passes == 0 {
                continue;
            }
            let count = self.cfg.fu_count(fu);
            assert!(count > 0.0, "op uses absent FU {fu:?} on {}", self.cfg.name);
            let free = self.fu_free.get(&fu).copied().unwrap_or(0.0);
            start = start.max(free);
        }
        if op.rf_words > 0 {
            start = start.max(self.rf_free);
        }
        if op.net_words > 0 {
            start = start.max(self.net_free);
        }
        let mut dur = 0.0f64;
        for &(fu, passes) in &op.fu_passes {
            if passes == 0 {
                continue;
            }
            let count = self.cfg.fu_count(fu);
            let busy = passes as f64 * pass / count;
            let free = self.fu_free.entry(fu).or_insert(0.0);
            *free = start + busy;
            *self.stats.fu_busy.entry(fu).or_insert(0.0) += passes as f64 * pass;
            dur = dur.max(busy);
        }
        if op.rf_words > 0 {
            let busy = op.rf_words as f64 / self.cfg.rf_words_per_cycle();
            self.rf_free = self.rf_free.max(start) + busy;
            self.stats.rf_busy += busy;
            self.stats.rf_words += op.rf_words as f64;
            dur = dur.max(self.rf_free - start);
        }
        if op.net_words > 0 {
            let busy = op.net_words as f64 / self.cfg.net_words_per_cycle;
            self.net_free = self.net_free.max(start) + busy;
            self.stats.net_busy += busy;
            self.stats.net_words += op.net_words as f64;
            dur = dur.max(self.net_free - start);
        }
        let done = start + dur;
        self.makespan = self.makespan.max(done);
        self.stats.scalar_ops += op.scalar_muls as f64;
        self.stats.macro_ops += 1;
        *self.stats.phase_cycles.entry(label).or_insert(0.0) += dur;
        // 4. Record outputs.
        for &(id, first_use) in writes {
            let mut loaded = 0;
            self.update(id, |v| {
                if !v.resident {
                    v.resident = true;
                    loaded = v.words;
                }
                v.ready = done;
                v.next_use = first_use;
                v.materialized = true;
            });
            self.resident_words += loaded;
        }
        // 5. Release dead reads.
        for &(id, next_use) in reads {
            if next_use == u32::MAX {
                // Backed values stay cached until evicted; intermediates die.
                if self.values.get(&id).map(|v| v.class) == Some(ValueClass::Intermediate) {
                    self.release(id);
                }
            }
        }
        done
    }

    /// Closes the schedule: the total time covers both compute and any
    /// outstanding DMA.
    pub fn finish(mut self) -> Stats {
        self.stats.cycles = self.makespan.max(self.hbm_free);
        self.stats
    }

    /// Current makespan (for tests and incremental inspection).
    pub fn now(&self) -> f64 {
        self.makespan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(ArchConfig::craterlake())
    }

    const N: usize = 1 << 16;

    #[test]
    fn single_op_duration_is_bottleneck_fu() {
        let mut m = machine();
        m.declare(ValueId(1), 100, ValueClass::Intermediate);
        // 4 NTT passes on 2 NTT FUs at 32 cycles/pass = 64 cycles.
        let op = MacroOp::new().with_fu(FuKind::Ntt, 4);
        let done = m.exec(&op, N, &[], &[(ValueId(1), u32::MAX)], OpLabel::App);
        assert!((done - 64.0).abs() < 1e-9);
        let stats = m.finish();
        assert!((stats.cycles - 64.0).abs() < 1e-9);
        // 2 FUs busy 64 cycles each... busy = passes * pass = 128 instance-cycles.
        assert!((stats.fu_busy[&FuKind::Ntt] - 128.0).abs() < 1e-9);
    }

    #[test]
    fn independent_fu_kinds_overlap() {
        let mut m = machine();
        m.declare(ValueId(1), 1, ValueClass::Intermediate);
        m.declare(ValueId(2), 1, ValueClass::Intermediate);
        let ntt = MacroOp::new().with_fu(FuKind::Ntt, 2);
        let mul = MacroOp::new().with_fu(FuKind::Mul, 5);
        m.exec(&ntt, N, &[], &[(ValueId(1), 1)], OpLabel::App);
        m.exec(&mul, N, &[], &[(ValueId(2), u32::MAX)], OpLabel::App);
        // NTT: 2/2*32 = 32 cycles; Mul: 5/5*32 = 32 cycles; they overlap.
        let stats = m.finish();
        assert!((stats.cycles - 32.0).abs() < 1e-9);
    }

    #[test]
    fn same_fu_kind_serializes() {
        let mut m = machine();
        m.declare(ValueId(1), 1, ValueClass::Intermediate);
        m.declare(ValueId(2), 1, ValueClass::Intermediate);
        let op = MacroOp::new().with_fu(FuKind::Crb, 3);
        m.exec(&op, N, &[], &[(ValueId(1), 1)], OpLabel::App);
        m.exec(&op, N, &[], &[(ValueId(2), u32::MAX)], OpLabel::App);
        // 3 passes on 1 CRB = 96 cycles each, serialized = 192.
        let stats = m.finish();
        assert!((stats.cycles - 192.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_delay_start() {
        let mut m = machine();
        m.declare(ValueId(1), 1, ValueClass::Intermediate);
        m.declare(ValueId(2), 1, ValueClass::Intermediate);
        let produce = MacroOp::new().with_fu(FuKind::Ntt, 2);
        let consume = MacroOp::new().with_fu(FuKind::Mul, 5);
        m.exec(&produce, N, &[], &[(ValueId(1), 1)], OpLabel::App);
        let done = m.exec(
            &consume,
            N,
            &[(ValueId(1), u32::MAX)],
            &[(ValueId(2), u32::MAX)],
            OpLabel::App,
        );
        // 32 (NTT) + 32 (Mul) since Mul depends on the NTT result.
        assert!((done - 64.0).abs() < 1e-9);
    }

    #[test]
    fn backed_load_counts_traffic_once_and_caches() {
        let mut m = machine();
        let ksh = ValueId(7);
        let words = 1_000_000u64;
        m.declare(ksh, words, ValueClass::Backed(TrafficClass::Ksh));
        m.declare(ValueId(1), 1, ValueClass::Intermediate);
        m.declare(ValueId(2), 1, ValueClass::Intermediate);
        let op = MacroOp::new().with_fu(FuKind::Mul, 1);
        m.exec(&op, N, &[(ksh, 1)], &[(ValueId(1), u32::MAX)], OpLabel::App);
        m.exec(&op, N, &[(ksh, u32::MAX)], &[(ValueId(2), u32::MAX)], OpLabel::App);
        let stats = m.finish();
        let expect_bytes = words as f64 * 3.5;
        assert!((stats.traffic_of(TrafficClass::Ksh) - expect_bytes).abs() < 1.0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn capacity_pressure_evicts_farthest_and_writes_back_intermediates() {
        let mut cfg = ArchConfig::craterlake();
        cfg.rf_bytes = 3_500_000; // 1M words
        let mut m = Machine::new(cfg);
        // Three 400K-word intermediates: only two fit.
        for i in 0..3u64 {
            m.declare(ValueId(i), 400_000, ValueClass::Intermediate);
        }
        let op = MacroOp::new().with_fu(FuKind::Add, 1);
        // Produce v0 (next use far: op 10), v1 (next use soon: op 3).
        m.exec(&op, N, &[], &[(ValueId(0), 10)], OpLabel::App);
        m.exec(&op, N, &[], &[(ValueId(1), 3)], OpLabel::App);
        // Producing v2 must evict v0 (farthest next use).
        m.exec(&op, N, &[], &[(ValueId(2), 4)], OpLabel::App);
        assert!(!m.is_resident(ValueId(0)));
        assert!(m.is_resident(ValueId(1)));
        assert!(m.is_resident(ValueId(2)));
        // Reading v0 again triggers IntermLoad after its IntermStore.
        m.exec(&op, N, &[(ValueId(0), u32::MAX)], &[], OpLabel::App);
        let stats = m.finish();
        // v0 evicted to fit v2, then another eviction to reload v0.
        assert_eq!(stats.evictions, 2);
        assert!(stats.traffic_of(TrafficClass::IntermStore) > 0.0);
        assert!(stats.traffic_of(TrafficClass::IntermLoad) > 0.0);
    }

    #[test]
    fn decoupled_dma_overlaps_compute() {
        let mut m = machine();
        // A large backed operand and plenty of compute to hide its load.
        m.declare(ValueId(1), 292_000, ValueClass::Backed(TrafficClass::Input));
        m.declare(ValueId(2), 1, ValueClass::Intermediate);
        m.declare(ValueId(3), 1, ValueClass::Intermediate);
        // First: a long compute op (no operands).
        let long = MacroOp::new().with_fu(FuKind::Crb, 100); // 3200 cycles
        m.exec(&long, N, &[], &[(ValueId(2), u32::MAX)], OpLabel::App);
        // Then an op reading the operand; its ~1000-cycle DMA started at
        // time 0 on the decoupled HBM timeline, so no stall.
        let short = MacroOp::new().with_fu(FuKind::Mul, 1);
        let done = m.exec(
            &short,
            N,
            &[(ValueId(1), u32::MAX)],
            &[(ValueId(3), u32::MAX)],
            OpLabel::App,
        );
        assert!(done <= 3200.0 + 32.0 + 1e-9, "load was hidden: {done}");
    }

    #[test]
    #[should_panic(expected = "undeclared")]
    fn undeclared_value_panics() {
        let mut m = machine();
        let op = MacroOp::new().with_fu(FuKind::Mul, 1);
        m.exec(&op, N, &[(ValueId(99), 0)], &[], OpLabel::App);
    }

    #[test]
    #[should_panic(expected = "absent FU")]
    fn absent_fu_panics() {
        let mut m = Machine::new(ArchConfig::f1_plus());
        m.declare(ValueId(1), 1, ValueClass::Intermediate);
        let op = MacroOp::new().with_fu(FuKind::Crb, 1);
        m.exec(&op, N, &[], &[(ValueId(1), u32::MAX)], OpLabel::App);
    }

    /// Everything eviction decisions can change, observed between ops:
    /// evictions, dirty evictions, the dirty-eviction log, traffic by
    /// class, makespan, HBM free time and resident words.
    type Observed = (u64, u64, Vec<(u64, u32, u64)>, [f64; 4], f64, f64, u64);

    fn observe(m: &Machine) -> Observed {
        let traffic = [
            TrafficClass::Ksh,
            TrafficClass::Input,
            TrafficClass::IntermLoad,
            TrafficClass::IntermStore,
        ]
        .map(|c| m.stats.traffic_of(c));
        (
            m.stats.evictions,
            m.stats.evictions_dirty,
            m.stats.dirty_evict_log.clone(),
            traffic,
            m.now(),
            m.hbm_free,
            m.resident_words,
        )
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        #[test]
        fn eviction_order_matches_full_scan_reference(
            cap_words in 16u64..48,
            // (words, kind): kind 0 = intermediate, 1 = input, 2 = hint.
            values in proptest::collection::vec((1u64..9, 0u8..3), 2..14),
            // Per op: reads and writes as (value, next-use offset; 20 and
            // above means dead), and the op's FU passes.
            ops in proptest::collection::vec(
                (
                    proptest::collection::vec((0usize..14, 0u32..24), 0..4),
                    proptest::collection::vec((0usize..14, 0u32..24), 0..3),
                    0u64..3,
                ),
                1..80,
            ),
        ) {
            let mut cfg = ArchConfig::craterlake();
            cfg.rf_bytes = (cap_words as f64 * cfg.word_bytes()).ceil() as u64;
            let mut fast = Machine::new(cfg.clone());
            let mut reference = Machine { reference_scan: true, ..Machine::new(cfg) };
            let class = |kind: u8| match kind {
                0 => ValueClass::Intermediate,
                1 => ValueClass::Backed(TrafficClass::Input),
                _ => ValueClass::Backed(TrafficClass::Ksh),
            };
            for (i, &(words, kind)) in values.iter().enumerate() {
                fast.declare(ValueId(i as u64), words, class(kind));
                reference.declare(ValueId(i as u64), words, class(kind));
            }
            let mut produced = vec![false; values.len()];
            for (op_idx, (reads, writes, passes)) in ops.iter().enumerate() {
                let next_use = |offset: u32| {
                    if offset >= 20 { u32::MAX } else { op_idx as u32 + 1 + offset }
                };
                let is_intermediate = |v: usize| values[v].1 == 0;
                // Intermediates are read only once produced and are the only
                // values written, as in a compiled schedule.
                let reads: Vec<(ValueId, u32)> = reads
                    .iter()
                    .map(|&(v, o)| (v % values.len(), o))
                    .filter(|&(v, _)| !is_intermediate(v) || produced[v])
                    .map(|(v, o)| (ValueId(v as u64), next_use(o)))
                    .collect();
                let writes: Vec<(ValueId, u32)> = writes
                    .iter()
                    .map(|&(v, o)| (v % values.len(), o))
                    .filter(|&(v, _)| is_intermediate(v))
                    .map(|(v, o)| {
                        produced[v] = true;
                        (ValueId(v as u64), next_use(o))
                    })
                    .collect();
                let op = MacroOp::new().with_fu(FuKind::Add, *passes);
                let a = fast.exec(&op, N, &reads, &writes, OpLabel::App);
                let b = reference.exec(&op, N, &reads, &writes, OpLabel::App);
                proptest::prop_assert_eq!(a, b);
                proptest::prop_assert_eq!(observe(&fast), observe(&reference));
                let resident = fast.values.values().filter(|v| v.resident).count();
                proptest::prop_assert_eq!(fast.evict_order.len(), resident);
            }
            proptest::prop_assert_eq!(fast.finish().cycles, reference.finish().cycles);
        }
    }

    #[test]
    fn rf_bandwidth_limits_duration() {
        let mut m = machine();
        m.declare(ValueId(1), 1, ValueClass::Intermediate);
        // 1 Mul pass (32 cycles of FU time) but huge RF traffic:
        // 2,457,600 words / 24,576 words-per-cycle = 100 cycles.
        let op = MacroOp::new().with_fu(FuKind::Mul, 1).with_rf_words(2_457_600);
        let done = m.exec(&op, N, &[], &[(ValueId(1), u32::MAX)], OpLabel::App);
        assert!((done - 100.0).abs() < 1e-6, "got {done}");
    }
}
