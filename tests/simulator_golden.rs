//! Golden simulator results: `compile_and_run` on all eight paper
//! benchmarks must reproduce the recorded cycles, macro-op count, evictions
//! and per-class off-chip traffic exactly, so any drift in scheduling or
//! register-file residency shows up here. The constants were recorded with
//! the full-scan victim picker that `cl-core`'s tests keep as the
//! reference for the ordered eviction index.

use craterlake::apps::all_benchmarks;
use craterlake::baselines::craterlake_options;
use craterlake::compiler::compile_and_run;
use craterlake::core::ArchConfig;
use craterlake::isa::TrafficClass;

struct Golden {
    name: &'static str,
    cycles: f64,
    macro_ops: u64,
    evictions: u64,
    evictions_dirty: u64,
    /// Bytes of `Ksh`, `Input`, `IntermLoad` and `IntermStore` traffic.
    traffic: [f64; 4],
}

/// The default 256 MB register file: the evaluation's configuration.
const DEFAULT_RF: [Golden; 8] = [
    Golden {
        name: "ResNet-20",
        cycles: 57_005_248.0,
        macro_ops: 18_982,
        evictions: 17_108,
        evictions_dirty: 0,
        traffic: [25_112_543_232.0, 33_258_602_496.0, 0.0, 0.0],
    },
    Golden {
        name: "Logistic Regression",
        cycles: 22_026_080.0,
        macro_ops: 4_652,
        evictions: 3_277,
        evictions_dirty: 0,
        traffic: [10_933_895_168.0, 11_555_274_752.0, 0.0, 0.0],
    },
    Golden {
        name: "LSTM",
        cycles: 159_070_848.0,
        macro_ops: 66_901,
        evictions: 58_113,
        evictions_dirty: 0,
        traffic: [95_491_063_808.0, 67_389_292_544.0, 0.0, 0.0],
    },
    Golden {
        name: "Packed Bootstrapping",
        cycles: 2_288_992.0,
        macro_ops: 340,
        evictions: 230,
        evictions_dirty: 0,
        traffic: [1_151_467_520.0, 1_184_268_288.0, 0.0, 0.0],
    },
    Golden {
        name: "Unpacked Bootstrapping",
        cycles: 92_128.0,
        macro_ops: 42,
        evictions: 0,
        evictions_dirty: 0,
        traffic: [34_406_400.0, 25_231_360.0, 0.0, 0.0],
    },
    Golden {
        name: "CIFAR Unencryp. Wghts.",
        cycles: 3_090_528.0,
        macro_ops: 17_843,
        evictions: 15_409,
        evictions_dirty: 0,
        traffic: [226_623_488.0, 2_937_618_432.0, 0.0, 0.0],
    },
    Golden {
        name: "MNIST Unencryp. Wghts.",
        cycles: 102_824.0,
        macro_ops: 636,
        evictions: 0,
        evictions_dirty: 0,
        traffic: [26_263_552.0, 78_675_968.0, 0.0, 0.0],
    },
    Golden {
        name: "MNIST Encryp. Wghts.",
        cycles: 178_648.0,
        macro_ops: 636,
        evictions: 0,
        evictions_dirty: 0,
        traffic: [26_378_240.0, 156_205_056.0, 0.0, 0.0],
    },
];

/// A 100 MB register file (Fig. 11's smallest point): the deep benchmarks
/// spill dirty intermediates.
const SMALL_RF: [Golden; 8] = [
    Golden {
        name: "ResNet-20",
        cycles: 92_222_752.0,
        macro_ops: 18_982,
        evictions: 19_045,
        evictions_dirty: 671,
        traffic: [
            28_670_623_744.0,
            33_979_072_512.0,
            15_892_086_784.0,
            15_892_086_784.0,
        ],
    },
    Golden {
        name: "Logistic Regression",
        cycles: 46_453_808.0,
        macro_ops: 4_652,
        evictions: 4_371,
        evictions_dirty: 306,
        traffic: [
            20_373_176_320.0,
            11_767_218_176.0,
            7_712_538_624.0,
            7_712_538_624.0,
        ],
    },
    Golden {
        name: "LSTM",
        cycles: 240_134_656.0,
        macro_ops: 66_901,
        evictions: 51_010,
        evictions_dirty: 800,
        traffic: [
            137_396_224_000.0,
            67_389_292_544.0,
            20_552_089_600.0,
            20_552_089_600.0,
        ],
    },
    Golden {
        name: "Packed Bootstrapping",
        cycles: 3_986_912.0,
        macro_ops: 340,
        evictions: 318,
        evictions_dirty: 34,
        traffic: [
            1_176_240_128.0,
            1_184_268_288.0,
            856_948_736.0,
            856_948_736.0,
        ],
    },
    Golden {
        name: "Unpacked Bootstrapping",
        cycles: 92_128.0,
        macro_ops: 42,
        evictions: 0,
        evictions_dirty: 0,
        traffic: [34_406_400.0, 25_231_360.0, 0.0, 0.0],
    },
    Golden {
        name: "CIFAR Unencryp. Wghts.",
        cycles: 3_090_528.0,
        macro_ops: 17_843,
        evictions: 16_898,
        evictions_dirty: 0,
        traffic: [226_623_488.0, 2_937_618_432.0, 0.0, 0.0],
    },
    Golden {
        name: "MNIST Unencryp. Wghts.",
        cycles: 102_824.0,
        macro_ops: 636,
        evictions: 2,
        evictions_dirty: 0,
        traffic: [26_263_552.0, 78_675_968.0, 0.0, 0.0],
    },
    Golden {
        name: "MNIST Encryp. Wghts.",
        cycles: 178_648.0,
        macro_ops: 636,
        evictions: 114,
        evictions_dirty: 0,
        traffic: [26_378_240.0, 156_205_056.0, 0.0, 0.0],
    },
];

fn check(arch: &ArchConfig, golden: &[Golden; 8]) {
    let benches = all_benchmarks();
    assert_eq!(benches.len(), golden.len());
    for (bench, want) in benches.iter().zip(golden) {
        assert_eq!(bench.name, want.name);
        let (_, opts) = craterlake_options(bench.n);
        let got = compile_and_run(&bench.graph, arch, &opts);
        let traffic = [
            TrafficClass::Ksh,
            TrafficClass::Input,
            TrafficClass::IntermLoad,
            TrafficClass::IntermStore,
        ]
        .map(|c| got.traffic_of(c));
        let name = want.name;
        assert_eq!(got.cycles, want.cycles, "{name}: cycles");
        assert_eq!(got.macro_ops, want.macro_ops, "{name}: macro-ops");
        assert_eq!(got.evictions, want.evictions, "{name}: evictions");
        assert_eq!(
            got.evictions_dirty, want.evictions_dirty,
            "{name}: dirty evictions"
        );
        assert_eq!(
            got.dirty_evict_log.len() as u64,
            want.evictions_dirty,
            "{name}: log"
        );
        assert_eq!(traffic, want.traffic, "{name}: traffic by class");
    }
}

#[test]
fn paper_benchmarks_simulate_exactly_as_recorded() {
    check(&ArchConfig::craterlake(), &DEFAULT_RF);
}

#[test]
fn capacity_bound_paper_benchmarks_simulate_exactly_as_recorded() {
    check(
        &ArchConfig::craterlake().with_rf_bytes(100 << 20),
        &SMALL_RF,
    );
}
