//! # ia-bench — experiment harness
//!
//! One module per experiment in DESIGN.md's index (E1–E24). Each module
//! exposes one entry point, `report(&RunContext) -> ExperimentReport`,
//! with the results recorded in `EXPERIMENTS.md`; [`EXPERIMENTS`]
//! registers it under its binary name with a one-line title. Every
//! `expNN_*` binary is a `[[bin]]` name for `src/bin/experiment.rs`,
//! which routes through [`report::cli`] (`--quick`, `--threads <n>`,
//! `--json <path>`, `--csv <path>`, …): the text on stdout is rendered
//! from the same report the JSON is, so each invocation computes the
//! experiment once. Independent-configuration sweeps fan out on
//! `RunContext::threads` `ia-par` workers; reports are byte-identical at
//! every `--threads` setting (see `tests/parallel_determinism.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp01_data_movement;
pub mod exp02_rowclone;
pub mod exp03_ambit;
pub mod exp04_rl_memctrl;
pub mod exp05_scheduler_suite;
pub mod exp06_raidr;
pub mod exp07_bdi;
pub mod exp08_pnm_graph;
pub mod exp09_pointer_chase;
pub mod exp10_rowhammer;
pub mod exp11_grim_filter;
pub mod exp12_xmem;
pub mod exp13_low_latency_dram;
pub mod exp14_hybrid_memory;
pub mod exp15_perceptron;
pub mod exp16_ablation;
pub mod exp17_prefetchers;
pub mod exp18_noc;
pub mod exp19_salp;
pub mod exp20_eden;
pub mod exp21_memscale;
pub mod exp22_runahead;
pub mod exp23_gsdram;
pub mod exp24_fault_injection;

pub mod fuzz;
pub mod mixes;
pub mod replay;
pub mod report;

use report::{ExperimentReport, RunContext};

/// One registered experiment.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// The experiment's binary name (`target/release/<bin>`, and the
    /// `<bin>.json` file `bench_suite` writes).
    pub bin: &'static str,
    /// One-line title heading the text output.
    pub title: &'static str,
    /// The experiment's report entry point.
    pub report: fn(&RunContext) -> ExperimentReport,
}

/// Every experiment, in binary-name order — the order `bench_suite`
/// runs them and `scripts/bench_snapshot.sh` concatenates them into
/// `BENCH_PR.json`. The names match the `[[bin]]` entries of this
/// crate's `Cargo.toml` (checked by `tests/registry.rs`).
pub static EXPERIMENTS: [Experiment; 24] = [
    Experiment {
        bin: "exp01_data_movement_energy",
        title: "E1: data-movement energy in consumer workloads \
                (paper: 62.7% of system energy)",
        report: exp01_data_movement::report,
    },
    Experiment {
        bin: "exp02_rowclone",
        title: "E2: RowClone bulk copy (paper: ~11x latency, ~74x energy vs CPU copy)",
        report: exp02_rowclone::report,
    },
    Experiment {
        bin: "exp03_ambit_bitwise",
        title: "E3: Ambit in-DRAM bulk bitwise ops \
                (paper: ~32x average throughput, 25-60x energy vs processor-centric)",
        report: exp03_ambit::report,
    },
    Experiment {
        bin: "exp04_rl_memctrl",
        title: "E4: self-optimizing memory controller \
                (paper: RL ≈ 15-20% over FR-FCFS-class fixed policies)",
        report: exp04_rl_memctrl::report,
    },
    Experiment {
        bin: "exp05_scheduler_suite",
        title: "E5: scheduler lineage on a 4-thread interference mix \
                (paper shape: FR-FCFS beats FCFS on throughput; fairness schedulers cut max slowdown)",
        report: exp05_scheduler_suite::report,
    },
    Experiment {
        bin: "exp06_raidr",
        title: "E6: RAIDR retention-aware refresh \
                (paper: ≈74.6% refresh reduction, kilobits of state)",
        report: exp06_raidr::report,
    },
    Experiment {
        bin: "exp07_bdi",
        title: "E7: BDI cache compression (paper: ≈1.5x average ratio, larger effective cache)",
        report: exp07_bdi::report,
    },
    Experiment {
        bin: "exp08_pnm_graph",
        title: "E8: PageRank on an R-MAT graph, near-memory vs host \
                (paper shape: ≈10x at 16 vaults, scaling with internal bandwidth)",
        report: exp08_pnm_graph::report,
    },
    Experiment {
        bin: "exp09_pointer_chase",
        title: "E9: pointer chasing over a 64Ki-node chain \
                (paper shape: speedup ≈ external/internal latency ratio, growing with walkers)",
        report: exp09_pointer_chase::report,
    },
    Experiment {
        bin: "exp10_rowhammer",
        title: "E10: RowHammer, double-sided activations in one refresh window \
                (paper shape: flips explode as HC_first drops 139k→4.8k; mitigations suppress them)",
        report: exp10_rowhammer::report,
    },
    Experiment {
        bin: "exp11_grim_filter",
        title: "E11: GRIM-Filter seed-location filtering via in-DRAM bitwise AND \
                (paper shape: large candidate reduction, 2-4x mapping speedup, no lost mappings)",
        report: exp11_grim_filter::report,
    },
    Experiment {
        bin: "exp12_xmem",
        title: "E12: data-aware cache management, critical hot structure vs streaming scan \
                (paper shape: attribute-guided insertion protects the hot set)",
        report: exp12_xmem::report,
    },
    Experiment {
        bin: "exp13_low_latency_dram",
        title: "E13: reduced-latency DRAM \
                (paper shape: AL-DRAM and ChargeCache cut average latency)",
        report: exp13_low_latency_dram::report,
    },
    Experiment {
        bin: "exp14_hybrid_memory",
        title: "E14: hybrid DRAM+PCM memory, DRAM tier 1/16 of a zipf working set \
                (paper shape: hybrid recovers most of all-DRAM; RBLA needs fewer migrations)",
        report: exp14_hybrid_memory::report,
    },
    Experiment {
        bin: "exp15_perceptron",
        title: "E15: perceptron vs counter-table prediction \
                (paper shape: perceptrons win on history-correlated streams, tie elsewhere)",
        report: exp15_perceptron::report,
    },
    Experiment {
        bin: "exp16_principles_ablation",
        title: "E16: principle ablation on a mixed hot-structure + streaming workload \
                (paper shape: each principle contributes; the full system is fastest or tied)",
        report: exp16_ablation::report,
    },
    Experiment {
        bin: "exp17_prefetchers",
        title: "E17: prefetcher lineage across workload classes \
                (paper shape: heuristics pollute on irregular traffic; feedback/learning recover accuracy)",
        report: exp17_prefetchers::report,
    },
    Experiment {
        bin: "exp18_noc",
        title: "E18: 8x8 mesh, uniform-random traffic, buffered XY vs bufferless deflection \
                (paper shape: near-identical latency at low-to-medium load with zero buffers)",
        report: exp18_noc::report,
    },
    Experiment {
        bin: "exp19_salp",
        title: "E19: subarray-level parallelism within one bank \
                (paper shape: large gains on inter-subarray conflicts, none on hits)",
        report: exp19_salp::report,
    },
    Experiment {
        bin: "exp20_eden",
        title: "E20: EDEN-style approximate DRAM for error-tolerant (DNN) data \
                (paper shape: large refresh savings at negligible accuracy loss below the knee)",
        report: exp20_eden::report,
    },
    Experiment {
        bin: "exp21_memscale",
        title: "E21: memory DVFS (MemScale) with a 10% slowdown budget \
                (paper shape: large energy savings at low utilization, none when the channel fills)",
        report: exp21_memscale::report,
    },
    Experiment {
        bin: "exp22_runahead",
        title: "E22: runahead execution vs stall-on-miss \
                (paper shape: big wins on independent misses, zero on dependent chains)",
        report: exp22_runahead::report,
    },
    Experiment {
        bin: "exp23_gsdram",
        title: "E23: Gather-Scatter DRAM on strided access \
                (paper shape: traffic and I/O energy cut approaching the stride factor)",
        report: exp23_gsdram::report,
    },
    Experiment {
        bin: "exp24_fault_injection",
        title: "E24: fault injection vs. the mitigation ladder \
                (paper shape: intelligent mitigation holds uncorrected reads near zero)",
        report: exp24_fault_injection::report,
    },
];
