//! Property-based tests of the memory controller: liveness and latency
//! bounds under every scheduler.

use ia_dram::DramConfig;
use ia_faults::FaultPlan;
use ia_memctrl::{
    run_closed_loop, run_closed_loop_per_cycle, run_closed_loop_with, Atlas, Bliss, Fcfs, FrFcfs,
    MemRequest, MemoryController, Mitigation, ParBs, RefreshMode, ReliabilityConfig,
    ReliabilityPipeline, RlScheduler, RlSchedulerConfig, Scheduler, Tcm,
};
use ia_reliability::{Raidr, RetentionModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn schedulers(threads: usize) -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Fcfs::new()),
        Box::new(FrFcfs::new()),
        Box::new(ParBs::new(threads)),
        Box::new(Atlas::new(threads, 10_000)),
        Box::new(Tcm::new(threads, 10_000, 1_000)),
        Box::new(Bliss::new()),
        Box::new(RlScheduler::new(RlSchedulerConfig::default())),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Liveness: every scheduler completes every request of any random
    /// multi-threaded trace (no starvation, no deadlock).
    #[test]
    fn every_scheduler_drains_every_trace(
        traces in prop::collection::vec(
            prop::collection::vec((0u64..(1 << 22), any::<bool>()), 1..40),
            1..4,
        ),
    ) {
        let total: usize = traces.iter().map(Vec::len).sum();
        let mem_traces: Vec<Vec<MemRequest>> = traces
            .iter()
            .enumerate()
            .map(|(t, reqs)| {
                reqs.iter()
                    .map(|&(addr, w)| {
                        if w {
                            MemRequest::write(addr & !63, t)
                        } else {
                            MemRequest::read(addr & !63, t)
                        }
                    })
                    .collect()
            })
            .collect();
        for sched in schedulers(traces.len()) {
            let name = sched.name();
            let report = run_closed_loop(
                DramConfig::ddr3_1600(),
                sched,
                &mem_traces,
                4,
                50_000_000,
            )
            .unwrap();
            prop_assert_eq!(
                report.stats.completed,
                total as u64,
                "{} left requests unserved", name
            );
        }
    }

    /// Latency lower bound: no request can complete faster than the
    /// row-hit column latency.
    #[test]
    fn latency_never_beats_physics(addrs in prop::collection::vec(0u64..(1 << 20), 1..30)) {
        let trace: Vec<MemRequest> = addrs.iter().map(|&a| MemRequest::read(a & !63, 0)).collect();
        let report = run_closed_loop(
            DramConfig::ddr3_1600(),
            Box::new(FrFcfs::new()),
            &[trace],
            4,
            50_000_000,
        )
        .unwrap();
        let t = DramConfig::ddr3_1600().timing;
        let min = (t.t_cl + t.t_bl) as f64;
        prop_assert!(report.stats.avg_latency() >= min);
    }

    /// Throughput upper bound: completed requests per cycle can never
    /// exceed the data-bus burst rate (one per tBL cycles).
    #[test]
    fn throughput_respects_the_bus(addrs in prop::collection::vec(0u64..(1 << 16), 10..60)) {
        let trace: Vec<MemRequest> = addrs.iter().map(|&a| MemRequest::read(a & !63, 0)).collect();
        let report = run_closed_loop(
            DramConfig::ddr3_1600(),
            Box::new(FrFcfs::new()),
            &[trace],
            8,
            50_000_000,
        )
        .unwrap();
        let t = DramConfig::ddr3_1600().timing;
        let max_rpkc = 1000.0 / t.t_bl as f64;
        prop_assert!(report.throughput_rpkc() <= max_rpkc + 1e-9);
    }

    /// Accounting invariant: at every point of an arbitrary
    /// enqueue/drain interleaving, `outstanding()` equals exactly the
    /// number of accepted requests not yet returned as completions.
    #[test]
    fn outstanding_counts_queue_plus_inflight(
        stream in prop::collection::vec((0u64..(1 << 20), 0u8..8), 1..60),
    ) {
        let mut ctrl =
            MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new())).unwrap();
        let mut accepted: u64 = 0;
        let mut retired: u64 = 0;
        for &(addr, gap) in &stream {
            if ctrl.enqueue(MemRequest::read(addr & !63, 0)).is_ok() {
                accepted += 1;
            }
            for _ in 0..gap {
                retired += ctrl.tick().len() as u64;
                prop_assert_eq!(ctrl.outstanding() as u64, accepted - retired);
            }
        }
        retired += ctrl.run_until_drained(50_000_000).len() as u64;
        prop_assert_eq!(retired, accepted, "drain completes everything");
        prop_assert_eq!(ctrl.outstanding(), 0);
    }

    /// Completions retire in nondecreasing `finished` order, for every
    /// scheduler: the controller retires bursts as their data arrives,
    /// never out of time order.
    #[test]
    fn completions_retire_in_time_order(
        addrs in prop::collection::vec(0u64..(1 << 22), 1..40),
    ) {
        for sched in schedulers(1) {
            let name = sched.name();
            let mut ctrl = MemoryController::new(DramConfig::ddr3_1600(), sched).unwrap()
                .with_queue_capacity(64);
            for &a in &addrs {
                ctrl.enqueue(MemRequest::read(a & !63, 0)).unwrap();
            }
            let done = ctrl.run_until_drained(50_000_000);
            prop_assert_eq!(done.len(), addrs.len());
            for pair in done.windows(2) {
                prop_assert!(
                    pair[0].finished <= pair[1].finished,
                    "{} retired out of order: {} after {}",
                    name, pair[1].finished, pair[0].finished
                );
            }
        }
    }
}

proptest! {
    // The oracle ticks every cycle, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole guarantee: the event-skipping engine produces a
    /// report identical (`same_results`) to the per-cycle oracle, for
    /// every scheduler, with refresh enabled and disabled, on arbitrary
    /// seeded multi-threaded workloads.
    #[test]
    fn cycle_skipping_matches_per_cycle_oracle(
        traces in prop::collection::vec(
            prop::collection::vec((0u64..(1 << 22), any::<bool>()), 1..25),
            1..3,
        ),
        refresh in any::<bool>(),
    ) {
        let mem_traces: Vec<Vec<MemRequest>> = traces
            .iter()
            .enumerate()
            .map(|(t, reqs)| {
                reqs.iter()
                    .map(|&(addr, w)| {
                        if w {
                            MemRequest::write(addr & !63, t)
                        } else {
                            MemRequest::read(addr & !63, t)
                        }
                    })
                    .collect()
            })
            .collect();
        let threads = traces.len();
        let mode = || if refresh { RefreshMode::AllBank } else { RefreshMode::Disabled };
        for (fast_sched, slow_sched) in schedulers(threads).into_iter().zip(schedulers(threads)) {
            let name = fast_sched.name();
            let fast_ctrl = MemoryController::new(DramConfig::ddr3_1600(), fast_sched)
                .unwrap()
                .with_refresh_mode(mode());
            let slow_ctrl = MemoryController::new(DramConfig::ddr3_1600(), slow_sched)
                .unwrap()
                .with_refresh_mode(mode());
            let fast = run_closed_loop_with(fast_ctrl, &mem_traces, 4, 2_000_000).unwrap();
            let slow = run_closed_loop_per_cycle(slow_ctrl, &mem_traces, 4, 2_000_000).unwrap();
            prop_assert!(
                fast.same_results(&slow),
                "{} diverged under cycle skipping (refresh={}):\n event-driven: {:?}\n per-cycle:   {:?}",
                name, refresh, fast, slow
            );
            prop_assert!(
                fast.engine.events_processed <= slow.cycles + 1,
                "engine did more ticks than cycles exist"
            );
        }
    }
}

/// DDR3-1600 timing in cycles, but with a 20 µs clock period, so one
/// 64 ms retention window lasts 3200 cycles, and a REF slot every 624
/// cycles (3 tRFC). Runs of a few hundred requests then cross RAIDR
/// windows, where it starts skipping refresh slots.
fn slow_clock_ddr3() -> DramConfig {
    let mut config = DramConfig::ddr3_1600();
    config.timing.tck_ns_x1000 = 20_000_000;
    config.timing.t_refi = 3 * config.timing.t_rfc;
    config
}

/// The two refresh × reliability set-ups of the deep oracle:
/// all-bank refresh with an ecc-only pipeline, and RAIDR refresh with
/// the full pipeline (remap and quarantine). Both inject faults from a
/// plan seeded by `seed`.
fn deep_controller(sched: Box<dyn Scheduler>, raidr: bool, seed: u64) -> MemoryController {
    let config = slow_clock_ddr3();
    let plan = FaultPlan::new(seed)
        .transient(0.05)
        .stuck(0.01)
        .rowhammer(4, 0.5);
    let (refresh, reliability) = if raidr {
        let mut rng = SmallRng::seed_from_u64(seed);
        let profile = RetentionModel::typical().profile(8192, &mut rng);
        let raidr = Raidr::from_profile(&profile).unwrap();
        (RefreshMode::Raidr(raidr), ReliabilityConfig::full(4))
    } else {
        (
            RefreshMode::AllBank,
            ReliabilityConfig::tier(Mitigation::EccOnly),
        )
    };
    let pipeline = ReliabilityPipeline::new(reliability, plan, &config.geometry);
    MemoryController::new(config, sched)
        .unwrap()
        .with_refresh_mode(refresh)
        .with_reliability(pipeline)
}

proptest! {
    // Up to 1600 requests per run, each run twice (engine and per-cycle
    // oracle) for 7 schedulers and 2 set-ups: keep the case count small.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The engine matches the per-cycle oracle where the wake-up bound
    /// has the most to get wrong: up to 8 threads at window 16 (up to
    /// 128 queued requests over 8 banks), traces of up to 200 requests,
    /// all-bank and RAIDR refresh, and ecc-only and full reliability
    /// pipelines injecting seeded faults.
    #[test]
    fn deep_queue_refresh_and_reliability_match_per_cycle_oracle(
        traces in prop::collection::vec(
            prop::collection::vec((0u64..(1 << 20), any::<bool>()), 1..201),
            1..9,
        ),
        seed in any::<u64>(),
    ) {
        let mem_traces: Vec<Vec<MemRequest>> = traces
            .iter()
            .enumerate()
            .map(|(t, reqs)| {
                reqs.iter()
                    .map(|&(addr, w)| {
                        if w {
                            MemRequest::write(addr & !63, t)
                        } else {
                            MemRequest::read(addr & !63, t)
                        }
                    })
                    .collect()
            })
            .collect();
        let threads = traces.len();
        for raidr in [false, true] {
            for (fast_sched, slow_sched) in schedulers(threads).into_iter().zip(schedulers(threads)) {
                let name = fast_sched.name();
                let fast_ctrl = deep_controller(fast_sched, raidr, seed);
                let slow_ctrl = deep_controller(slow_sched, raidr, seed);
                let fast = run_closed_loop_with(fast_ctrl, &mem_traces, 16, 20_000_000).unwrap();
                let slow = run_closed_loop_per_cycle(slow_ctrl, &mem_traces, 16, 20_000_000).unwrap();
                prop_assert!(
                    fast.same_results(&slow),
                    "{} diverged under cycle skipping (raidr={}):\n event-driven: {:?}\n per-cycle:   {:?}",
                    name, raidr, fast, slow
                );
                let rel = fast.reliability.as_ref().expect("pipeline attached");
                prop_assert!(rel.stats.reads_checked > 0 || mem_traces.iter().flatten().all(|r| !r.kind.is_read()));
            }
        }
    }
}
