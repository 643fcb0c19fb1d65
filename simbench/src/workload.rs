//! The four workloads: how each builds its inputs from the seed (set-up)
//! and how each runs one job through a layer's public entry point.

use std::collections::BTreeMap;
use std::sync::Mutex;

use ia_cache::{Cache, CacheOp};
use ia_dram::{AccessKind, AddressMapping, DramConfig, Location};
use ia_faults::FaultPlan;
use ia_memctrl::{
    run_closed_loop_with, Atlas, Bliss, Fcfs, FrFcfs, MemRequest, MemoryController, Mitigation,
    ParBs, RefreshMode, ReliabilityConfig, ReliabilityPipeline, RlScheduler, RlSchedulerConfig,
    RunReport, Scheduler, Tcm,
};
use ia_noc::{simulate, MeshConfig, NocReport, RouterKind, Traffic};
use ia_prefetch::{
    FeedbackDirected, GhbPrefetcher, NextLinePrefetcher, PerceptronFilter, PrefetchHarness,
    Prefetcher, StridePrefetcher,
};
use ia_sim::SnapshotState;
use ia_workloads::{
    Op, PointerChaseGen, RandomGen, StreamGen, TraceGenerator, TraceRequest, ZipfGen,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::spans::SpanLog;
use crate::stats::{derive, Fingerprint};

/// A named set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// 4-thread interference mix × (4 solo runs + 7 schedulers), window 8.
    SchedMix,
    /// 16-thread read/write mix under fault injection, window 16.
    FaultRw,
    /// 8×8 mesh, buffered vs bufferless, light vs near-saturation rate.
    NocMesh,
    /// 4 demand streams × 5 prefetchers, plus bare cache passes.
    LlcPrefetch,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::SchedMix,
        Workload::FaultRw,
        Workload::NocMesh,
        Workload::LlcPrefetch,
    ];

    /// The `--workload` name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SchedMix => "sched_mix",
            Workload::FaultRw => "fault_rw",
            Workload::NocMesh => "noc_mesh",
            Workload::LlcPrefetch => "llc_prefetch",
        }
    }

    /// Parses a `--workload` name.
    #[must_use]
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload's layers keep a simulated clock.
    #[must_use]
    pub fn clocked(self) -> bool {
        self != Workload::LlcPrefetch
    }
}

/// Simulated counters of one job, summed by the metric code.
pub type Counts = BTreeMap<&'static str, f64>;

/// The simulated result of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Which variant ran (scheduler, tier, router, prefetcher, ...).
    pub label: &'static str,
    /// Simulated operations completed.
    pub ops: u64,
    /// Simulated cycles (0 for the unclocked cache layers).
    pub sim_cycles: u64,
    /// Fold of every simulated result.
    pub fingerprint: u64,
    /// Per-layer simulated counters.
    pub counts: Counts,
    /// Why the job failed, if it did.
    pub error: Option<String>,
}

impl Outcome {
    pub(crate) fn failed(label: &'static str, error: String) -> Self {
        Outcome {
            label,
            ops: 0,
            sim_cycles: 0,
            fingerprint: 0,
            counts: Counts::new(),
            error: Some(error),
        }
    }
}

/// Per-thread trace sets of the controller workloads.
type Traces = Vec<Vec<MemRequest>>;

/// Inputs built during set-up. Shared by reference with the workers; the
/// warm controller and pipelines are not `Sync`, so jobs fork them under
/// a lock that is held only for the clone.
#[derive(Debug)]
pub enum Prepared {
    /// See [`Workload::SchedMix`].
    SchedMix {
        /// Warm FR-FCFS controller every job forks.
        warm: Mutex<MemoryController>,
        /// One 4-thread trace set per mix.
        mixes: Vec<Traces>,
    },
    /// See [`Workload::FaultRw`].
    FaultRw {
        /// Warm FR-FCFS all-bank-refresh controller every job forks.
        warm: Mutex<MemoryController>,
        /// One 16-thread trace set per fault campaign.
        traces: Vec<Traces>,
        /// Per campaign: the ecc-only and full pipelines, faults seeded.
        pipelines: Vec<Mutex<[ReliabilityPipeline; 2]>>,
    },
    /// See [`Workload::NocMesh`].
    NocMesh {
        /// The 8×8 mesh.
        mesh: MeshConfig,
        /// Traffic seeds, one per job group.
        seeds: Vec<u64>,
    },
    /// See [`Workload::LlcPrefetch`].
    LlcPrefetch {
        /// Demand-address streams: stream, strided, zipf, pointer-chase.
        streams: Vec<Vec<u64>>,
    },
}

/// What the generated inputs hold, for `workloads.*` metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct InputSize {
    /// Requests or demand addresses generated.
    pub requests: u64,
    /// Of which writes.
    pub writes: u64,
}

const SCHED_MIXES: u64 = 4;
const SCHED_PER_THREAD: usize = 2_000;
const SCHED_WINDOW: usize = 8;
const SCHED_LABELS: [&str; 7] = ["fcfs", "fr_fcfs", "par_bs", "atlas", "tcm", "bliss", "rl"];

const FAULT_CAMPAIGNS: u64 = 2;
const FAULT_THREADS: usize = 16;
const FAULT_PER_THREAD: usize = 400;
const FAULT_WINDOW: usize = 16;
const FAULT_LABELS: [&str; 3] = ["control", "ecc_only", "full"];
/// Double-sided aggressor rows in bank 0 and the quarantine threshold,
/// as in the fault-injection experiment.
const AGGRESSORS: [u64; 2] = [1000, 1002];
const QUARANTINE_THRESHOLD: u64 = 256;
/// Multiplier on the fault-injection experiment's base fault rates.
const FAULT_RATE: f64 = 16.0;

const NOC_SEEDS: u64 = 2;
/// (injection rate, cycles): both inject about 900 packets per node, so
/// light and near-saturation jobs cost about the same host time.
const NOC_RATES: [(f64, u64); 2] = [(0.05, 18_000), (0.30, 3_000)];
const NOC_KINDS: [(RouterKind, &str); 2] = [
    (RouterKind::Buffered, "buffered"),
    (RouterKind::BufferlessDeflection, "bufferless"),
];

const LLC_DEMANDS: usize = 40_000;
const LLC_BYTES: u64 = 64 * 1024;
const LLC_LINE: u64 = 64;
const LLC_WAYS: usize = 8;
const PREFETCH_LABELS: [&str; 5] = ["next_line", "stride", "ghb", "feedback", "perceptron"];

const MAX_CYCLES: u64 = 500_000_000;
const REGION: u64 = 64 << 20;

fn scheduler(label: &str, threads: usize) -> Box<dyn Scheduler> {
    match label {
        "fcfs" => Box::new(Fcfs::new()),
        "fr_fcfs" => Box::new(FrFcfs::new()),
        "par_bs" => Box::new(ParBs::new(threads)),
        "atlas" => Box::new(Atlas::new(threads, 100_000)),
        "tcm" => Box::new(Tcm::new(threads, 50_000, 5_000)),
        "bliss" => Box::new(Bliss::new()),
        "rl" => Box::new(RlScheduler::new(RlSchedulerConfig::default())),
        other => unreachable!("unknown scheduler {other}"),
    }
}

fn prefetcher(i: usize) -> Box<dyn Prefetcher> {
    match i {
        0 => Box::new(NextLinePrefetcher::new(2)),
        1 => Box::new(StridePrefetcher::new(4)),
        2 => Box::new(GhbPrefetcher::new(256, 4)),
        3 => Box::new(FeedbackDirected::new(4)),
        4 => Box::new(PerceptronFilter::new(StridePrefetcher::new(4))),
        other => unreachable!("unknown prefetcher {other}"),
    }
}

fn to_mem(trace: &[TraceRequest], thread: usize) -> Vec<MemRequest> {
    trace
        .iter()
        .map(|r| match r.op {
            Op::Read => MemRequest::read(r.addr, thread),
            Op::Write => MemRequest::write(r.addr, thread),
        })
        .collect()
}

/// The interference mix: stream, random, zipf and pointer-chase threads
/// with 10–30 % writes, each in its own 64 MiB region.
fn interference_mix(seed: u64) -> Traces {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = SCHED_PER_THREAD;
    let stream = StreamGen::new(0, 64, 1 << 20, 0.1)
        .expect("valid stream")
        .generate(n, &mut rng);
    let random = RandomGen::new(REGION, 32 << 20, 64, 0.3)
        .expect("valid random")
        .generate(n, &mut rng);
    let zipf = ZipfGen::new(2 * REGION, 4096, 4096, 1.2, 0.2)
        .expect("valid zipf")
        .generate(n, &mut rng);
    let chase = PointerChaseGen::new(3 * REGION, 64 * 1024, 64, &mut rng)
        .expect("valid chase")
        .generate(n, &mut rng);
    vec![
        to_mem(&stream, 0),
        to_mem(&random, 1),
        to_mem(&zipf, 2),
        to_mem(&chase, 3),
    ]
}

/// Row `row` of bank `bank`, column 0, under the default mapping.
fn row_addr(config: &DramConfig, bank: usize, row: u64) -> u64 {
    let loc = Location {
        channel: 0,
        rank: 0,
        bank_group: 0,
        bank,
        subarray: config.geometry.subarray_of_row(row),
        row,
        column: 0,
    };
    AddressMapping::RowInterleaved
        .encode(&loc, &config.geometry)
        .as_u64()
}

/// 15 stream/random/zipf threads at 50 % writes in disjoint regions, plus
/// one thread hammering a double-sided aggressor pair (read low, write
/// high), so the whole mix is about half writes.
fn fault_mix(config: &DramConfig, seed: u64) -> Traces {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = FAULT_PER_THREAD;
    let mut traces: Traces = (0..FAULT_THREADS - 1)
        .map(|t| {
            let base = t as u64 * REGION;
            let reqs = match t % 3 {
                0 => StreamGen::new(base, 64, 1 << 20, 0.5)
                    .expect("valid stream")
                    .generate(n, &mut rng),
                1 => RandomGen::new(base, 32 << 20, 64, 0.5)
                    .expect("valid random")
                    .generate(n, &mut rng),
                _ => ZipfGen::new(base, 4096, 4096, 1.1, 0.5)
                    .expect("valid zipf")
                    .generate(n, &mut rng),
            };
            to_mem(&reqs, t)
        })
        .collect();
    let [low, high] = AGGRESSORS.map(|row| row_addr(config, 0, row));
    let t = FAULT_THREADS - 1;
    traces.push(
        (0..n)
            .map(|i| {
                if i % 2 == 0 {
                    MemRequest::read(low, t)
                } else {
                    MemRequest::write(high, t)
                }
            })
            .collect(),
    );
    traces
}

fn fault_pipelines(config: &DramConfig, seed: u64) -> [ReliabilityPipeline; 2] {
    let rows = config.geometry.rows_per_bank;
    [
        ReliabilityConfig::tier(Mitigation::EccOnly),
        ReliabilityConfig::full(QUARANTINE_THRESHOLD),
    ]
    .map(|cfg| {
        // One word per row: every flip lands in the word the workload
        // reads, as in the fault-injection experiment.
        let injector = FaultPlan::new(seed)
            .transient(0.004 * FAULT_RATE)
            .retention(0.02 * FAULT_RATE, 60_000, 8192)
            .rowhammer(128, (0.25 * FAULT_RATE).min(1.0))
            .stuck(0.000_2 * FAULT_RATE)
            .geometry(rows, 1)
            .spare_floor(rows - cfg.spare_rows_per_bank)
            .build();
        ReliabilityPipeline::with_hook(cfg, Box::new(injector), rows)
    })
}

fn llc_streams(seed: u64) -> Vec<Vec<u64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n = LLC_DEMANDS;
    let addrs = |reqs: Vec<TraceRequest>| reqs.into_iter().map(|r| r.addr).collect::<Vec<_>>();
    let stream = addrs(
        StreamGen::new(0, 64, 4 << 20, 0.0)
            .expect("valid stream")
            .generate(n, &mut rng),
    );
    let strided = addrs(
        StreamGen::new(1 << 26, 320, 4 << 20, 0.0)
            .expect("valid stride")
            .generate(n, &mut rng),
    );
    let zipf = addrs(
        ZipfGen::new(2 << 26, 8192, 4096, 1.0, 0.0)
            .expect("valid zipf")
            .generate(n, &mut rng),
    );
    let chase = addrs(
        PointerChaseGen::new(3 << 26, 128 * 1024, 64, &mut rng)
            .expect("valid chase")
            .generate(n, &mut rng),
    );
    vec![stream, strided, zipf, chase]
}

fn size_of(sets: &[Traces]) -> InputSize {
    let reqs = sets.iter().flatten().flatten();
    InputSize {
        requests: reqs.clone().count() as u64,
        writes: reqs.filter(|r| r.kind == AccessKind::Write).count() as u64,
    }
}

impl Prepared {
    /// Builds every input of `workload` from `seed`, recording a span
    /// around each layer call.
    #[must_use]
    pub fn build(workload: Workload, seed: u64, log: &mut SpanLog) -> (Prepared, InputSize) {
        match workload {
            Workload::SchedMix => {
                let mixes: Vec<Traces> = log.time("workloads.gen", || {
                    (0..SCHED_MIXES)
                        .map(|m| interference_mix(derive(seed, m)))
                        .collect()
                });
                let warm = log.time("memctrl.new", || {
                    MemoryController::new(DramConfig::ddr3_1600(), Box::new(FrFcfs::new()))
                        .expect("ddr3_1600 is a valid preset")
                });
                let size = size_of(&mixes);
                let warm = Mutex::new(warm);
                (Prepared::SchedMix { warm, mixes }, size)
            }
            Workload::FaultRw => {
                let config = DramConfig::ddr3_1600();
                let traces: Vec<Traces> = log.time("workloads.gen", || {
                    (0..FAULT_CAMPAIGNS)
                        .map(|c| fault_mix(&config, derive(seed, c)))
                        .collect()
                });
                let warm = log.time("memctrl.new", || {
                    MemoryController::new(config.clone(), Box::new(FrFcfs::new()))
                        .expect("ddr3_1600 is a valid preset")
                        .with_refresh_mode(RefreshMode::AllBank)
                });
                let pipelines = log.time("faults.plan", || {
                    (0..FAULT_CAMPAIGNS)
                        .map(|c| Mutex::new(fault_pipelines(&config, derive(seed ^ 0xfa17, c))))
                        .collect()
                });
                let size = size_of(&traces);
                let warm = Mutex::new(warm);
                (
                    Prepared::FaultRw {
                        warm,
                        traces,
                        pipelines,
                    },
                    size,
                )
            }
            Workload::NocMesh => {
                let mesh = log.time("noc.mesh", || {
                    MeshConfig::new(8, 8).expect("8x8 is a valid mesh")
                });
                let seeds = (0..NOC_SEEDS).map(|s| derive(seed, s)).collect();
                (Prepared::NocMesh { mesh, seeds }, InputSize::default())
            }
            Workload::LlcPrefetch => {
                let streams = log.time("workloads.gen", || llc_streams(seed));
                let requests = streams.iter().map(|s| s.len() as u64).sum();
                (
                    Prepared::LlcPrefetch { streams },
                    InputSize {
                        requests,
                        writes: 0,
                    },
                )
            }
        }
    }

    /// Jobs in one round.
    #[must_use]
    pub fn jobs(&self) -> usize {
        match self {
            Prepared::SchedMix { mixes, .. } => mixes.len() * (4 + SCHED_LABELS.len()),
            Prepared::FaultRw { traces, .. } => traces.len() * FAULT_LABELS.len(),
            Prepared::NocMesh { seeds, .. } => seeds.len() * NOC_KINDS.len() * NOC_RATES.len(),
            Prepared::LlcPrefetch { streams } => streams.len() * (PREFETCH_LABELS.len() + 1),
        }
    }

    /// Runs job `j` (`j < self.jobs()`), opening a span around each
    /// layer call.
    #[must_use]
    pub fn run_job(&self, j: usize, log: &mut SpanLog) -> Outcome {
        match self {
            Prepared::SchedMix { warm, mixes } => {
                let per_mix = 4 + SCHED_LABELS.len();
                let mix = &mixes[j / per_mix];
                let k = j % per_mix;
                if k < 4 {
                    let ctrl = log.time("memctrl.fork", || lock(warm).fork());
                    let solo = std::slice::from_ref(&mix[k]);
                    memctrl_job("solo", ctrl, solo, SCHED_WINDOW, false, log)
                } else {
                    let label = SCHED_LABELS[k - 4];
                    let ctrl = log.time("memctrl.fork", || {
                        lock(warm)
                            .fork()
                            .with_scheduler(scheduler(label, mix.len()))
                    });
                    memctrl_job(label, ctrl, mix, SCHED_WINDOW, false, log)
                }
            }
            Prepared::FaultRw {
                warm,
                traces,
                pipelines,
            } => {
                let c = j / FAULT_LABELS.len();
                let tier = j % FAULT_LABELS.len();
                let label = FAULT_LABELS[tier];
                let ctrl = log.time("memctrl.fork", || {
                    let ctrl = lock(warm).fork();
                    match tier {
                        0 => ctrl,
                        t => ctrl.with_reliability(lock(&pipelines[c])[t - 1].clone()),
                    }
                });
                memctrl_job(label, ctrl, &traces[c], FAULT_WINDOW, tier == 2, log)
            }
            Prepared::NocMesh { mesh, seeds } => {
                let per_seed = NOC_KINDS.len() * NOC_RATES.len();
                let seed = seeds[j / per_seed];
                let (kind, label) = NOC_KINDS[(j % per_seed) / NOC_RATES.len()];
                let (rate, cycles) = NOC_RATES[j % NOC_RATES.len()];
                let result = log.time("noc.simulate", || {
                    simulate(kind, *mesh, Traffic::UniformRandom, rate, cycles, seed)
                });
                match result {
                    Ok(r) => log.time("check", || noc_outcome(label, cycles, &r)),
                    Err(e) => Outcome::failed(label, format!("NocError: {e}")),
                }
            }
            Prepared::LlcPrefetch { streams } => {
                let lanes = PREFETCH_LABELS.len() + 1;
                let addrs = &streams[j / lanes];
                match j % lanes {
                    p if p < PREFETCH_LABELS.len() => prefetch_job(p, addrs, log),
                    _ => cache_job(addrs, log),
                }
            }
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().expect("no job panics while holding a set-up lock")
}

fn memctrl_job(
    label: &'static str,
    ctrl: MemoryController,
    traces: &[Vec<MemRequest>],
    window: usize,
    full_tier: bool,
    log: &mut SpanLog,
) -> Outcome {
    let result = log.time("memctrl.run", || {
        run_closed_loop_with(ctrl, traces, window, MAX_CYCLES)
    });
    match result {
        Ok(report) => log.time("check", || {
            memctrl_outcome(label, traces, &report, full_tier)
        }),
        Err(e) => Outcome::failed(label, format!("CtrlError: {e}")),
    }
}

fn memctrl_outcome(
    label: &'static str,
    traces: &[Vec<MemRequest>],
    r: &RunReport,
    full_tier: bool,
) -> Outcome {
    let mut error = None;
    for (t, (trace, th)) in traces.iter().zip(&r.threads).enumerate() {
        if th.completed != trace.len() as u64 {
            error = Some(format!(
                "thread {t}: {} enqueued, {} completed",
                trace.len(),
                th.completed
            ));
        }
    }
    if r.threads.len() != traces.len() {
        error = Some(format!(
            "{} threads reported for {}",
            r.threads.len(),
            traces.len()
        ));
    }
    let mut fp = Fingerprint::default();
    fp.str(&r.scheduler).u64(r.cycles);
    for th in &r.threads {
        fp.u64(th.completed).f64(th.avg_latency).u64(th.finish);
    }
    let s = &r.stats;
    fp.u64(s.completed)
        .u64(s.total_latency)
        .u64(s.refreshes_issued)
        .u64(s.refreshes_skipped)
        .u64(s.busy_cycles)
        .f64(r.row_hit_rate)
        .f64(r.charge_cache_hit_rate)
        .f64(r.dynamic_energy_pj)
        .f64(r.io_energy_pj);
    let completed = s.completed as f64;
    let mut counts = Counts::from([
        ("memctrl.requests", completed),
        ("memctrl.sim_cycles", r.cycles as f64),
        ("memctrl.busy_cycles", s.busy_cycles as f64),
        ("sim.events", r.engine.events_processed as f64),
        ("sim.cycles_skipped", r.engine.cycles_skipped as f64),
        ("dram.row_hits", r.row_hit_rate * completed),
        ("dram.refreshes", s.refreshes_issued as f64),
    ]);
    if let Some(rel) = &r.reliability {
        fp.str(&format!("{rel:?}"));
        let st = &rel.stats;
        counts.extend([
            ("rel.requests", completed),
            ("rel.reads_checked", st.reads_checked as f64),
            ("rel.faults_injected", rel.faults.injected() as f64),
            ("rel.corrected", st.corrected as f64),
            ("rel.retries", st.retries as f64),
            ("rel.retry_recovered", st.retry_recovered as f64),
            ("rel.remaps", st.remaps as f64),
            ("rel.miscorrections", st.miscorrections as f64),
        ]);
        if full_tier && st.miscorrections != 0 {
            error = Some(format!(
                "{} miscorrections under the full tier",
                st.miscorrections
            ));
        }
    }
    Outcome {
        label,
        ops: s.completed,
        sim_cycles: r.cycles,
        fingerprint: fp.0,
        counts,
        error,
    }
}

fn noc_outcome(label: &'static str, cycles: u64, r: &NocReport) -> Outcome {
    let error = if r.injected == 0 {
        Some("no packet injected".to_owned())
    } else if r.delivered > r.injected {
        Some(format!(
            "{} delivered > {} injected",
            r.delivered, r.injected
        ))
    } else {
        None
    };
    let mut fp = Fingerprint::default();
    fp.u64(r.delivered)
        .u64(r.injected)
        .f64(r.avg_latency)
        .u64(r.max_latency)
        .f64(r.avg_hops)
        .u64(r.deflections)
        .u64(r.peak_buffering as u64)
        .f64(r.throughput);
    Outcome {
        label,
        ops: r.delivered,
        sim_cycles: cycles,
        fingerprint: fp.0,
        counts: Counts::from([
            ("noc.sim_cycles", cycles as f64),
            ("noc.injected", r.injected as f64),
            ("noc.delivered", r.delivered as f64),
            ("noc.deflections", r.deflections as f64),
            ("noc.peak_buffering", r.peak_buffering as f64),
        ]),
        error,
    }
}

fn prefetch_job(p: usize, addrs: &[u64], log: &mut SpanLog) -> Outcome {
    let label = PREFETCH_LABELS[p];
    let mut h = log.time("prefetch.new", || {
        PrefetchHarness::new(LLC_BYTES, LLC_LINE, LLC_WAYS, prefetcher(p))
            .expect("64 KiB 8-way is a valid cache")
    });
    log.time("prefetch.demand", || {
        for &a in addrs {
            h.demand(a);
        }
    });
    log.time("check", || {
        let m = *h.metrics();
        let error = (m.useful + m.useless > m.issued).then(|| {
            format!(
                "{} useful + {} useless > {} issued",
                m.useful, m.useless, m.issued
            )
        });
        let mut fp = Fingerprint::default();
        fp.u64(m.demands)
            .u64(m.uncovered_misses)
            .u64(m.covered_misses)
            .u64(m.issued)
            .u64(m.useful)
            .u64(m.useless);
        Outcome {
            label,
            ops: m.demands,
            sim_cycles: 0,
            fingerprint: fp.0,
            counts: Counts::from([
                ("prefetch.demands", m.demands as f64),
                ("prefetch.issued", m.issued as f64),
                ("prefetch.useful", m.useful as f64),
                ("prefetch.useless", m.useless as f64),
                ("prefetch.covered", m.covered_misses as f64),
                ("prefetch.uncovered", m.uncovered_misses as f64),
            ]),
            error,
        }
    })
}

fn cache_job(addrs: &[u64], log: &mut SpanLog) -> Outcome {
    let mut cache = log.time("cache.new", || {
        Cache::new(LLC_BYTES, LLC_LINE, LLC_WAYS).expect("64 KiB 8-way is a valid cache")
    });
    log.time("cache.access", || {
        for &a in addrs {
            cache.access(a, CacheOp::Read);
        }
    });
    log.time("check", || {
        let s = *cache.stats();
        let error = (s.accesses() != addrs.len() as u64)
            .then(|| format!("{} accesses for {} addresses", s.accesses(), addrs.len()));
        let mut fp = Fingerprint::default();
        fp.u64(s.hits)
            .u64(s.misses)
            .u64(s.evictions)
            .u64(s.writebacks);
        Outcome {
            label: "cache",
            ops: s.accesses(),
            sim_cycles: 0,
            fingerprint: fp.0,
            counts: Counts::from([
                ("cache.accesses", s.accesses() as f64),
                ("cache.hits", s.hits as f64),
            ]),
            error,
        }
    })
}
