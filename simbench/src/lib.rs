//! # simbench — the repository benchmark
//!
//! Drives the simulator from outside, through the public entry point of
//! each layer, on four seeded workloads (see `README.md`). A run builds
//! its inputs from the seed (set-up, timed several times), runs one
//! reference round of jobs whose simulated results are fingerprinted, and
//! then repeats the same round for the requested host time. Jobs fan out
//! through `ia_par::par_map` with an explicit worker count.
//!
//! Untraced rounds give the end-to-end metrics. With tracing on, rounds
//! alternate traced and untraced: traced rounds record outside-in spans
//! that give the per-layer metrics, and the two kinds of round together
//! give the tracing overhead.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod spans;
pub mod stats;
pub mod workload;

use std::time::Instant;

use spans::{Span, SpanLog, SETUP_JOB};
use stats::Fingerprint;
pub use workload::{InputSize, Outcome, Prepared, Workload};

/// Seed used when `--seed` is not given; its fingerprints are pinned.
pub const DEFAULT_SEED: u64 = 1;

/// A seed no workload was tuned on, for exact parent-vs-change checks.
pub const HELD_OUT_SEED: u64 = 9_001;

/// Fingerprint of the reference round of each workload at
/// [`DEFAULT_SEED`]. A change that only makes the simulator faster must
/// leave these unchanged.
pub const PINNED: [(Workload, u64); 4] = [
    (Workload::SchedMix, 0x6201_674d_19d5_66a9),
    (Workload::FaultRw, 0xdda6_0ae4_00d7_a167),
    (Workload::NocMesh, 0xcc04_1e70_2a4f_706d),
    (Workload::LlcPrefetch, 0xe237_d18b_048b_da59),
];

/// Set-ups timed before the first round. One more is timed after every
/// timed round, so the set-up samples span the run as the rounds do;
/// `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// One benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Which inputs to run.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Host seconds of timed rounds (at least one round runs).
    pub seconds: f64,
    /// Record spans in alternate rounds.
    pub trace: bool,
    /// Worker threads handed to `par_map`.
    pub workers: usize,
}

/// One job of one round, as the runner saw it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Index within the round.
    pub index: usize,
    /// Simulated result.
    pub outcome: Outcome,
    /// Host ns from the job's start to its end.
    pub host_ns: u64,
    /// Spans of this job (empty in untraced rounds).
    pub spans: Vec<Span>,
}

/// One round of every job.
#[derive(Debug, Clone)]
pub struct Round {
    /// Whether spans were recorded.
    pub traced: bool,
    /// Host ns from fan-out to join.
    pub wall_ns: u64,
    /// Jobs in input order.
    pub jobs: Vec<JobRecord>,
}

impl Round {
    /// Simulated operations completed in the round.
    #[must_use]
    pub fn ops(&self) -> u64 {
        self.jobs.iter().map(|j| j.outcome.ops).sum()
    }

    /// Simulated cycles in the round.
    #[must_use]
    pub fn sim_cycles(&self) -> u64 {
        self.jobs.iter().map(|j| j.outcome.sim_cycles).sum()
    }
}

/// Everything a run measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The run's configuration.
    pub config: Config,
    /// Host seconds of each set-up. Only the first set-up's inputs are
    /// run; the others are built and dropped.
    pub setup_s: Vec<f64>,
    /// Spans of the first set-up (empty unless tracing).
    pub setup_spans: Vec<Span>,
    /// Size of the generated inputs.
    pub input: InputSize,
    /// The untimed reference round; later rounds must reproduce it.
    pub reference: Round,
    /// Timed rounds.
    pub rounds: Vec<Round>,
    /// Fold of the reference round's job fingerprints.
    pub fingerprint: u64,
    /// Pinned fingerprint this run must match, if its seed has one.
    pub pinned: Option<u64>,
    /// Jobs run, reference round included.
    pub attempted: u64,
    /// One line per failed job.
    pub failures: Vec<String>,
}

/// Refuses to time anything while a process-global session that changes
/// what the simulator does is active.
///
/// # Errors
///
/// Names the active session.
pub fn check_globals() -> Result<(), String> {
    if ia_trace::capture_enabled() {
        return Err("ia-trace session capture is on".to_owned());
    }
    if ia_memctrl::replay_context().is_some() {
        return Err("a record/replay session is active".to_owned());
    }
    Ok(())
}

fn run_round(
    prepared: &Prepared,
    cfg: &Config,
    traced: bool,
    origin: Instant,
    round: usize,
) -> Round {
    let n = prepared.jobs();
    let start = Instant::now();
    let jobs = ia_par::par_map(cfg.workers, (0..n).collect(), |index| {
        let id = u32::try_from(round * n + index).expect("fewer than 2^32 jobs per run");
        let mut log = SpanLog::new(origin, traced, id);
        let t0 = Instant::now();
        log.open("job");
        let outcome = match check_globals() {
            Ok(()) => prepared.run_job(index, &mut log),
            Err(e) => Outcome::failed("refused", e),
        };
        log.close();
        let host_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        JobRecord {
            index,
            outcome,
            host_ns,
            spans: log.finish(),
        }
    });
    let wall_ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Round {
        traced,
        wall_ns,
        jobs,
    }
}

/// Runs the benchmark described by `cfg`.
#[must_use]
pub fn run(cfg: Config) -> Report {
    let origin = Instant::now();
    let setup = |trace: bool| {
        let mut log = SpanLog::new(origin, trace, SETUP_JOB);
        let t0 = Instant::now();
        let (prepared, input) = Prepared::build(cfg.workload, cfg.seed, &mut log);
        (t0.elapsed().as_secs_f64(), prepared, input, log.finish())
    };
    let (t, prepared, input, setup_spans) = setup(cfg.trace);
    let mut setup_s = vec![t];
    while setup_s.len() < SETUP_REPS {
        setup_s.push(setup(false).0);
    }

    let reference = run_round(&prepared, &cfg, false, origin, 0);
    let mut fp = Fingerprint::default();
    for j in &reference.jobs {
        fp.u64(j.outcome.fingerprint);
    }
    let fingerprint = fp.0;
    let pinned = (cfg.seed == DEFAULT_SEED).then(|| {
        PINNED
            .iter()
            .find(|(w, _)| *w == cfg.workload)
            .map_or(0, |&(_, f)| f)
    });
    // A pinned mismatch cannot be traced to one job, so it fails them all.
    let mismatch = pinned
        .filter(|&p| p != fingerprint)
        .map(|p| format!("reference fingerprint {fingerprint:#018x} is not the pinned {p:#018x}"));
    let mut failures = Vec::new();
    for j in &reference.jobs {
        if let Some(e) = j.outcome.error.as_ref().or(mismatch.as_ref()) {
            failures.push(format!(
                "round 0 job {} ({}): {e}",
                j.index, j.outcome.label
            ));
        }
    }

    let mut rounds = Vec::new();
    let start = Instant::now();
    while rounds.is_empty()
        || start.elapsed().as_secs_f64() < cfg.seconds
        || (cfg.trace && rounds.len() < 2)
    {
        let traced = cfg.trace && rounds.len() % 2 == 0;
        let mut round = run_round(&prepared, &cfg, traced, origin, rounds.len() + 1);
        for (j, r) in round.jobs.iter_mut().zip(&reference.jobs) {
            // Counters are read from the reference round only; dropping
            // them here keeps memory flat however many rounds run.
            j.outcome.counts.clear();
            let o = &j.outcome;
            if let Some(e) = &o.error {
                failures.push(format!(
                    "round {} job {} ({}): {e}",
                    rounds.len() + 1,
                    j.index,
                    o.label
                ));
            } else if (o.fingerprint, o.ops, o.sim_cycles)
                != (r.outcome.fingerprint, r.outcome.ops, r.outcome.sim_cycles)
            {
                failures.push(format!(
                    "round {} job {} ({}): fingerprint {:#018x} differs from round 0's {:#018x}",
                    rounds.len() + 1,
                    j.index,
                    o.label,
                    o.fingerprint,
                    r.outcome.fingerprint
                ));
            }
        }
        rounds.push(round);
        setup_s.push(setup(false).0);
    }
    let attempted =
        (reference.jobs.len() + rounds.iter().map(|r| r.jobs.len()).sum::<usize>()) as u64;
    Report {
        config: cfg,
        setup_s,
        setup_spans,
        input,
        reference,
        rounds,
        fingerprint,
        pinned,
        attempted,
        failures,
    }
}

/// Worker count: the host's parallelism, at most two.
#[must_use]
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}
