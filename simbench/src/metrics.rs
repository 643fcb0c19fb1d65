//! Turns a [`Report`] into the named metrics the benchmark prints.

use std::collections::BTreeMap;

use crate::spans::{self, Span};
use crate::stats::{median, tail};
use crate::{JobRecord, Report, Round};

/// A metric value with its unit.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// End-to-end figures of a run, from its untraced timed rounds.
#[derive(Debug, Clone, PartialEq)]
pub struct EndToEnd {
    /// Simulated operations per host second over the timed rounds.
    pub sim_ops_per_s: f64,
    /// Simulated cycles per host second over the timed rounds.
    pub sim_cycles_per_s: f64,
    /// Median host ms per job.
    pub job_ms_p50: f64,
    /// Host ms per job at [`EndToEnd::tail_pct`].
    pub job_ms_tail: f64,
    /// Highest percentile with at least ten jobs beyond it.
    pub tail_pct: f64,
    /// Jobs the percentiles are taken over.
    pub timed_jobs: usize,
    /// Median host seconds of one set-up.
    pub setup_s: f64,
    /// Peak resident memory of the process, MB.
    pub peak_rss_mb: f64,
}

/// Simulated units per host second over `rounds`: the whole timed phase
/// rather than a median of rounds, so host-speed swings that last several
/// rounds average out instead of deciding the result.
fn per_s<'a>(rounds: impl Iterator<Item = &'a Round>, units: impl Fn(&Round) -> u64) -> f64 {
    let (n, ns) = rounds.fold((0u64, 0u64), |(n, ns), r| (n + units(r), ns + r.wall_ns));
    ratio(n as f64, ns as f64 * 1e-9)
}

fn untraced(report: &Report) -> impl Iterator<Item = &Round> {
    report.rounds.iter().filter(|r| !r.traced)
}

fn traced(report: &Report) -> impl Iterator<Item = &Round> {
    report.rounds.iter().filter(|r| r.traced)
}

/// Peak resident set (`VmHWM`) of this process in MB, if readable.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// End-to-end figures of `report`.
#[must_use]
pub fn end_to_end(report: &Report) -> EndToEnd {
    let job_ms: Vec<f64> = untraced(report)
        .flat_map(|r| &r.jobs)
        .map(|j| j.host_ns as f64 * 1e-6)
        .collect();
    let (tail_pct, job_ms_tail) = tail(&job_ms);
    EndToEnd {
        sim_ops_per_s: per_s(untraced(report), Round::ops),
        sim_cycles_per_s: per_s(untraced(report), Round::sim_cycles),
        job_ms_p50: median(&job_ms),
        job_ms_tail,
        tail_pct,
        timed_jobs: job_ms.len(),
        setup_s: median(&report.setup_s),
        peak_rss_mb: peak_rss_mb().unwrap_or(0.0),
    }
}

/// Sum of counter `key` over the reference round's jobs labelled by `keep`.
fn count(report: &Report, key: &str, keep: impl Fn(&str) -> bool) -> f64 {
    report
        .reference
        .jobs
        .iter()
        .filter(|j| keep(j.outcome.label))
        .filter_map(|j| j.outcome.counts.get(key))
        .fold(0.0, |a, b| a + b)
}

fn all(_: &str) -> bool {
    true
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

fn traced_jobs(report: &Report) -> impl Iterator<Item = &JobRecord> {
    traced(report).flat_map(|r| &r.jobs)
}

/// Host ns spent in spans named `name` of traced jobs labelled by `keep`.
fn span_ns(report: &Report, name: &str, keep: impl Fn(&str) -> bool) -> f64 {
    traced_jobs(report)
        .filter(|j| keep(j.outcome.label))
        .flat_map(|j| &j.spans)
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64)
        .sum()
}

fn traced_rounds(report: &Report) -> f64 {
    traced(report).count() as f64
}

/// Host ns per simulated unit: time in span `name` over the jobs labelled
/// by `keep`, divided by their per-round counter `key`.
fn ns_per(report: &Report, name: &str, key: &str, keep: impl Fn(&str) -> bool + Copy) -> f64 {
    let per_round = count(report, key, keep) * traced_rounds(report);
    ratio(span_ns(report, name, keep), per_round)
}

/// Whether every traced job's spans partition its root span.
#[must_use]
pub fn spans_partition(report: &Report) -> bool {
    traced_jobs(report).all(|j| spans::partitions(&j.spans))
}

/// Self time per span name over every traced job, ns.
#[must_use]
pub fn self_ns_by_name(report: &Report) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for j in traced_jobs(report) {
        for (s, t) in j.spans.iter().zip(spans::self_times(&j.spans)) {
            *out.entry(s.name).or_insert(0) += t;
        }
    }
    out
}

/// Every span of the run: set-up first, then jobs in round order.
#[must_use]
pub fn all_spans(report: &Report) -> Vec<Span> {
    let mut out = report.setup_spans.clone();
    out.extend(traced_jobs(report).flat_map(|j| j.spans.iter().copied()));
    out
}

/// Fraction of untraced throughput lost in traced rounds.
#[must_use]
pub fn tracing_overhead(report: &Report) -> f64 {
    1.0 - ratio(
        per_s(traced(report), Round::ops),
        per_s(untraced(report), Round::ops),
    )
}

const SCHEDULERS: [&str; 7] = ["fcfs", "fr_fcfs", "par_bs", "atlas", "tcm", "bliss", "rl"];
const PREFETCHERS: [&str; 5] = ["next_line", "stride", "ghb", "feedback", "perceptron"];

/// Per-layer metrics of `report`. Counters are simulated and come from
/// the reference round (one round's worth); times come from the spans of
/// traced rounds. A layer the workload does not reach reads 0.
#[must_use]
pub fn per_layer(report: &Report) -> Metrics {
    let mut m = Metrics::new();
    let mut put = |k: &str, v: f64, unit: &'static str| {
        m.insert(k.to_owned(), (v, unit));
    };

    // ia-workloads: generation in the last set-up.
    let gen_ns: u64 = report
        .setup_spans
        .iter()
        .filter(|s| s.name == "workloads.gen")
        .map(Span::dur_ns)
        .sum();
    put("workloads.gen_ms", gen_ns as f64 * 1e-6, "ms");
    put("workloads.requests", report.input.requests as f64, "count");
    put(
        "workloads.write_frac",
        ratio(report.input.writes as f64, report.input.requests as f64),
        "frac",
    );

    // ia-memctrl closed loop.
    let reqs = count(report, "memctrl.requests", all);
    let cycles = count(report, "memctrl.sim_cycles", all);
    put(
        "memctrl.ns_per_req",
        ns_per(report, "memctrl.run", "memctrl.requests", all),
        "ns",
    );
    put("memctrl.requests", reqs, "count");
    put("memctrl.sim_cycles", cycles, "count");
    put(
        "memctrl.bus_util",
        ratio(count(report, "memctrl.busy_cycles", all), cycles),
        "frac",
    );
    for s in SCHEDULERS {
        put(
            &format!("memctrl.sched.{s}.ns_per_req"),
            ns_per(report, "memctrl.run", "memctrl.requests", |l| l == s),
            "ns",
        );
    }

    // ia-sim engine, as driven by the closed loop.
    let events = count(report, "sim.events", all);
    let skipped = count(report, "sim.cycles_skipped", all);
    put("sim.events", events, "count");
    put("sim.cycles_skipped", skipped, "count");
    put("sim.skip_ratio", ratio(skipped, cycles), "frac");
    put(
        "sim.ns_per_event",
        ns_per(report, "memctrl.run", "sim.events", all),
        "ns",
    );

    // ia-dram.
    put(
        "dram.row_hit_rate",
        ratio(count(report, "dram.row_hits", all), reqs),
        "frac",
    );
    put(
        "dram.refreshes",
        count(report, "dram.refreshes", all),
        "count",
    );

    // Reliability pipeline: the pipeline jobs against the control jobs.
    for key in [
        "reads_checked",
        "faults_injected",
        "corrected",
        "retries",
        "remaps",
        "miscorrections",
    ] {
        put(
            &format!("rel.{key}"),
            count(report, &format!("rel.{key}"), all),
            "count",
        );
    }
    put(
        "rel.retry_recovered_frac",
        ratio(
            count(report, "rel.retry_recovered", all),
            count(report, "rel.retries", all),
        ),
        "frac",
    );
    let piped = |l: &str| l == "ecc_only" || l == "full";
    let rel_ns = if count(report, "rel.requests", all) == 0.0 {
        0.0
    } else {
        ns_per(report, "memctrl.run", "memctrl.requests", piped)
            - ns_per(report, "memctrl.run", "memctrl.requests", |l| {
                l == "control"
            })
    };
    put("rel.ns_per_req", rel_ns, "ns");

    // ia-noc.
    for kind in ["buffered", "bufferless"] {
        put(
            &format!("noc.{kind}.ns_per_cycle"),
            ns_per(report, "noc.simulate", "noc.sim_cycles", |l| l == kind),
            "ns",
        );
    }
    let delivered = count(report, "noc.delivered", all);
    put("noc.injected", count(report, "noc.injected", all), "count");
    put("noc.delivered", delivered, "count");
    put(
        "noc.deflections_per_pkt",
        ratio(count(report, "noc.deflections", all), delivered),
        "count",
    );
    let peak = report
        .reference
        .jobs
        .iter()
        .filter_map(|j| j.outcome.counts.get("noc.peak_buffering"))
        .fold(0.0, |a: f64, &b| a.max(b));
    put("noc.peak_buffering", peak, "count");

    // ia-cache and ia-prefetch.
    put(
        "cache.ns_per_access",
        ns_per(report, "cache.access", "cache.accesses", all),
        "ns",
    );
    put(
        "cache.hit_rate",
        ratio(
            count(report, "cache.hits", all),
            count(report, "cache.accesses", all),
        ),
        "frac",
    );
    for p in PREFETCHERS {
        put(
            &format!("prefetch.{p}.ns_per_demand"),
            ns_per(report, "prefetch.demand", "prefetch.demands", |l| l == p),
            "ns",
        );
    }
    let useful = count(report, "prefetch.useful", all);
    let covered = count(report, "prefetch.covered", all);
    put(
        "prefetch.accuracy",
        ratio(useful, useful + count(report, "prefetch.useless", all)),
        "frac",
    );
    put(
        "prefetch.coverage",
        ratio(covered, covered + count(report, "prefetch.uncovered", all)),
        "frac",
    );

    // ia-par, per traced round.
    let workers = report.config.workers.max(1) as f64;
    let busy: Vec<f64> = traced(report)
        .map(|r| {
            let busy: u64 = r.jobs.iter().map(|j| j.host_ns).sum();
            ratio(busy as f64, workers * r.wall_ns as f64)
        })
        .collect();
    let imbalance: Vec<f64> = traced(report)
        .map(|r| {
            let ns: Vec<f64> = r.jobs.iter().map(|j| j.host_ns as f64).collect();
            let mean = ns.iter().sum::<f64>() / ns.len().max(1) as f64;
            ratio(ns.iter().copied().fold(0.0, f64::max), mean)
        })
        .collect();
    put("par.tasks", report.reference.jobs.len() as f64, "count");
    put("par.busy_frac", median(&busy), "frac");
    put("par.imbalance", median(&imbalance), "ratio");

    // The tracing itself.
    put("trace.overhead_frac", tracing_overhead(report), "frac");
    put(
        "trace.spans_partition",
        if spans_partition(report) { 1.0 } else { 0.0 },
        "bool",
    );
    put("trace.spans", all_spans(report).len() as f64, "count");
    m
}
