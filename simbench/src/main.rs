//! `simbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Prints human-readable lines, then one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}` holding
//! the end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 if any job failed, 2 on a usage error.

use std::fmt::Write as _;
use std::process::ExitCode;

use simbench::metrics::{self, Metrics};
use simbench::{default_workers, run, Config, Workload, DEFAULT_SEED};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: simbench --workload <sched_mix|fault_rw|noc_mesh|llc_prefetch> \
         [--seed <n>] [--seconds <s>] [--trace <0|1>]"
    );
    ExitCode::from(2)
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::SchedMix,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        workers: default_workers(),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds >= 0.0 && cfg.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut out = format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {{"#
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            r#"{sep}"{name}": {{"value": {value}, "unit": "{unit}"}}"#
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(msg) => return usage(&msg),
    };
    if let Err(e) = simbench::check_globals() {
        eprintln!("error: {e}");
        return ExitCode::from(1);
    }
    let report = run(cfg);
    let e2e = metrics::end_to_end(&report);
    let failed = report.failures.len() as u64;
    let name = cfg.workload.name();

    println!(
        "simbench {name} seed={} workers={} rounds={} jobs/round={}",
        cfg.seed,
        cfg.workers,
        report.rounds.len(),
        report.reference.jobs.len()
    );
    match report.pinned {
        Some(p) if p == report.fingerprint => {
            println!(
                "fingerprint {:#018x} (matches the pinned value)",
                report.fingerprint
            );
        }
        Some(p) => println!(
            "fingerprint {:#018x} (pinned {p:#018x}: MISMATCH)",
            report.fingerprint
        ),
        None => println!(
            "fingerprint {:#018x} (no pinned value for this seed)",
            report.fingerprint
        ),
    }
    for f in report.failures.iter().take(20) {
        println!("FAILED {f}");
    }
    println!("sim_ops_per_s {} 1/s", e2e.sim_ops_per_s);
    if cfg.workload.clocked() {
        println!("sim_cycles_per_s {} 1/s", e2e.sim_cycles_per_s);
    } else {
        println!("sim_cycles_per_s n/a (no simulated clock on {name})");
    }
    println!("job_ms_p50 {} ms", e2e.job_ms_p50);
    println!(
        "job_ms_tail {} ms (p{} of {} timed jobs)",
        e2e.job_ms_tail, e2e.tail_pct, e2e.timed_jobs
    );
    println!(
        "setup_s {} s (median of {})",
        e2e.setup_s,
        report.setup_s.len()
    );
    println!("peak_rss_mb {} MB", e2e.peak_rss_mb);
    println!(
        "failed_frac {} ({failed} of {} jobs)",
        failed as f64 / report.attempted as f64,
        report.attempted
    );

    let mut correct = failed == 0;
    let metrics = if cfg.trace {
        let partition = metrics::spans_partition(&report);
        correct &= partition;
        println!(
            "span partition check: {}",
            if partition { "pass" } else { "FAIL" }
        );
        println!(
            "tracing overhead: {:.4} of untraced sim_ops_per_s",
            metrics::tracing_overhead(&report)
        );
        let self_ns = metrics::self_ns_by_name(&report);
        let total: u64 = self_ns.values().sum();
        for (span, ns) in &self_ns {
            println!(
                "self time {span:<16} {:>7.3}%",
                100.0 * *ns as f64 / total.max(1) as f64
            );
        }
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("spans-{name}-seed{}.jsonl", cfg.seed));
        match simbench::spans::write_jsonl(&path, &metrics::all_spans(&report)) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
        }
        metrics::per_layer(&report)
    } else {
        Metrics::from([
            ("sim_ops_per_s".to_owned(), (e2e.sim_ops_per_s, "1/s")),
            ("job_ms_p50".to_owned(), (e2e.job_ms_p50, "ms")),
            ("job_ms_tail".to_owned(), (e2e.job_ms_tail, "ms")),
            ("setup_s".to_owned(), (e2e.setup_s, "s")),
            ("peak_rss_mb".to_owned(), (e2e.peak_rss_mb, "MB")),
        ])
    };
    println!("{}", json_line(correct, report.attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
