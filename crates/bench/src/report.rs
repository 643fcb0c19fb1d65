//! Machine-readable experiment reports and the shared CLI runner.
//!
//! Every experiment module exposes one entry point,
//! `report(&RunContext) -> ExperimentReport`, registered in
//! [`crate::EXPERIMENTS`] under its binary name. Each `expNN_*` binary
//! is one `[[bin]]` name for `src/bin/experiment.rs`, which hands its
//! own name to [`cli`]; `cli` looks the experiment up, builds the report
//! once, prints it as text ([`ExperimentReport::to_text`]) and writes the
//! requested machine-readable views of the same report. It understands:
//!
//! * `--quick` — run the reduced-size configuration;
//! * `--threads <n>` — worker count for parallel sweeps (`ia-par`);
//!   `1` is the exact serial path, the default is the host's available
//!   parallelism;
//! * `--json <path>` — write the report as JSON;
//! * `--csv <path>` — write the report's table (or metrics) as CSV;
//! * `--trace <path>` — write an `ia-trace` Chrome trace-event JSON
//!   file of the run (cycle-exact, byte-identical across `--threads`);
//! * `--record-trace <path>` — record the run's generated workloads as
//!   an `ia-tracefmt` artifact (see `crates/tracefmt/FORMAT.md`);
//! * `--replay-trace <path>` — drive the run from a recorded artifact
//!   instead of generating workloads (mutually exclusive with
//!   `--record-trace`);
//! * `--profile` — print the cycle-attribution profile to stderr.
//!
//! Unknown flags and flags missing their value are rejected with exit
//! status `2`, so sweep scripts fail loudly instead of silently running
//! a default configuration.
//!
//! Reports round-trip through `ia-telemetry`'s own JSON parser — see
//! [`ExperimentReport::from_json`] — so downstream tooling can consume
//! `BENCH_PR.json` without serde (the build is offline by design).
//!
//! ## Determinism vs. observability
//!
//! Everything in the canonical report (params, metrics, table) must be
//! byte-identical across `--threads` settings. Wall-clock-derived
//! numbers — `par_threads`, `par_tasks`, `par_imbalance` — therefore
//! live in a separate [`runtime`](ExperimentReport::runtime) section
//! that is *excluded* from the text/JSON/CSV views and printed to stderr
//! instead.

use ia_core::Table;
use ia_telemetry::{csv, JsonValue};

/// The explicit inputs of one experiment run. Everything an experiment
/// may vary on arrives here; nothing is read from process-wide settings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunContext {
    /// Run the reduced-size configuration.
    pub quick: bool,
    /// `ia-par` worker count for the run's parallel sweeps (`1` = the
    /// exact serial path). Reports are byte-identical at every value.
    pub threads: usize,
}

/// The context the experiment modules' unit tests run under: quick, on
/// a two-worker pool so the parallel path is exercised.
#[cfg(test)]
pub(crate) const QUICK: RunContext = RunContext {
    quick: true,
    threads: 2,
};

/// A structured record of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentReport {
    /// Experiment name (the module name, e.g. `exp02_rowclone`).
    pub name: String,
    /// Run parameters as key/value strings (`quick`, sizes, seeds…).
    pub params: Vec<(String, String)>,
    /// Headline scalar metrics (speedups, rates, energies).
    pub metrics: Vec<(String, f64)>,
    /// Column headers of the result table (may be empty).
    pub headers: Vec<String>,
    /// Result-table rows, one `Vec` of cells per row.
    pub rows: Vec<Vec<String>>,
    /// Runtime-only diagnostics (`par_threads`, `par_imbalance`, …):
    /// wall-clock derived and nondeterministic, so excluded from
    /// [`to_text`](ExperimentReport::to_text) /
    /// [`to_json`](ExperimentReport::to_json) /
    /// [`to_csv`](ExperimentReport::to_csv) and reported on stderr.
    pub runtime: Vec<(String, f64)>,
}

impl ExperimentReport {
    /// Starts a report for `name`; records `quick` as the first param.
    #[must_use]
    pub fn new(name: &str, quick: bool) -> Self {
        ExperimentReport {
            name: name.to_owned(),
            params: vec![("quick".to_owned(), quick.to_string())],
            metrics: Vec::new(),
            headers: Vec::new(),
            rows: Vec::new(),
            runtime: Vec::new(),
        }
    }

    /// Adds a run parameter (chainable).
    #[must_use]
    pub fn param(mut self, key: &str, value: impl std::fmt::Display) -> Self {
        self.params.push((key.to_owned(), value.to_string()));
        self
    }

    /// Adds a headline metric (chainable).
    #[must_use]
    pub fn metric(mut self, key: &str, value: f64) -> Self {
        self.metrics.push((key.to_owned(), value));
        self
    }

    /// Adds a runtime-only diagnostic (chainable). Unlike
    /// [`metric`](ExperimentReport::metric), the value never enters the
    /// JSON/CSV output: it is timing-derived and would break the
    /// byte-identity of reports across `--threads` settings.
    #[must_use]
    pub fn runtime_metric(mut self, key: &str, value: f64) -> Self {
        self.runtime.push((key.to_owned(), value));
        self
    }

    /// Sets the result-table headers (chainable).
    #[must_use]
    pub fn columns(mut self, headers: &[&str]) -> Self {
        self.headers = headers.iter().map(|h| (*h).to_owned()).collect();
        self
    }

    /// Appends a result-table row (chainable).
    #[must_use]
    pub fn row(mut self, cells: &[String]) -> Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Looks up a headline metric by name.
    #[must_use]
    pub fn metric_value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Renders the report as a JSON value.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let params = self
            .params
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Str(v.clone())))
            .collect();
        let metrics = self
            .metrics
            .iter()
            .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
            .collect();
        let headers = self
            .headers
            .iter()
            .map(|h| JsonValue::Str(h.clone()))
            .collect();
        let rows = self
            .rows
            .iter()
            .map(|r| JsonValue::Arr(r.iter().map(|c| JsonValue::Str(c.clone())).collect()))
            .collect();
        JsonValue::obj(vec![
            ("name", JsonValue::Str(self.name.clone())),
            ("params", JsonValue::Obj(params)),
            ("metrics", JsonValue::Obj(metrics)),
            ("headers", JsonValue::Arr(headers)),
            ("rows", JsonValue::Arr(rows)),
        ])
    }

    /// Reconstructs a report from the JSON emitted by
    /// [`to_json`](ExperimentReport::to_json).
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<Self, String> {
        let name = match v.get("name") {
            Some(JsonValue::Str(s)) => s.clone(),
            _ => return Err("missing string field `name`".to_owned()),
        };
        let params = match v.get("params") {
            Some(JsonValue::Obj(entries)) => entries
                .iter()
                .map(|(k, v)| match v {
                    JsonValue::Str(s) => Ok((k.clone(), s.clone())),
                    _ => Err(format!("param `{k}` is not a string")),
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("missing object field `params`".to_owned()),
        };
        let metrics = match v.get("metrics") {
            Some(JsonValue::Obj(entries)) => entries
                .iter()
                .map(|(k, v)| {
                    v.as_f64()
                        .map(|n| (k.clone(), n))
                        .ok_or_else(|| format!("metric `{k}` is not a number"))
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("missing object field `metrics`".to_owned()),
        };
        let headers = match v.get("headers") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|h| match h {
                    JsonValue::Str(s) => Ok(s.clone()),
                    _ => Err("non-string header".to_owned()),
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("missing array field `headers`".to_owned()),
        };
        let rows = match v.get("rows") {
            Some(JsonValue::Arr(items)) => items
                .iter()
                .map(|r| match r {
                    JsonValue::Arr(cells) => cells
                        .iter()
                        .map(|c| match c {
                            JsonValue::Str(s) => Ok(s.clone()),
                            _ => Err("non-string cell".to_owned()),
                        })
                        .collect::<Result<Vec<_>, _>>(),
                    _ => Err("non-array row".to_owned()),
                })
                .collect::<Result<_, _>>()?,
            _ => return Err("missing array field `rows`".to_owned()),
        };
        Ok(ExperimentReport {
            name,
            params,
            metrics,
            headers,
            rows,
            // Runtime diagnostics are never serialized, so a parsed
            // report always comes back without them.
            runtime: Vec::new(),
        })
    }

    /// Renders the report as CSV: the result table when one is present,
    /// otherwise the metrics as `metric,value` lines.
    #[must_use]
    pub fn to_csv(&self) -> String {
        if self.headers.is_empty() {
            let headers = ["metric".to_owned(), "value".to_owned()];
            let rows: Vec<Vec<String>> = self
                .metrics
                .iter()
                .map(|(k, v)| vec![k.clone(), format!("{v}")])
                .collect();
            csv::render(&headers, &rows)
        } else {
            csv::render(&self.headers, &self.rows)
        }
    }

    /// Renders the report as the text an experiment binary prints:
    /// `title`, the params, the result table (when one is present) and
    /// the headline metrics. Like the JSON, it carries no runtime
    /// diagnostics, so it is byte-identical across `--threads`.
    #[must_use]
    pub fn to_text(&self, title: &str) -> String {
        let params: Vec<String> = self
            .params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        let mut out = format!("{title}\nparams: {}\n", params.join(", "));
        if !self.headers.is_empty() {
            let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
            let mut table = Table::new(&headers);
            for row in &self.rows {
                table.row(row);
            }
            out.push_str(&format!("{table}\n"));
        }
        if !self.metrics.is_empty() {
            let mut table = Table::new(&["metric", "value"]);
            for (k, v) in &self.metrics {
                table.row(&[k.clone(), format!("{v}")]);
            }
            out.push_str(&format!("{table}\n"));
        }
        out
    }
}

/// Parsed command-line options shared by every experiment binary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct CliOptions {
    quick: bool,
    threads: Option<String>,
    json: Option<String>,
    csv: Option<String>,
    trace: Option<String>,
    record_trace: Option<String>,
    replay_trace: Option<String>,
    profile: bool,
}

/// Strictly parses `args` (`args[0]` is the binary name). Every flag
/// must be recognized and every value-taking flag must have a value —
/// anything else is an error, so a typo can't silently run a default
/// configuration.
fn parse_cli(args: &[String]) -> Result<CliOptions, String> {
    let mut opts = CliOptions::default();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => opts.quick = true,
            "--profile" => opts.profile = true,
            flag @ ("--threads" | "--json" | "--csv" | "--trace" | "--record-trace"
            | "--replay-trace") => {
                i += 1;
                let Some(value) = args.get(i) else {
                    return Err(format!("{flag} expects a value"));
                };
                let slot = match flag {
                    "--threads" => &mut opts.threads,
                    "--json" => &mut opts.json,
                    "--csv" => &mut opts.csv,
                    "--record-trace" => &mut opts.record_trace,
                    "--replay-trace" => &mut opts.replay_trace,
                    _ => &mut opts.trace,
                };
                *slot = Some(value.clone());
            }
            other => {
                return Err(format!(
                    "unknown flag `{other}` (expected --quick, --threads <n>, \
                     --json <path>, --csv <path>, --trace <path>, \
                     --record-trace <path>, --replay-trace <path>, --profile)"
                ))
            }
        }
        i += 1;
    }
    if opts.record_trace.is_some() && opts.replay_trace.is_some() {
        return Err(
            "--record-trace and --replay-trace are mutually exclusive (a run either \
             produces the artifact or consumes it)"
                .to_owned(),
        );
    }
    Ok(opts)
}

/// Resolves a `--threads` value: a positive integer, or the host's
/// available parallelism when the flag is absent. Shared by every
/// binary that takes the flag.
///
/// # Errors
///
/// A message for stderr when `value` is not a positive integer.
pub fn resolve_threads(value: Option<&str>) -> Result<usize, String> {
    match value {
        Some(t) => t
            .parse::<usize>()
            .ok()
            .filter(|&n| n > 0)
            .ok_or_else(|| format!("--threads expects a positive integer, got `{t}`")),
        None => Ok(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)),
    }
}

/// Shared experiment-binary entry point: looks `bin` up in
/// [`crate::EXPERIMENTS`], builds its report once, prints the report as
/// text and, when `--json <path>` / `--csv <path>` are given, writes the
/// machine-readable views of the same report. `--quick` and
/// `--threads <n>` form the [`RunContext`] (`1` = the exact serial
/// path, default = available parallelism). `--trace <path>` records an
/// `ia-trace` session during the run and writes it as Chrome
/// trace-event JSON; `--profile` additionally prints the
/// cycle-attribution profile to stderr. `--record-trace <path>`
/// captures the run's workloads as an `ia-tracefmt` artifact and
/// `--replay-trace <path>` drives the run from one (mutually exclusive
/// — rejected with exit status `2`). Parallel-execution diagnostics for
/// the invocation are printed to stderr.
///
/// # Exits
///
/// Exits with status `2` (after a message on stderr, no backtrace) if
/// `bin` names no experiment, an argument is not recognized,
/// `--threads` is not a positive integer, or a requested output file
/// cannot be written — an experiment binary has nothing sensible to do
/// with any of those, and callers (CI, sweep scripts) key off the exit
/// code.
pub fn cli(bin: &str) {
    let args: Vec<String> = std::env::args().collect();
    let opts = parse_cli(&args).unwrap_or_else(|msg| exit_error(&msg));
    let Some(experiment) = crate::EXPERIMENTS.iter().find(|e| e.bin == bin) else {
        exit_error(&format!("no experiment is registered as `{bin}`"));
    };
    let threads = resolve_threads(opts.threads.as_deref()).unwrap_or_else(|msg| exit_error(&msg));
    let ctx = RunContext {
        quick: opts.quick,
        threads,
    };
    if let Some(path) = &opts.replay_trace {
        if let Err(e) = crate::replay::start_replay(path) {
            exit_error(&format!("loading replay trace {path}: {e}"));
        }
    }
    if opts.record_trace.is_some() {
        crate::replay::start_record();
    }
    let tracing = opts.trace.is_some() || opts.profile;
    let _ = ia_par::ledger::take();
    if tracing {
        let _ = ia_trace::session::take();
        ia_trace::set_capture(true);
    }
    let rep = attach_par_diagnostics((experiment.report)(&ctx), threads);
    let log = tracing.then(|| {
        ia_trace::set_capture(false);
        ia_trace::session::take()
    });
    print!("{}", rep.to_text(experiment.title));
    eprintln!("{}", par_diagnostics_from(&rep));
    if let Some(path) = &opts.record_trace {
        if let Err(e) = crate::replay::finish_record(path) {
            exit_error(&format!("writing recorded trace {path}: {e}"));
        }
    }
    if let Some(log) = log {
        if let Some(path) = &opts.trace {
            write_or_exit(path, &ia_trace::chrome::render_chrome(&log));
        }
        if opts.profile {
            eprint!("{}", profile_text(&log));
        }
    }
    if let Some(path) = &opts.json {
        let mut text = rep.to_json().render();
        text.push('\n');
        write_or_exit(path, &text);
    }
    if let Some(path) = &opts.csv {
        write_or_exit(path, &rep.to_csv());
    }
}

/// The shared CLI failure path: prints `error: <msg>` to stderr and
/// exits with status `2`, the code callers (CI, sweep scripts) key off.
pub fn exit_error(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Renders the cycle-attribution profile of `log`, for the `--profile`
/// stderr block.
fn profile_text(log: &ia_trace::TraceLog) -> String {
    ia_trace::Profile::from_log(log).to_text()
}

/// Writes `text` to `path`, or reports the failure on stderr and exits
/// with status `2` — a clean error for callers instead of a panic
/// backtrace.
fn write_or_exit(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        exit_error(&format!("writing {path}: {e}"));
    }
}

/// Drains the `ia-par` ledger into the report's runtime section:
/// `par_threads` (the run's configured workers), `par_tasks` (tasks executed this
/// invocation), `par_imbalance` (worst max/mean worker busy time, `1` =
/// balanced or serial), `par_busy_ms` (total worker busy time) and
/// `par_slowest_ms` (longest single task — the wall-clock floor of the
/// sweep no matter how many workers are added).
#[must_use]
fn attach_par_diagnostics(rep: ExperimentReport, threads: usize) -> ExperimentReport {
    let ledger = ia_par::ledger::take();
    let imbalance = if ledger.parallel_invocations == 0 {
        1.0
    } else {
        ledger.worst_imbalance.max(1.0)
    };
    rep.runtime_metric("par_threads", threads as f64)
        .runtime_metric("par_tasks", ledger.tasks as f64)
        .runtime_metric("par_imbalance", imbalance)
        .runtime_metric("par_busy_ms", ledger.busy_total.as_secs_f64() * 1e3)
        .runtime_metric("par_slowest_ms", ledger.slowest_task.as_secs_f64() * 1e3)
}

/// Renders the runtime diagnostics of `rep` as a one-line stderr note.
fn par_diagnostics_from(rep: &ExperimentReport) -> String {
    let get = |k: &str| {
        rep.runtime
            .iter()
            .find(|(n, _)| n == k)
            .map_or(0.0, |(_, v)| *v)
    };
    format!(
        "[par] threads={} tasks={} imbalance={:.2} busy={:.1}ms slowest={:.1}ms",
        get("par_threads"),
        get("par_tasks"),
        get("par_imbalance"),
        get("par_busy_ms"),
        get("par_slowest_ms"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ExperimentReport {
        ExperimentReport::new("exp99_sample", true)
            .param("bytes", 4096)
            .metric("speedup", 11.6)
            .metric("energy_gain", 74.4)
            .columns(&["size", "speedup"])
            .row(&["4 KiB".to_owned(), "11.6x".to_owned()])
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let rep = sample();
        let text = rep.to_json().render();
        let parsed = JsonValue::parse(&text).expect("own output parses");
        let back = ExperimentReport::from_json(&parsed).expect("well-formed");
        assert_eq!(back, rep);
    }

    #[test]
    fn metric_lookup_and_quick_param() {
        let rep = sample();
        assert_eq!(rep.metric_value("speedup"), Some(11.6));
        assert_eq!(rep.metric_value("missing"), None);
        assert!(rep
            .params
            .contains(&("quick".to_owned(), "true".to_owned())));
    }

    #[test]
    fn csv_uses_table_when_present_and_metrics_otherwise() {
        let with_table = sample().to_csv();
        assert!(with_table.starts_with("size,speedup"));
        let metrics_only = ExperimentReport::new("m", false).metric("x", 1.5).to_csv();
        assert!(metrics_only.contains("metric,value"));
        assert!(metrics_only.contains("x,1.5"));
    }

    #[test]
    fn runtime_metrics_stay_out_of_json_and_csv() {
        let rep = sample()
            .runtime_metric("par_threads", 4.0)
            .runtime_metric("par_imbalance", 1.31);
        let json = rep.to_json().render();
        assert!(!json.contains("par_threads"), "runtime leaked into JSON");
        assert!(!rep.to_csv().contains("par_imbalance"));
        assert_eq!(rep.to_text("t"), sample().to_text("t"));
        let parsed = JsonValue::parse(&json).unwrap();
        let back = ExperimentReport::from_json(&parsed).unwrap();
        assert!(back.runtime.is_empty());
        // Byte-identity: the canonical output ignores runtime entirely.
        assert_eq!(json, sample().to_json().render());
    }

    #[test]
    fn text_renders_title_params_table_and_metrics() {
        let text = sample().to_text("E99: sample experiment");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "E99: sample experiment");
        assert_eq!(lines[1], "params: quick=true, bytes=4096");
        assert!(text.contains("| size  | speedup |"), "{text}");
        assert!(text.contains("| 4 KiB | 11.6x   |"), "{text}");
        assert!(text.contains("| speedup     | 11.6  |"), "{text}");
        assert!(text.contains("| energy_gain | 74.4  |"), "{text}");
        // Metrics-only reports skip the (empty) result table.
        let metrics_only = ExperimentReport::new("m", false).metric("x", 1.5);
        let text = metrics_only.to_text("T");
        assert_eq!(text.lines().filter(|l| l.starts_with('+')).count(), 3);
    }

    #[test]
    fn threads_resolve_to_a_positive_count() {
        assert_eq!(resolve_threads(Some("3")), Ok(3));
        assert!(resolve_threads(None).is_ok_and(|n| n >= 1));
        for bad in ["0", "-1", "lots", ""] {
            let err = resolve_threads(Some(bad)).unwrap_err();
            assert!(err.contains("positive integer"), "{bad}: {err}");
        }
    }

    fn argv(parts: &[&str]) -> Vec<String> {
        std::iter::once("exp99_sample")
            .chain(parts.iter().copied())
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn parse_cli_accepts_every_documented_flag() {
        let opts = parse_cli(&argv(&[
            "--quick",
            "--threads",
            "4",
            "--json",
            "a.json",
            "--csv",
            "b.csv",
            "--trace",
            "t.json",
            "--record-trace",
            "w.trace",
            "--profile",
        ]))
        .expect("all flags are valid");
        assert!(opts.quick && opts.profile);
        assert_eq!(opts.threads.as_deref(), Some("4"));
        assert_eq!(opts.json.as_deref(), Some("a.json"));
        assert_eq!(opts.csv.as_deref(), Some("b.csv"));
        assert_eq!(opts.trace.as_deref(), Some("t.json"));
        assert_eq!(opts.record_trace.as_deref(), Some("w.trace"));
        assert_eq!(opts.replay_trace, None);
        let opts = parse_cli(&argv(&["--replay-trace", "w.trace"])).expect("valid");
        assert_eq!(opts.replay_trace.as_deref(), Some("w.trace"));
        assert_eq!(parse_cli(&argv(&[])).unwrap(), CliOptions::default());
    }

    #[test]
    fn parse_cli_rejects_unknown_flags_and_missing_values() {
        let err = parse_cli(&argv(&["--qiuck"])).unwrap_err();
        assert!(err.contains("unknown flag `--qiuck`"), "{err}");
        for flag in [
            "--threads",
            "--json",
            "--csv",
            "--trace",
            "--record-trace",
            "--replay-trace",
        ] {
            let err = parse_cli(&argv(&[flag])).unwrap_err();
            assert!(err.contains("expects a value"), "{flag}: {err}");
        }
        // A stray positional argument is as suspect as a typoed flag.
        assert!(parse_cli(&argv(&["quick"])).is_err());
    }

    #[test]
    fn parse_cli_rejects_record_and_replay_together() {
        let err = parse_cli(&argv(&[
            "--record-trace",
            "a.trace",
            "--replay-trace",
            "b.trace",
        ]))
        .unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
    }

    #[test]
    fn profile_text_reports_attribution() {
        let mut tracer = ia_trace::Tracer::new("ctrl", 16);
        tracer.mark("sched.issue", 0);
        tracer.mark_n("dram.burst", 1, 9);
        let mut log = ia_trace::TraceLog::new();
        log.push(tracer.take());
        let text = profile_text(&log);
        assert!(
            text.contains("[profile] attributed 10 simulated cycles"),
            "{text}"
        );
    }

    #[test]
    fn from_json_rejects_malformed_input() {
        let v = JsonValue::parse("{\"name\": 3}").unwrap();
        assert!(ExperimentReport::from_json(&v).is_err());
        let v = JsonValue::parse("{\"name\": \"x\"}").unwrap();
        assert!(ExperimentReport::from_json(&v).is_err());
    }
}
