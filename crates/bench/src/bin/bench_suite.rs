// lint: allow(S002, suite runner drives every report() in-process; the per-binary cli wrapper does not apply)
//! All-experiments suite runner for the benchmark snapshot pipeline.
//!
//! Runs every experiment in `ia_bench::EXPERIMENTS`, in registry order,
//! in a single process and writes each report to
//! `<json-dir>/<bin-name>.json` — the same bytes the standalone `exp*`
//! binaries write with `--json`, because the JSON carries only the
//! deterministic report (runtime diagnostics are excluded by
//! construction). One process instead of twenty-four
//! matters on the snapshot path: fork+exec costs a couple of
//! milliseconds per binary on a loaded host, which used to charge the
//! suite wall ~50 ms of pure process churn.
//!
//! Per-experiment wall times are printed to stdout as `<bin-name> <ms>`
//! lines, in registry order. `scripts/bench_snapshot.sh` folds them into
//! `BENCH_WALL.json` and takes its bin list — the order of
//! `BENCH_PR.json` — from them; measuring inside the process keeps the
//! per-bin rows free of fork noise too.
//!
//! ```text
//! bench_suite [--quick] [--threads N] --json-dir DIR
//! ```

use ia_bench::report::{exit_error, resolve_threads, RunContext};
use ia_bench::EXPERIMENTS;

fn main() {
    let mut quick = false;
    let mut threads: Option<String> = None;
    let mut json_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| exit_error(&format!("{flag} expects a value")))
        };
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => threads = Some(value("--threads")),
            "--json-dir" => json_dir = Some(value("--json-dir")),
            "--help" | "-h" => {
                println!("usage: bench_suite [--quick] [--threads N] --json-dir DIR");
                return;
            }
            other => exit_error(&format!("unknown argument `{other}`")),
        }
    }
    let threads = resolve_threads(threads.as_deref()).unwrap_or_else(|msg| exit_error(&msg));
    let Some(dir) = json_dir else {
        exit_error("--json-dir is required");
    };

    let ctx = RunContext { quick, threads };
    for experiment in &EXPERIMENTS {
        // lint: allow(D002, per-bin wall rows are host diagnostics on stdout; the report JSON carries no timing)
        let start = std::time::Instant::now();
        let mut text = (experiment.report)(&ctx).to_json().render();
        text.push('\n');
        let path = format!("{dir}/{}.json", experiment.bin);
        if let Err(e) = std::fs::write(&path, text) {
            exit_error(&format!("writing {path}: {e}"));
        }
        println!("{} {}", experiment.bin, start.elapsed().as_millis());
    }
}
