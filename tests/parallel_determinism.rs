//! The `ia-par` determinism contract, end to end: a representative
//! experiment's machine-readable report must be **byte-identical**
//! between `--threads 1` (the exact serial path) and `--threads 4`
//! (multi-worker pool on any host, including single-core CI).
//!
//! The thread count is an explicit [`RunContext`] field, so a test
//! compares two runs without touching any process-wide setting. The one
//! process-global left is `ia-trace` capture (see [`CAPTURE_LOCK`]).

use std::sync::Mutex;

use ia_bench::report::{ExperimentReport, RunContext};

/// `ia-trace` session capture is process-global: while it is on, every
/// simulation in the process — including the other tests' concurrent
/// report runs — submits its trace to the one session. Tests that
/// capture therefore hold this lock for the whole capture window, and
/// every test that simulates holds it too, so no foreign trace can leak
/// into a capture.
static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

fn capture_lock() -> std::sync::MutexGuard<'static, ()> {
    CAPTURE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Renders the quick report at `--threads 1` and `--threads 4` and
/// asserts the JSON bytes match.
fn assert_byte_identical(name: &str, report: fn(&RunContext) -> ExperimentReport) {
    let _guard = capture_lock();
    let render = |threads| {
        report(&RunContext {
            quick: true,
            threads,
        })
        .to_json()
        .render()
    };
    let serial = render(1);
    let parallel = render(4);
    assert_eq!(
        serial, parallel,
        "{name}: report bytes differ between --threads 1 and --threads 4"
    );
}

#[test]
fn exp05_scheduler_suite_is_thread_count_invariant() {
    assert_byte_identical("exp05", ia_bench::exp05_scheduler_suite::report);
}

#[test]
fn exp17_prefetchers_is_thread_count_invariant() {
    assert_byte_identical("exp17", ia_bench::exp17_prefetchers::report);
}

#[test]
fn exp18_noc_is_thread_count_invariant() {
    assert_byte_identical("exp18", ia_bench::exp18_noc::report);
}

#[test]
fn exp24_fault_injection_is_thread_count_invariant() {
    assert_byte_identical("exp24", ia_bench::exp24_fault_injection::report);
}

/// The same contract for the `ia-trace` session: parallel sweeps carry
/// each task's trace back to the submitting thread and submit in input
/// order, so the rendered Chrome trace must be byte-identical between
/// the exact serial path and a multi-worker pool.
#[test]
fn exp05_trace_is_thread_count_invariant() {
    let _guard = capture_lock();
    let render = |threads| {
        let _ = ia_trace::session::take();
        ia_trace::set_capture(true);
        let rows = ia_bench::exp05_scheduler_suite::rows(&RunContext {
            quick: true,
            threads,
        });
        ia_trace::set_capture(false);
        let log = ia_trace::session::take();
        assert!(
            !log.components.is_empty(),
            "--threads {threads}: the capture recorded no trace"
        );
        (rows, ia_trace::chrome::render_chrome(&log))
    };
    let (serial_rows, serial) = render(1);
    let (parallel_rows, parallel) = render(4);
    assert_eq!(serial_rows, parallel_rows);
    assert_eq!(
        serial, parallel,
        "exp05: trace bytes differ between --threads 1 and --threads 4"
    );
    assert!(serial.starts_with("{\"traceEvents\":["));
}
