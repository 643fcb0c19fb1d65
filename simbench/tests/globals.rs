//! Timed runs refuse to start while a process-global session is on. Kept
//! in its own test binary because it flips process-wide state.

use simbench::{check_globals, run, Config, Workload};

#[test]
fn trace_capture_fails_every_job() {
    assert!(check_globals().is_ok());
    ia_trace::set_capture(true);
    assert!(check_globals().is_err());
    let r = run(Config {
        workload: Workload::NocMesh,
        seed: 1,
        seconds: 0.0,
        trace: false,
        workers: 1,
    });
    ia_trace::set_capture(false);
    assert_eq!(r.failures.len() as u64, r.attempted);
    assert!(r.failures[0].contains("capture"), "{}", r.failures[0]);
    assert!(check_globals().is_ok());
}
