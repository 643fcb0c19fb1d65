//! The record/replay session's whole lifecycle. The session is
//! process-global, and while it records or replays it intercepts every
//! workload construction in the process — including those of experiment
//! tests running on other test threads. It is therefore tested here, in
//! its own test binary, where nothing else builds a workload.

use ia_bench::replay::{finish_record, intercept, start_record, start_replay};
use ia_memctrl::MemRequest;
use ia_tracefmt::TraceReader;

#[test]
fn record_then_replay_round_trips_segments_in_order() {
    let dir = std::env::temp_dir().join(format!("ia-bench-replay-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.trace");
    let path = path.to_str().unwrap();

    let seg_a = vec![
        vec![MemRequest::read(0x1000, 0), MemRequest::write(0x1040, 0)],
        vec![MemRequest::read(0x2000, 1)],
    ];
    let seg_b = vec![vec![MemRequest::write(0x4000, 0)]];

    // Off: intercept is pass-through.
    assert_eq!(intercept(1, || seg_a.clone()), seg_a);

    start_record();
    assert_eq!(intercept(0xAA, || seg_a.clone()), seg_a);
    assert_eq!(intercept(0xBB, || seg_b.clone()), seg_b);
    finish_record(path).unwrap();

    let reader = TraceReader::from_path(path).unwrap();
    assert_eq!(reader.seed(), 0xAA, "header carries the first seed");

    start_replay(path).unwrap();
    assert_eq!(
        ia_memctrl::replay_context().and_then(|c| c.trace_path),
        Some(path.to_owned())
    );
    // Replay ignores the generator entirely.
    assert_eq!(intercept(0xAA, || unreachable!()), seg_a);
    assert_eq!(intercept(0xBB, || unreachable!()), seg_b);
    // Exhausted: falls back to generating.
    assert_eq!(intercept(0xCC, || seg_b.clone()), seg_b);

    std::fs::remove_dir_all(&dir).unwrap();
}
