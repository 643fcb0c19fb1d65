//! End-to-end check of the machine-readable report pipeline: run the
//! RowClone experiment through the report path the `exp02_rowclone`
//! binary uses, write the JSON to disk, and parse it back with
//! `ia-telemetry`'s own parser — the same loop `scripts/bench_snapshot.sh`
//! and any downstream tooling rely on.

use ia_bench::report::{ExperimentReport, RunContext};

const QUICK: RunContext = RunContext {
    quick: true,
    threads: 1,
};
use ia_telemetry::JsonValue;

#[test]
fn exp02_report_round_trips_through_json_on_disk() {
    let rep = ia_bench::exp02_rowclone::report(&QUICK);

    // Write exactly what the binary's `--json <path>` flag writes.
    let mut text = rep.to_json().render();
    text.push('\n');
    let path = std::env::temp_dir().join("ia_bench_exp02_report.json");
    std::fs::write(&path, &text).expect("report written");

    let read_back = std::fs::read_to_string(&path).expect("report read");
    let parsed = JsonValue::parse(&read_back).expect("emitted JSON parses with our own parser");
    let back = ExperimentReport::from_json(&parsed).expect("well-formed report");
    std::fs::remove_file(&path).ok();

    assert_eq!(back, rep);
    assert_eq!(back.name, "exp02_rowclone");
    assert!(back
        .params
        .contains(&("quick".to_owned(), "true".to_owned())));

    // The headline RowClone result must survive the trip: in-DRAM copy
    // is an order of magnitude faster than copying over the channel.
    let speedup = back
        .metric_value("fpm_speedup")
        .expect("headline metric present");
    assert!(
        speedup > 1.0,
        "FPM speedup should beat the channel: {speedup:.2}"
    );
}

#[test]
fn every_experiment_report_names_itself_and_records_quick() {
    // Cheap sanity on the two smallest reports: names match modules and
    // the quick param is recorded, so BENCH_PR.json entries are
    // self-describing.
    let raidr = ia_bench::exp06_raidr::report(&QUICK);
    assert_eq!(raidr.name, "exp06_raidr");
    assert!(raidr.metric_value("refresh_reduction").is_some());

    let pnm = ia_bench::exp08_pnm_graph::report(&QUICK);
    assert_eq!(pnm.name, "exp08_pnm_graph");
    assert!(!pnm.rows.is_empty(), "sweep reports carry their table");
}
