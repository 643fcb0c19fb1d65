//! The benchmark's own checks: repeat runs in one process do the same
//! simulated work, the held-out seed is a real second input, traced runs
//! partition their spans, and the metric names match `BENCHMARK.json`.

use simbench::metrics::{end_to_end, per_layer, spans_partition};
use simbench::{default_workers, run, Config, Report, Workload, DEFAULT_SEED, HELD_OUT_SEED};

fn quick(workload: Workload, seed: u64, trace: bool) -> Report {
    run(Config {
        workload,
        seed,
        seconds: 0.0,
        trace,
        workers: default_workers(),
    })
}

fn median_job_ns(r: &Report) -> u64 {
    let mut ns: Vec<u64> = r
        .rounds
        .iter()
        .flat_map(|r| &r.jobs)
        .map(|j| j.host_ns)
        .collect();
    ns.sort_unstable();
    ns[ns.len() / 2]
}

#[test]
fn a_second_run_in_one_process_repeats_the_simulated_work() {
    for w in Workload::ALL {
        let first = quick(w, DEFAULT_SEED, false);
        let second = quick(w, DEFAULT_SEED, false);
        for r in [&first, &second] {
            assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
            assert!(r.reference.ops() > 0, "{}: no simulated work", w.name());
            for round in &r.rounds {
                assert_eq!(round.ops(), r.reference.ops(), "{}", w.name());
                assert_eq!(round.sim_cycles(), r.reference.sim_cycles(), "{}", w.name());
            }
        }
        assert_eq!(first.fingerprint, second.fingerprint, "{}", w.name());
        // Every simulated counter, engine events included, repeats.
        let outcomes = |r: &Report| {
            r.reference
                .jobs
                .iter()
                .map(|j| j.outcome.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(outcomes(&first), outcomes(&second), "{}", w.name());
        // A memo would return the same results without simulating: the
        // second run's jobs would then take next to no host time.
        let (a, b) = (median_job_ns(&first), median_job_ns(&second));
        assert!(
            b * 4 > a,
            "{}: second run's median job took {b} ns against {a} ns; is a result memoised?",
            w.name()
        );
    }
}

#[test]
fn fingerprints_do_not_depend_on_the_worker_count() {
    for w in [Workload::NocMesh, Workload::LlcPrefetch] {
        let fp = |workers| {
            run(Config {
                workload: w,
                seed: DEFAULT_SEED,
                seconds: 0.0,
                trace: false,
                workers,
            })
            .fingerprint
        };
        assert_eq!(fp(1), fp(2), "{}", w.name());
    }
}

#[test]
fn held_out_seed_generates_other_inputs_that_pass_every_check() {
    for w in Workload::ALL {
        let default = quick(w, DEFAULT_SEED, false);
        let held_out = quick(w, HELD_OUT_SEED, false);
        assert!(
            held_out.failures.is_empty(),
            "{}: {:?}",
            w.name(),
            held_out.failures
        );
        assert_eq!(held_out.pinned, None);
        assert_ne!(held_out.fingerprint, default.fingerprint, "{}", w.name());
        println!(
            "{} seed {HELD_OUT_SEED}: fingerprint {:#018x}",
            w.name(),
            held_out.fingerprint
        );
    }
}

#[test]
fn traced_runs_partition_spans_and_report_overhead() {
    for w in Workload::ALL {
        let r = quick(w, DEFAULT_SEED, true);
        assert!(r.failures.is_empty(), "{}: {:?}", w.name(), r.failures);
        assert!(r.rounds.iter().any(|r| r.traced) && r.rounds.iter().any(|r| !r.traced));
        assert!(spans_partition(&r), "{}", w.name());
        let m = per_layer(&r);
        assert_eq!(m["trace.spans_partition"].0, 1.0);
        assert!(m["trace.overhead_frac"].0.is_finite());
        assert!(m["trace.spans"].0 > 0.0);
    }
}

/// The `name`s listed under `section` in `BENCHMARK.json`.
fn names_in(section: &str) -> Vec<String> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).expect("quoted name").to_owned())
        .collect()
}

#[test]
fn benchmark_json_names_every_printed_metric() {
    let mut e2e = names_in("end_to_end");
    e2e.sort();
    assert_eq!(
        e2e,
        [
            "job_ms_p50",
            "job_ms_tail",
            "peak_rss_mb",
            "setup_s",
            "sim_ops_per_s"
        ]
    );
    let mut listed = names_in("per_layer");
    listed.sort();
    for w in Workload::ALL {
        let r = quick(w, DEFAULT_SEED, true);
        let printed: Vec<String> = per_layer(&r).into_keys().collect();
        assert_eq!(printed, listed, "{}", w.name());
        let e = end_to_end(&r);
        for v in [
            e.sim_ops_per_s,
            e.job_ms_p50,
            e.job_ms_tail,
            e.setup_s,
            e.peak_rss_mb,
        ] {
            assert!(v > 0.0, "{}: end-to-end metrics are never 0", w.name());
        }
    }
}
