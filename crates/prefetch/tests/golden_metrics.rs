//! Golden `PrefetchMetrics` for the five prefetchers on the four
//! prefetcher-lineage streams (stream, strided, zipf, pointer-chase):
//! the same generators, seed and 64 KiB 8-way harness as the exp17
//! experiment, at its full 30 000 demands per stream.
//!
//! Any change to cache replacement, prefetcher state or harness
//! accounting shows up here as a cell-level diff.

use ia_prefetch::{
    FeedbackDirected, GhbPrefetcher, NextLinePrefetcher, PerceptronFilter, PrefetchHarness,
    PrefetchMetrics, Prefetcher, StridePrefetcher,
};
use ia_workloads::{PointerChaseGen, StreamGen, TraceGenerator, ZipfGen};
use rand::rngs::SmallRng;
use rand::SeedableRng;

const DEMANDS: usize = 30_000;

fn prefetchers() -> Vec<Box<dyn Prefetcher>> {
    vec![
        Box::new(NextLinePrefetcher::new(2)),
        Box::new(StridePrefetcher::new(4)),
        Box::new(GhbPrefetcher::new(256, 4)),
        Box::new(FeedbackDirected::new(4)),
        Box::new(PerceptronFilter::new(StridePrefetcher::new(4))),
    ]
}

fn addrs(trace: Vec<ia_workloads::TraceRequest>) -> Vec<u64> {
    trace.into_iter().map(|r| r.addr).collect()
}

fn streams() -> Vec<(&'static str, Vec<u64>)> {
    let mut rng = SmallRng::seed_from_u64(117);
    let stream = addrs(
        StreamGen::new(0, 64, 4 << 20, 0.0)
            .unwrap()
            .generate(DEMANDS, &mut rng),
    );
    let strided = addrs(
        StreamGen::new(1 << 26, 320, 4 << 20, 0.0)
            .unwrap()
            .generate(DEMANDS, &mut rng),
    );
    let zipf = addrs(
        ZipfGen::new(2 << 26, 8192, 4096, 1.0, 0.0)
            .unwrap()
            .generate(DEMANDS, &mut rng),
    );
    let mut chase_gen = PointerChaseGen::new(3 << 26, 128 * 1024, 64, &mut rng).unwrap();
    let chase = addrs(chase_gen.generate(DEMANDS, &mut rng));
    vec![
        ("stream", stream),
        ("strided", strided),
        ("zipf", zipf),
        ("pointer-chase", chase),
    ]
}

/// `(demands, uncovered_misses, covered_misses, issued, useful, useless)`
/// per prefetcher, in `prefetchers()` order, per stream.
const GOLDEN: [(&str, [[u64; 6]; 5]); 4] = [
    (
        "stream",
        [
            [30000, 10000, 20000, 20000, 20000, 0],
            [30000, 3, 29997, 30001, 29997, 0],
            [30000, 9283, 20717, 20724, 20717, 0],
            [30000, 3, 29997, 30061, 29997, 0],
            [30000, 3, 29997, 30001, 29997, 0],
        ],
    ),
    (
        "strided",
        [
            [30000, 30000, 0, 60000, 0, 59923],
            [30000, 9, 29991, 30003, 29991, 8],
            [30000, 9287, 20713, 20746, 20713, 23],
            [30000, 9, 29991, 30183, 29991, 128],
            [30000, 9, 29991, 30003, 29991, 8],
        ],
    ),
    (
        "zipf",
        [
            [30000, 24711, 192, 45080, 192, 44805],
            [30000, 24626, 12, 186, 12, 173],
            [30000, 24637, 0, 0, 0, 0],
            [30000, 24627, 11, 158, 11, 147],
            [30000, 24633, 4, 30, 4, 26],
        ],
    ),
    (
        "pointer-chase",
        [
            [30000, 29982, 18, 59557, 18, 59454],
            [30000, 30000, 0, 0, 0, 0],
            [30000, 30000, 0, 0, 0, 0],
            [30000, 30000, 0, 0, 0, 0],
            [30000, 30000, 0, 0, 0, 0],
        ],
    ),
];

fn cells(m: &PrefetchMetrics) -> [u64; 6] {
    [
        m.demands,
        m.uncovered_misses,
        m.covered_misses,
        m.issued,
        m.useful,
        m.useless,
    ]
}

#[test]
fn metrics_match_the_pinned_goldens() {
    for ((name, addrs), (golden_name, golden)) in streams().iter().zip(GOLDEN) {
        assert_eq!(*name, golden_name);
        for (p, want) in prefetchers().into_iter().zip(golden) {
            let pname = p.name();
            let mut h = PrefetchHarness::new(64 * 1024, 64, 8, p).unwrap();
            for &a in addrs {
                h.demand(a);
            }
            let got = cells(h.metrics());
            assert_eq!(got, want, "{name} / {pname}");
        }
    }
}
