//! # ia-microbench — deterministic per-op microbenchmarks
//!
//! The quick-suite wall clock (`BENCH_WALL.json`) is the headline perf
//! number, but it is noisy: process spawn, host load, and 24 binaries'
//! worth of variance hide per-op regressions smaller than a few
//! milliseconds. This crate benches the individual hot paths — the ones
//! the suite's time actually goes to — at nanosecond resolution:
//!
//! * **build-view** — one Frontier `build_view` against an indexed
//!   [`RequestQueue`], at queue depth 8 and 256, after a
//!   [`DramModule::channel_mut`] call that moves the DRAM mutation
//!   counter: each op pays the full probe pass (one
//!   [`DramModule::bank_gates`] per occupied bank), not a cache hit. The
//!   indexed queue's promise is depth-independence: both depths should
//!   cost about the same per view (the linear scan it replaced scaled
//!   32×).
//! * **sched-select** — one FR-FCFS `select` over a fixed Frontier view
//!   of a depth-256 queue: the scheduler-pick layer on its own.
//! * **simloop-step** — one [`SimLoop::step`] over a [`MemoryController`]
//!   kept fed with 16 queued requests: the engine's wake-up query, any
//!   skip, and one controller tick.
//! * **dram-timing-check** — one [`DramModule::bank_gates`] probe, the
//!   per-bank query the queue's gate cache is filled from.
//! * **noc-route-flit** — one [`RouteTable`] XY lookup plus a
//!   productive-port query, the per-flit work of the mesh hot loop.
//! * **lint-parse-workspace** — one full ia-lint front-end pass (lex,
//!   comment-strip, item-parse) over a deterministic synthetic source
//!   file: the per-file cost behind the `ia-lint --check` wall-time
//!   budget in `scripts/ci.sh`.
//! * **cache-access** — one [`Cache::access`] on a 64 KiB 8-way cache
//!   over a fixed stream that mixes a reused hot set with streaming and
//!   writes: the substrate under every cache experiment.
//! * **prefetch-demand** — one [`PrefetchHarness::demand`] with a stride
//!   and with a GHB prefetcher over a fixed walk of unit-stride runs and
//!   +1,+1,+5 line-delta cycles broken by region jumps: cache probe,
//!   prefetcher update and prefetch fills per demand.
//!
//! ## Determinism (lint D002)
//!
//! The measured regions contain *no wall-clock reads* — they fold pure
//! simulated state. The harness reads [`std::time::Instant`] only
//! around the measured loop, reports the **median of k** repetitions,
//! and keeps every nondeterministic number (the ns/op) out of
//! `BENCH_MICRO.json`: the JSON carries only the bench name, iteration
//! and op counts, and a checksum folded from the measured work, so the
//! file is byte-stable across runs, hosts, and `--threads` settings —
//! a regression in *behavior* shows up as a checksum diff, a regression
//! in *speed* shows up in the printed ns/op table.
//!
//! ## Example
//!
//! ```
//! let results = ia_microbench::run_all(16, 3);
//! assert!(results.len() >= 4);
//! let again = ia_microbench::run_all(16, 3);
//! for (a, b) in results.iter().zip(&again) {
//!     assert_eq!(a.checksum, b.checksum, "{} must be deterministic", a.name);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

// lint: allow(D002, a microbenchmark harness times the host by definition; checksums, not times, are the stable output)
use std::time::Instant;

use ia_cache::{Cache, CacheOp};
use ia_dram::{Cycle, DramConfig, DramModule, PhysAddr};
use ia_lint::context::FileContext;
use ia_lint::lexer::tokenize;
use ia_lint::parser::{parse_items, Item};
use ia_memctrl::{
    Completed, FrFcfs, IssueView, MemRequest, MemoryController, Pending, RequestQueue, Scheduler,
    ViewMode,
};
use ia_noc::{MeshConfig, RouteTable};
use ia_prefetch::{GhbPrefetcher, PrefetchHarness, Prefetcher, StridePrefetcher};
use ia_sim::SimLoop;
use ia_telemetry::JsonValue;

/// One timed repetition: deterministic op count and checksum, plus the
/// harness-side wall time of the measured loop.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Operations the measured loop performed.
    pub ops: u64,
    /// Order-sensitive fold of the loop's observable results.
    pub checksum: u64,
    /// Wall time of the measured loop (harness-side, display only).
    pub ns: u128,
}

/// A bench's aggregated result: the deterministic fields that go into
/// `BENCH_MICRO.json` plus the median ns/op for the human table.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Bench name (stable identifier).
    pub name: &'static str,
    /// Iterations of the measured loop per repetition.
    pub iters: u64,
    /// Operations per repetition (identical across repetitions).
    pub ops: u64,
    /// Checksum per repetition (identical across repetitions).
    pub checksum: u64,
    /// Median wall ns/op across the k repetitions. Display only —
    /// never serialized.
    pub ns_per_op: f64,
}

/// A registered microbench: a name and a runner mapping an iteration
/// count to one [`Sample`].
#[derive(Debug, Clone, Copy)]
pub struct Bench {
    /// Stable bench name (also the JSON key).
    pub name: &'static str,
    /// Runs setup (untimed) then the measured loop for `iters`
    /// iterations.
    pub run: fn(u64) -> Sample,
}

/// Splitmix64-style fold: order-sensitive, cheap, and good enough to
/// catch any behavioral drift in the measured loops.
fn fold(acc: u64, x: u64) -> u64 {
    (acc ^ x)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .rotate_left(17)
}

/// A module with row 0 open in each of its 8 banks (DDR3-1600), so a
/// queue over it holds both row hits and held-back conflicts.
fn dram_with_open_rows() -> DramModule {
    // lint: allow(P001, ddr3_1600 is a valid preset)
    let mut dram = DramModule::new(DramConfig::ddr3_1600()).expect("valid config");
    for i in 0..8u64 {
        let addr = i * dram.config().geometry.row_bytes;
        let _ = dram.access(
            PhysAddr::new(addr),
            ia_dram::AccessKind::Read,
            Cycle::new(i),
        );
    }
    dram
}

/// Builds a request queue of `depth` reads spread over the module's
/// banks, ids and arrivals monotone — the steady-state picture the
/// scheduler sees mid-run.
fn queue_of(depth: u64, dram: &DramModule) -> RequestQueue {
    let mut queue = RequestQueue::new();
    for i in 0..depth {
        // Stride one row-buffer's worth so consecutive requests land in
        // different banks under the row-interleaved mapping.
        let addr = i * dram.config().geometry.row_bytes;
        let request = MemRequest {
            id: i + 1,
            ..MemRequest::read(addr, (i % 8) as usize)
        };
        let p = Pending {
            request,
            loc: dram.decode(PhysAddr::new(addr)),
            arrival: Cycle::new(i),
            batched: false,
            started: false,
        };
        queue.insert(p, dram);
    }
    queue
}

/// build-view at a fixed queue depth: one Frontier `build_view` per
/// iteration, each after a `channel_mut` call that invalidates the
/// queue's gate cache. The measured cost must track the *occupied-bank*
/// count, not the queue depth.
fn sched_build_view(depth: u64, iters: u64) -> Sample {
    let mut dram = dram_with_open_rows();
    let mut queue = queue_of(depth, &dram);
    let mut view = IssueView::default();
    let now = Cycle::new(1_000);
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for _ in 0..iters {
        // Moves the mutation counter without changing any bank.
        dram.channel_mut(0);
        queue.build_view(&dram, now, ViewMode::Frontier, &mut view);
        checksum = fold(checksum, view.ready.len() as u64 + 1);
        checksum = fold(checksum, view.row_hits as u64);
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// build-view at depth 8 (one request per bank).
fn sched_build_view_depth8(iters: u64) -> Sample {
    sched_build_view(8, iters)
}

/// build-view at depth 256 (deep, many requests per bank). Per-op cost
/// must match depth 8 up to the occupied-bank ratio.
fn sched_build_view_depth256(iters: u64) -> Sample {
    sched_build_view(256, iters)
}

/// One FR-FCFS `select` per op over a fixed Frontier view of a
/// depth-256 queue.
fn sched_select(iters: u64) -> Sample {
    let dram = dram_with_open_rows();
    let mut queue = queue_of(256, &dram);
    let mut view = IssueView::default();
    queue.build_view(&dram, Cycle::new(1_000), ViewMode::Frontier, &mut view);
    let mut sched = FrFcfs::new();
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for _ in 0..iters {
        if let Some(id) = sched.select(&queue, &view) {
            checksum = fold(checksum, u64::from(id.index()) + 1);
        }
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// One `SimLoop::step` per op over an FR-FCFS controller that is topped
/// up to 16 queued reads before each step. Three reads in four walk
/// consecutive lines (row hits); the fourth lands anywhere in 4 MiB.
fn simloop_step(iters: u64) -> Sample {
    let sched = Box::new(FrFcfs::new());
    // lint: allow(P001, ddr3_1600 is a valid preset)
    let ctrl = MemoryController::new(DramConfig::ddr3_1600(), sched).expect("valid config");
    let mut ctrl = ctrl.with_queue_capacity(16);
    let mut engine = SimLoop::new();
    let mut done: Vec<Completed> = Vec::new();
    let deadline = Cycle::new(u64::MAX);
    let mut next = 0u64;
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for _ in 0..iters {
        while ctrl.queue_len() < 16 {
            let addr = if next % 4 == 3 {
                fold(0x51A7, next) % (4 << 20)
            } else {
                next * 64
            };
            let _ = ctrl.enqueue(MemRequest::read(addr & !63, 0));
            next += 1;
        }
        done.clear();
        let _ = engine.step(&mut ctrl, &mut done, deadline);
        checksum = fold(checksum, ctrl.now().as_u64());
        checksum = fold(checksum, done.len() as u64);
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// One `bank_gates` probe per op: the open row plus all four command
/// gates in a single hierarchy walk.
fn dram_timing_check(iters: u64) -> Sample {
    // Open rows, so gates are non-zero.
    let dram = dram_with_open_rows();
    let locs: Vec<_> = (0..16u64)
        .map(|i| dram.decode(PhysAddr::new(i * dram.config().geometry.row_bytes)))
        .collect();
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for i in 0..iters {
        let gates = dram.bank_gates(&locs[(i % locs.len() as u64) as usize]);
        checksum = fold(checksum, gates.read.as_u64());
        checksum = fold(checksum, gates.activate.as_u64());
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// One XY route lookup + productive-port query per op on an 8×8 mesh —
/// the per-flit work of the NoC hot loop.
fn noc_route_flit(iters: u64) -> Sample {
    // lint: allow(P001, 8x8 is a valid mesh)
    let mesh = MeshConfig::new(8, 8).expect("valid mesh");
    let table = RouteTable::new(mesh);
    let n = 64u64;
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for i in 0..iters {
        let src = ((i * 29) % n) as usize;
        let dst = ((i * 37 + 11) % n) as usize;
        if let Some(port) = table.xy_port(src, dst) {
            checksum = fold(checksum, port as u64);
        }
        checksum = fold(checksum, u64::from(table.productive_ports(src, dst).mask()));
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// One synthetic source file for the lint-parse kernel: Rust-like items
/// exercising the parser's shapes — impls, traits, modules, nested
/// generics, raw identifiers, doc comments — sized like a mid-size
/// workspace module. Deterministic in `i`, so the corpus (and the
/// checksum folded from parsing it) never varies.
fn synth_source(i: u64) -> String {
    use std::fmt::Write as _;
    let mut s = String::from("#![forbid(unsafe_code)]\nuse std::collections::BTreeMap;\n");
    for j in 0..6u64 {
        let _ = write!(
            s,
            "/// Doc line for item {j}.\n\
             pub struct S{i}x{j} {{ pub field: Vec<Vec<u64>>, r#type: BTreeMap<u64, u64> }}\n\
             impl Clocked for S{i}x{j} {{\n\
                 fn tick(&mut self, now: Cycle) {{ self.field.len(); helper_{j}(now); }}\n\
             }}\n\
             pub fn helper_{j}(x: u64) -> u64 {{ x.wrapping_mul({i} + {j}) }}\n\
             mod m{j} {{ pub fn inner() -> u32 {{ 7 }} }}\n"
        );
    }
    s
}

/// Folds an item tree's spans and names into the checksum, depth-first.
fn fold_items(mut acc: u64, items: &[Item]) -> u64 {
    for it in items {
        acc = fold(acc, it.toks.start as u64);
        acc = fold(acc, it.toks.end as u64);
        acc = fold(acc, it.name.len() as u64 + 1);
        acc = fold_items(acc, &it.children);
    }
    acc
}

/// One full ia-lint front-end pass per op — lex, comment-strip and
/// test-mark ([`FileContext::build`]), item-parse — cycling through an
/// 8-file deterministic corpus. This is the per-file cost of
/// `ia-lint --check`, which `scripts/ci.sh` budgets at under 2 seconds
/// for the whole workspace.
fn lint_parse_workspace(iters: u64) -> Sample {
    let corpus: Vec<String> = (0..8).map(synth_source).collect();
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for i in 0..iters {
        let src = &corpus[(i % corpus.len() as u64) as usize];
        let ctx = FileContext::build("crates/synth/src/module.rs", tokenize(src));
        let items = parse_items(&ctx.code);
        checksum = fold(checksum, ctx.code.len() as u64);
        checksum = fold_items(checksum, &items);
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// Length of the fixed address streams the cache and prefetch kernels
/// cycle through.
const STREAM_LEN: u64 = 4_096;

/// The cache-access stream: three accesses in four go to a 96 KiB hot
/// set (1.5× the cache, so it both hits and conflicts), the fourth
/// streams through fresh lines; the byte offset within the line varies.
fn cache_stream() -> Vec<u64> {
    (0..STREAM_LEN)
        .map(|i| {
            let h = fold(0x5EED, i);
            if i % 4 == 3 {
                (1 << 30) + i * 64 + (h & 63)
            } else {
                h % (96 * 1024)
            }
        })
        .collect()
}

/// One `Cache::access` per op on a 64 KiB 8-way cache; every eighth
/// access is a write, so evictions also produce writebacks.
fn cache_access(iters: u64) -> Sample {
    // lint: allow(P001, 64 KiB 8-way is a valid geometry)
    let mut cache = Cache::new(64 * 1024, 64, 8).expect("valid cache");
    let stream = cache_stream();
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for i in 0..iters {
        let op = if i % 8 == 7 {
            CacheOp::Write
        } else {
            CacheOp::Read
        };
        let r = cache.access(stream[(i % STREAM_LEN) as usize], op);
        checksum = fold(checksum, u64::from(r.hit));
        checksum = fold(checksum, r.evicted.map_or(0, |a| a + 1));
        checksum = fold(checksum, r.writeback.map_or(0, |a| a + 1));
    }
    let ns = start.elapsed().as_nanos();
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// The prefetch-demand stream: every 64 demands it jumps to a new 1 MiB
/// region, walks 32 lines at unit stride (which both prefetchers
/// cover), then 32 more whose line deltas cycle +1,+1,+5 (which only
/// GHB correlates).
fn prefetch_stream() -> Vec<u64> {
    let mut line = 0u64;
    (0..STREAM_LEN)
        .map(|i| {
            let j = i % 64;
            line = if j == 0 {
                (fold(0xB10C, i) % 4096) << 14
            } else if j < 32 {
                line + 1
            } else {
                line + [1, 1, 5][(j % 3) as usize]
            };
            line * 64
        })
        .collect()
}

/// One `PrefetchHarness::demand` per op through a 64 KiB 8-way harness.
fn prefetch_demand(prefetcher: Box<dyn Prefetcher>, iters: u64) -> Sample {
    // lint: allow(P001, 64 KiB 8-way is a valid geometry)
    let mut h = PrefetchHarness::new(64 * 1024, 64, 8, prefetcher).expect("valid harness");
    let stream = prefetch_stream();
    let mut checksum = 0u64;
    // lint: allow(D002, harness timing around the measured region; JSON carries no wall-clock field)
    let start = Instant::now();
    for i in 0..iters {
        h.demand(stream[(i % STREAM_LEN) as usize]);
        let m = h.metrics();
        checksum = fold(checksum, m.issued);
        checksum = fold(checksum, m.covered_misses);
    }
    let ns = start.elapsed().as_nanos();
    let m = h.metrics();
    checksum = fold(checksum, m.useful);
    checksum = fold(checksum, m.useless);
    Sample {
        ops: iters,
        checksum,
        ns,
    }
}

/// prefetch-demand with a degree-4 stride prefetcher.
fn prefetch_demand_stride(iters: u64) -> Sample {
    prefetch_demand(Box::new(StridePrefetcher::new(4)), iters)
}

/// prefetch-demand with a 256-entry, degree-4 GHB prefetcher.
fn prefetch_demand_ghb(iters: u64) -> Sample {
    prefetch_demand(Box::new(GhbPrefetcher::new(256, 4)), iters)
}

/// The registered benches, in report order.
#[must_use]
pub fn benches() -> Vec<Bench> {
    vec![
        Bench {
            name: "sched_build_view_depth8",
            run: sched_build_view_depth8,
        },
        Bench {
            name: "sched_build_view_depth256",
            run: sched_build_view_depth256,
        },
        Bench {
            name: "sched_select",
            run: sched_select,
        },
        Bench {
            name: "simloop_step",
            run: simloop_step,
        },
        Bench {
            name: "dram_timing_check",
            run: dram_timing_check,
        },
        Bench {
            name: "noc_route_flit",
            run: noc_route_flit,
        },
        Bench {
            name: "lint_parse_workspace",
            run: lint_parse_workspace,
        },
        Bench {
            name: "cache_access",
            run: cache_access,
        },
        Bench {
            name: "prefetch_demand_stride",
            run: prefetch_demand_stride,
        },
        Bench {
            name: "prefetch_demand_ghb",
            run: prefetch_demand_ghb,
        },
    ]
}

/// Runs every bench for `iters` iterations, `k` repetitions each, and
/// returns the median-of-k results. The deterministic fields (`ops`,
/// `checksum`) are asserted identical across repetitions — a divergence
/// means a bench broke its own determinism contract.
///
/// # Panics
///
/// Panics if a bench's op count or checksum differs between
/// repetitions.
#[must_use]
pub fn run_all(iters: u64, k: usize) -> Vec<BenchResult> {
    let k = k.max(1);
    benches()
        .into_iter()
        .map(|b| {
            let samples: Vec<Sample> = (0..k).map(|_| (b.run)(iters)).collect();
            let first = samples[0];
            for s in &samples {
                assert_eq!(s.ops, first.ops, "{}: ops must be deterministic", b.name);
                assert_eq!(
                    s.checksum, first.checksum,
                    "{}: checksum must be deterministic",
                    b.name
                );
            }
            let mut ns: Vec<u128> = samples.iter().map(|s| s.ns).collect();
            ns.sort_unstable();
            let median = ns[ns.len() / 2];
            BenchResult {
                name: b.name,
                iters,
                ops: first.ops,
                checksum: first.checksum,
                ns_per_op: median as f64 / first.ops.max(1) as f64,
            }
        })
        .collect()
}

/// Renders the byte-stable `BENCH_MICRO.json` document: bench name,
/// iteration/op counts, and the checksum (hex string — exact at any
/// width, unlike a JSON number). No timing fields: wall numbers are
/// host-dependent and belong in the printed table only.
#[must_use]
pub fn to_json(results: &[BenchResult]) -> String {
    let arr = JsonValue::Arr(
        results
            .iter()
            .map(|r| {
                JsonValue::obj(vec![
                    ("bench", JsonValue::Str(r.name.to_owned())),
                    ("iters", JsonValue::Num(r.iters as f64)),
                    ("ops", JsonValue::Num(r.ops as f64)),
                    ("checksum", JsonValue::Str(format!("{:#018x}", r.checksum))),
                ])
            })
            .collect(),
    );
    let mut text = arr.render();
    text.push('\n');
    text
}

/// Renders the human-readable ns/op table.
#[must_use]
pub fn to_table(results: &[BenchResult]) -> String {
    let mut out = String::from(
        "bench                     iters      ops   ns/op (median)  checksum\n\
         -----                     -----      ---   --------------  --------\n",
    );
    for r in results {
        out.push_str(&format!(
            "{:<24} {:>6} {:>8}   {:>14.1}  {:#018x}\n",
            r.name, r.iters, r.ops, r.ns_per_op, r.checksum
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_benches_run_and_are_deterministic() {
        let a = run_all(32, 2);
        let b = run_all(32, 2);
        assert!(a.len() >= 4, "acceptance: at least 4 microbenches");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.ops, y.ops);
            assert_eq!(x.checksum, y.checksum);
        }
    }

    #[test]
    fn json_is_byte_stable_and_parses() {
        let a = to_json(&run_all(16, 2));
        let b = to_json(&run_all(16, 2));
        assert_eq!(a, b, "BENCH_MICRO.json must be byte-stable");
        let parsed = JsonValue::parse(&a).expect("own output parses");
        let arr = parsed.as_array().expect("top level is an array");
        assert!(arr.len() >= 4);
        for entry in arr {
            for key in ["bench", "iters", "ops", "checksum"] {
                assert!(entry.get(key).is_some(), "entry missing `{key}`");
            }
        }
    }

    #[test]
    fn prefetch_kernels_issue_useful_prefetches() {
        // A kernel whose prefetcher never fires would time only the
        // cache probe.
        for p in [
            Box::new(StridePrefetcher::new(4)) as Box<dyn Prefetcher>,
            Box::new(GhbPrefetcher::new(256, 4)),
        ] {
            let mut h = PrefetchHarness::new(64 * 1024, 64, 8, p).unwrap();
            for a in prefetch_stream() {
                h.demand(a);
            }
            let m = h.metrics();
            let name = h.prefetcher_name();
            assert!(m.coverage() > 0.4, "{name}: {m:?}");
            assert!(m.accuracy() > 0.4, "{name}: {m:?}");
        }
    }

    #[test]
    fn iters_one_smoke() {
        // The CI smoke path: every bench must survive a single iteration.
        let r = run_all(1, 1);
        assert!(r.iter().all(|x| x.ops >= 1));
    }

    #[test]
    fn lint_parse_folds_real_items() {
        // The front-end must find items in every synthetic file (a zero
        // or corpus-size-only checksum would mean the parser bailed).
        let r = run_all(4, 2);
        let lp = r.iter().find(|x| x.name == "lint_parse_workspace").unwrap();
        assert_eq!(lp.ops, 4);
        assert_ne!(lp.checksum, 0);
    }

    #[test]
    fn sched_pick_folds_real_work() {
        // Both view depths must emit candidates every iteration (a zero
        // checksum would mean the view came up empty), and each op must
        // pay a probe pass: the view kernel moves the DRAM mutation
        // counter once per op. The checksums *matching* across depths
        // is fine — depth 256 only queues conflicts behind each bank's
        // row hit, which the open-page rule holds back, so both depths
        // produce the same candidate set. The select kernel must pick
        // every iteration and the engine kernel must advance the clock.
        let r = run_all(8, 1);
        let find = |name: &str| r.iter().find(|x| x.name == name).unwrap();
        let (d8, d256) = (
            find("sched_build_view_depth8"),
            find("sched_build_view_depth256"),
        );
        assert_eq!(d8.ops, 8);
        assert_eq!(d256.ops, 8);
        assert_ne!(d8.checksum, 0);
        assert_ne!(d256.checksum, 0);
        assert_ne!(find("sched_select").checksum, 0);
        assert_ne!(find("simloop_step").checksum, 0);

        let mut dram = dram_with_open_rows();
        let mut queue = queue_of(256, &dram);
        let mut view = IssueView::default();
        let before = dram.mutations();
        dram.channel_mut(0);
        assert_ne!(dram.mutations(), before, "channel_mut must invalidate");
        queue.build_view(&dram, Cycle::new(1_000), ViewMode::Frontier, &mut view);
        assert_eq!(view.ready.len(), 8, "one row-hit head per bank");
        assert_eq!(view.row_hits, 8);
    }
}
