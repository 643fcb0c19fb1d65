//! Wall-clock benchmarks of the simulator's hot kernels: the DRAM command
//! path, the Ambit engine, BDI compression, scheduler selection, the
//! near-memory graph step, SECDED coding and NoC simulation. (The
//! prefetch demand path is benched by ia-microbench.)
//!
//! Hand-rolled harness (`harness = false`): the build is offline, so
//! criterion is unavailable. Each kernel is timed over enough iterations
//! to exceed a minimum measurement window, and the per-iteration mean is
//! printed in ns. Pass a substring argument to run a subset:
//! `cargo bench --bench kernels -- dram`.

use std::hint::black_box;
use std::time::Instant;

use ia_cache::bdi_compress;
use ia_dram::{AccessKind, Cycle, DramConfig, DramModule, PhysAddr};
use ia_memctrl::{run_closed_loop, FrFcfs, MemRequest, RlScheduler, RlSchedulerConfig};
use ia_noc::{simulate, MeshConfig, RouterKind, Traffic};
use ia_pnm::{PnmGraphEngine, StackConfig};
use ia_pum::{AmbitEngine, BitwiseOp};
use ia_reliability::{decode, encode};
use ia_workloads::Graph;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Times `f` until at least 200 ms have elapsed (after a warm-up pass)
/// and prints the mean per-iteration cost.
fn bench(filter: &str, name: &str, mut f: impl FnMut()) {
    if !name.contains(filter) {
        return;
    }
    // Warm-up.
    for _ in 0..3 {
        f();
    }
    let mut iters = 0u64;
    let start = Instant::now();
    loop {
        f();
        iters += 1;
        if start.elapsed().as_millis() >= 200 {
            break;
        }
    }
    let per = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<32} {per:>14.1} ns/iter  ({iters} iters)");
}

fn main() {
    let filter = std::env::args().nth(1).unwrap_or_default();
    let filter = filter.as_str();

    bench(filter, "dram/open_page_access", {
        let mut dram = DramModule::new(DramConfig::ddr3_1600()).expect("valid");
        let mut now = Cycle::ZERO;
        let mut addr = 0u64;
        move || {
            let r = dram
                .access(PhysAddr::new(addr), AccessKind::Read, now)
                .expect("access");
            now = r.data_ready;
            addr = addr.wrapping_add(64) % (1 << 30);
            black_box(r.data_ready);
        }
    });

    bench(filter, "ambit/and_row", {
        let mut engine = AmbitEngine::new(&DramConfig::ddr3_1600());
        let w = engine.row_words();
        engine
            .write_row(0, vec![0xAAAA_5555_AAAA_5555; w])
            .expect("row");
        engine
            .write_row(1, vec![0x1234_5678_9ABC_DEF0; w])
            .expect("row");
        move || {
            engine.execute(BitwiseOp::And, 2, 0, Some(1)).expect("and");
            black_box(engine.read_row(2).expect("result")[0]);
        }
    });

    bench(filter, "bdi/compress_pointer_block", {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut block = [0u8; 64];
        for i in 0..8 {
            let ptr = 0x7FFF_0000_0000u64 + rng.gen_range(0..4096u64);
            block[i * 8..][..8].copy_from_slice(&ptr.to_le_bytes());
        }
        move || {
            black_box(bdi_compress(&block).expect("64B"));
        }
    });

    let traces: Vec<Vec<MemRequest>> = (0..4)
        .map(|t| {
            (0..200u64)
                .map(|i| MemRequest::read(((t as u64) << 26) | (i * 64), t))
                .collect()
        })
        .collect();
    bench(filter, "scheduler/frfcfs_800_reqs", {
        let traces = traces.clone();
        move || {
            let r = run_closed_loop(
                DramConfig::ddr3_1600(),
                Box::new(FrFcfs::new()),
                &traces,
                8,
                100_000_000,
            )
            .expect("run");
            black_box(r.cycles);
        }
    });
    bench(filter, "scheduler/rl_800_reqs", {
        move || {
            let r = run_closed_loop(
                DramConfig::ddr3_1600(),
                Box::new(RlScheduler::new(RlSchedulerConfig::default())),
                &traces,
                8,
                100_000_000,
            )
            .expect("run");
            black_box(r.cycles);
        }
    });

    bench(filter, "pnm_graph/pagerank_iteration", {
        let mut rng = SmallRng::seed_from_u64(2);
        let g = Graph::rmat(1024, 16 * 1024, &mut rng).expect("valid");
        move || {
            let engine = PnmGraphEngine::new(StackConfig::hmc_like(), &g).expect("valid");
            black_box(engine.pagerank(0.85, 1).1.total_ns);
        }
    });

    bench(filter, "ecc/secded_encode_decode", {
        let mut x = 0x0123_4567_89AB_CDEFu64;
        move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(decode(encode(x)));
        }
    });

    bench(filter, "noc/bufferless_1k_cycles", {
        let mesh = MeshConfig::new(8, 8).expect("valid mesh");
        let mut seed = 0u64;
        move || {
            seed += 1;
            black_box(
                simulate(
                    RouterKind::BufferlessDeflection,
                    mesh,
                    Traffic::UniformRandom,
                    0.1,
                    1000,
                    seed,
                )
                .expect("valid run")
                .delivered,
            );
        }
    });
}
