// path: crates/bench/src/bin/experiment.rs
// S002: experiment binary with its own ad-hoc CLI.
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let ctx = ia_bench::report::RunContext { quick, threads: 1 };
    println!("{:?}", ia_bench::exp99_fake::report(&ctx));
}
