// path: crates/bench/src/bin/experiment.rs
// OK: the binary routes through the shared CLI, which looks its name up in the registry.
fn main() {
    ia_bench::report::cli(env!("CARGO_BIN_NAME"));
}
