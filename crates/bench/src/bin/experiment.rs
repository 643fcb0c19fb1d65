//! The experiment binaries. Each `expNN_*` binary is a `[[bin]]` name
//! for this one file in `crates/bench/Cargo.toml`; the name selects the
//! experiment from `ia_bench::EXPERIMENTS`.
//!
//! Prints the report as text; `--quick` shrinks the run, `--threads <n>`
//! sets the parallel-sweep worker count (`1` = the exact serial path),
//! and `--json <path>` / `--csv <path>` write the machine-readable
//! report (see `ia_bench::report::cli` for every flag).

fn main() {
    ia_bench::report::cli(env!("CARGO_BIN_NAME"));
}
