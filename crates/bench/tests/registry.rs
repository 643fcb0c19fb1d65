//! The experiment registry and the crate manifest must agree: every
//! `ia_bench::EXPERIMENTS` entry is built as a binary of the same name
//! (a `[[bin]]` pointing at `src/bin/experiment.rs`), and every such
//! `[[bin]]` names a registered experiment — in the same order.

/// The `name` of every `[[bin]]` in the manifest whose `path` is the
/// shared experiment entry point, in manifest order.
fn experiment_bins(manifest: &str) -> Vec<String> {
    let mut bins = Vec::new();
    for section in manifest.split("[[bin]]").skip(1) {
        let field = |key: &str| {
            section
                .lines()
                .take_while(|l| !l.starts_with('['))
                .find_map(|l| l.strip_prefix(key))
                .map(|v| {
                    v.trim_start_matches([' ', '='])
                        .trim()
                        .trim_matches('"')
                        .to_owned()
                })
        };
        if field("path").as_deref() == Some("src/bin/experiment.rs") {
            bins.push(field("name").unwrap_or_else(|| panic!("[[bin]] without a name")));
        }
    }
    bins
}

#[test]
fn registry_matches_the_manifest_bins() {
    let manifest = include_str!("../Cargo.toml");
    let registered: Vec<&str> = ia_bench::EXPERIMENTS.iter().map(|e| e.bin).collect();
    assert_eq!(experiment_bins(manifest), registered);
}

#[test]
fn registry_is_in_bin_name_order() {
    // `bench_snapshot.sh` concatenates reports in registry order, and
    // BENCH_PR.json has always been sorted by bin name.
    let names: Vec<&str> = ia_bench::EXPERIMENTS.iter().map(|e| e.bin).collect();
    let mut sorted = names.clone();
    sorted.sort_unstable();
    assert_eq!(names, sorted);
}
