//! Smoke tests for the experiment registry: every registered
//! experiment's quick report must render as text under its title. The
//! quantitative shape assertions live in each experiment module's own
//! tests; these guard the binary entry points, which print exactly this
//! text.

use ia_bench::report::RunContext;
use ia_bench::EXPERIMENTS;

/// Renders the registered experiment whose binary name starts with
/// `prefix` and checks the text carries its title, its params and at
/// least one table.
fn renders(prefix: &str) {
    let experiment = EXPERIMENTS
        .iter()
        .find(|e| e.bin.starts_with(prefix))
        .unwrap_or_else(|| panic!("no experiment registered as `{prefix}*`"));
    let rep = (experiment.report)(&RunContext {
        quick: true,
        threads: 2,
    });
    assert!(
        !rep.metrics.is_empty() || !rep.rows.is_empty(),
        "{}: empty report",
        experiment.bin
    );
    let out = rep.to_text(experiment.title);
    assert!(out.starts_with(experiment.title), "missing title:\n{out}");
    assert!(out.contains("params: quick=true"), "missing params:\n{out}");
    assert!(out.lines().count() >= 5, "table too short:\n{out}");
}

/// One named test per registry entry, so a failure names its experiment.
macro_rules! smoke {
    ($($name:ident => $prefix:literal),* $(,)?) => {
        $(
            #[test]
            fn $name() {
                renders($prefix);
            }
        )*

        /// Every registry entry has a smoke test above, and no test names
        /// an unregistered experiment.
        #[test]
        fn every_registered_experiment_has_a_smoke_test() {
            let prefixes = [$($prefix),*];
            assert_eq!(prefixes.len(), EXPERIMENTS.len());
            for (experiment, prefix) in EXPERIMENTS.iter().zip(prefixes) {
                assert!(experiment.bin.starts_with(prefix), "{} vs {prefix}", experiment.bin);
            }
        }
    };
}

smoke! {
    e01_renders => "exp01_",
    e02_renders => "exp02_",
    e03_renders => "exp03_",
    e04_renders => "exp04_",
    e05_renders => "exp05_",
    e06_renders => "exp06_",
    e07_renders => "exp07_",
    e08_renders => "exp08_",
    e09_renders => "exp09_",
    e10_renders => "exp10_",
    e11_renders => "exp11_",
    e12_renders => "exp12_",
    e13_renders => "exp13_",
    e14_renders => "exp14_",
    e15_renders => "exp15_",
    e16_renders => "exp16_",
    e17_renders => "exp17_",
    e18_renders => "exp18_",
    e19_renders => "exp19_",
    e20_renders => "exp20_",
    e21_renders => "exp21_",
    e22_renders => "exp22_",
    e23_renders => "exp23_",
    e24_renders => "exp24_",
}
