//! # ia-telemetry — workspace-wide metrics, tracing, and report emission
//!
//! The paper's *data-driven* principle says a system should observe its
//! own behaviour and feed those observations back into control decisions.
//! This crate is the observation substrate for the whole workspace:
//!
//! * [`Registry`] — named, hierarchically-scoped instruments
//!   ([`Counter`], [`Gauge`], log2 [`Histogram`] with p50/p95/p99), plain
//!   `u64`/`f64` cells with handle-based access: no atomics, no hashing,
//!   no allocation after registration.
//! * [`Snapshot`] — epoch captures with [`Snapshot::delta`] /
//!   [`Snapshot::merge`], so per-interval rates (row-hit rate per 100k
//!   cycles, requests per epoch) can be observed the same way the RL
//!   memory controller observes its state.
//! * [`TraceBuffer`] — a bounded ring buffer with drop counting that
//!   backs `ia-trace`'s event ring; the disabled path is one branch and
//!   never allocates.
//! * [`JsonValue`] / [`csv`] — hand-rolled machine-readable emitters
//!   (and a JSON parser for round-trip verification); the build is
//!   offline, so serde is unavailable by design.
//!
//! Stats structs across the workspace implement [`MetricSource`] to
//! publish themselves into a registry scope; `ia_bench::report` turns a
//! registry snapshot plus experiment-specific metrics into the
//! `--json` / `--csv` artifacts every experiment binary emits.
//!
//! ## Example
//!
//! ```
//! use ia_telemetry::{MetricSource, Registry, Scope};
//!
//! struct MyStats { hits: u64, misses: u64 }
//!
//! impl MetricSource for MyStats {
//!     fn export_into(&self, scope: &mut Scope<'_>) {
//!         scope.set_counter("hits", self.hits);
//!         scope.set_counter("misses", self.misses);
//!         scope.set_gauge("hit_rate", self.hits as f64 / (self.hits + self.misses) as f64);
//!     }
//! }
//!
//! let mut reg = Registry::new();
//! reg.collect("cache.l1", &MyStats { hits: 90, misses: 10 });
//! let snap = reg.snapshot(1000);
//! assert_eq!(snap.counter("cache.l1.hits"), Some(90));
//! assert!(snap.to_json().render().contains("\"cache.l1.hit_rate\":0.9"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod csv;
mod instrument;
mod json;
mod registry;
mod snapshot;
mod trace;

pub use instrument::{Counter, Gauge, Histogram, HISTOGRAM_BUCKETS};
pub use json::{JsonError, JsonValue};
pub use registry::{CounterId, GaugeId, HistogramId, MetricSource, MetricValue, Registry, Scope};
pub use snapshot::{metric_json, Snapshot};
pub use trace::TraceBuffer;
