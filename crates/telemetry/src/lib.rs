//! # ia-telemetry — the trace ring and the report emitters
//!
//! Two zero-dependency building blocks the rest of the workspace shares:
//!
//! * [`TraceBuffer`] — a bounded ring buffer with drop counting that
//!   backs `ia-trace`'s event ring; the disabled path is one branch and
//!   never allocates.
//! * [`JsonValue`] / [`csv`] — hand-rolled machine-readable emitters
//!   (and a JSON parser for round-trip verification); the build is
//!   offline, so serde is unavailable by design. `ia_bench::report`
//!   renders every experiment's `--json` / `--csv` artifact with them,
//!   and `ia-microbench` writes its results the same way.
//!
//! ## Example
//!
//! ```
//! use ia_telemetry::{csv, JsonValue};
//!
//! let doc = JsonValue::obj(vec![("hits", JsonValue::Num(90.0))]);
//! assert_eq!(doc.render(), "{\"hits\":90}");
//! assert_eq!(JsonValue::parse(&doc.render()).unwrap(), doc);
//!
//! let table = csv::render(&["name".to_owned()], &[vec!["a,b".to_owned()]]);
//! assert_eq!(table, "name\n\"a,b\"\n");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod csv;
mod json;
mod trace;

pub use json::{JsonError, JsonValue};
pub use trace::TraceBuffer;
