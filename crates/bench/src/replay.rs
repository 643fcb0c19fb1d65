//! The bench record/replay session: the CLI's `--record-trace` /
//! `--replay-trace` plumbing.
//!
//! Workload generation is intercepted at the mix-construction sites
//! ([`crate::mixes::interference_mix`], exp24's fault workload), which
//! all run **serially, before any parallel fan-out** — so recording and
//! replaying are deterministic at every `--threads` setting, and the
//! replayed run's canonical report is byte-identical to the generated
//! run's. The default path costs one uncontended lock per workload
//! construction.
//!
//! One session file can hold several workloads (an experiment may build
//! more than one): each [`intercept`] call is a *segment*, tagged via
//! the trace records' `at` field. On replay, segments are handed back in
//! call order; if the experiment asks for more segments than the file
//! holds (or the file came from a different experiment), the session
//! falls back to generating — the workload seed makes that equivalent —
//! and says so on stderr.

use std::sync::{Mutex, MutexGuard, PoisonError};

use ia_memctrl::MemRequest;
use ia_tracefmt::{TraceError, TraceReader, TraceWriter};

/// One workload: a request list per thread.
type Workload = Vec<Vec<MemRequest>>;

static SESSION: Mutex<Session> = Mutex::new(Session::Off);

enum Session {
    Off,
    /// Segments captured so far, with the generator seed of the first.
    Record {
        recorded: Vec<Workload>,
        first_seed: u64,
    },
    /// Decoded segments and the next one to hand out.
    Replay {
        segments: Vec<Workload>,
        next: usize,
    },
}

fn session() -> MutexGuard<'static, Session> {
    SESSION.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms record mode: every subsequent [`intercept`] captures its
/// workload. Seal with [`finish_record`].
pub fn start_record() {
    *session() = Session::Record {
        recorded: Vec::new(),
        first_seed: 0,
    };
}

/// Loads `path` and arms replay mode: subsequent [`intercept`] calls
/// return the file's segments instead of generating.
///
/// # Errors
///
/// Any [`TraceError`] from decoding the artifact.
pub fn start_replay(path: &str) -> Result<(), TraceError> {
    let reader = TraceReader::from_path(path)?;
    // Split the flat record list into segments on the `at` tag (see
    // module docs), preserving file order within each.
    let mut segments: Vec<Workload> = Vec::new();
    let mut current: Vec<ia_tracefmt::TraceRecord> = Vec::new();
    let mut current_at: Option<u64> = None;
    for rec in reader.records() {
        if current_at.is_some_and(|at| at != rec.at) {
            segments.push(ia_memctrl::workload_from_records(&current));
            current.clear();
        }
        current_at = Some(rec.at);
        current.push(*rec);
    }
    if !current.is_empty() {
        segments.push(ia_memctrl::workload_from_records(&current));
    }
    *session() = Session::Replay { segments, next: 0 };
    ia_memctrl::set_replay_context(ia_memctrl::ReplayContext {
        trace_path: Some(path.to_owned()),
        fault_seed: None,
    });
    Ok(())
}

/// The interception point, called by every workload-construction site:
/// returns `make()` when the session is off or recording (capturing a
/// copy in the latter case), or the next recorded segment when
/// replaying. `make` runs with the session unlocked.
pub fn intercept(seed: u64, make: impl FnOnce() -> Workload) -> Workload {
    let mut s = session();
    match &mut *s {
        Session::Off => {
            drop(s);
            make()
        }
        Session::Record { .. } => {
            drop(s);
            let workload = make();
            if let Session::Record {
                recorded,
                first_seed,
            } = &mut *session()
            {
                if recorded.is_empty() {
                    *first_seed = seed;
                }
                recorded.push(workload.clone());
            }
            workload
        }
        Session::Replay { segments, next } => {
            if let Some(segment) = segments.get(*next) {
                let segment = segment.clone();
                *next += 1;
                return segment;
            }
            drop(s);
            eprintln!(
                "warning: replay trace has no segment for this workload \
                 (seed {seed:#x}); generating instead"
            );
            make()
        }
    }
}

/// Seals a record session into the artifact at `path` and disarms the
/// session. The file's header seed is the first captured workload's
/// generator seed.
///
/// # Errors
///
/// [`TraceError::Io`] if the file cannot be written.
pub fn finish_record(path: &str) -> Result<(), TraceError> {
    let (recorded, first_seed) = match std::mem::replace(&mut *session(), Session::Off) {
        Session::Record {
            recorded,
            first_seed,
        } => (recorded, first_seed),
        Session::Off | Session::Replay { .. } => (Vec::new(), 0),
    };
    let mut w = TraceWriter::new(first_seed);
    for (i, segment) in recorded.iter().enumerate() {
        ia_memctrl::record_workload(segment, i as u64, &mut w);
    }
    w.write_to_path(path)
}
