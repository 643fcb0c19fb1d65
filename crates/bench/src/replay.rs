//! The bench record/replay session: the CLI's `--record-trace` /
//! `--replay-trace` plumbing.
//!
//! Workload generation is intercepted at the mix-construction sites
//! ([`crate::mixes::interference_mix`], exp24's fault workload), which
//! all run **serially, before any parallel fan-out** — so recording and
//! replaying are deterministic at every `--threads` setting, and the
//! replayed run's canonical report is byte-identical to the generated
//! run's. The default path costs one relaxed atomic load per workload
//! construction.
//!
//! One session file can hold several workloads (an experiment may build
//! more than one): each [`intercept`] call is a *segment*, tagged via
//! the trace records' `at` field. On replay, segments are handed back in
//! call order; if the experiment asks for more segments than the file
//! holds (or the file came from a different experiment), the session
//! falls back to generating — the workload seed makes that equivalent —
//! and says so on stderr.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, PoisonError};

use ia_memctrl::MemRequest;
use ia_tracefmt::{TraceError, TraceReader, TraceWriter};

const OFF: u8 = 0;
const RECORD: u8 = 1;
const REPLAY: u8 = 2;

static MODE: AtomicU8 = AtomicU8::new(OFF);
static STATE: Mutex<State> = Mutex::new(State::empty());

struct State {
    /// Record mode: segments captured so far, with the seed of the first.
    recorded: Vec<Vec<Vec<MemRequest>>>,
    first_seed: u64,
    /// Replay mode: decoded segments and the next one to hand out.
    segments: Vec<Vec<Vec<MemRequest>>>,
    next: usize,
}

impl State {
    const fn empty() -> Self {
        State {
            recorded: Vec::new(),
            first_seed: 0,
            segments: Vec::new(),
            next: 0,
        }
    }
}

fn state() -> std::sync::MutexGuard<'static, State> {
    STATE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Arms record mode: every subsequent [`intercept`] captures its
/// workload. Seal with [`finish_record`].
pub fn start_record() {
    *state() = State::empty();
    MODE.store(RECORD, Ordering::Release);
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
    let mut segments: Vec<Vec<Vec<MemRequest>>> = Vec::new();
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
    let mut s = state();
    *s = State::empty();
    s.segments = segments;
    MODE.store(REPLAY, Ordering::Release);
    ia_memctrl::set_replay_context(ia_memctrl::ReplayContext {
        trace_path: Some(path.to_owned()),
        fault_seed: None,
    });
    Ok(())
}

/// The interception point, called by every workload-construction site:
/// returns `make()` when the session is off or recording (capturing a
/// copy in the latter case), or the next recorded segment when
/// replaying.
pub fn intercept(seed: u64, make: impl FnOnce() -> Vec<Vec<MemRequest>>) -> Vec<Vec<MemRequest>> {
    match MODE.load(Ordering::Acquire) {
        RECORD => {
            let workload = make();
            let mut s = state();
            if s.recorded.is_empty() {
                s.first_seed = seed;
            }
            s.recorded.push(workload.clone());
            workload
        }
        REPLAY => {
            let mut s = state();
            if let Some(segment) = s.segments.get(s.next) {
                let segment = segment.clone();
                s.next += 1;
                segment
            } else {
                drop(s);
                eprintln!(
                    "warning: replay trace has no segment for this workload \
                     (seed {seed:#x}); generating instead"
                );
                make()
            }
        }
        _ => make(),
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
    MODE.store(OFF, Ordering::Release);
    let s = std::mem::replace(&mut *state(), State::empty());
    let mut w = TraceWriter::new(s.first_seed);
    for (i, segment) in s.recorded.iter().enumerate() {
        ia_memctrl::record_workload(segment, i as u64, &mut w);
    }
    w.write_to_path(path)
}
