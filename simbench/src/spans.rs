//! Outside-in spans: the benchmark opens one around each call it makes
//! into a layer, keeps them in memory, and writes them when the run ends.

use std::time::Instant;

/// One timed call. Times are host nanoseconds since the run's origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call, e.g. `memctrl.run`.
    pub name: &'static str,
    /// Job the span belongs to; `u32::MAX` for set-up spans.
    pub job: u32,
    /// Index of the enclosing span in the same log, if any.
    pub parent: Option<u32>,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Job id used for spans recorded outside any job.
pub const SETUP_JOB: u32 = u32::MAX;

/// A span recorder. When disabled it records nothing and reads no clock.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    enabled: bool,
    job: u32,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    /// A recorder whose times are measured from `origin`.
    #[must_use]
    pub fn new(origin: Instant, enabled: bool, job: u32) -> Self {
        SpanLog {
            origin,
            enabled,
            job,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        let idx = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans per log");
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        let idx = self.open.pop().expect("close matches an open");
        self.spans[idx as usize].end_ns = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// The recorded spans, all closed.
    #[must_use]
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span is closed");
        self.spans
    }
}

/// Self time of every span in `spans` (one job's log, parents before
/// children): its duration minus the part of it that its children cover.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p as usize].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, &mut kids))
        .collect()
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

/// True when the self times of one job's spans sum to its root span's
/// duration: children lie inside their parent and do not overlap.
#[must_use]
pub fn partitions(spans: &[Span]) -> bool {
    let mut roots = spans.iter().filter(|s| s.parent.is_none());
    let (Some(root), None) = (roots.next(), roots.next()) else {
        return false;
    };
    self_times(spans).iter().sum::<u64>() == root.dur_ns()
}

/// Writes spans as one JSON object per line.
///
/// # Errors
///
/// Returns the I/O error of creating or writing `path`.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let job = if s.job == SETUP_JOB {
            "null".to_owned()
        } else {
            s.job.to_string()
        };
        writeln!(
            out,
            r#"{{"name":"{}","job":{job},"parent":{parent},"start_ns":{},"end_ns":{}}}"#,
            s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            job: 0,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn nested_children_partition_the_root() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 30, 40]);
        assert!(partitions(&spans));
    }

    #[test]
    fn overlapping_or_escaping_children_break_the_partition() {
        let overlap = [
            span(None, 0, 100),
            span(Some(0), 10, 60),
            span(Some(0), 50, 90),
        ];
        assert!(!partitions(&overlap));
        let escape = [span(None, 0, 100), span(Some(0), 90, 120)];
        assert!(!partitions(&escape));
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(Instant::now(), false, 0);
        assert_eq!(log.time("a", || 7), 7);
        assert!(log.finish().is_empty());
    }
}
