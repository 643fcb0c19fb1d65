//! A bounded ring-buffer [`TraceBuffer`] with drop counting: the event
//! ring behind `ia-trace`'s `Tracer`.
//!
//! The disabled path is one branch — no allocation — so a trace point
//! can sit inside the per-cycle hot loop.

/// A fixed-capacity ring buffer of trace events.
///
/// When full, the oldest event is overwritten and the drop counter
/// increments; `capacity` bounds memory forever (allocation happens once,
/// at construction).
///
/// # Examples
///
/// ```
/// use ia_telemetry::TraceBuffer;
/// let mut t = TraceBuffer::new(2);
/// t.push((0u64, "ACT"));
/// t.push((5u64, "RD"));
/// t.push((9u64, "PRE")); // overwrites (0, "ACT")
/// assert_eq!(t.dropped(), 1);
/// assert_eq!(t.iter().map(|e| e.1).collect::<Vec<_>>(), ["RD", "PRE"]);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuffer<T> {
    buf: Vec<T>,
    /// Index of the oldest element once the buffer has wrapped.
    head: usize,
    capacity: usize,
    dropped: u64,
    recorded: u64,
}

impl<T> Default for TraceBuffer<T> {
    fn default() -> Self {
        TraceBuffer::disabled()
    }
}

impl<T> TraceBuffer<T> {
    /// An enabled buffer holding at most `capacity` events.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceBuffer {
            buf: Vec::with_capacity(capacity),
            head: 0,
            capacity,
            dropped: 0,
            recorded: 0,
        }
    }

    /// A disabled, zero-capacity buffer: recording is a single branch and
    /// allocates nothing, ever.
    #[must_use]
    pub fn disabled() -> Self {
        TraceBuffer {
            buf: Vec::new(),
            head: 0,
            capacity: 0,
            dropped: 0,
            recorded: 0,
        }
    }

    /// Whether events are captured (any non-zero capacity). Check this
    /// before building an expensive event.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Records an event (a no-op on a disabled buffer).
    pub fn push(&mut self, event: T) {
        if !self.is_enabled() {
            return;
        }
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
        self.recorded += 1;
    }

    /// Events currently held (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events are held.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum events held at once.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events overwritten because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Total events ever recorded (held + dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Bytes of heap backing the buffer (test hook: the disabled path
    /// must never allocate).
    #[must_use]
    pub fn heap_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Iterates events oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (wrapped, linear) = self.buf.split_at(self.head.min(self.buf.len()));
        linear.iter().chain(wrapped.iter())
    }

    /// Clears held events (drop/record totals are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_newest_and_counts_drops() {
        let mut t = TraceBuffer::new(3);
        for i in 0..7u64 {
            t.push(i);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 4);
        assert_eq!(t.recorded(), 7);
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), vec![4, 5, 6]);
    }

    #[test]
    fn disabled_path_never_allocates() {
        let mut t: TraceBuffer<[u64; 4]> = TraceBuffer::disabled();
        for i in 0..1_000_000u64 {
            t.push([i; 4]);
        }
        assert_eq!(t.heap_capacity(), 0, "disabled buffer must not allocate");
        assert_eq!(t.len(), 0);
        assert_eq!(t.recorded(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn zero_capacity_stays_disabled() {
        let mut t = TraceBuffer::new(0);
        t.push(9u8);
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn iteration_before_wrap_is_in_order() {
        let mut t = TraceBuffer::new(8);
        t.push(1u8);
        t.push(2);
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), vec![1, 2]);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.recorded(), 2);
    }

    #[test]
    fn refill_after_wrap_and_clear_iterates_in_order() {
        let mut t = TraceBuffer::new(3);
        for i in 0..5u64 {
            t.push(i); // wraps: head is mid-buffer
        }
        t.clear();
        assert!(t.is_empty());
        // A refill after clearing a wrapped buffer must start from a
        // reset head, not the stale wrap point.
        for i in 10..15u64 {
            t.push(i);
        }
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), vec![12, 13, 14]);
        assert_eq!(t.recorded(), 10);
        assert_eq!(t.dropped(), 4, "2 before clear + 2 after");
    }

    #[test]
    fn iteration_at_exactly_full_boundary_is_in_order() {
        // Exactly full, head still at 0: the split-at-head iterator must
        // yield all elements once, oldest first, with zero drops.
        let mut t = TraceBuffer::new(4);
        for i in 0..4u64 {
            t.push(i);
        }
        assert_eq!(t.len(), t.capacity());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
        // One more push tips it over: exactly one drop, order preserved.
        t.push(4);
        assert_eq!(t.dropped(), 1);
        assert_eq!(t.iter().copied().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
    }
}
