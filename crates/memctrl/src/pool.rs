//! Slab-backed request pool with per-bank indexed ready lists.
//!
//! [`RequestQueue`] replaces the controller's flat `Vec<Pending>` — and
//! with it the O(queue-depth) scan every scheduler used to run every
//! cycle. Requests live in a slab (stable [`ReqId`] handles, free-list
//! reuse, no per-request allocation in steady state) and are threaded
//! onto intrusive doubly-linked lists:
//!
//! * one **global list** ordered by `(arrival, id, seq)` — the FCFS
//!   order, whose head is the oldest request, with the slab sequence
//!   number `seq` breaking ties exactly as the issue requires;
//! * per-bank **class lists** (`flat_bank` × {hit-read, hit-write,
//!   other-read, other-write}), each in the same order.
//!
//! Each occupied bank also caches one [`DramModule::bank_gates`] probe:
//! its open row and every command gate. "Hit" is classified against the
//! cached open row. The cache is **keyed by the DRAM mutation counter**
//! ([`DramModule::mutations`]): when the counter differs from the one
//! the cache was filled at, one probe pass (`RequestQueue::probe`)
//! re-reads every occupied bank and rebuckets the banks whose open row
//! changed. No caller has to report what it changed. Views and the
//! wake-up bound ([`RequestQueue::next_issuable`]) read only the cache.
//! Within a bank, every member of a class needs the same next command,
//! and DRAM timing depends only on (channel, rank, bank, command kind),
//! so a class is issuable as a whole and its head is the exact
//! `(arrival, id)` minimum. That is what makes the **frontier** view
//! ([`ViewMode::Frontier`]) — class-list heads only — bit-identical to
//! the legacy full scan for every policy whose sort key is constant
//! within a class (FR-FCFS and all RL actions), at O(banks) instead of
//! O(queue-depth) per decision.

use ia_dram::{BankGates, Cycle, DramModule, Location};

use crate::request::Pending;

/// Sentinel link ("null pointer") in the intrusive lists.
const NONE: u32 = u32::MAX;
/// Cache key of a queue that has never probed: no DRAM module counts
/// that many mutations.
const NEVER_PROBED: u64 = u64::MAX;

const HIT_READ: usize = 0;
const HIT_WRITE: usize = 1;
const OTHER_READ: usize = 2;
const OTHER_WRITE: usize = 3;

/// Stable handle to a queued request (a slab slot index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqId(u32);

impl ReqId {
    /// The raw slab index (diagnostics only — slots are reused).
    #[must_use]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// How much of a view a scheduler needs per decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewMode {
    /// No view at all: the policy issues only the global head (FCFS), so
    /// it reads the list head directly and its wake-up bound is the
    /// head's [`DramModule::next_ready_for`].
    Skip,
    /// Class-list heads only — exact for policies whose key is constant
    /// within a (bank, class): FR-FCFS, all RL actions.
    Frontier,
    /// Every issuable request — required by thread-keyed policies
    /// (PAR-BS, ATLAS, TCM, BLISS) whose key varies within a class.
    Full,
}

/// Per-cycle scheduling facts, computed from the indexed lists by
/// [`RequestQueue::build_view`] — the successor of the linear-scan
/// [`crate::scheduler::linear_issue_view`] (kept as the differential
/// oracle).
#[derive(Debug, Clone, Default)]
pub struct IssueView {
    /// Issuable candidates under the open-page rule, each with its
    /// row-hit flag. In [`ViewMode::Frontier`] these are class heads; in
    /// [`ViewMode::Full`] the complete issuable set.
    pub ready: Vec<(ReqId, bool)>,
    /// Number of queued requests (issuable or not) whose next command is
    /// a column command — the occupancy signal RL-class policies use.
    pub row_hits: usize,
}

impl IssueView {
    /// Empties the view (keeps capacity).
    pub fn clear(&mut self) {
        self.ready.clear();
        self.row_hits = 0;
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    p: Pending,
    /// Slab sequence number: monotone per insertion, the final ordering
    /// tie-break.
    seq: u64,
    /// Dense bank key (`Location::flat_bank`) the slot is bucketed under.
    bank: u32,
    /// Class-list index (`HIT_READ`… ), meaningless when free.
    class: u8,
    live: bool,
    g_prev: u32,
    g_next: u32,
    b_prev: u32,
    b_next: u32,
}

#[derive(Debug, Clone, Copy)]
struct BankLists {
    head: [u32; 4],
    tail: [u32; 4],
    len: [u32; 4],
    /// The bank's last probe: its open row (which the bucketing
    /// assumes) and every command gate. Meaningful only while the bank
    /// is occupied.
    gates: BankGates,
    /// Where to probe: the coordinates of the request that made the
    /// bank occupied (gates ignore row and column).
    loc: Location,
    /// Position in `occupied`, `NONE` when the bank holds no requests.
    pos: u32,
}

impl BankLists {
    const EMPTY: BankLists = BankLists {
        head: [NONE; 4],
        tail: [NONE; 4],
        len: [0; 4],
        gates: BankGates {
            open_row: None,
            read: Cycle::ZERO,
            write: Cycle::ZERO,
            activate: Cycle::ZERO,
            precharge: Cycle::ZERO,
        },
        loc: Location {
            channel: 0,
            rank: 0,
            bank_group: 0,
            bank: 0,
            subarray: 0,
            row: 0,
            column: 0,
        },
        pos: NONE,
    };

    fn members(&self) -> u32 {
        self.len.iter().sum()
    }

    fn hits(&self) -> u32 {
        self.len[HIT_READ] + self.len[HIT_WRITE]
    }

    /// True when the open-page rule holds the bank's activate/precharge
    /// classes back: a bank with queued row hits is never closed just
    /// because its next burst is a few cycles away.
    fn others_blocked(&self) -> bool {
        self.gates.open_row.is_some() && self.hits() > 0
    }

    /// The gate the bank's activate/precharge classes wait on.
    fn other_gate(&self) -> Cycle {
        if self.gates.open_row.is_some() {
            self.gates.precharge
        } else {
            self.gates.activate
        }
    }

    /// Earliest cycle at which [`RequestQueue::build_view`] emits a
    /// candidate from this occupied bank, under the cached gates. An
    /// occupied bank always has one: its hit classes when it has row
    /// hits, else its activate/precharge classes.
    fn wake(&self) -> Cycle {
        let mut at = Cycle::new(u64::MAX);
        if self.len[HIT_READ] > 0 {
            at = at.min(self.gates.read);
        }
        if self.len[HIT_WRITE] > 0 {
            at = at.min(self.gates.write);
        }
        if (self.len[OTHER_READ] > 0 || self.len[OTHER_WRITE] > 0) && !self.others_blocked() {
            at = at.min(self.other_gate());
        }
        at
    }
}

/// The class a request of `row` and kind `read` belongs to when the
/// bank's open row is `open`.
fn class_of(open: Option<u64>, row: u64, read: bool) -> usize {
    match (open == Some(row), read) {
        (true, true) => HIT_READ,
        (true, false) => HIT_WRITE,
        (false, true) => OTHER_READ,
        (false, false) => OTHER_WRITE,
    }
}

/// The indexed request queue. See the module docs for the design.
#[derive(Debug, Clone)]
pub struct RequestQueue {
    slots: Vec<Slot>,
    free_head: u32,
    g_head: u32,
    g_tail: u32,
    len: usize,
    /// Queued write requests (O(1) for the RL state vector).
    writes: usize,
    /// Queued requests with the PAR-BS batch mark set.
    batched: usize,
    next_seq: u64,
    banks: Vec<BankLists>,
    /// Dense list of bank keys holding at least one request.
    occupied: Vec<u32>,
    /// Each occupied bank's wake cycle ([`BankLists::wake`]), parallel
    /// to `occupied`: the wake-up bound is their minimum, and a view
    /// build skips every bank still asleep.
    wake: Vec<Cycle>,
    /// Queued requests classified as row hits (the view's `row_hits`).
    row_hits: usize,
    /// [`DramModule::mutations`] value the gate cache was filled at.
    probed: u64,
}

impl Default for RequestQueue {
    fn default() -> Self {
        RequestQueue::new()
    }
}

impl RequestQueue {
    /// Creates an empty queue. Bank tables grow on demand from the
    /// requests' decoded coordinates.
    #[must_use]
    pub fn new() -> Self {
        RequestQueue {
            slots: Vec::new(),
            free_head: NONE,
            g_head: NONE,
            g_tail: NONE,
            len: 0,
            writes: 0,
            batched: 0,
            next_seq: 0,
            banks: Vec::new(),
            occupied: Vec::new(),
            wake: Vec::new(),
            row_hits: 0,
            probed: NEVER_PROBED,
        }
    }

    /// Number of queued requests.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of queued write requests.
    #[must_use]
    pub fn writes(&self) -> usize {
        self.writes
    }

    /// True when no queued request carries the PAR-BS batch mark.
    #[must_use]
    pub fn all_unbatched(&self) -> bool {
        self.batched == 0
    }

    /// The oldest request by `(arrival, id, seq)` — the FCFS choice.
    #[must_use]
    pub fn head(&self) -> Option<ReqId> {
        (self.g_head != NONE).then_some(ReqId(self.g_head))
    }

    /// The request behind `id`, if it is still queued.
    #[must_use]
    pub fn get(&self, id: ReqId) -> Option<&Pending> {
        self.slots
            .get(id.0 as usize)
            .filter(|s| s.live)
            .map(|s| &s.p)
    }

    /// The request behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale (the request was removed).
    #[must_use]
    pub fn req(&self, id: ReqId) -> &Pending {
        let s = &self.slots[id.0 as usize];
        assert!(s.live, "stale ReqId");
        &s.p
    }

    /// Iterates the queue in global `(arrival, id, seq)` order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            q: self,
            cur: self.g_head,
        }
    }

    fn order_key(&self, slot: u32) -> (Cycle, u64, u64) {
        let s = &self.slots[slot as usize];
        (s.p.arrival, s.p.request.id, s.seq)
    }

    /// Inserts `p`, classifying it against the bank's cached open row; a
    /// newly occupied bank is probed first. Amortized O(1): the ordered
    /// insertions walk backward from the tails, and arrivals/ids are
    /// monotone in normal operation.
    pub fn insert(&mut self, p: Pending, dram: &DramModule) -> ReqId {
        let bank = p.loc.flat_bank(&dram.config().geometry) as u32;
        if bank as usize >= self.banks.len() {
            self.banks.resize(bank as usize + 1, BankLists::EMPTY);
        }
        if self.banks[bank as usize].pos == NONE {
            let b = &mut self.banks[bank as usize];
            b.gates = dram.bank_gates(&p.loc);
            b.loc = p.loc;
            b.pos = self.occupied.len() as u32;
            self.occupied.push(bank);
            self.wake.push(Cycle::ZERO);
        }
        let read = p.request.kind.is_read();
        let class = class_of(self.banks[bank as usize].gates.open_row, p.loc.row, read);

        let slot = if self.free_head != NONE {
            let s = self.free_head;
            self.free_head = self.slots[s as usize].g_next;
            s
        } else {
            self.slots.push(Slot {
                p,
                seq: 0,
                bank: 0,
                class: 0,
                live: false,
                g_prev: NONE,
                g_next: NONE,
                b_prev: NONE,
                b_next: NONE,
            });
            (self.slots.len() - 1) as u32
        };
        {
            let s = &mut self.slots[slot as usize];
            s.p = p;
            s.seq = self.next_seq;
            s.bank = bank;
            s.class = class as u8;
            s.live = true;
        }
        self.next_seq += 1;
        self.len += 1;
        if !read {
            self.writes += 1;
        }
        if p.batched {
            self.batched += 1;
        }
        self.link_global(slot);
        self.link_bank(slot, bank, class);
        self.rewake(bank);
        ReqId(slot)
    }

    /// Removes and returns the request behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is stale.
    pub fn remove(&mut self, id: ReqId) -> Pending {
        let slot = id.0;
        let s = self.slots[slot as usize];
        assert!(s.live, "stale ReqId");
        self.unlink_global(slot);
        self.unlink_bank(slot, s.bank, s.class as usize);
        if self.banks[s.bank as usize].members() == 0 {
            let pos = self.banks[s.bank as usize].pos;
            self.banks[s.bank as usize].pos = NONE;
            self.occupied.swap_remove(pos as usize);
            self.wake.swap_remove(pos as usize);
            if (pos as usize) < self.occupied.len() {
                let moved = self.occupied[pos as usize];
                self.banks[moved as usize].pos = pos;
            }
        } else {
            self.rewake(s.bank);
        }
        let st = &mut self.slots[slot as usize];
        st.live = false;
        st.g_next = self.free_head;
        self.free_head = slot;
        self.len -= 1;
        if !s.p.request.kind.is_read() {
            self.writes -= 1;
        }
        if s.p.batched {
            self.batched -= 1;
        }
        s.p
    }

    /// Marks that the controller issued the first command for `id`.
    pub fn set_started(&mut self, id: ReqId) {
        let s = &mut self.slots[id.0 as usize];
        assert!(s.live, "stale ReqId");
        s.p.started = true;
    }

    /// Walks the queue in global order, setting the PAR-BS batch mark on
    /// every request for which `mark` returns true. Only unmarked
    /// requests are offered.
    pub fn mark_batch(&mut self, mut mark: impl FnMut(&Pending) -> bool) {
        let mut cur = self.g_head;
        while cur != NONE {
            let s = &mut self.slots[cur as usize];
            if !s.p.batched && mark(&s.p) {
                s.p.batched = true;
                self.batched += 1;
            }
            cur = s.g_next;
        }
    }

    fn link_global(&mut self, slot: u32) {
        let key = self.order_key(slot);
        // Walk backward from the tail: arrivals and ids are normally
        // monotone, so this is O(1) in steady state.
        let mut after = self.g_tail;
        while after != NONE && self.order_key(after) > key {
            after = self.slots[after as usize].g_prev;
        }
        let next = if after == NONE {
            self.g_head
        } else {
            self.slots[after as usize].g_next
        };
        self.slots[slot as usize].g_prev = after;
        self.slots[slot as usize].g_next = next;
        if after == NONE {
            self.g_head = slot;
        } else {
            self.slots[after as usize].g_next = slot;
        }
        if next == NONE {
            self.g_tail = slot;
        } else {
            self.slots[next as usize].g_prev = slot;
        }
    }

    fn unlink_global(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.g_prev, s.g_next)
        };
        if prev == NONE {
            self.g_head = next;
        } else {
            self.slots[prev as usize].g_next = next;
        }
        if next == NONE {
            self.g_tail = prev;
        } else {
            self.slots[next as usize].g_prev = prev;
        }
    }

    fn link_bank(&mut self, slot: u32, bank: u32, class: usize) {
        let key = self.order_key(slot);
        let b = &self.banks[bank as usize];
        let mut after = b.tail[class];
        while after != NONE && self.order_key(after) > key {
            after = self.slots[after as usize].b_prev;
        }
        let next = if after == NONE {
            self.banks[bank as usize].head[class]
        } else {
            self.slots[after as usize].b_next
        };
        self.slots[slot as usize].b_prev = after;
        self.slots[slot as usize].b_next = next;
        if after == NONE {
            self.banks[bank as usize].head[class] = slot;
        } else {
            self.slots[after as usize].b_next = slot;
        }
        if next == NONE {
            self.banks[bank as usize].tail[class] = slot;
        } else {
            self.slots[next as usize].b_prev = slot;
        }
        self.banks[bank as usize].len[class] += 1;
        if class == HIT_READ || class == HIT_WRITE {
            self.row_hits += 1;
        }
    }

    fn unlink_bank(&mut self, slot: u32, bank: u32, class: usize) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.b_prev, s.b_next)
        };
        if prev == NONE {
            self.banks[bank as usize].head[class] = next;
        } else {
            self.slots[prev as usize].b_next = next;
        }
        if next == NONE {
            self.banks[bank as usize].tail[class] = prev;
        } else {
            self.slots[next as usize].b_prev = prev;
        }
        self.banks[bank as usize].len[class] -= 1;
        if class == HIT_READ || class == HIT_WRITE {
            self.row_hits -= 1;
        }
    }

    /// Recomputes `bank`'s entry in `wake` from its cached gates.
    fn rewake(&mut self, bank: u32) {
        let b = &self.banks[bank as usize];
        self.wake[b.pos as usize] = b.wake();
    }

    /// Rebuckets every member of `bank` against its cached open row.
    /// Called only when a probe finds the open row changed, so the cost
    /// is O(bank members) per actual bank-state change. A request's kind
    /// never changes, so each kind's hit and other lists — both already
    /// in `(arrival, id, seq)` order — are merged and re-split; appending
    /// in merged order keeps every list ordered without a sort.
    fn rebucket(&mut self, bank: u32) {
        let open = self.banks[bank as usize].gates.open_row;
        for (hit, other, read) in [
            (HIT_READ, OTHER_READ, true),
            (HIT_WRITE, OTHER_WRITE, false),
        ] {
            let b = &mut self.banks[bank as usize];
            let (mut x, mut y) = (b.head[hit], b.head[other]);
            self.row_hits -= b.len[hit] as usize;
            for class in [hit, other] {
                b.head[class] = NONE;
                b.tail[class] = NONE;
                b.len[class] = 0;
            }
            while x != NONE || y != NONE {
                let take_x = y == NONE || (x != NONE && self.order_key(x) < self.order_key(y));
                let slot = if take_x { x } else { y };
                let next = self.slots[slot as usize].b_next;
                if take_x {
                    x = next;
                } else {
                    y = next;
                }
                let class = class_of(open, self.slots[slot as usize].p.loc.row, read);
                self.slots[slot as usize].class = class as u8;
                // The slot's key exceeds every key already in the target
                // list, so link_bank's backward walk stops at the tail.
                self.link_bank(slot, bank, class);
            }
        }
    }

    /// Fills the gate cache from `dram` unless it is already keyed to
    /// `dram`'s current [`DramModule::mutations`] value: one
    /// [`DramModule::bank_gates`] probe per occupied bank, a rebucket of
    /// each bank whose open row changed, and the bank's new wake cycle.
    /// The controller runs it after every command or refresh.
    pub(crate) fn probe(&mut self, dram: &DramModule) {
        let key = dram.mutations();
        if key == self.probed {
            return;
        }
        self.probed = key;
        for idx in 0..self.occupied.len() {
            let bank = self.occupied[idx];
            let b = &mut self.banks[bank as usize];
            let gates = dram.bank_gates(&b.loc);
            let moved = gates.open_row != b.gates.open_row;
            b.gates = gates;
            if moved {
                self.rebucket(bank);
            }
            self.wake[idx] = self.banks[bank as usize].wake();
        }
    }

    /// Builds the per-cycle [`IssueView`] into `out` (a reused scratch).
    ///
    /// Probes first if the gate cache is not keyed to `dram`'s current
    /// mutation counter, then walks only the occupied banks whose wake
    /// cycle has come: per bank at most three cached-gate comparisons
    /// (hit-read, hit-write, and one shared gate for the
    /// activate/precharge classes) decide the issuability of whole
    /// classes at once. The open-page rule — never precharge a bank that
    /// still has queued row hits — is the bank's own hit-list emptiness,
    /// O(1).
    pub fn build_view(
        &mut self,
        dram: &DramModule,
        now: Cycle,
        mode: ViewMode,
        out: &mut IssueView,
    ) {
        out.clear();
        if mode == ViewMode::Skip {
            return;
        }
        self.probe(dram);
        debug_assert!(
            self.occupied.iter().zip(&self.wake).all(|(&bank, &wake)| {
                let b = &self.banks[bank as usize];
                b.gates == dram.bank_gates(&b.loc) && wake == b.wake()
            }),
            "gate cache is stale: DRAM state changed without a mutation-counter bump"
        );
        out.row_hits = self.row_hits;
        for (&bank, &wake) in self.occupied.iter().zip(&self.wake) {
            if wake > now {
                continue;
            }
            let b = &self.banks[bank as usize];
            if b.len[HIT_READ] > 0 && b.gates.read <= now {
                self.emit(out, mode, b.head[HIT_READ], true);
            }
            if b.len[HIT_WRITE] > 0 && b.gates.write <= now {
                self.emit(out, mode, b.head[HIT_WRITE], true);
            }
            if (b.len[OTHER_READ] > 0 || b.len[OTHER_WRITE] > 0)
                && !b.others_blocked()
                && b.other_gate() <= now
            {
                if b.len[OTHER_READ] > 0 {
                    self.emit(out, mode, b.head[OTHER_READ], false);
                }
                if b.len[OTHER_WRITE] > 0 {
                    self.emit(out, mode, b.head[OTHER_WRITE], false);
                }
            }
        }
    }

    /// Earliest cycle at which a policy reading views of `mode` can issue
    /// a command, or `None` when the queue is empty.
    ///
    /// For [`ViewMode::Skip`] that is the global head's
    /// [`DramModule::next_ready_for`]. Otherwise it is the first cycle at
    /// which [`RequestQueue::build_view`] emits a candidate — every
    /// class gate folded under the open-page rule, so a bank held open by
    /// its row hits contributes no precharge gate. It is the minimum of
    /// the occupied banks' cached wake cycles, so it is exact while the
    /// gate cache is keyed to `dram` (after a view build or probe pass
    /// against it); a stale cache answers [`Cycle::ZERO`], which a caller
    /// clamping to its clock reads as "now".
    #[must_use]
    pub fn next_issuable(&self, dram: &DramModule, mode: ViewMode) -> Option<Cycle> {
        let head = self.head()?;
        if mode == ViewMode::Skip {
            let p = self.req(head);
            return Some(dram.next_ready_for(&p.loc, p.request.kind));
        }
        if self.probed != dram.mutations() {
            return Some(Cycle::ZERO);
        }
        self.wake.iter().min().copied()
    }

    fn emit(&self, out: &mut IssueView, mode: ViewMode, head: u32, hit: bool) {
        match mode {
            ViewMode::Skip => {}
            ViewMode::Frontier => out.ready.push((ReqId(head), hit)),
            ViewMode::Full => {
                let mut cur = head;
                while cur != NONE {
                    out.ready.push((ReqId(cur), hit));
                    cur = self.slots[cur as usize].b_next;
                }
            }
        }
    }
}

/// Iterator over the queue in global order (see [`RequestQueue::iter`]).
#[derive(Debug)]
pub struct Iter<'a> {
    q: &'a RequestQueue,
    cur: u32,
}

impl<'a> Iterator for Iter<'a> {
    type Item = (ReqId, &'a Pending);

    fn next(&mut self) -> Option<Self::Item> {
        if self.cur == NONE {
            return None;
        }
        let id = ReqId(self.cur);
        let s = &self.q.slots[self.cur as usize];
        self.cur = s.g_next;
        Some((id, &s.p))
    }
}

impl<'a> IntoIterator for &'a RequestQueue {
    type Item = (ReqId, &'a Pending);
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}
