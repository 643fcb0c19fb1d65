//! Rank-level constraints: activate throttling (tRRD, tFAW) and refresh.

use crate::error::{IssueError, IssueErrorReason};
use crate::flat::BankStates;
use crate::{Command, Cycle, IssueOutcome, TimingParams};

/// Fixed-size ring of the most recent activate issue times, sized to the
/// tFAW window (four activates). Replaces an unbounded `VecDeque`: the
/// gate only ever needs the oldest of the last four activates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ActWindow {
    slots: [Cycle; 4],
    total: u64,
}

impl ActWindow {
    fn new() -> Self {
        ActWindow {
            slots: [Cycle::ZERO; 4],
            total: 0,
        }
    }

    fn push(&mut self, now: Cycle) {
        self.slots[(self.total % 4) as usize] = now;
        self.total += 1;
    }

    /// With 4 activates inside the window, the next is legal tFAW after
    /// the oldest of the last 4.
    fn gate(&self, timing: &TimingParams) -> Cycle {
        if self.total >= 4 {
            self.slots[(self.total % 4) as usize] + timing.t_faw
        } else {
            Cycle::ZERO
        }
    }
}

/// A rank: a set of banks sharing activate-rate limits and refresh.
///
/// Bank state is stored struct-of-arrays (see [`BankStates`]) so the
/// controller's per-cycle timing queries walk contiguous memory.
///
/// # Examples
///
/// ```
/// use ia_dram::{Command, Cycle, DramConfig, Rank};
/// let cfg = DramConfig::ddr3_1600();
/// let mut rank = Rank::new(cfg.geometry.banks_per_rank());
/// rank.issue(0, Command::Activate { row: 1 }, Cycle::ZERO, &cfg.timing)?;
/// // A second activate to another bank must wait tRRD.
/// assert!(!rank.can_issue(1, &Command::Activate { row: 1 }, Cycle::ZERO, &cfg.timing));
/// # Ok::<(), ia_dram::IssueError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Rank {
    banks: BankStates,
    /// Issue times of recent activates (the tFAW window).
    recent_acts: ActWindow,
    /// Earliest next activate due to tRRD.
    next_act_rrd: Cycle,
    /// Rank busy (refreshing) until this cycle.
    refresh_until: Cycle,
    refreshes: u64,
}

impl Rank {
    /// Creates a rank with `banks` idle banks.
    #[must_use]
    pub fn new(banks: usize) -> Self {
        Rank {
            banks: BankStates::new(banks),
            recent_acts: ActWindow::new(),
            next_act_rrd: Cycle::ZERO,
            refresh_until: Cycle::ZERO,
            refreshes: 0,
        }
    }

    /// Number of banks in the rank.
    #[must_use]
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// The flat per-bank state store.
    #[must_use]
    pub fn bank_states(&self) -> &BankStates {
        &self.banks
    }

    /// The open row in `bank`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn open_row(&self, bank: usize) -> Option<u64> {
        self.banks.open_row(bank)
    }

    /// Row-buffer classification of a prospective access to `row` of
    /// `bank`.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    #[must_use]
    pub fn row_buffer_outcome(&self, bank: usize, row: u64) -> crate::RowBufferOutcome {
        self.banks.row_buffer_outcome(bank, row)
    }

    /// Lifetime refresh command count.
    #[must_use]
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// True if no bank has an open row.
    #[must_use]
    pub fn all_banks_closed(&self) -> bool {
        self.banks.all_closed()
    }

    /// The cycle until which the whole rank is blocked by an in-progress
    /// refresh (`tRFC`). Used as a next-event hint by the simulation
    /// engine: nothing on this rank can issue before it.
    #[must_use]
    pub fn busy_until(&self) -> Cycle {
        self.refresh_until
    }

    /// Earliest cycle at which `cmd` to `bank` satisfies bank + rank timing.
    #[must_use]
    pub fn ready_at(&self, bank: usize, cmd: &Command, timing: &TimingParams) -> Cycle {
        let base = self.banks.ready_at(bank, cmd).max(self.refresh_until);
        match cmd {
            Command::Activate { .. } => base
                .max(self.next_act_rrd)
                .max(self.recent_acts.gate(timing)),
            // Refresh must wait until every bank is past its own gate.
            Command::Refresh => base.max(self.banks.refresh_gate()),
            _ => base,
        }
    }

    /// The open row and all rank-level command gates of `bank` in one
    /// walk: `(open_row, activate, precharge, column)`. Each gate equals
    /// the corresponding [`Rank::ready_at`] — the activate gate folds in
    /// tRRD and the tFAW window, and every gate respects the refresh
    /// blackout.
    #[must_use]
    pub fn bank_gates(
        &self,
        bank: usize,
        timing: &TimingParams,
    ) -> (Option<u64>, Cycle, Cycle, Cycle) {
        let (act, pre, col) = self.banks.command_gates(bank);
        let r = self.refresh_until;
        (
            self.banks.open_row(bank),
            act.max(r)
                .max(self.next_act_rrd)
                .max(self.recent_acts.gate(timing)),
            pre.max(r),
            col.max(r),
        )
    }

    /// True if `cmd` to `bank` is legal at `now`.
    #[must_use]
    pub fn can_issue(&self, bank: usize, cmd: &Command, now: Cycle, timing: &TimingParams) -> bool {
        if now < self.refresh_until {
            return false;
        }
        match cmd {
            Command::Activate { .. } => {
                now >= self.next_act_rrd
                    && now >= self.recent_acts.gate(timing)
                    && self.banks.can_issue(bank, cmd, now)
            }
            Command::Refresh => self.all_banks_closed() && now >= self.ready_at(bank, cmd, timing),
            _ => self.banks.can_issue(bank, cmd, now),
        }
    }

    /// Issues `cmd` to `bank` at `now`.
    ///
    /// A [`Command::Refresh`] is rank-wide: it requires every bank to be
    /// closed and blocks the whole rank for `tRFC`.
    ///
    /// # Errors
    ///
    /// Returns [`IssueError`] on any bank-, rank-, or refresh-level timing
    /// or protocol violation.
    pub fn issue(
        &mut self,
        bank: usize,
        cmd: Command,
        now: Cycle,
        timing: &TimingParams,
    ) -> Result<IssueOutcome, IssueError> {
        if bank >= self.banks.len() {
            return Err(IssueError::new(cmd, now, IssueErrorReason::OutOfRange));
        }
        if now < self.refresh_until {
            return Err(IssueError::new(
                cmd,
                now,
                IssueErrorReason::TooEarly(self.refresh_until),
            ));
        }
        match cmd {
            Command::Activate { .. } => {
                let gate = self.next_act_rrd.max(self.recent_acts.gate(timing));
                if now < gate {
                    return Err(IssueError::new(cmd, now, IssueErrorReason::TooEarly(gate)));
                }
                let out = self.banks.issue(bank, cmd, now, timing)?;
                self.next_act_rrd = now + timing.t_rrd;
                self.recent_acts.push(now);
                Ok(out)
            }
            Command::Refresh => {
                if !self.all_banks_closed() {
                    return Err(IssueError::new(cmd, now, IssueErrorReason::RankNotIdle));
                }
                let ready = self.ready_at(bank, &cmd, timing);
                if now < ready {
                    return Err(IssueError::new(cmd, now, IssueErrorReason::TooEarly(ready)));
                }
                let until = now + timing.t_rfc;
                self.banks.block_all_until(until);
                self.refresh_until = until;
                self.refreshes += 1;
                Ok(IssueOutcome {
                    data_ready: None,
                    outcome: None,
                })
            }
            _ => self.banks.issue(bank, cmd, now, timing),
        }
    }

    /// Per-bank lifetime activate counts (RowHammer accounting).
    #[must_use]
    pub fn activation_counts(&self) -> Vec<u64> {
        self.banks.activation_counts()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramConfig;

    fn timing() -> TimingParams {
        DramConfig::ddr3_1600().timing
    }

    #[test]
    fn trrd_gates_cross_bank_activates() {
        let t = timing();
        let mut rank = Rank::new(8);
        rank.issue(0, Command::Activate { row: 0 }, Cycle::ZERO, &t)
            .unwrap();
        let err = rank
            .issue(1, Command::Activate { row: 0 }, Cycle::new(t.t_rrd - 1), &t)
            .unwrap_err();
        assert_eq!(err.ready_at(), Some(Cycle::new(t.t_rrd)));
        rank.issue(1, Command::Activate { row: 0 }, Cycle::new(t.t_rrd), &t)
            .unwrap();
    }

    #[test]
    fn tfaw_limits_four_activates() {
        let t = timing();
        let mut rank = Rank::new(8);
        let mut now = Cycle::ZERO;
        for b in 0..4 {
            now = rank.ready_at(b, &Command::Activate { row: 0 }, &t);
            rank.issue(b, Command::Activate { row: 0 }, now, &t)
                .unwrap();
        }
        // Fifth activate must wait until tFAW after the first.
        let fifth_ready = rank.ready_at(4, &Command::Activate { row: 0 }, &t);
        assert_eq!(fifth_ready, Cycle::new(t.t_faw));
        assert!(fifth_ready > now, "tFAW stricter than tRRD for DDR3 parts");
    }

    #[test]
    fn tfaw_window_slides_past_the_oldest_activate() {
        let t = timing();
        let mut rank = Rank::new(8);
        for b in 0..6 {
            let at = rank.ready_at(b, &Command::Activate { row: 0 }, &t);
            rank.issue(b, Command::Activate { row: 0 }, at, &t).unwrap();
        }
        // The seventh activate is gated by the fourth-most-recent (index
        // 3), not the very first: the fixed ring must slide.
        let gate = rank.ready_at(6, &Command::Activate { row: 0 }, &t);
        assert!(gate > Cycle::new(t.t_faw), "window must keep sliding");
    }

    #[test]
    fn refresh_requires_closed_banks_and_blocks_rank() {
        let t = timing();
        let mut rank = Rank::new(2);
        rank.issue(0, Command::Activate { row: 0 }, Cycle::ZERO, &t)
            .unwrap();
        let err = rank
            .issue(0, Command::Refresh, Cycle::new(1000), &t)
            .unwrap_err();
        assert_eq!(err.reason(), IssueErrorReason::RankNotIdle);

        rank.issue(0, Command::Precharge, Cycle::new(t.t_ras), &t)
            .unwrap();
        let ref_at = rank.ready_at(0, &Command::Refresh, &t);
        rank.issue(0, Command::Refresh, ref_at, &t).unwrap();
        assert_eq!(rank.refreshes(), 1);
        // The whole rank is blocked for tRFC.
        assert!(!rank.can_issue(1, &Command::Activate { row: 0 }, ref_at + (t.t_rfc - 1), &t));
        assert!(rank.can_issue(1, &Command::Activate { row: 0 }, ref_at + t.t_rfc, &t));
    }

    #[test]
    fn out_of_range_bank_is_reported() {
        let t = timing();
        let mut rank = Rank::new(2);
        let err = rank
            .issue(5, Command::Precharge, Cycle::ZERO, &t)
            .unwrap_err();
        assert_eq!(err.reason(), IssueErrorReason::OutOfRange);
    }

    #[test]
    fn activation_counts_are_per_bank() {
        let t = timing();
        let mut rank = Rank::new(3);
        let at = rank.ready_at(1, &Command::Activate { row: 4 }, &t);
        rank.issue(1, Command::Activate { row: 4 }, at, &t).unwrap();
        assert_eq!(rank.activation_counts(), vec![0, 1, 0]);
        assert_eq!(rank.bank_states().activations(1), 1);
        assert_eq!(rank.open_row(1), Some(4));
        assert_eq!(rank.open_row(0), None);
    }

    #[test]
    fn reads_in_different_banks_are_independent_of_trrd() {
        let t = timing();
        let mut rank = Rank::new(2);
        rank.issue(0, Command::Activate { row: 0 }, Cycle::ZERO, &t)
            .unwrap();
        let act1 = rank.ready_at(1, &Command::Activate { row: 0 }, &t);
        rank.issue(1, Command::Activate { row: 0 }, act1, &t)
            .unwrap();
        let rd0 = rank.ready_at(0, &Command::Read { column: 0 }, &t);
        let rd1 = rank.ready_at(1, &Command::Read { column: 0 }, &t);
        rank.issue(0, Command::Read { column: 0 }, rd0, &t).unwrap();
        rank.issue(1, Command::Read { column: 0 }, rd1, &t).unwrap();
    }
}
