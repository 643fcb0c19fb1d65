//! Flat struct-of-arrays storage for per-bank protocol state.
//!
//! [`BankStates`] holds the open row, the per-command timing deadlines,
//! and the activate counters of every bank in a rank as parallel arrays
//! indexed by bank id. The hot controller queries (`row_buffer_outcome`,
//! `ready_at`) walk contiguous memory instead of chasing one heap object
//! per bank, and rank-wide predicates (`all_closed`, the refresh gate)
//! reduce over a single cache line's worth of deadlines.
//!
//! This is the one place the per-bank transition logic lives: a
//! [`crate::Rank`] walks it on the hot path, and a single-bank state
//! machine is simply `BankStates::new(1)`.

use crate::error::{IssueError, IssueErrorReason};
use crate::{Command, Cycle, RowBufferOutcome, TimingParams};

/// Result of successfully issuing a command to a bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IssueOutcome {
    /// For column commands, the cycle at which the data burst completes.
    pub data_ready: Option<Cycle>,
    /// Row-buffer classification for `Activate` (miss/conflict is decided
    /// by the caller since a conflict requires an explicit precharge first).
    pub outcome: Option<RowBufferOutcome>,
}

/// Sentinel for "no row open". Row indices come from decoded physical
/// addresses and are bounded by `rows_per_bank`, so `u64::MAX` is never a
/// real row.
const NO_ROW: u64 = u64::MAX;

/// Per-bank protocol state for a whole rank, stored struct-of-arrays.
///
/// Each array is indexed by the flat bank id within the rank. All
/// methods taking a `bank` index panic if it is out of range, exactly as
/// indexing a per-bank `Vec` would.
///
/// # Examples
///
/// ```
/// use ia_dram::{BankStates, Command, Cycle, DramConfig};
/// let t = DramConfig::ddr3_1600().timing;
/// let mut bank = BankStates::new(1);
/// bank.issue(0, Command::Activate { row: 7 }, Cycle::ZERO, &t)?;
/// let rd_at = bank.ready_at(0, &Command::Read { column: 0 });
/// let out = bank.issue(0, Command::Read { column: 0 }, rd_at, &t)?;
/// assert!(out.data_ready.expect("read returns data") > rd_at);
/// # Ok::<(), ia_dram::IssueError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankStates {
    /// Open row per bank (`NO_ROW` = closed).
    open_row: Vec<u64>,
    /// Earliest legal activate (doubles as the refresh gate).
    next_act: Vec<Cycle>,
    /// Earliest legal precharge.
    next_pre: Vec<Cycle>,
    /// Earliest legal column command.
    next_col: Vec<Cycle>,
    /// Lifetime activate count per bank (RowHammer accounting).
    activations: Vec<u64>,
    /// Number of banks with an open row, kept in sync so rank-wide
    /// refresh eligibility is O(1) instead of a scan.
    open_banks: usize,
}

impl BankStates {
    /// Creates state for `banks` freshly powered-up banks: idle,
    /// everything legal at cycle zero.
    #[must_use]
    pub fn new(banks: usize) -> Self {
        BankStates {
            open_row: vec![NO_ROW; banks],
            next_act: vec![Cycle::ZERO; banks],
            next_pre: vec![Cycle::ZERO; banks],
            next_col: vec![Cycle::ZERO; banks],
            activations: vec![0; banks],
            open_banks: 0,
        }
    }

    /// Number of banks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.open_row.len()
    }

    /// True if there are no banks (degenerate but well-defined).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.open_row.is_empty()
    }

    /// The currently open row of `bank`, if any.
    #[must_use]
    pub fn open_row(&self, bank: usize) -> Option<u64> {
        let row = self.open_row[bank];
        (row != NO_ROW).then_some(row)
    }

    /// Lifetime activate count of `bank`.
    #[must_use]
    pub fn activations(&self, bank: usize) -> u64 {
        self.activations[bank]
    }

    /// Per-bank lifetime activate counts, in bank order.
    #[must_use]
    pub fn activation_counts(&self) -> Vec<u64> {
        self.activations.clone()
    }

    /// True if no bank has an open row.
    #[must_use]
    pub fn all_closed(&self) -> bool {
        self.open_banks == 0
    }

    /// Classifies a prospective access to `row` of `bank` against the
    /// row buffer.
    #[must_use]
    pub fn row_buffer_outcome(&self, bank: usize, row: u64) -> RowBufferOutcome {
        match self.open_row[bank] {
            open if open == row => RowBufferOutcome::Hit,
            NO_ROW => RowBufferOutcome::Miss,
            _ => RowBufferOutcome::Conflict,
        }
    }

    /// Earliest cycle at which `cmd` satisfies `bank`'s local timing
    /// (rank/channel constraints are layered on top by the callers).
    #[must_use]
    pub fn ready_at(&self, bank: usize, cmd: &Command) -> Cycle {
        match cmd {
            Command::Activate { .. } | Command::Refresh => self.next_act[bank],
            Command::Precharge => self.next_pre[bank],
            Command::Read { .. } | Command::Write { .. } => self.next_col[bank],
        }
    }

    /// All three bank-local command gates of `bank` in one indexed
    /// load: `(activate, precharge, column)`.
    #[must_use]
    pub fn command_gates(&self, bank: usize) -> (Cycle, Cycle, Cycle) {
        (
            self.next_act[bank],
            self.next_pre[bank],
            self.next_col[bank],
        )
    }

    /// The latest per-bank refresh gate: no rank refresh may issue
    /// before every bank is past its activate window.
    #[must_use]
    pub fn refresh_gate(&self) -> Cycle {
        self.next_act
            .iter()
            .copied()
            .fold(Cycle::ZERO, |acc, t| acc.max(t))
    }

    /// True if `cmd` is legal on `bank` at `now` with respect to
    /// bank-local state and timing.
    #[must_use]
    pub fn can_issue(&self, bank: usize, cmd: &Command, now: Cycle) -> bool {
        self.check(bank, cmd, now).is_ok()
    }

    pub(crate) fn check(
        &self,
        bank: usize,
        cmd: &Command,
        now: Cycle,
    ) -> Result<(), IssueErrorReason> {
        match cmd {
            Command::Activate { .. } => {
                if self.open_row[bank] != NO_ROW {
                    return Err(IssueErrorReason::BankAlreadyOpen);
                }
                if now < self.next_act[bank] {
                    return Err(IssueErrorReason::TooEarly(self.next_act[bank]));
                }
            }
            Command::Precharge => {
                if self.open_row[bank] == NO_ROW {
                    return Err(IssueErrorReason::BankClosed);
                }
                if now < self.next_pre[bank] {
                    return Err(IssueErrorReason::TooEarly(self.next_pre[bank]));
                }
            }
            Command::Read { .. } | Command::Write { .. } => {
                if self.open_row[bank] == NO_ROW {
                    return Err(IssueErrorReason::BankClosed);
                }
                if now < self.next_col[bank] {
                    return Err(IssueErrorReason::TooEarly(self.next_col[bank]));
                }
            }
            Command::Refresh => {
                if self.open_row[bank] != NO_ROW {
                    return Err(IssueErrorReason::RankNotIdle);
                }
                if now < self.next_act[bank] {
                    return Err(IssueErrorReason::TooEarly(self.next_act[bank]));
                }
            }
        }
        Ok(())
    }

    /// Issues `cmd` to `bank` at `now`, updating state and timing
    /// windows.
    ///
    /// # Errors
    ///
    /// Returns [`IssueError`] if the command violates the protocol
    /// (wrong bank state) or any bank-local timing constraint.
    pub fn issue(
        &mut self,
        bank: usize,
        cmd: Command,
        now: Cycle,
        timing: &TimingParams,
    ) -> Result<IssueOutcome, IssueError> {
        if let Err(reason) = self.check(bank, &cmd, now) {
            return Err(IssueError::new(cmd, now, reason));
        }
        match cmd {
            Command::Activate { row } => {
                let outcome = self.row_buffer_outcome(bank, row);
                self.open_row[bank] = row;
                self.open_banks += 1;
                self.activations[bank] += 1;
                self.next_col[bank] = now + timing.t_rcd;
                self.next_pre[bank] = now + timing.t_ras;
                self.next_act[bank] = now + timing.t_rc();
                Ok(IssueOutcome {
                    data_ready: None,
                    outcome: Some(outcome),
                })
            }
            Command::Precharge => {
                self.open_row[bank] = NO_ROW;
                self.open_banks -= 1;
                self.next_act[bank] = self.next_act[bank].max(now + timing.t_rp);
                Ok(IssueOutcome {
                    data_ready: None,
                    outcome: None,
                })
            }
            Command::Read { .. } => {
                let data_ready = now + timing.t_cl + timing.t_bl;
                self.next_col[bank] = now + timing.t_ccd;
                self.next_pre[bank] = self.next_pre[bank].max(now + timing.t_rtp);
                Ok(IssueOutcome {
                    data_ready: Some(data_ready),
                    outcome: None,
                })
            }
            Command::Write { .. } => {
                let data_end = now + timing.t_cwl + timing.t_bl;
                self.next_col[bank] = now + timing.t_ccd;
                self.next_pre[bank] = self.next_pre[bank].max(data_end + timing.t_wr);
                Ok(IssueOutcome {
                    data_ready: Some(data_end),
                    outcome: None,
                })
            }
            Command::Refresh => {
                // Refresh is rank-scoped; at the bank level it simply
                // blocks the bank for tRFC.
                self.next_act[bank] = now + timing.t_rfc;
                Ok(IssueOutcome {
                    data_ready: None,
                    outcome: None,
                })
            }
        }
    }

    /// Forces every bank closed and blocks activates until `until` (the
    /// rank applies this while a rank-wide refresh is in flight).
    pub(crate) fn block_all_until(&mut self, until: Cycle) {
        for row in &mut self.open_row {
            *row = NO_ROW;
        }
        self.open_banks = 0;
        for t in &mut self.next_act {
            *t = (*t).max(until);
        }
    }

    /// Forces one bank closed and blocks its activates until `until`.
    #[cfg(test)]
    pub(crate) fn block_until(&mut self, bank: usize, until: Cycle) {
        if self.open_row[bank] != NO_ROW {
            self.open_row[bank] = NO_ROW;
            self.open_banks -= 1;
        }
        self.next_act[bank] = self.next_act[bank].max(until);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DramConfig;

    fn t() -> TimingParams {
        DramConfig::ddr3_1600().timing
    }

    #[test]
    fn open_count_tracks_transitions() {
        let timing = t();
        let mut s = BankStates::new(4);
        assert!(s.all_closed());
        s.issue(0, Command::Activate { row: 1 }, Cycle::ZERO, &timing)
            .unwrap();
        s.issue(2, Command::Activate { row: 5 }, Cycle::ZERO, &timing)
            .unwrap();
        assert!(!s.all_closed());
        assert_eq!(s.open_row(0), Some(1));
        assert_eq!(s.open_row(1), None);
        let pre = s.ready_at(0, &Command::Precharge);
        s.issue(0, Command::Precharge, pre, &timing).unwrap();
        assert!(!s.all_closed());
        s.block_all_until(Cycle::new(10_000));
        assert!(s.all_closed());
        assert_eq!(
            s.ready_at(2, &Command::Activate { row: 0 }),
            Cycle::new(10_000)
        );
    }

    #[test]
    fn refresh_gate_is_max_over_banks() {
        let timing = t();
        let mut s = BankStates::new(2);
        s.issue(1, Command::Activate { row: 0 }, Cycle::new(7), &timing)
            .unwrap();
        assert_eq!(s.refresh_gate(), Cycle::new(7 + timing.t_rc()));
    }

    #[test]
    fn fresh_bank_is_idle() {
        let bank = BankStates::new(1);
        assert_eq!(bank.open_row(0), None);
        assert_eq!(bank.activations(0), 0);
        assert_eq!(bank.row_buffer_outcome(0, 0), RowBufferOutcome::Miss);
    }

    #[test]
    fn activate_then_read_respects_trcd() {
        let timing = t();
        let mut bank = BankStates::new(1);
        bank.issue(0, Command::Activate { row: 1 }, Cycle::ZERO, &timing)
            .unwrap();
        assert_eq!(bank.open_row(0), Some(1));
        // Read too early must fail with the correct ready time.
        let err = bank
            .issue(
                0,
                Command::Read { column: 0 },
                Cycle::new(timing.t_rcd - 1),
                &timing,
            )
            .unwrap_err();
        assert_eq!(err.ready_at(), Some(Cycle::new(timing.t_rcd)));
        // Read exactly at tRCD succeeds.
        let out = bank
            .issue(
                0,
                Command::Read { column: 0 },
                Cycle::new(timing.t_rcd),
                &timing,
            )
            .unwrap();
        assert_eq!(
            out.data_ready,
            Some(Cycle::new(timing.t_rcd + timing.t_cl + timing.t_bl))
        );
    }

    #[test]
    fn precharge_respects_tras() {
        let timing = t();
        let mut bank = BankStates::new(1);
        bank.issue(0, Command::Activate { row: 1 }, Cycle::ZERO, &timing)
            .unwrap();
        assert!(!bank.can_issue(0, &Command::Precharge, Cycle::new(timing.t_ras - 1)));
        assert!(bank.can_issue(0, &Command::Precharge, Cycle::new(timing.t_ras)));
        bank.issue(0, Command::Precharge, Cycle::new(timing.t_ras), &timing)
            .unwrap();
        assert_eq!(bank.open_row(0), None);
        // Next activate gated by tRP after the precharge.
        assert_eq!(
            bank.ready_at(0, &Command::Activate { row: 2 }),
            Cycle::new(timing.t_ras + timing.t_rp)
        );
    }

    #[test]
    fn write_recovery_delays_precharge() {
        let timing = t();
        let mut bank = BankStates::new(1);
        bank.issue(0, Command::Activate { row: 1 }, Cycle::ZERO, &timing)
            .unwrap();
        let wr_at = Cycle::new(timing.t_rcd);
        bank.issue(0, Command::Write { column: 0 }, wr_at, &timing)
            .unwrap();
        let expected_pre = wr_at + timing.t_cwl + timing.t_bl + timing.t_wr;
        assert_eq!(
            bank.ready_at(0, &Command::Precharge),
            expected_pre.max(Cycle::new(timing.t_ras))
        );
    }

    #[test]
    fn double_activate_is_rejected() {
        let timing = t();
        let mut bank = BankStates::new(1);
        bank.issue(0, Command::Activate { row: 1 }, Cycle::ZERO, &timing)
            .unwrap();
        let err = bank
            .issue(0, Command::Activate { row: 2 }, Cycle::new(1000), &timing)
            .unwrap_err();
        assert_eq!(err.reason(), IssueErrorReason::BankAlreadyOpen);
    }

    #[test]
    fn column_to_closed_bank_is_rejected() {
        let timing = t();
        let mut bank = BankStates::new(1);
        let err = bank
            .issue(0, Command::Read { column: 0 }, Cycle::ZERO, &timing)
            .unwrap_err();
        assert_eq!(err.reason(), IssueErrorReason::BankClosed);
    }

    #[test]
    fn row_buffer_outcomes() {
        let timing = t();
        let mut bank = BankStates::new(1);
        assert_eq!(bank.row_buffer_outcome(0, 5), RowBufferOutcome::Miss);
        bank.issue(0, Command::Activate { row: 5 }, Cycle::ZERO, &timing)
            .unwrap();
        assert_eq!(bank.row_buffer_outcome(0, 5), RowBufferOutcome::Hit);
        assert_eq!(bank.row_buffer_outcome(0, 6), RowBufferOutcome::Conflict);
    }

    #[test]
    fn activation_counter_increments() {
        let timing = t();
        let mut bank = BankStates::new(1);
        for i in 0..3u64 {
            let act_at = bank.ready_at(0, &Command::Activate { row: i });
            bank.issue(0, Command::Activate { row: i }, act_at, &timing)
                .unwrap();
            let pre_at = bank.ready_at(0, &Command::Precharge);
            bank.issue(0, Command::Precharge, pre_at, &timing).unwrap();
        }
        assert_eq!(bank.activations(0), 3);
    }

    #[test]
    fn consecutive_reads_respect_tccd() {
        let timing = t();
        let mut bank = BankStates::new(1);
        bank.issue(0, Command::Activate { row: 0 }, Cycle::ZERO, &timing)
            .unwrap();
        let first = Cycle::new(timing.t_rcd);
        bank.issue(0, Command::Read { column: 0 }, first, &timing)
            .unwrap();
        assert!(!bank.can_issue(0, &Command::Read { column: 1 }, first + (timing.t_ccd - 1)));
        assert!(bank.can_issue(0, &Command::Read { column: 1 }, first + timing.t_ccd));
    }

    #[test]
    fn same_bank_act_to_act_is_trc() {
        let timing = t();
        let mut bank = BankStates::new(1);
        bank.issue(0, Command::Activate { row: 0 }, Cycle::ZERO, &timing)
            .unwrap();
        bank.issue(0, Command::Precharge, Cycle::new(timing.t_ras), &timing)
            .unwrap();
        // tRC = tRAS + tRP must be enforced even with the early precharge.
        assert_eq!(
            bank.ready_at(0, &Command::Activate { row: 1 }),
            Cycle::new(timing.t_rc())
        );
    }

    #[test]
    fn block_until_closes_and_blocks() {
        let timing = t();
        let mut bank = BankStates::new(1);
        bank.issue(0, Command::Activate { row: 0 }, Cycle::ZERO, &timing)
            .unwrap();
        bank.block_until(0, Cycle::new(50_000));
        assert_eq!(bank.open_row(0), None);
        assert!(bank.all_closed());
        assert_eq!(
            bank.ready_at(0, &Command::Activate { row: 1 }),
            Cycle::new(50_000)
        );
    }
}
