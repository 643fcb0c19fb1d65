//! Differential property test: the indexed per-(bank, class) ready
//! lists against the legacy linear scan.
//!
//! Drives a [`RequestQueue`] and a [`DramModule`] through random
//! enqueue / issue / cancel / direct-channel-command interleavings and
//! checks, at every step, that the indexed [`RequestQueue::build_view`]
//! agrees with the retired linear scan (kept as [`linear_issue_view`],
//! the differential oracle) — same candidate set, same row-hit count,
//! and the same pick from every scheduler policy — and that the cached
//! [`RequestQueue::next_issuable`] wake-up bound equals an independent
//! per-request fold under the same open-page rule.

use ia_dram::{Command, Cycle, DramConfig, DramModule, PhysAddr};
use ia_memctrl::scheduler::{is_row_hit, linear_issue_view};
use ia_memctrl::{
    Atlas, Bliss, Fcfs, FrFcfs, IssueView, MemRequest, ParBs, Pending, ReqId, RequestQueue,
    RlScheduler, RlSchedulerConfig, Scheduler, Tcm, ViewMode,
};
use proptest::prelude::*;

const THREADS: usize = 4;

fn schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(Fcfs::new()),
        Box::new(FrFcfs::new()),
        Box::new(ParBs::new(THREADS)),
        Box::new(Atlas::new(THREADS, 10_000)),
        Box::new(Tcm::new(THREADS, 10_000, 1_000)),
        Box::new(Bliss::new()),
        Box::new(RlScheduler::new(RlSchedulerConfig::default())),
    ]
}

fn pending(
    dram: &DramModule,
    id: u64,
    addr: u64,
    write: bool,
    thread: usize,
    now: Cycle,
) -> Pending {
    let request = if write {
        MemRequest {
            id,
            ..MemRequest::write(addr, thread)
        }
    } else {
        MemRequest {
            id,
            ..MemRequest::read(addr, thread)
        }
    };
    Pending {
        loc: dram.decode(PhysAddr::new(addr)),
        request,
        arrival: now,
        batched: false,
        started: false,
    }
}

/// Snapshot of the queue in iteration order, for the linear oracle.
fn flatten(queue: &RequestQueue) -> (Vec<ReqId>, Vec<Pending>) {
    queue.iter().map(|(id, p)| (id, *p)).unzip()
}

/// The candidate set as `(request id, row-hit)` pairs, order-erased.
fn as_set(view: &IssueView, queue: &RequestQueue) -> Vec<(u64, bool)> {
    let mut v: Vec<(u64, bool)> = view
        .ready
        .iter()
        .map(|&(h, hit)| (queue.req(h).request.id, hit))
        .collect();
    v.sort_unstable();
    v
}

/// The wake-up bound the linear oracle implies: the earliest cycle at
/// which any queued request's next command is legal, leaving out
/// row-closing precharges to banks with queued row hits — the
/// open-page rule, applied as [`linear_issue_view`] applies it.
fn linear_wake_bound(pendings: &[Pending], dram: &DramModule) -> Option<Cycle> {
    let geo = &dram.config().geometry;
    let hit_banks: Vec<usize> = pendings
        .iter()
        .filter(|p| is_row_hit(p, dram))
        .map(|p| p.loc.flat_bank(geo))
        .collect();
    pendings
        .iter()
        .filter_map(|p| {
            let cmd = dram.next_needed(&p.loc, p.request.kind);
            let held_open = cmd == Command::Precharge && hit_banks.contains(&p.loc.flat_bank(geo));
            (!held_open).then(|| dram.ready_at(&p.loc, &cmd))
        })
        .min()
}

/// One differential step: indexed view vs linear oracle on the current
/// queue and DRAM state.
fn check_step(queue: &mut RequestQueue, dram: &DramModule, now: Cycle) {
    let (ids, pendings) = flatten(queue);
    let oracle = linear_issue_view(&pendings, dram, now);
    let reference = IssueView {
        ready: oracle.ready.iter().map(|&(i, hit)| (ids[i], hit)).collect(),
        row_hits: oracle.row_hits,
    };

    let mut full = IssueView::default();
    queue.build_view(dram, now, ViewMode::Full, &mut full);
    prop_assert_eq!(
        as_set(&full, queue),
        as_set(&reference, queue),
        "candidate sets diverge at {:?}",
        now
    );
    prop_assert_eq!(full.row_hits, reference.row_hits, "row-hit counts diverge");

    // build_view just keyed the gate cache to this DRAM state, so the
    // cached wake-up bound must be exact here — and the view must hold a
    // candidate at that cycle.
    let bound = linear_wake_bound(&pendings, dram);
    for mode in [ViewMode::Frontier, ViewMode::Full] {
        prop_assert_eq!(
            queue.next_issuable(dram, mode),
            bound,
            "cached wake-up bound diverges from the per-request fold ({:?})",
            mode
        );
    }
    if let Some(at) = bound {
        let mut woken = IssueView::default();
        queue.build_view(dram, at.max(now), ViewMode::Full, &mut woken);
        prop_assert!(!woken.ready.is_empty(), "no candidate at the wake-up bound");
    }
    prop_assert_eq!(
        queue.next_issuable(dram, ViewMode::Skip),
        pendings
            .first()
            .map(|p| dram.next_ready_for(&p.loc, p.request.kind)),
        "Skip bound is not the head's next command"
    );

    // Every policy must pick identically from its own (possibly
    // frontier-only) indexed view and from the oracle's full view. The
    // pair starts from identical state, so stateful policies (and the
    // RL scheduler's RNG) stay in lockstep for the single select.
    for sched in schedulers() {
        let name = sched.name();
        let mut indexed_side = sched.clone_box();
        let mut oracle_side = sched;
        let mut view = IssueView::default();
        queue.build_view(dram, now, indexed_side.view_mode(), &mut view);
        let indexed_pick = indexed_side.select(queue, &view);
        let oracle_pick = oracle_side.select(queue, &reference);
        prop_assert_eq!(
            indexed_pick.map(|h| queue.req(h).request.id),
            oracle_pick.map(|h| queue.req(h).request.id),
            "{} picks diverge at {:?}",
            name,
            now
        );
    }
}

proptest! {
    // Every case replays the full differential check (7 policies) at
    // every step of the interleaving, so keep the case count modest.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random enqueue/issue/cancel/channel-command interleavings: the
    /// indexed queue and the linear oracle agree on the candidate set,
    /// the wake-up bound, and every scheduler's pick at every step.
    #[test]
    fn indexed_queue_matches_linear_scan_under_interleavings(
        ops in prop::collection::vec(
            (0u64..(1 << 22), any::<bool>(), 0usize..THREADS, 0u8..4, 0u8..12),
            1..50,
        ),
    ) {
        let mut dram = DramModule::new(DramConfig::ddr3_1600()).unwrap();
        let mut queue = RequestQueue::new();
        let mut now = Cycle::ZERO;
        let mut next_id = 1u64;

        for &(addr, write, thread, op, gap) in &ops {
            let addr = addr & !63;
            match op {
                // Enqueue (half the ops): a fresh request lands.
                0 | 1 => {
                    let p = pending(&dram, next_id, addr, write, thread, now);
                    next_id += 1;
                    queue.insert(p, &dram);
                }
                // Issue: serve FR-FCFS's pick, mutating bank state the
                // way a real command stream does.
                2 => {
                    let mut view = IssueView::default();
                    queue.build_view(&dram, now, ViewMode::Frontier, &mut view);
                    if let Some(id) = FrFcfs::new().select(&queue, &view) {
                        let p = queue.remove(id);
                        dram.access(p.request.addr, p.request.kind, now)
                            .unwrap();
                    }
                }
                // A command issued straight through `channel_mut`, the way
                // processing-using-memory sequences drive the banks:
                // close the addressed bank if it is open, else open it.
                // Only the DRAM mutation counter tells the queue.
                3 => {
                    let loc = dram.decode(PhysAddr::new(addr));
                    let cmd = if dram.bank_gates(&loc).open_row.is_some() {
                        Command::Precharge
                    } else {
                        Command::Activate { row: loc.row }
                    };
                    let at = dram.ready_at(&loc, &cmd).max(now);
                    let timing = dram.config().timing;
                    let bank = loc.bank_group * dram.config().geometry.banks_per_group + loc.bank;
                    dram.channel_mut(loc.channel)
                        .issue(loc.rank, bank, cmd, at, &timing)
                        .unwrap();
                }
                // Cancel: drop an arbitrary queued request.
                _ => {
                    let (ids, _) = flatten(&queue);
                    if !ids.is_empty() {
                        queue.remove(ids[gap as usize % ids.len()]);
                    }
                }
            }
            now += u64::from(gap);
            check_step(&mut queue, &dram, now);
        }
    }
}
