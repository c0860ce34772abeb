//! Invariant checkers over [`PipelineSnapshot`]s.
//!
//! Each checker is a pure function from snapshot to violations, wrapped
//! in a [`PipelineAuditor`] so the pipeline can run a uniform suite.
//! The commit-order auditor is the one stateful member: it remembers
//! the previous audit's commit frontier to prove monotonicity.

use crate::snapshot::{MapEntry, PipelineSnapshot, RegClass, RegClassSnapshot};
use crate::violation::Violation;

/// A cycle-level invariant auditor.
///
/// Auditors may keep state across audits (e.g. the commit frontier);
/// `audit` returns every violation found in the given snapshot.
pub trait PipelineAuditor {
    /// Short identifier used in reports.
    fn name(&self) -> &'static str;
    /// Checks the snapshot, returning all violations found.
    fn audit(&mut self, snap: &PipelineSnapshot) -> Vec<Violation>;
}

/// Everything one audit pass found, tagged with the auditor that found
/// it and the cycle it was observed at.
#[derive(Clone, Debug, Default)]
pub struct AuditReport {
    /// `(cycle, auditor name, violation)` triples.
    pub violations: Vec<(u64, &'static str, Violation)>,
}

impl AuditReport {
    /// True when no auditor reported anything.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders every violation, one per line.
    #[must_use]
    pub fn render(&self) -> String {
        self.violations
            .iter()
            .map(|(cycle, who, v)| format!("[cycle {cycle}] {who}: {v}"))
            .collect::<Vec<_>>()
            .join("\n")
    }

    /// One-line summary of the *first* (root-cause) violation plus the
    /// total count — the right shape for a process exit message, where
    /// the full [`AuditReport::render`] dump would drown the cause.
    #[must_use]
    pub fn first_violation_summary(&self) -> Option<String> {
        let (cycle, who, v) = self.violations.first()?;
        let rest = self.violations.len() - 1;
        Some(if rest == 0 {
            format!("[cycle {cycle}] {who}: {v}")
        } else {
            format!("[cycle {cycle}] {who}: {v} (+{rest} more)")
        })
    }
}

/// The standard auditor suite a core runs once `Core::enable_audit`
/// switches auditing on: register conservation, rename-map consistency,
/// occupancy bounds, commit monotonicity and scheduler wakeup
/// consistency.
#[must_use]
pub fn standard_suite() -> Vec<Box<dyn PipelineAuditor>> {
    vec![
        Box::new(RegisterConservation),
        Box::new(RenameConsistency),
        Box::new(OccupancyBounds),
        Box::new(CommitMonotonicity::default()),
        Box::new(SchedulerConsistency),
    ]
}

/// Runs `auditors` over one snapshot, accumulating into `report`.
pub fn run_suite(
    auditors: &mut [Box<dyn PipelineAuditor>],
    snap: &PipelineSnapshot,
    report: &mut AuditReport,
) {
    for a in auditors.iter_mut() {
        for v in a.audit(snap) {
            report.violations.push((snap.cycle, a.name(), v));
        }
    }
}

/// Counts, per physical register of `class`, how many rename-map
/// entries and in-flight destinations name it.
fn count_references(snap: &PipelineSnapshot, class: RegClass, total: u16) -> Vec<u32> {
    let mut counts = vec![0u32; usize::from(total)];
    let mut bump = |e: &MapEntry| {
        if e.class == class {
            if let Some(p) = e.name.reg() {
                if p < total {
                    counts[usize::from(p)] += 1;
                }
            }
        }
    };
    for e in &snap.crat {
        bump(e);
    }
    for rob in &snap.rob {
        for e in &rob.new_names {
            bump(e);
        }
    }
    counts
}

/// Physical-register conservation: the free list, the committed map and
/// the in-flight destinations must exactly partition the allocatable
/// register file — no leaks, no double allocation, and reference counts
/// that match the references that actually exist.
pub struct RegisterConservation;

impl RegisterConservation {
    fn check_class(&self, snap: &PipelineSnapshot, cs: &RegClassSnapshot) -> Vec<Violation> {
        let mut out = Vec::new();
        let total = usize::from(cs.total);
        let mut free = vec![false; total];
        for &p in &cs.free {
            if p < cs.hardwired || usize::from(p) >= total {
                out.push(Violation::FreeListOutOfRange { class: cs.class, preg: p });
                continue;
            }
            if free[usize::from(p)] {
                out.push(Violation::FreeListDuplicate { class: cs.class, preg: p });
            }
            free[usize::from(p)] = true;
        }
        let referenced = count_references(snap, cs.class, cs.total);
        for p in cs.hardwired..cs.total {
            let idx = usize::from(p);
            let rc = cs.ref_counts.get(idx).copied().unwrap_or(0);
            let mapped = referenced[idx];
            if free[idx] {
                if rc != 0 {
                    out.push(Violation::FreedButReferenced {
                        class: cs.class,
                        preg: p,
                        ref_count: rc,
                    });
                }
                if mapped != 0 {
                    out.push(Violation::FreedButMapped { class: cs.class, preg: p, mapped });
                }
            } else {
                if rc == 0 && mapped == 0 {
                    out.push(Violation::LeakedRegister { class: cs.class, preg: p, ref_count: rc });
                }
                if rc != mapped {
                    out.push(Violation::RefCountMismatch {
                        class: cs.class,
                        preg: p,
                        ref_count: rc,
                        expected: mapped,
                    });
                }
            }
        }
        out
    }
}

impl PipelineAuditor for RegisterConservation {
    fn name(&self) -> &'static str {
        "register-conservation"
    }

    fn audit(&mut self, snap: &PipelineSnapshot) -> Vec<Violation> {
        let mut out = self.check_class(snap, &snap.int);
        out.extend(self.check_class(snap, &snap.fp));
        out
    }
}

/// Rename-map consistency: replaying every in-flight destination write
/// (oldest first) over the committed map must reproduce the speculative
/// map, and every name in either map must be structurally valid.
pub struct RenameConsistency;

impl PipelineAuditor for RenameConsistency {
    fn name(&self) -> &'static str {
        "rename-consistency"
    }

    fn audit(&mut self, snap: &PipelineSnapshot) -> Vec<Violation> {
        let mut out = Vec::new();
        let well_formed = |e: &MapEntry| {
            let total = snap.class(e.class).total;
            e.name.is_well_formed(total)
        };
        for e in &snap.crat {
            if !well_formed(e) {
                out.push(Violation::BadName { table: "crat", dense: e.dense, name: e.name });
            }
        }
        for e in &snap.rat {
            if !well_formed(e) {
                out.push(Violation::BadName { table: "rat", dense: e.dense, name: e.name });
            }
        }
        // Replay: committed map + in-flight destination writes, oldest
        // first, must land exactly on the speculative map.
        let mut replay: Vec<MapEntry> = snap.crat.clone();
        for rob in &snap.rob {
            for w in &rob.new_names {
                if !well_formed(w) {
                    out.push(Violation::BadName { table: "rob", dense: w.dense, name: w.name });
                }
                if let Some(slot) = replay.iter_mut().find(|e| e.dense == w.dense) {
                    slot.name = w.name;
                    slot.class = w.class;
                }
            }
        }
        for (expect, actual) in replay.iter().zip(snap.rat.iter()) {
            if expect.name != actual.name {
                out.push(Violation::RatMismatch {
                    dense: actual.dense,
                    expected: expect.name,
                    actual: actual.name,
                });
            }
        }
        out
    }
}

/// Occupancy bounds: every queue within capacity, the cached IQ counter
/// consistent with the ROB, ages strictly increasing, and every
/// load/store-queue entry backed by a live ROB entry.
pub struct OccupancyBounds;

fn check_ascending(resource: &'static str, seqs: &[u64], out: &mut Vec<Violation>) {
    for w in seqs.windows(2) {
        if w[1] <= w[0] {
            out.push(Violation::SequenceOrder { resource, seq: w[1] });
        }
    }
}

impl PipelineAuditor for OccupancyBounds {
    fn name(&self) -> &'static str {
        "occupancy-bounds"
    }

    fn audit(&mut self, snap: &PipelineSnapshot) -> Vec<Violation> {
        let mut out = Vec::new();
        let l = snap.limits;
        for (resource, occupancy, limit) in [
            ("rob", snap.rob.len(), l.rob),
            ("iq", snap.iq_count, l.iq),
            ("lq", snap.lq_seqs.len(), l.lq),
            ("sq", snap.sq_seqs.len(), l.sq),
        ] {
            if occupancy > limit {
                out.push(Violation::OccupancyExceeded { resource, occupancy, limit });
            }
        }
        let counted = snap.rob.iter().filter(|e| e.in_iq).count();
        if counted != snap.iq_count {
            out.push(Violation::IqCountMismatch { counted, tracked: snap.iq_count });
        }
        let rob_seqs: Vec<u64> = snap.rob.iter().map(|e| e.seq).collect();
        check_ascending("rob", &rob_seqs, &mut out);
        check_ascending("lq", &snap.lq_seqs, &mut out);
        check_ascending("sq", &snap.sq_seqs, &mut out);
        for (resource, seqs) in [("lq", &snap.lq_seqs), ("sq", &snap.sq_seqs)] {
            for &seq in seqs {
                if !rob_seqs.contains(&seq) {
                    out.push(Violation::OrphanQueueEntry { resource, seq });
                }
            }
        }
        out
    }
}

/// Scheduler wakeup consistency: the event-driven ready set must be a
/// *tight-enough* superset of the truth. Every µop whose full issue
/// predicate holds (computed by the pipeline from operand `ready_at`
/// ground truth, not from the event machinery) must be in the ready
/// set — a miss is a lost wakeup, the failure mode event-driven
/// schedulers add over polling ones. Conversely every ready-set entry
/// must correspond to a live, still-waiting ROB entry — stale
/// candidates are tolerated *within* a cycle but select retires them,
/// so at audit boundaries a leftover is a leak.
pub struct SchedulerConsistency;

impl PipelineAuditor for SchedulerConsistency {
    fn name(&self) -> &'static str {
        "scheduler-consistency"
    }

    fn audit(&mut self, snap: &PipelineSnapshot) -> Vec<Violation> {
        let mut out = Vec::new();
        for e in &snap.rob {
            if e.issuable && !snap.ready_seqs.contains(&e.seq) {
                out.push(Violation::MissedWakeup { seq: e.seq });
            }
        }
        for &seq in &snap.ready_seqs {
            let live = snap.rob.iter().any(|e| e.seq == seq && e.in_iq && !e.issued);
            if !live {
                out.push(Violation::GhostReady { seq });
            }
        }
        out
    }
}

/// Commit monotonicity: retirement only moves forward, and nothing in
/// flight is at or behind the commit frontier.
#[derive(Default)]
pub struct CommitMonotonicity {
    prev_retired: u64,
    prev_committed: Option<u64>,
}

impl PipelineAuditor for CommitMonotonicity {
    fn name(&self) -> &'static str {
        "commit-monotonicity"
    }

    fn audit(&mut self, snap: &PipelineSnapshot) -> Vec<Violation> {
        let mut out = Vec::new();
        if snap.uops_retired < self.prev_retired {
            out.push(Violation::CommitRegression {
                prev: self.prev_retired,
                now: snap.uops_retired,
            });
        }
        if let (Some(prev), Some(now)) = (self.prev_committed, snap.committed_seq) {
            if now < prev {
                out.push(Violation::CommitRegression { prev, now });
            }
        }
        if let (Some(committed), Some(front)) = (snap.committed_seq, snap.rob.first()) {
            if front.seq <= committed {
                out.push(Violation::CommitOverlap { committed, rob_front: front.seq });
            }
        }
        self.prev_retired = snap.uops_retired;
        if snap.committed_seq.is_some() {
            self.prev_committed = snap.committed_seq;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{QueueLimits, RobSnapshot, SnapName};

    /// A minimal healthy machine: 2 architectural registers per class,
    /// 6 physical registers (1 hardwired), one in-flight µop.
    fn healthy() -> PipelineSnapshot {
        let class_snap = |class| RegClassSnapshot {
            class,
            total: 6,
            hardwired: 1,
            // p1, p2 live in the maps below; p3 is the in-flight dest.
            free: vec![4, 5],
            ref_counts: vec![0, 1, 1, 1, 0, 0],
        };
        let map = |class, names: [SnapName; 2]| {
            names
                .iter()
                .enumerate()
                .map(|(dense, &name)| MapEntry { dense: dense as u16, class, name })
                .collect::<Vec<_>>()
        };
        let mut crat = map(RegClass::Int, [SnapName::Reg(1), SnapName::Reg(2)]);
        crat.extend(map(RegClass::Fp, [SnapName::Reg(1), SnapName::Reg(2)]).into_iter().map(
            |mut e| {
                e.dense += 2;
                e
            },
        ));
        let mut rat = crat.clone();
        rat[0].name = SnapName::Reg(3); // the in-flight µop's destination
        let rob = vec![RobSnapshot {
            seq: 10,
            in_iq: true,
            issued: false,
            issuable: true,
            new_names: vec![MapEntry { dense: 0, class: RegClass::Int, name: SnapName::Reg(3) }],
        }];
        let mut fp = class_snap(RegClass::Fp);
        fp.free = vec![3, 4, 5];
        fp.ref_counts = vec![0, 1, 1, 0, 0, 0];
        PipelineSnapshot {
            cycle: 100,
            int: class_snap(RegClass::Int),
            fp,
            crat,
            rat,
            rob,
            iq_count: 1,
            ready_seqs: vec![10],
            lq_seqs: vec![10],
            sq_seqs: vec![],
            limits: QueueLimits { rob: 8, iq: 4, lq: 4, sq: 4 },
            committed_seq: Some(9),
            uops_retired: 9,
        }
    }

    fn audit_all(snap: &PipelineSnapshot) -> Vec<Violation> {
        let mut report = AuditReport::default();
        run_suite(&mut standard_suite(), snap, &mut report);
        report.violations.into_iter().map(|(_, _, v)| v).collect()
    }

    #[test]
    fn first_violation_summary_names_the_root_cause() {
        let mut report = AuditReport::default();
        assert_eq!(report.first_violation_summary(), None);
        report.violations.push((7, "queues", Violation::CommitRegression { prev: 5, now: 3 }));
        let one = report.first_violation_summary().expect("one violation");
        assert!(one.starts_with("[cycle 7] queues:"), "{one}");
        assert!(!one.contains("more"), "{one}");
        report.violations.push((9, "queues", Violation::CommitRegression { prev: 5, now: 4 }));
        let two = report.first_violation_summary().expect("two violations");
        assert!(two.contains("(+1 more)"), "{two}");
    }

    #[test]
    fn healthy_snapshot_is_clean() {
        let violations = audit_all(&healthy());
        assert!(violations.is_empty(), "unexpected: {violations:?}");
    }

    #[test]
    fn leaked_register_is_flagged() {
        let mut snap = healthy();
        // p4 vanishes from the free list without gaining any reference.
        snap.int.free.retain(|&p| p != 4);
        let violations = audit_all(&snap);
        assert!(
            violations.contains(&Violation::LeakedRegister {
                class: RegClass::Int,
                preg: 4,
                ref_count: 0
            }),
            "got {violations:?}"
        );
    }

    #[test]
    fn double_freed_register_is_flagged() {
        let mut snap = healthy();
        // p2 is pushed back onto the free list while the CRAT still
        // maps to it and its ref count is still 1.
        snap.int.free.push(2);
        let violations = audit_all(&snap);
        assert!(violations.iter().any(|v| matches!(
            v,
            Violation::FreedButReferenced { class: RegClass::Int, preg: 2, .. }
        )));
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::FreedButMapped { class: RegClass::Int, preg: 2, .. })));
    }

    #[test]
    fn duplicate_free_list_entry_is_flagged() {
        let mut snap = healthy();
        snap.int.free.push(5);
        let violations = audit_all(&snap);
        assert!(
            violations.contains(&Violation::FreeListDuplicate { class: RegClass::Int, preg: 5 })
        );
    }

    #[test]
    fn ref_count_mismatch_is_flagged() {
        let mut snap = healthy();
        snap.int.ref_counts[2] = 3; // CRAT references it exactly once
        let violations = audit_all(&snap);
        assert!(violations.contains(&Violation::RefCountMismatch {
            class: RegClass::Int,
            preg: 2,
            ref_count: 3,
            expected: 1
        }));
    }

    #[test]
    fn rat_divergence_is_flagged() {
        let mut snap = healthy();
        snap.rat[1].name = SnapName::Reg(5); // no in-flight write justifies this
        let violations = audit_all(&snap);
        assert!(violations.iter().any(|v| matches!(v, Violation::RatMismatch { dense: 1, .. })));
    }

    #[test]
    fn inline_constants_replay_like_registers() {
        let mut snap = healthy();
        // A zero-idiom µop maps dense 1 to an inline constant.
        snap.rat[1].name = SnapName::Inline(0);
        snap.rob.push(RobSnapshot {
            seq: 11,
            in_iq: false,
            new_names: vec![MapEntry { dense: 1, class: RegClass::Int, name: SnapName::Inline(0) }],
            ..RobSnapshot::default()
        });
        let violations = audit_all(&snap);
        assert!(violations.is_empty(), "inline names are legal: {violations:?}");
    }

    #[test]
    fn out_of_window_inline_is_flagged() {
        let mut snap = healthy();
        snap.rat[1].name = SnapName::Inline(400);
        snap.rob.push(RobSnapshot {
            seq: 11,
            in_iq: false,
            new_names: vec![MapEntry {
                dense: 1,
                class: RegClass::Int,
                name: SnapName::Inline(400),
            }],
            ..RobSnapshot::default()
        });
        let violations = audit_all(&snap);
        assert!(violations.iter().any(|v| matches!(v, Violation::BadName { .. })));
    }

    #[test]
    fn occupancy_overflow_is_flagged() {
        let mut snap = healthy();
        snap.limits.rob = 0;
        let violations = audit_all(&snap);
        assert!(violations
            .iter()
            .any(|v| matches!(v, Violation::OccupancyExceeded { resource: "rob", .. })));
    }

    #[test]
    fn iq_counter_drift_is_flagged() {
        let mut snap = healthy();
        snap.iq_count = 3;
        let violations = audit_all(&snap);
        assert!(violations.contains(&Violation::IqCountMismatch { counted: 1, tracked: 3 }));
    }

    #[test]
    fn orphan_lq_entry_is_flagged() {
        let mut snap = healthy();
        snap.lq_seqs.push(99);
        let violations = audit_all(&snap);
        assert!(violations.contains(&Violation::OrphanQueueEntry { resource: "lq", seq: 99 }));
    }

    #[test]
    fn missed_wakeup_is_flagged() {
        let mut snap = healthy();
        // Seq 10 is issuable but the scheduler never heard about it.
        snap.ready_seqs.clear();
        let violations = audit_all(&snap);
        assert!(violations.contains(&Violation::MissedWakeup { seq: 10 }));
    }

    #[test]
    fn ghost_ready_entry_is_flagged() {
        let mut snap = healthy();
        // Seq 99 has no ROB entry; seq 10 is waiting legitimately.
        snap.ready_seqs.push(99);
        let violations = audit_all(&snap);
        assert!(violations.contains(&Violation::GhostReady { seq: 99 }));
        assert!(!violations.contains(&Violation::GhostReady { seq: 10 }));
    }

    #[test]
    fn issued_entry_in_ready_set_is_a_ghost() {
        let mut snap = healthy();
        snap.rob[0].issued = true;
        snap.rob[0].issuable = false;
        let violations = audit_all(&snap);
        assert!(violations.contains(&Violation::GhostReady { seq: 10 }));
    }

    #[test]
    fn commit_regression_is_flagged() {
        let mut auditor = CommitMonotonicity::default();
        let mut snap = healthy();
        assert!(auditor.audit(&snap).is_empty());
        snap.uops_retired = 3; // went backwards
        let violations = auditor.audit(&snap);
        assert!(violations.contains(&Violation::CommitRegression { prev: 9, now: 3 }));
    }

    #[test]
    fn stale_rob_head_is_flagged() {
        let mut snap = healthy();
        snap.committed_seq = Some(10); // equals the ROB head seq
        let violations = audit_all(&snap);
        assert!(violations.contains(&Violation::CommitOverlap { committed: 10, rob_front: 10 }));
    }

    #[test]
    fn report_renders_one_line_per_violation() {
        let mut snap = healthy();
        snap.int.free.retain(|&p| p != 4);
        let mut report = AuditReport::default();
        run_suite(&mut standard_suite(), &snap, &mut report);
        assert!(!report.is_clean());
        assert_eq!(report.render().lines().count(), report.violations.len());
        assert!(report.render().contains("register-conservation"));
    }
}
