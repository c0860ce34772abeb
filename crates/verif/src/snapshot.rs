//! Dependency-free snapshot of the pipeline's renaming state.
//!
//! The verification layer cannot depend on `tvp-core` (core depends on
//! *it*), so the auditors operate on a plain-data mirror of the state
//! they check. The pipeline assembles a [`PipelineSnapshot`] every N
//! cycles once `Core::enable_audit(N)` switches auditing on; tests can
//! also build snapshots by hand to exercise the checkers against
//! deliberately broken states.

/// Physical register class.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RegClass {
    /// Integer / flags registers.
    Int,
    /// Floating-point / SIMD registers.
    Fp,
}

/// Mirror of the pipeline's widened physical register name: a real
/// physical register, an inlined 9-bit constant, or a known flags
/// pattern (the paper's §4 PhysName widening).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SnapName {
    /// A physical register index.
    Reg(u16),
    /// An inlined 9-bit signed constant (-256..=255).
    Inline(i16),
    /// A known NZCV flags pattern.
    KnownFlags(u8),
}

impl SnapName {
    /// The physical register index, if this name is a real register.
    #[must_use]
    pub fn reg(self) -> Option<u16> {
        match self {
            SnapName::Reg(p) => Some(p),
            SnapName::Inline(_) | SnapName::KnownFlags(_) => None,
        }
    }

    /// Structural validity: inline constants must fit the 9-bit signed
    /// window; register indices must be below `total` for their class.
    #[must_use]
    pub fn is_well_formed(self, total: u16) -> bool {
        match self {
            SnapName::Reg(p) => p < total,
            SnapName::Inline(v) => (-256..=255).contains(&v),
            SnapName::KnownFlags(_) => true,
        }
    }
}

/// One rename-map entry: a dense architectural register and the name it
/// currently maps to.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MapEntry {
    /// Dense architectural register index.
    pub dense: u16,
    /// The register class of this architectural register.
    pub class: RegClass,
    /// The mapped name.
    pub name: SnapName,
}

/// Free-list and reference-count state of one physical register file.
#[derive(Clone, Debug)]
pub struct RegClassSnapshot {
    /// Register class.
    pub class: RegClass,
    /// Total physical registers (including hardwired ones).
    pub total: u16,
    /// Registers below this index are hardwired constants: never
    /// allocated, never freed, never reference-counted.
    pub hardwired: u16,
    /// Current free list, in queue order.
    pub free: Vec<u16>,
    /// Reference count per physical register (length == `total`).
    pub ref_counts: Vec<u32>,
}

/// In-flight state of one ROB entry that the auditors care about.
#[derive(Clone, Debug, Default)]
pub struct RobSnapshot {
    /// Program-order sequence number.
    pub seq: u64,
    /// The entry is still waiting in the issue queue.
    pub in_iq: bool,
    /// The entry has issued (execution started or finished).
    pub issued: bool,
    /// The full issue predicate holds right now: in the IQ, not yet
    /// issued, past its dispatch latency, and every operand ready. The
    /// pipeline computes this from ground truth (operand `ready_at`
    /// polls), independent of its event-driven wakeup machinery — the
    /// scheduler-consistency auditor cross-checks the two.
    pub issuable: bool,
    /// Destination mappings this µop will install into the committed
    /// map when it retires.
    pub new_names: Vec<MapEntry>,
}

/// Configured capacities of the pipeline's queues (Table 2).
#[derive(Copy, Clone, Debug)]
pub struct QueueLimits {
    /// Reorder buffer capacity.
    pub rob: usize,
    /// Issue queue capacity.
    pub iq: usize,
    /// Load queue capacity.
    pub lq: usize,
    /// Store queue capacity.
    pub sq: usize,
}

/// A plain-data mirror of everything the invariant auditors inspect.
#[derive(Clone, Debug)]
pub struct PipelineSnapshot {
    /// Cycle at which the snapshot was taken.
    pub cycle: u64,
    /// Integer register file state.
    pub int: RegClassSnapshot,
    /// Floating-point register file state.
    pub fp: RegClassSnapshot,
    /// Committed rename map (one entry per dense architectural
    /// register).
    pub crat: Vec<MapEntry>,
    /// Speculative rename map (same order as `crat`).
    pub rat: Vec<MapEntry>,
    /// In-flight ROB entries, oldest first.
    pub rob: Vec<RobSnapshot>,
    /// The pipeline's cached issue-queue occupancy counter.
    pub iq_count: usize,
    /// Sequence numbers in the event-driven scheduler's ready set,
    /// oldest first. The set may conservatively hold stale candidates
    /// (select re-verifies), but must never miss an issuable µop.
    pub ready_seqs: Vec<u64>,
    /// Sequence numbers of in-flight loads, oldest first.
    pub lq_seqs: Vec<u64>,
    /// Sequence numbers of in-flight stores, oldest first.
    pub sq_seqs: Vec<u64>,
    /// Queue capacities.
    pub limits: QueueLimits,
    /// Sequence number of the most recently committed µop, if any.
    pub committed_seq: Option<u64>,
    /// Total µops retired so far.
    pub uops_retired: u64,
}

impl PipelineSnapshot {
    /// The register-file snapshot for `class`.
    #[must_use]
    pub fn class(&self, class: RegClass) -> &RegClassSnapshot {
        match class {
            RegClass::Int => &self.int,
            RegClass::Fp => &self.fp,
        }
    }
}
