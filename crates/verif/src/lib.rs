//! # tvp-verif — simulator verification layer
//!
//! Cycle-level invariant auditing and storage-budget accounting for the
//! TVP/SpSR pipeline model. A simulator is only as good as the
//! invariants it keeps: this crate makes the big ones machine-checked.
//!
//! * [`check`] — [`PipelineAuditor`]s over plain-data
//!   [`PipelineSnapshot`]s: physical-register conservation (free list ∪
//!   committed map ∪ in-flight destinations partitions the PRF),
//!   rename-map consistency across VP early writeback and SpSR
//!   substitution, ROB/IQ/LSQ occupancy bounds, and in-order commit
//!   monotonicity;
//! * [`budget`] — the [`StorageBudget`] trait every hardware table in
//!   the simulator implements, plus the paper's Table 2 ceilings they
//!   are asserted against in one place;
//! * [`violation`] — the shared, structured [`Violation`] taxonomy.
//!
//! The crate is dependency-free by design: `tvp-core` depends on it (to
//! run the auditors on a core that calls `Core::enable_audit`), never
//! the other way around, and tests can fabricate deliberately broken
//! snapshots to prove the auditors catch real corruption.
//!
//! # Examples
//!
//! ```
//! use tvp_verif::{budget, Violation};
//!
//! // A GVP-sized VTAGE posing as the TVP configuration blows the
//! // paper's 13.95 KB budget and is flagged.
//! let actual = vec![("vtage.tvp".to_owned(), 452_224u64)];
//! let violations = budget::check_budgets(&budget::table2_budgets(), &actual);
//! assert!(matches!(violations[0], Violation::BudgetOverrun { .. }));
//! ```

pub mod budget;
pub mod check;
pub mod snapshot;
pub mod violation;

pub use budget::{BudgetSpec, StorageBudget};
pub use check::{run_suite, standard_suite, AuditReport, PipelineAuditor};
pub use snapshot::{
    MapEntry, PipelineSnapshot, QueueLimits, RegClass, RegClassSnapshot, RobSnapshot, SnapName,
};
pub use violation::Violation;
