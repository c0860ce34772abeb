//! # tvp-chaos — deterministic fault injection and differential checking
//!
//! The paper's mechanisms (TVP value prediction, SpSR strength
//! reduction) are *speculative*: they are only safe because the
//! pipeline's recovery path restores correct architectural state after
//! every misprediction. This crate actively attacks that path and
//! checks the wreckage:
//!
//! * [`ChaosEngine`] — a seeded, clock-free fault injector
//!   ([`ChaosConfig`] + xorshift PRNG). Each fault site is a typed
//!   [`FaultKind`]: forced VP mispredictions, VTAGE/TAGE/BTB/store-set
//!   table corruption, branch-verdict inversion, cache latency noise
//!   and prefetch drops. A campaign replays exactly from its seed.
//! * [`CommitOracle`] — a golden model that replays the functional
//!   machine in lockstep with the pipeline's commit stream. Under *any*
//!   fault campaign every committed µop must be the record the machine
//!   emitted; the first [`Divergence`] is reported with (seq, what,
//!   expected, got) and the replaying seed.
//! * [`Watchdog`] — detects no-commit-progress and yields a structured
//!   [`DeadlockDiagnostic`] instead of a hang.
//! * [`Sabotage`] — deliberate recovery breakage for broken-fixture
//!   tests proving the oracle actually catches bugs.
//!
//! The crate deliberately depends only on `tvp-isa` (µop kinds and
//! flags) and `tvp-workloads` (the functional machine, its traces and
//! architectural snapshots); the timing core hosts the engine and
//! feeds the oracle, and predictor/memory structures expose tiny
//! `inject_fault` hooks that consume the engine's entropy. See
//! DESIGN.md §9.

pub mod engine;
pub mod fault;
pub mod oracle;
pub mod rng;
pub mod watchdog;

pub use engine::ChaosEngine;
pub use fault::{ChaosConfig, FaultKind, Sabotage};
pub use oracle::{CommitOracle, Divergence, DivergenceKind};
pub use rng::ChaosRng;
pub use watchdog::{DeadlockDiagnostic, MshrInfo, RobHeadInfo, Watchdog};
