//! # tvp-workloads — synthetic SPEC2017-like workloads and traces
//!
//! The paper evaluates on SPEC CPU2017 speed SimPoints; this crate
//! provides the synthetic stand-ins (see DESIGN.md §3 for the
//! substitution table) and the machinery to run them:
//!
//! * [`program`] — label-based assembler DSL producing [`program::Program`]s;
//! * [`machine`] — the functional machine (registers, flags, sparse
//!   memory) that executes programs and emits traces;
//! * [`trace`] — the µop-level dynamic trace the timing core replays;
//! * [`suite()`][crate::suite::suite] — the workload suite (17 kernels, 25 rows with variants);
//! * [`kernels`] — the kernel implementations;
//! * [`value_dist`] — dynamic value distribution analysis (Fig. 1).
//!
//! # Examples
//!
//! ```
//! let workload = tvp_workloads::suite::by_name("pointer_chase").unwrap();
//! let trace = workload.trace(1_000);
//! assert_eq!(trace.arch_insts, 1_000);
//! assert!(trace.expansion_ratio() >= 1.0);
//! ```

pub mod kernels;
pub mod machine;
pub mod program;
pub mod stream;
pub mod suite;
pub mod trace;
pub mod value_dist;

pub use machine::{ArchSnapshot, Machine};
pub use program::{Asm, Program};
pub use stream::{MachineSource, TraceFileReader, TraceFileWriter, TraceSource};
pub use suite::{suite, Workload};
pub use trace::{BranchOutcome, Trace, TraceUop};
pub use value_dist::ValueDistribution;
