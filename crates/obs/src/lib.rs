//! Observability layer for the TVP/SpSR simulator.
//!
//! A dependency-free leaf crate so every simulator crate can use it
//! without cycles. Five pieces:
//!
//! - [`counters`] — the saturating counter primitives ([`sat_inc`] /
//!   [`sat_add`]) every hot-path statistic routes through;
//! - [`cpi`] — the CPI-stack accountant: every retire-width slot of
//!   every cycle is attributed to exactly one [`cpi::SlotClass`], so
//!   the components always sum to `cycles × commit_width`;
//! - [`event`] — a fixed-capacity, allocation-free event-trace ring
//!   buffer behind a runtime-gated [`event::Tracer`] (one branch per
//!   record when disabled, zero allocation either way);
//! - [`registry`] / [`export`] — a schema-versioned counter registry
//!   with its JSON document, plus Chrome `trace_event` export of
//!   captured event rings;
//! - [`json`] — the workspace's one JSON writer: the escape table, the
//!   string and number rules and the three container layouts that
//!   every document (results, telemetry, reports, metrics, traces,
//!   lint findings) is written with.
//!
//! Everything here is *observation only*: recording an event or
//! attributing a slot never feeds back into simulated state, which is
//! what makes the layer determinism-neutral (locked by the
//! `obs_neutrality` integration test in the harness).

pub mod counters;
pub mod cpi;
pub mod event;
pub mod export;
pub mod json;
pub mod registry;

pub use counters::{sat_add, sat_inc};
pub use cpi::{CpiStack, SlotClass};
pub use event::{EventKind, EventRing, TraceEvent, Tracer};
pub use registry::{Registry, METRICS_SCHEMA_VERSION};
