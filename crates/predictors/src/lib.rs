//! # tvp-predictors — branch and value prediction structures
//!
//! Implements every prediction structure of the paper's front-end
//! (Table 2):
//!
//! * [`tage`] — 32 KB, 1+15-table TAGE conditional branch predictor;
//! * [`btb`] — 8192-entry branch target buffer;
//! * [`ras`] — 32-entry return address stack;
//! * [`indirect`] — 1k-entry indirect branch target cache;
//! * [`vtage`] — 1+7-table VTAGE value predictor with the paper's
//!   MVP / TVP / GVP prediction-width modes (7.9 / 13.9 / 55.2 KB) and
//!   FPC confidence ([`fpc`]);
//! * [`dvtage`] — the stride-based D-VTAGE variant with a faithful
//!   speculative in-flight window, quantifying the §2.1 complexity
//!   that MVP/TVP eliminate;
//! * `tagged` (crate-private) — the tagged-table engine the three
//!   share: geometric history lengths, folded views, index and tag
//!   hashes, the longest-match lookup and the allocation rule.
//!
//! All structures are deterministic: probabilistic behaviour draws from
//! a seeded [`util::XorShift64`], so a simulation is reproducible from
//! its configuration alone.
//!
//! # Examples
//!
//! ```
//! use tvp_predictors::vtage::{PredMode, Vtage, VtageConfig};
//!
//! let mut vp = Vtage::new(VtageConfig::paper(PredMode::Narrow9));
//! // Train: the instruction at 0x1000 keeps producing 7.
//! for _ in 0..3000 {
//!     let p = vp.predict(0x1000);
//!     vp.update(&p, 7);
//! }
//! let p = vp.predict(0x1000);
//! assert!(p.confident && p.value == 7);
//! ```

pub mod btb;
pub mod dvtage;
pub mod fpc;
pub mod history;
pub mod indirect;
pub mod ras;
pub mod tage;
mod tagged;
pub mod util;
pub mod vtage;

pub use btb::{Btb, BtbHit};
pub use dvtage::{Dvtage, DvtageConfig};
pub use indirect::IndirectTargetCache;
pub use ras::Ras;
pub use tage::{Tage, TageConfig, TageToken};
pub use vtage::{PredMode, Vtage, VtageConfig, VtagePred};
