//! Storage accounting across predictor structures.
//!
//! The paper's cost argument hinges on predictor footprints: §3.3 shows
//! that narrowing the prediction field shrinks the VTAGE predictor from
//! 55.2 KB (GVP) to 13.9 KB (TVP) and 7.9 KB (MVP). This module
//! aggregates the bit-exact budgets of every predictor in the front-end
//! so experiments can report them alongside speedups (Table 3).

use crate::tage::TageConfig;
use crate::vtage::{PredMode, VtageConfig};

/// Bit budget of one named structure.
#[derive(Clone, Debug, PartialEq)]
pub struct StorageItem {
    /// Structure name (e.g. `"vtage"`).
    pub name: &'static str,
    /// Size in bits.
    pub bits: u64,
}

impl StorageItem {
    /// Size in kilobytes.
    #[must_use]
    pub fn kb(&self) -> f64 {
        self.bits as f64 / 8.0 / 1024.0
    }
}

/// Storage report for a front-end configuration.
#[derive(Clone, Debug, Default)]
pub struct StorageReport {
    /// Per-structure budgets.
    pub items: Vec<StorageItem>,
}

impl StorageReport {
    /// Total bits across all structures.
    #[must_use]
    pub fn total_bits(&self) -> u64 {
        self.items.iter().map(|i| i.bits).sum()
    }
}

/// Builds a report for the paper's front-end: TAGE + BTB + RAS + IBTC,
/// plus the value predictor when one is configured.
#[must_use]
pub fn frontend_report(tage: &TageConfig, vtage: Option<&VtageConfig>) -> StorageReport {
    let mut items = vec![
        StorageItem { name: "tage", bits: tage.storage_bits() },
        // 8192-entry BTB: ~(tag 16 + target 32 compressed + kind 3) per entry.
        StorageItem { name: "btb", bits: 8192 * 51 },
        // 32-entry RAS of 48-bit virtual addresses.
        StorageItem { name: "ras", bits: 32 * 48 },
        // 1k-entry indirect target cache: tag 9 + target 48 + conf 2.
        StorageItem { name: "ibtc", bits: 1024 * 59 },
    ];
    if let Some(v) = vtage {
        items.push(StorageItem { name: "vtage", bits: v.storage_bits() });
    }
    StorageReport { items }
}

/// Convenience: the paper's three headline VTAGE budgets, in KB.
#[must_use]
pub fn paper_vtage_budgets() -> [(PredMode, f64); 3] {
    [
        (PredMode::ZeroOne, VtageConfig::paper(PredMode::ZeroOne).storage_kb()),
        (PredMode::Narrow9, VtageConfig::paper(PredMode::Narrow9).storage_kb()),
        (PredMode::Full64, VtageConfig::paper(PredMode::Full64).storage_kb()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_budgets_match_paper() {
        let [(_, mvp), (_, tvp), (_, gvp)] = paper_vtage_budgets();
        assert!((mvp - 7.95).abs() < 0.06, "MVP {mvp}");
        assert!((tvp - 13.95).abs() < 0.06, "TVP {tvp}");
        assert!((gvp - 55.2).abs() < 0.05, "GVP {gvp}");
        // Paper §6.1: MVP uses 14.4% of GVP storage, TVP 25.1%.
        assert!((mvp / gvp - 0.144).abs() < 0.01, "MVP/GVP = {}", mvp / gvp);
        assert!((tvp / gvp - 0.251).abs() < 0.015, "TVP/GVP = {}", tvp / gvp);
    }

    #[test]
    fn frontend_report_totals() {
        let tage = TageConfig::default();
        let vt = VtageConfig::paper(PredMode::Narrow9);
        let report = frontend_report(&tage, Some(&vt));
        assert_eq!(report.items.len(), 5);
        assert_eq!(report.total_bits(), report.items.iter().map(|i| i.bits).sum::<u64>());
        // Sanity: branch direction predictor ≈ 32 KB dwarfs the RAS.
        let tage_kb = report.items[0].kb();
        assert!(tage_kb > 25.0 && tage_kb < 40.0);
    }

    #[test]
    fn report_without_value_predictor() {
        let report = frontend_report(&TageConfig::default(), None);
        assert!(report.items.iter().all(|i| i.name != "vtage"));
    }
}
