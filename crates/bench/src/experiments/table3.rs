//! Table 3 — geomean speedups for MVP/TVP/GVP at four predictor
//! storage budgets (same tables/history; only table sizes scale).
//!
//! Paper result:
//!
//! | budget        | MVP    | TVP    | GVP    |
//! |---------------|--------|--------|--------|
//! | ~4KB (½·MVP)  | +0.50% | +0.74% | +2.54% |
//! | ~8KB (MVP)    | +0.54% | +0.96% | +2.86% |
//! | ~14KB (TVP)   | +0.60% | +1.11% | +3.51% |
//! | ~55KB (GVP)   | +0.66% | +1.24% | +4.67% |

use tvp_core::config::{CoreConfig, VpMode};
use tvp_predictors::vtage::VtageConfig;
use tvp_workloads::suite::names;

use super::{baseline_cfg, Assembled, ExpContext, Experiment, ResultFile, ResultSet};
use crate::jobs::Job;
use crate::textln;
use crate::{geomean_speedup, StatsRow, VP_FLAVOURS};

/// Table 3 experiment.
pub struct Table3;

/// Each flavour's own paper budget in bits, used to derive the scale
/// factor that hits the row's target budget.
const BUDGETS: [(&str, f64); 4] = [
    ("0.5 x MVP (~4KB)", 0.5 * 65_152.0),
    ("MVP budget (~8KB)", 65_152.0),
    ("TVP budget (~14KB)", 114_304.0),
    ("GVP budget (~55KB)", 452_224.0),
];

/// The scaled configuration for one (budget row, flavour) cell.
fn cell_cfg(vp: VpMode, target_bits: f64) -> (CoreConfig, f64) {
    let mode = vp.pred_mode().expect("VP flavour");
    let own = VtageConfig::paper(mode);
    // Scale table sizes so the flavour's storage hits the row budget
    // (entry widths are fixed by the prediction width).
    #[allow(clippy::cast_precision_loss)]
    let factor = target_bits / own.storage_bits() as f64;
    let scaled = own.scaled(factor);
    let kb = scaled.storage_kb();
    let mut cfg = CoreConfig::with_vp(vp);
    cfg.vtage = Some(scaled);
    (cfg, kb)
}

impl Experiment for Table3 {
    fn name(&self) -> &'static str {
        "table3_storage_sweep"
    }

    fn jobs(&self, ctx: &ExpContext) -> Vec<Job> {
        let mut jobs = Vec::new();
        for name in names() {
            jobs.push(Job::new(name, ctx.insts, baseline_cfg()));
        }
        for (_, target_bits) in BUDGETS {
            for (vp, _) in VP_FLAVOURS {
                let (cfg, _) = cell_cfg(vp, target_bits);
                for name in names() {
                    jobs.push(Job::new(name, ctx.insts, cfg.clone()));
                }
            }
        }
        jobs
    }

    fn assemble(&self, ctx: &ExpContext, results: &ResultSet<'_>) -> Assembled {
        let mut out = String::new();
        textln!(out, "=== Table 3: storage sweep ({} insts) ===\n", ctx.insts);
        let bases: Vec<_> = names().map(|name| results.of(ctx, name, &baseline_cfg())).collect();

        textln!(out, "{:<20} {:>10} {:>10} {:>10}", "budget", "MVP", "TVP", "GVP");
        let mut rows = Vec::new();
        for (label, target_bits) in BUDGETS {
            let mut cells = Vec::new();
            for (vp, _) in VP_FLAVOURS {
                let (cfg, kb) = cell_cfg(vp, target_bits);
                let mut pairs = Vec::new();
                for (name, base) in names().zip(&bases) {
                    let s = results.of(ctx, name, &cfg);
                    rows.push(StatsRow::new(name, format!("{vp:?}@{kb:.1}KB"), &s));
                    pairs.push((s, *base));
                }
                let g = (geomean_speedup(&pairs) - 1.0) * 100.0;
                cells.push(format!("{g:+.2}%"));
            }
            textln!(out, "{:<20} {:>10} {:>10} {:>10}", label, cells[0], cells[1], cells[2]);
        }
        textln!(out);
        textln!(out, "paper: +0.50/+0.74/+2.54 | +0.54/+0.96/+2.86 | +0.60/+1.11/+3.51 |");
        textln!(out, "       +0.66/+1.24/+4.67 (rows: 4/8/14/55KB; columns MVP/TVP/GVP)");
        Assembled { report: out, files: vec![ResultFile::rows("table3_storage_sweep", &rows)] }
    }
}
