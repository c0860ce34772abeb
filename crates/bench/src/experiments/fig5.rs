//! Fig. 5 — Performance uplift of MVP/TVP with and without SpSR.
//!
//! Paper result (geomean): MVP +0.54% → MVP+SpSR +0.64%; TVP +1.11% →
//! TVP+SpSR +1.17%. SpSR's per-benchmark effect is small and
//! occasionally negative (stride-prefetcher interaction, §6.2).

use tvp_core::config::VpMode;
use tvp_workloads::suite::names;

use super::{baseline_cfg, vp_cfg, Assembled, ExpContext, Experiment, ResultFile, ResultSet};
use crate::jobs::Job;
use crate::textln;
use crate::{geomean_speedup, speedup_pct, StatsRow};

/// Fig. 5 experiment.
pub struct Fig5;

const CONFIGS: [(VpMode, bool, &str); 4] = [
    (VpMode::Mvp, false, "mvp"),
    (VpMode::Mvp, true, "mvp+spsr"),
    (VpMode::Tvp, false, "tvp"),
    (VpMode::Tvp, true, "tvp+spsr"),
];

impl Experiment for Fig5 {
    fn name(&self) -> &'static str {
        "fig5_spsr_speedup"
    }

    fn jobs(&self, ctx: &ExpContext) -> Vec<Job> {
        let mut jobs = Vec::new();
        for name in names() {
            jobs.push(Job::new(name, ctx.insts, baseline_cfg()));
            for (vp, spsr, _) in CONFIGS {
                jobs.push(Job::new(name, ctx.insts, vp_cfg(vp, spsr)));
            }
        }
        jobs
    }

    fn assemble(&self, ctx: &ExpContext, results: &ResultSet<'_>) -> Assembled {
        let mut out = String::new();
        textln!(
            out,
            "=== Fig. 5: MVP/TVP ± SpSR speedup over baseline ({} insts) ===\n",
            ctx.insts
        );
        textln!(
            out,
            "{:<16} {:>8} {:>10} {:>8} {:>10}",
            "workload",
            "MVP %",
            "MVP+SpSR %",
            "TVP %",
            "TVP+SpSR %"
        );
        let mut rows = Vec::new();
        let mut pairs = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for name in names() {
            let base = results.of(ctx, name, &baseline_cfg());
            let mut pcts = [0.0f64; 4];
            for (i, (vp, spsr, label)) in CONFIGS.iter().enumerate() {
                let s = results.of(ctx, name, &vp_cfg(*vp, *spsr));
                pcts[i] = speedup_pct(&s, &base);
                rows.push(StatsRow::new(name, *label, &s));
                pairs[i].push((s, base));
            }
            textln!(
                out,
                "{:<16} {:>8.2} {:>10.2} {:>8.2} {:>10.2}",
                name,
                pcts[0],
                pcts[1],
                pcts[2],
                pcts[3]
            );
        }
        textln!(out);
        for (i, (_, _, label)) in CONFIGS.iter().enumerate() {
            let g = (geomean_speedup(&pairs[i]) - 1.0) * 100.0;
            textln!(out, "{label:<10} geomean {g:+.2}%");
        }
        textln!(out);
        textln!(out, "paper: MVP +0.54 → +0.64 with SpSR; TVP +1.11 → +1.17 with SpSR.");
        Assembled { report: out, files: vec![ResultFile::rows("fig5_spsr_speedup", &rows)] }
    }
}
