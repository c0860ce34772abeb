//! Fig. 2 — Retired µops per architectural instruction (bars) and
//! baseline IPC (line).
//!
//! Paper result: expansion ratios between 1.0 and ~1.15 (mean ~1.05),
//! IPC between ~0.5 and ~5.5 (hmean ≈ 2).

use tvp_workloads::suite::names;

use super::{
    baseline_cfg, per_workload_jobs, Assembled, ExpContext, Experiment, ResultFile, ResultSet,
};
use crate::jobs::Job;
use crate::textln;
use crate::{amean, hmean, StatsRow};

/// Fig. 2 experiment.
pub struct Fig2;

impl Experiment for Fig2 {
    fn name(&self) -> &'static str {
        "fig2_uops_ipc"
    }

    fn jobs(&self, ctx: &ExpContext) -> Vec<Job> {
        per_workload_jobs(ctx, &baseline_cfg())
    }

    fn assemble(&self, ctx: &ExpContext, results: &ResultSet<'_>) -> Assembled {
        let mut out = String::new();
        textln!(
            out,
            "=== Fig. 2: µops per arch. instruction + baseline IPC ({} insts) ===\n",
            ctx.insts
        );
        textln!(out, "{:<16} {:>12} {:>8}", "workload", "uops/inst", "IPC");
        let base = baseline_cfg();
        let mut rows = Vec::new();
        let mut ratios = Vec::new();
        let mut ipcs = Vec::new();
        for name in names() {
            let stats = results.of(ctx, name, &base);
            let ratio = stats.expansion_ratio();
            textln!(out, "{:<16} {:>12.3} {:>8.2}", name, ratio, stats.ipc());
            ratios.push(ratio);
            ipcs.push(stats.ipc());
            rows.push(StatsRow::new(name, "baseline", &stats));
        }
        textln!(out, "{:<16} {:>12.3} {:>8.2}", "mean/hmean", amean(&ratios), hmean(&ipcs));
        textln!(out);
        textln!(out, "paper: ratios 1.0–1.15 (amean ~1.05); IPC line spans ~0.5–5.5.");
        Assembled { report: out, files: vec![ResultFile::rows("fig2_uops_ipc", &rows)] }
    }
}
