//! Ablation (§6.2) — SpSR × L1D stride prefetcher interaction.
//!
//! The paper traces the occasional SpSR slowdowns (perlbench, x264,
//! cam4) to the unthrottled stride prefetcher: with it disabled, SpSR's
//! geomean contribution improves from +0.06% to +0.11% on TVP.

use tvp_core::config::{CoreConfig, VpMode};
use tvp_workloads::suite::names;

use super::{Assembled, ExpContext, Experiment, ResultFile, ResultSet};
use crate::jobs::Job;
use crate::textln;
use crate::{geomean_speedup, StatsRow};

/// Stride-prefetcher ablation.
pub struct AblationPrefetcher;

fn mk(vp: VpMode, spsr: bool, stride_on: bool) -> CoreConfig {
    let mut cfg = CoreConfig::with_vp(vp);
    cfg.spsr = spsr;
    cfg.mem.stride_prefetcher = stride_on;
    cfg
}

impl Experiment for AblationPrefetcher {
    fn name(&self) -> &'static str {
        "ablation_prefetcher"
    }

    fn jobs(&self, ctx: &ExpContext) -> Vec<Job> {
        let mut jobs = Vec::new();
        for stride_on in [true, false] {
            for name in names() {
                for (vp, spsr) in [(VpMode::Off, false), (VpMode::Tvp, false), (VpMode::Tvp, true)]
                {
                    jobs.push(Job::new(name, ctx.insts, mk(vp, spsr, stride_on)));
                }
            }
        }
        jobs
    }

    fn assemble(&self, ctx: &ExpContext, results: &ResultSet<'_>) -> Assembled {
        let mut out = String::new();
        textln!(
            out,
            "=== Ablation: SpSR vs. the stride prefetcher (§6.2) ({} insts) ===\n",
            ctx.insts
        );
        textln!(out, "{:<22} {:>14} {:>14}", "config", "TVP geo %", "TVP+SpSR geo %");
        let mut rows = Vec::new();
        for stride_on in [true, false] {
            let mut tvp_pairs = Vec::new();
            let mut spsr_pairs = Vec::new();
            for name in names() {
                let base = results.of(ctx, name, &mk(VpMode::Off, false, stride_on));
                let tvp = results.of(ctx, name, &mk(VpMode::Tvp, false, stride_on));
                let tvps = results.of(ctx, name, &mk(VpMode::Tvp, true, stride_on));
                let tag = if stride_on { "stride-on" } else { "stride-off" };
                rows.push(StatsRow::new(name, format!("tvp/{tag}"), &tvp));
                rows.push(StatsRow::new(name, format!("tvp+spsr/{tag}"), &tvps));
                tvp_pairs.push((tvp, base));
                spsr_pairs.push((tvps, base));
            }
            textln!(
                out,
                "{:<22} {:>14.2} {:>14.2}",
                if stride_on { "stride prefetcher ON" } else { "stride prefetcher OFF" },
                (geomean_speedup(&tvp_pairs) - 1.0) * 100.0,
                (geomean_speedup(&spsr_pairs) - 1.0) * 100.0,
            );
        }
        textln!(out);
        textln!(out, "paper: without the stride prefetcher the SpSR slowdowns on");
        textln!(out, "perlbench_2/3, x264_2 and cam4 disappear (+0.06% → +0.11%).");
        Assembled { report: out, files: vec![ResultFile::rows("ablation_prefetcher", &rows)] }
    }
}
