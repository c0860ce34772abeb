//! Fig. 3 — Performance uplift of MVP/TVP/GVP over the DSR baseline,
//! plus the §6.1 coverage/accuracy numbers.
//!
//! Paper result (geomean): MVP +0.54%, TVP +1.11%, GVP +4.67%;
//! xalancbmk is the outlier at GVP +52.65%. Coverage 5.3% / 12.6% /
//! 32.7%; accuracy > 99.9% everywhere.

use tvp_workloads::suite::names;

use super::{baseline_cfg, vp_cfg, Assembled, ExpContext, Experiment, ResultFile, ResultSet};
use crate::jobs::Job;
use crate::textln;
use crate::{geomean_speedup, speedup_pct, StatsRow, VP_FLAVOURS};

/// Fig. 3 experiment.
pub struct Fig3;

impl Experiment for Fig3 {
    fn name(&self) -> &'static str {
        "fig3_vp_speedup"
    }

    fn jobs(&self, ctx: &ExpContext) -> Vec<Job> {
        let mut jobs = Vec::new();
        for name in names() {
            jobs.push(Job::new(name, ctx.insts, baseline_cfg()));
            for (vp, _) in VP_FLAVOURS {
                jobs.push(Job::new(name, ctx.insts, vp_cfg(vp, false)));
            }
        }
        jobs
    }

    fn assemble(&self, ctx: &ExpContext, results: &ResultSet<'_>) -> Assembled {
        let mut out = String::new();
        textln!(out, "=== Fig. 3: MVP/TVP/GVP speedup over baseline ({} insts) ===\n", ctx.insts);
        textln!(
            out,
            "{:<16} {:>8} {:>8} {:>8}   {:>7} {:>7} {:>7}",
            "workload",
            "MVP %",
            "TVP %",
            "GVP %",
            "covM",
            "covT",
            "covG"
        );
        let mut rows = Vec::new();
        let mut pairs: [Vec<_>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        let mut coverage_sums = [0.0f64; 3];
        let mut accuracy_min = [1.0f64; 3];
        for name in names() {
            let base = results.of(ctx, name, &baseline_cfg());
            rows.push(StatsRow::new(name, "baseline", &base));
            let mut pcts = [0.0f64; 3];
            let mut covs = [0.0f64; 3];
            for (i, (vp, label)) in VP_FLAVOURS.iter().enumerate() {
                let s = results.of(ctx, name, &vp_cfg(*vp, false));
                pcts[i] = speedup_pct(&s, &base);
                covs[i] = s.vp.coverage();
                coverage_sums[i] += s.vp.coverage();
                accuracy_min[i] = accuracy_min[i].min(s.vp.accuracy());
                rows.push(StatsRow::new(name, label.to_lowercase(), &s));
                pairs[i].push((s, base));
            }
            textln!(
                out,
                "{:<16} {:>8.2} {:>8.2} {:>8.2}   {:>7.3} {:>7.3} {:>7.3}",
                name,
                pcts[0],
                pcts[1],
                pcts[2],
                covs[0],
                covs[1],
                covs[2]
            );
        }

        textln!(out);
        #[allow(clippy::cast_precision_loss)]
        let n = names().len() as f64;
        for (i, (_, label)) in VP_FLAVOURS.iter().enumerate() {
            let g = (geomean_speedup(&pairs[i]) - 1.0) * 100.0;
            textln!(
                out,
                "{label}: geomean {g:+.2}%   avg coverage {:.1}%   min accuracy {:.4}",
                coverage_sums[i] / n * 100.0,
                accuracy_min[i]
            );
        }
        textln!(out);
        textln!(out, "paper: MVP +0.54% (cov 5.3%), TVP +1.11% (cov 12.6%), GVP +4.67%");
        textln!(out, "(cov 32.7%); accuracy > 99.9%; xalancbmk outlier GVP +52.65%.");
        Assembled { report: out, files: vec![ResultFile::rows("fig3_vp_speedup", &rows)] }
    }
}
