//! Fig. 6 — Average INT PRF reads/writes and IQ dispatched/issued
//! µops, normalized to the baseline.
//!
//! Paper result: MVP −2.41% reads / −4.17% writes; TVP −9.51% / −11.32%;
//! GVP *increases* writes (explicit prediction writes); SpSR cuts IQ
//! dispatches by ~1.6–2.7% and issues by ~1.5–2.0%.

use tvp_core::config::VpMode;
use tvp_workloads::suite::names;

use super::{baseline_cfg, vp_cfg, Assembled, ExpContext, Experiment, ResultFile, ResultSet};
use crate::jobs::Job;
use crate::textln;
use crate::{amean, StatsRow};

/// Fig. 6 experiment.
pub struct Fig6;

const CONFIGS: [(VpMode, bool, &str); 6] = [
    (VpMode::Mvp, false, "Min. VP"),
    (VpMode::Mvp, true, "Min. VP + SpSR"),
    (VpMode::Tvp, false, "Tar. VP"),
    (VpMode::Tvp, true, "Tar. VP + SpSR"),
    (VpMode::Gvp, false, "Gen. VP"),
    (VpMode::Gvp, true, "Gen. VP + SpSR"),
];

impl Experiment for Fig6 {
    fn name(&self) -> &'static str {
        "fig6_activity"
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
        textln!(out, "=== Fig. 6: activity normalized to baseline ({} insts) ===\n", ctx.insts);
        let bases: Vec<_> = names().map(|name| results.of(ctx, name, &baseline_cfg())).collect();
        let mut rows: Vec<StatsRow> =
            names().zip(&bases).map(|(name, s)| StatsRow::new(name, "baseline", s)).collect();

        textln!(
            out,
            "{:<16} {:>10} {:>10} {:>12} {:>10}",
            "config",
            "PRF rd %",
            "PRF wr %",
            "IQ disp %",
            "IQ iss %"
        );
        for (vp, spsr, label) in CONFIGS {
            let mut rd = Vec::new();
            let mut wr = Vec::new();
            let mut disp = Vec::new();
            let mut iss = Vec::new();
            for (name, base) in names().zip(&bases) {
                let s = results.of(ctx, name, &vp_cfg(vp, spsr));
                #[allow(clippy::cast_precision_loss)]
                let pct = |a: u64, b: u64| if b == 0 { 100.0 } else { a as f64 / b as f64 * 100.0 };
                rd.push(pct(s.activity.int_prf_reads, base.activity.int_prf_reads));
                wr.push(pct(s.activity.int_prf_writes, base.activity.int_prf_writes));
                disp.push(pct(s.activity.iq_dispatched, base.activity.iq_dispatched));
                iss.push(pct(s.activity.iq_issued, base.activity.iq_issued));
                rows.push(StatsRow::new(name, label, &s));
            }
            textln!(
                out,
                "{:<16} {:>10.2} {:>10.2} {:>12.2} {:>10.2}",
                label,
                amean(&rd),
                amean(&wr),
                amean(&disp),
                amean(&iss)
            );
        }
        textln!(out);
        textln!(out, "paper: MVP 97.6/95.8 rd/wr; TVP 90.5/88.7; GVP writes > 100%;");
        textln!(out, "SpSR: −1.6%/−1.5% (MVP) and −2.4%/−2.0% (TVP) IQ disp/issue.");
        Assembled { report: out, files: vec![ResultFile::rows("fig6_activity", &rows)] }
    }
}
