//! Fig. 4 — Fraction of dynamic (architectural) instructions optimized
//! away at rename, for MVP+SpSR (a) and TVP+SpSR (b).
//!
//! Paper result (averages): 0-idiom 0.72%, 1-idiom 0.39%, move ~4%,
//! SpSR 1.73% (MVP) / 1.70% (TVP), 9-bit idiom 0.48% (TVP only),
//! non-ME moves 0.44% / 0.34%.

use tvp_core::config::VpMode;
use tvp_workloads::suite::names;

use super::{per_workload_jobs, vp_cfg, Assembled, ExpContext, Experiment, ResultFile, ResultSet};
use crate::jobs::Job;
use crate::textln;
use crate::{amean, StatsRow};

/// Fig. 4 experiment.
pub struct Fig4;

const PANELS: [(&str, VpMode); 2] = [("a", VpMode::Mvp), ("b", VpMode::Tvp)];

impl Experiment for Fig4 {
    fn name(&self) -> &'static str {
        "fig4_rename_fractions"
    }

    fn jobs(&self, ctx: &ExpContext) -> Vec<Job> {
        PANELS.iter().flat_map(|(_, vp)| per_workload_jobs(ctx, &vp_cfg(*vp, true))).collect()
    }

    fn assemble(&self, ctx: &ExpContext, results: &ResultSet<'_>) -> Assembled {
        let mut out = String::new();
        textln!(
            out,
            "=== Fig. 4: dynamic instructions eliminated at rename ({} insts) ===\n",
            ctx.insts
        );
        let mut rows = Vec::new();
        for (panel, vp) in PANELS {
            rows.extend(report(&mut out, panel, vp, ctx, results));
        }
        textln!(out, "paper (amean): (a) MVP: 0-idiom 0.72, 1-idiom 0.39, move 3.96,");
        textln!(out, "SpSR 1.73, non-ME 0.44; (b) TVP: move 4.06, 9-bit 0.48, SpSR 1.70.");
        Assembled { report: out, files: vec![ResultFile::rows("fig4_rename_fractions", &rows)] }
    }
}

fn report(
    out: &mut String,
    panel: &str,
    vp: VpMode,
    ctx: &ExpContext,
    results: &ResultSet<'_>,
) -> Vec<StatsRow> {
    textln!(out, "--- Fig. 4{panel}: rename-eliminated fractions under {vp:?} + SpSR ---\n");
    textln!(
        out,
        "{:<16} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "workload",
        "0-idm %",
        "1-idm %",
        "move %",
        "9bit %",
        "SpSR %",
        "nonME %"
    );
    let cfg = vp_cfg(vp, true);
    let mut rows = Vec::new();
    let mut sums = [Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for name in names() {
        let s = results.of(ctx, name, &cfg);
        let r = s.rename;
        let f = |c: u64| r.fraction(c) * 100.0;
        let cols = [
            f(r.zero_idiom),
            f(r.one_idiom),
            f(r.move_elim),
            f(r.nine_bit_idiom),
            f(r.spsr),
            f(r.non_me_move),
        ];
        textln!(
            out,
            "{:<16} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
            name,
            cols[0],
            cols[1],
            cols[2],
            cols[3],
            cols[4],
            cols[5]
        );
        for (acc, v) in sums.iter_mut().zip(cols) {
            acc.push(v);
        }
        rows.push(StatsRow::new(name, format!("{vp:?}+spsr"), &s));
    }
    textln!(
        out,
        "{:<16} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}\n",
        "amean",
        amean(&sums[0]),
        amean(&sums[1]),
        amean(&sums[2]),
        amean(&sums[3]),
        amean(&sums[4]),
        amean(&sums[5]),
    );
    rows
}
