//! Fig. 1 — Distribution of values produced by instructions writing
//! general purpose registers.
//!
//! Paper result: `0x0` tops the distribution (~5%), `0x1` is third,
//! and the top-20 is dominated by narrow values, motivating MVP/TVP.
//!
//! Pure trace analysis — enumerates no simulation jobs. Each workload
//! is streamed from its functional machine in bounded chunks, one
//! workload at a time.

use tvp_workloads::suite::names;
use tvp_workloads::value_dist::ValueDistribution;

use super::{for_each_chunk, Assembled, ExpContext, Experiment, ResultFile, ResultSet};
use crate::jobs::Job;
use crate::json;
use crate::json::Layout::{Inline, Lines};
use crate::textln;

/// Fig. 1 experiment.
pub struct Fig1;

impl Experiment for Fig1 {
    fn name(&self) -> &'static str {
        "fig1_value_dist"
    }

    fn jobs(&self, _ctx: &ExpContext) -> Vec<Job> {
        Vec::new()
    }

    fn assemble(&self, ctx: &ExpContext, _results: &ResultSet<'_>) -> Assembled {
        let mut out = String::new();
        textln!(
            out,
            "=== Fig. 1: dynamic GPR value distribution ({} insts/workload) ===\n",
            ctx.insts
        );
        let mut dist = ValueDistribution::new();
        for name in names() {
            for_each_chunk(name, ctx.insts, |chunk| dist.add_trace(chunk));
        }

        textln!(out, "{:>20}  {:>8}", "value", "share %");
        for (value, share) in dist.top(20) {
            textln!(out, "{value:>20x}  {:>8.3}", share * 100.0);
        }
        textln!(out);
        textln!(out, "total GPR value productions : {}", dist.total());
        textln!(out, "share of 0x0                : {:.2}%", dist.share(0) * 100.0);
        textln!(out, "share of 0x1                : {:.2}%", dist.share(1) * 100.0);
        textln!(out, "share of 0x0 + 0x1 (MVP)    : {:.2}%", dist.zero_one_share() * 100.0);
        textln!(out, "share of 9-bit signed (TVP) : {:.2}%", dist.narrow9_share() * 100.0);
        textln!(out);
        textln!(out, "paper: 0x0 is the most produced value (~5%), 0x1 third; narrow");
        textln!(out, "values dominate — the motivation for Minimal and Targeted VP.");

        let entries: Vec<String> = dist
            .top(20)
            .into_iter()
            .map(|(v, s)| Inline.array(&[json::string(&format!("{v:#x}")), json::number(s)]))
            .collect();
        let files = vec![
            ResultFile::rows("fig1_value_dist", &[]),
            ResultFile { name: "fig1_top_values".to_owned(), json: Lines.array(&entries) },
        ];
        Assembled { report: out, files }
    }
}
