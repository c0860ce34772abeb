//! Ablation (§2.2 / §3.4) — value-misprediction recovery: pipeline
//! flush (the paper's scheme) vs. selective consumer replay (the
//! alternative the paper describes for microarchitectures that already
//! implement replay, applicable to GVP wide predictions only).

use tvp_core::config::{CoreConfig, RecoveryPolicy, VpMode};
use tvp_workloads::suite::names;

use super::{baseline_cfg, Assembled, ExpContext, Experiment, ResultFile, ResultSet};
use crate::jobs::Job;
use crate::textln;
use crate::{geomean_speedup, StatsRow};

/// Recovery-policy ablation.
pub struct AblationRecovery;

const POLICIES: [RecoveryPolicy; 2] = [RecoveryPolicy::Flush, RecoveryPolicy::Replay];

fn policy_cfg(policy: RecoveryPolicy) -> CoreConfig {
    let mut cfg = CoreConfig::with_vp(VpMode::Gvp);
    cfg.recovery = policy;
    cfg
}

impl Experiment for AblationRecovery {
    fn name(&self) -> &'static str {
        "ablation_recovery"
    }

    fn jobs(&self, ctx: &ExpContext) -> Vec<Job> {
        let mut jobs = Vec::new();
        for name in names() {
            jobs.push(Job::new(name, ctx.insts, baseline_cfg()));
            for policy in POLICIES {
                jobs.push(Job::new(name, ctx.insts, policy_cfg(policy)));
            }
        }
        jobs
    }

    fn assemble(&self, ctx: &ExpContext, results: &ResultSet<'_>) -> Assembled {
        let mut out = String::new();
        textln!(out, "=== Ablation: flush vs. replay recovery (§3.4) ({} insts) ===\n", ctx.insts);
        textln!(
            out,
            "{:<10} {:>12} {:>10} {:>10} {:>10} {:>12}",
            "policy",
            "geomean %",
            "flushes",
            "replays",
            "squashed",
            "replayed"
        );
        let bases: Vec<_> = names().map(|name| results.of(ctx, name, &baseline_cfg())).collect();
        let mut rows = Vec::new();
        for policy in POLICIES {
            let mut pairs = Vec::new();
            let (mut flushes, mut replays, mut squashed, mut replayed) = (0u64, 0u64, 0u64, 0u64);
            for (name, base) in names().zip(&bases) {
                let s = results.of(ctx, name, &policy_cfg(policy));
                flushes += s.flush.vp_flushes;
                replays += s.flush.vp_replays;
                squashed += s.flush.squashed_uops;
                replayed += s.flush.replayed_uops;
                rows.push(StatsRow::new(name, format!("gvp/{policy:?}"), &s));
                pairs.push((s, *base));
            }
            let g = (geomean_speedup(&pairs) - 1.0) * 100.0;
            textln!(
                out,
                "{:<10} {:>12.2} {:>10} {:>10} {:>10} {:>12}",
                format!("{policy:?}"),
                g,
                flushes,
                replays,
                squashed,
                replayed
            );
        }
        textln!(out);
        textln!(out, "paper: flush is chosen for simplicity (§3.4); replay avoids the");
        textln!(out, "refetch but risks replay tornadoes [24] — silencing guards both.");
        Assembled { report: out, files: vec![ResultFile::rows("ablation_recovery", &rows)] }
    }
}
