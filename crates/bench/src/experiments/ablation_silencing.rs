//! Ablation (§3.4.1) — predictor silencing window after a value
//! misprediction.
//!
//! The paper finds 15 cycles sufficient in most cases but uses 250 to
//! curb a TVP/stride-prefetcher pathology in roms; a 0-cycle window
//! risks livelock (the refetched µop would immediately be re-predicted
//! with the same wrong value), which our flush-including-self recovery
//! makes observable as a flush storm.

use tvp_core::config::{CoreConfig, VpMode};
use tvp_workloads::suite::names;

use super::{baseline_cfg, Assembled, ExpContext, Experiment, ResultFile, ResultSet};
use crate::jobs::Job;
use crate::textln;
use crate::{geomean_speedup, StatsRow};

/// Silencing-window ablation.
pub struct AblationSilencing;

const FLAVOURS: [VpMode; 2] = [VpMode::Tvp, VpMode::Gvp];
const WINDOWS: [(u64, bool); 4] = [(15, false), (250, false), (1_000, false), (250, true)];

fn window_cfg(vp: VpMode, silence: u64, adaptive: bool) -> CoreConfig {
    let mut cfg = CoreConfig::with_vp(vp);
    cfg.silence_cycles = silence;
    cfg.adaptive_silencing = adaptive;
    cfg
}

impl Experiment for AblationSilencing {
    fn name(&self) -> &'static str {
        "ablation_silencing"
    }

    fn jobs(&self, ctx: &ExpContext) -> Vec<Job> {
        let mut jobs = Vec::new();
        for name in names() {
            jobs.push(Job::new(name, ctx.insts, baseline_cfg()));
            for vp in FLAVOURS {
                for (silence, adaptive) in WINDOWS {
                    jobs.push(Job::new(name, ctx.insts, window_cfg(vp, silence, adaptive)));
                }
            }
        }
        jobs
    }

    fn assemble(&self, ctx: &ExpContext, results: &ResultSet<'_>) -> Assembled {
        let mut out = String::new();
        textln!(out, "=== Ablation: VP silencing window (§3.4.1) ({} insts) ===\n", ctx.insts);
        textln!(
            out,
            "{:<10} {:<10} {:>12} {:>14} {:>12}",
            "vp",
            "silence",
            "geomean %",
            "vp flushes",
            "squashed"
        );
        let bases: Vec<_> = names().map(|name| results.of(ctx, name, &baseline_cfg())).collect();
        let mut rows = Vec::new();
        for vp in FLAVOURS {
            for (silence, adaptive) in WINDOWS {
                let mut pairs = Vec::new();
                let mut flushes = 0u64;
                let mut squashed = 0u64;
                for (name, base) in names().zip(&bases) {
                    let s = results.of(ctx, name, &window_cfg(vp, silence, adaptive));
                    flushes += s.flush.vp_flushes;
                    squashed += s.flush.squashed_uops;
                    let label = if adaptive {
                        format!("{vp:?}/adaptive{silence}")
                    } else {
                        format!("{vp:?}/silence{silence}")
                    };
                    rows.push(StatsRow::new(name, label, &s));
                    pairs.push((s, *base));
                }
                let g = (geomean_speedup(&pairs) - 1.0) * 100.0;
                let label = if adaptive { format!("{silence}+adapt") } else { silence.to_string() };
                textln!(
                    out,
                    "{:<10} {:<10} {:>12.2} {:>14} {:>12}",
                    format!("{vp:?}"),
                    label,
                    g,
                    flushes,
                    squashed
                );
            }
        }
        textln!(out);
        textln!(out, "paper: 15 cycles performs like 250 except for roms under TVP;");
        textln!(out, "250 is used everywhere as it costs nothing in MVP/GVP. The");
        textln!(out, "adaptive row is this reproduction's extension (§3.4.1 future");
        textln!(out, "work): geometric backoff on clustered mispredictions.");
        Assembled { report: out, files: vec![ResultFile::rows("ablation_silencing", &rows)] }
    }
}
