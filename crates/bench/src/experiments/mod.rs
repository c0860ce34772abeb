//! Experiment definitions: every figure/table/ablation as a job
//! enumerator plus an assembler.
//!
//! An [`Experiment`] no longer simulates anything itself. It
//! *enumerates* the simulation points it needs as keyed [`Job`]s, the
//! engine runs the deduplicated union of all experiments' jobs on the
//! thread pool, and then each experiment *assembles* its report tables
//! (as text; it prints nothing) and JSON files from the cached
//! [`SimPoint`](crate::jobs::SimPoint) results. Enumeration and
//! assembly are pure and single-threaded; only the keyed simulations
//! run concurrently — which is why serial and parallel runs of the same
//! grid emit byte-identical JSON.

use tvp_core::config::{CoreConfig, VpMode};
use tvp_core::stats::SimStats;
use tvp_workloads::stream::TraceSource;
use tvp_workloads::suite::{by_name, names};
use tvp_workloads::trace::Trace;

use crate::cache::ResultCache;
use crate::jobs::{ExpKey, Job};
use crate::{PreparedWorkload, StatsRow};

pub mod ablation_dvtage;
pub mod ablation_prefetcher;
pub mod ablation_recovery;
pub mod ablation_silencing;
pub mod fig1;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod table3;

/// Shared inputs every experiment sees: the instruction budget.
/// Experiments enumerate and assemble by workload name
/// ([`tvp_workloads::suite::names`]) and build no trace; the runner
/// builds each trace inside the pool, only for cold points.
pub struct ExpContext {
    /// Architectural instructions per workload.
    pub insts: u64,
    /// Read by no experiment and left empty by the engine. It exists
    /// only for simbench's traced driver, which still fills it, and
    /// goes with [`PreparedWorkload`] in ROADMAP item 2(b).
    pub prepared: Vec<PreparedWorkload>,
}

/// One JSON artefact an experiment produces; the engine writes it to
/// `<results-dir>/<name>.json`.
pub struct ResultFile {
    /// File stem under the results directory.
    pub name: String,
    /// Rendered JSON document.
    pub json: String,
}

impl ResultFile {
    /// Renders experiment rows as the standard results array.
    #[must_use]
    pub fn rows(name: &str, rows: &[StatsRow]) -> Self {
        let rendered: Vec<String> = rows.iter().map(StatsRow::to_json).collect();
        ResultFile { name: name.to_owned(), json: crate::json::Layout::Lines.array(&rendered) }
    }
}

/// What assembling one experiment produced: its report tables as text,
/// and its JSON artefacts. Iterating it yields the artefacts, for a
/// caller that only writes the files.
pub struct Assembled {
    /// The tables, one `\n`-terminated line each.
    pub report: String,
    /// The JSON artefacts.
    pub files: Vec<ResultFile>,
}

impl IntoIterator for Assembled {
    type Item = ResultFile;
    type IntoIter = std::vec::IntoIter<ResultFile>;

    fn into_iter(self) -> Self::IntoIter {
        self.files.into_iter()
    }
}

/// Read-only view of the simulated points, for assembly.
pub struct ResultSet<'a> {
    cache: &'a ResultCache,
}

impl<'a> ResultSet<'a> {
    /// Wraps a populated cache.
    #[must_use]
    pub fn new(cache: &'a ResultCache) -> Self {
        ResultSet { cache }
    }

    /// Stats for an explicit key.
    ///
    /// # Panics
    ///
    /// Panics if the point was never simulated — the engine only runs
    /// an experiment's assembly once every one of its enumerated jobs
    /// succeeded, so a miss here is an enumerate/assemble mismatch
    /// inside the experiment.
    pub fn stats(&self, key: &ExpKey) -> SimStats {
        self.cache
            .get(key)
            .unwrap_or_else(|| {
                panic!(
                    "missing simulation point {} — assemble asked for a key its \
                     jobs() never enumerated",
                    key.display()
                )
            })
            .stats
    }

    /// Stats for (workload, config) under the context's budget.
    pub fn of(&self, ctx: &ExpContext, workload: &'static str, cfg: &CoreConfig) -> SimStats {
        self.stats(&ExpKey::new(workload, ctx.insts, cfg))
    }
}

/// One figure/table/ablation of the paper.
pub trait Experiment: Sync {
    /// The name `run_all` selects the experiment by (`run_all NAME`),
    /// also its banner label when several experiments run.
    fn name(&self) -> &'static str;
    /// Enumerates every simulation point this experiment needs.
    fn jobs(&self, ctx: &ExpContext) -> Vec<Job>;
    /// Renders the experiment's tables and its JSON artefacts, reading
    /// every simulated point from `results`.
    fn assemble(&self, ctx: &ExpContext, results: &ResultSet<'_>) -> Assembled;
}

/// The paper configuration shorthand shared by the experiments
/// (identical to what the pre-engine binaries simulated).
#[must_use]
pub fn vp_cfg(vp: VpMode, spsr: bool) -> CoreConfig {
    let mut cfg = CoreConfig::with_vp(vp);
    cfg.spsr = spsr;
    cfg
}

/// The DSR baseline every speedup is reported against.
#[must_use]
pub fn baseline_cfg() -> CoreConfig {
    vp_cfg(VpMode::Off, false)
}

/// Enumerates one job per workload for a fixed configuration.
#[must_use]
pub fn per_workload_jobs(ctx: &ExpContext, cfg: &CoreConfig) -> Vec<Job> {
    names().map(|name| Job::new(name, ctx.insts, cfg.clone())).collect()
}

/// Instructions per chunk when a trace analysis streams a workload.
const STREAM_CHUNK: u64 = 4_096;

/// Streams the first `insts` instructions of workload `name` from its
/// functional machine through `f`, in chunks of at most
/// [`STREAM_CHUNK`] instructions: only one chunk of µop records is
/// alive at a time, and the chunks concatenate to `Workload::trace`.
///
/// # Panics
///
/// Panics if `name` is not a suite workload.
pub(crate) fn for_each_chunk(name: &str, insts: u64, mut f: impl FnMut(&Trace)) {
    let workload = by_name(name).unwrap_or_else(|| panic!("no suite workload named {name}"));
    let mut source = workload.source();
    let mut chunk = Trace::default();
    let mut left = insts;
    while left > 0 {
        let want = left.min(STREAM_CHUNK);
        chunk.uops.clear();
        chunk.arch_insts = 0;
        let got = source.fill(want, &mut chunk).expect("machine source cannot fail");
        f(&chunk);
        if got < want {
            break;
        }
        left -= got;
    }
}

/// All eleven experiments, in the canonical `run_all` order.
#[must_use]
pub fn all() -> Vec<Box<dyn Experiment>> {
    vec![
        Box::new(fig1::Fig1),
        Box::new(fig2::Fig2),
        Box::new(fig3::Fig3),
        Box::new(table3::Table3),
        Box::new(fig4::Fig4),
        Box::new(fig5::Fig5),
        Box::new(fig6::Fig6),
        Box::new(ablation_silencing::AblationSilencing),
        Box::new(ablation_prefetcher::AblationPrefetcher),
        Box::new(ablation_recovery::AblationRecovery),
        Box::new(ablation_dvtage::AblationDvtage),
    ]
}
