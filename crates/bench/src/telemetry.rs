//! Runner telemetry — the run record of one engine invocation.
//!
//! Every `run_all` invocation writes `telemetry.json` (in the working
//! directory, or `$TVP_BENCH_TELEMETRY` when set) describing the run:
//! wall time, simulations per second, aggregate simulated cycles per
//! second, cache hit rate, per-job timings and the campaign
//! fingerprint. The schema is documented in DESIGN.md §10.3. The file
//! is a per-run record, not a benchmark: the simulator's performance
//! ledger is `simbench/` (see `simbench/README.md`). A telemetry file
//! that cannot be written is an I/O error for the caller to report
//! (`tvp_bench::fatal`), never a panic.

use std::io;
use std::time::Duration;

use crate::json;
use crate::json::Layout::{Inline, Lines};
use crate::runner::JobTiming;

/// Default telemetry path (working directory; gitignored).
pub const TELEMETRY_FILE: &str = "telemetry.json";

/// Telemetry record schema. Version 2 added the per-job `cpi` object
/// (cycle-attribution stack components). Version 3 replaced the
/// always-on `per_job` array (which grew one raw record per unique
/// simulation point — 725 entries on a full sweep) with bounded
/// `per_workload` wall-time aggregates (p50/p95/p99/max); the raw
/// array is still available behind the `--per-job` flag. Version 4
/// added the robustness counters: `retries` (jobs that needed the
/// pool's second attempt), `quarantined` (corrupt store blobs set
/// aside and re-simulated), `store_warm_hits` / `store_enabled`
/// (durable result-store activity) and `cache_conflicts`
/// (disagreeing double-inserts — determinism violations). Version 5
/// added the optional `sampling` object emitted by sampled campaigns:
/// the sampling spec (`period`/`warmup`/`measured`), stream coverage
/// counters (`total_insts`, `skipped_insts`, `warmup_insts`,
/// `measured_insts`, `intervals`), `resumed_intervals` (served from a
/// checkpoint instead of re-simulated), the detail fraction actually
/// simulated, and the run fingerprint (the cross-jobs/kill-resume
/// byte-identity witness). Version 6 added three counters of the
/// multi-process campaign fabric (its workers, reclaimed leases and
/// fenced-off publishes) plus `campaign_fingerprint`, the
/// order-sensitive digest of the full deduplicated schedule that
/// serial, `--jobs N`, cold, resumed and warm runs of the same
/// campaign must agree on. Version 7 dropped the three fabric counters
/// with the fabric and keeps `campaign_fingerprint`. Version 8 replaced
/// the timer of the engine's retired prepare phase with
/// `traces_built`, the number of workload traces the pool generated.
pub const TELEMETRY_SCHEMA: u32 = 8;

/// Sampled-campaign section of the telemetry record (schema 5).
#[derive(Clone, Debug)]
pub struct SamplingTelemetry {
    /// Sampling period (architectural instructions per interval).
    pub period: u64,
    /// Warmup instructions per interval.
    pub warmup: u64,
    /// Measured instructions per interval.
    pub measured: u64,
    /// Measured intervals across all workloads.
    pub intervals: u64,
    /// Intervals served from resume checkpoints.
    pub resumed_intervals: u64,
    /// Architectural instructions consumed across all workloads.
    pub total_insts: u64,
    /// Instructions functionally fast-forwarded.
    pub skipped_insts: u64,
    /// Instructions simulated as unmeasured warmup.
    pub warmup_insts: u64,
    /// Instructions simulated and measured.
    pub measured_insts: u64,
    /// Fraction of the stream simulated in detail (warmup + measured).
    pub detail_fraction: f64,
    /// Order-sensitive fingerprint folded over every workload's
    /// sampled-run fingerprint, in campaign order.
    pub fingerprint: u64,
}

impl SamplingTelemetry {
    /// Serialises the section as a JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        Lines.object(&[
            ("period", self.period.to_string()),
            ("warmup", self.warmup.to_string()),
            ("measured", self.measured.to_string()),
            ("intervals", self.intervals.to_string()),
            ("resumed_intervals", self.resumed_intervals.to_string()),
            ("total_insts", self.total_insts.to_string()),
            ("skipped_insts", self.skipped_insts.to_string()),
            ("warmup_insts", self.warmup_insts.to_string()),
            ("measured_insts", self.measured_insts.to_string()),
            ("detail_fraction", json::number(self.detail_fraction)),
            ("fingerprint", json::string(&format!("{:016x}", self.fingerprint))),
        ])
    }
}

/// One engine invocation's performance record.
#[derive(Clone, Debug)]
pub struct Telemetry {
    /// Schema version of this record.
    pub schema: u32,
    /// Worker thread count the pool ran with.
    pub workers: usize,
    /// Architectural instruction budget per workload.
    pub insts: u64,
    /// Whether the run was in smoke mode.
    pub smoke: bool,
    /// Points requested across all experiments (before dedup).
    pub jobs_requested: u64,
    /// Distinct points actually simulated.
    pub jobs_unique: u64,
    /// Requests served by the cache (`requested - unique`).
    pub cache_hits: u64,
    /// `cache_hits / jobs_requested`.
    pub cache_hit_rate: f64,
    /// Jobs that panicked on every attempt.
    pub jobs_failed: u64,
    /// Jobs that needed the pool's single bounded retry.
    pub retries: u64,
    /// Corrupt store blobs quarantined (then re-simulated).
    pub quarantined: u64,
    /// Points served from the durable result store.
    pub store_warm_hits: u64,
    /// Whether a durable result store was attached to this run.
    pub store_enabled: bool,
    /// Disagreeing cache double-inserts (determinism violations;
    /// always 0 on a healthy run).
    pub cache_conflicts: u64,
    /// Order-sensitive digest of the full deduplicated schedule;
    /// identical across serial, `--jobs N`, cold, resumed and warm
    /// runs of the same campaign.
    pub campaign_fingerprint: u64,
    /// Workload traces the pool generated (0 when nothing was
    /// simulated).
    pub traces_built: u64,
    /// Pool wall time (simulation phase only).
    pub sim_wall: Duration,
    /// End-to-end wall time (enumerate + simulate + assemble).
    pub total_wall: Duration,
    /// Sum of per-job simulation times (≈ `sim_wall × workers` when
    /// the pool is saturated).
    pub cpu_time: Duration,
    /// Total simulated cycles across all unique points.
    pub simulated_cycles: u64,
    /// Per-job wall-clock timings (aggregated per workload in the
    /// record; serialised raw only when `emit_per_job` is set).
    pub per_job: Vec<JobTiming>,
    /// Include the raw `per_job` array in the JSON record
    /// (`--per-job`).
    pub emit_per_job: bool,
    /// Sampled-campaign section (schema 5); `None` for full runs.
    pub sampling: Option<SamplingTelemetry>,
}

/// Bounded per-workload digest of job wall times: one entry per
/// workload regardless of how many configurations were swept.
#[derive(Clone, Debug)]
pub struct WorkloadAggregate {
    /// Workload name.
    pub workload: &'static str,
    /// Simulation points run for this workload.
    pub jobs: u64,
    /// Total simulated cycles across those points.
    pub cycles: u64,
    /// Median job wall time, in microseconds.
    pub p50_micros: u128,
    /// 95th-percentile job wall time, in microseconds.
    pub p95_micros: u128,
    /// 99th-percentile job wall time, in microseconds.
    pub p99_micros: u128,
    /// Slowest job wall time, in microseconds.
    pub max_micros: u128,
}

/// Nearest-rank percentile over an ascending-sorted sample
/// (`q` in 0..=100; the empty sample yields 0).
fn percentile(sorted: &[u128], q: u128) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let n = sorted.len() as u128;
    let rank = (q * n).div_ceil(100).max(1);
    sorted[usize::try_from(rank - 1).expect("rank fits usize")]
}

/// Folds raw job timings into one [`WorkloadAggregate`] per workload,
/// sorted by workload name.
#[must_use]
pub fn aggregate_per_workload(timings: &[JobTiming]) -> Vec<WorkloadAggregate> {
    let mut by_workload: std::collections::BTreeMap<&'static str, (u64, Vec<u128>)> =
        std::collections::BTreeMap::new();
    for t in timings {
        let (cycles, walls) = by_workload.entry(t.key.workload).or_default();
        *cycles += t.cycles;
        walls.push(t.wall.as_micros());
    }
    by_workload
        .into_iter()
        .map(|(workload, (cycles, mut walls))| {
            walls.sort_unstable();
            WorkloadAggregate {
                workload,
                jobs: walls.len() as u64,
                cycles,
                p50_micros: percentile(&walls, 50),
                p95_micros: percentile(&walls, 95),
                p99_micros: percentile(&walls, 99),
                max_micros: walls.last().copied().unwrap_or(0),
            }
        })
        .collect()
}

impl Telemetry {
    /// Completed simulations per second of pool wall time.
    #[must_use]
    pub fn sims_per_sec(&self) -> f64 {
        per_second(self.jobs_unique as f64, self.sim_wall)
    }

    /// Aggregate simulated cycles per second of pool wall time.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn cycles_per_sec(&self) -> f64 {
        per_second(self.simulated_cycles as f64, self.sim_wall)
    }

    /// Serialises the record as a JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        let per_workload: Vec<String> = aggregate_per_workload(&self.per_job)
            .iter()
            .map(|w| {
                Inline.object(&[
                    ("workload", json::string(w.workload)),
                    ("jobs", w.jobs.to_string()),
                    ("cycles", w.cycles.to_string()),
                    ("p50_micros", w.p50_micros.to_string()),
                    ("p95_micros", w.p95_micros.to_string()),
                    ("p99_micros", w.p99_micros.to_string()),
                    ("max_micros", w.max_micros.to_string()),
                ])
            })
            .collect();
        let mut fields = vec![
            ("schema", self.schema.to_string()),
            ("workers", self.workers.to_string()),
            ("insts", self.insts.to_string()),
            ("smoke", self.smoke.to_string()),
            ("jobs_requested", self.jobs_requested.to_string()),
            ("jobs_unique", self.jobs_unique.to_string()),
            ("cache_hits", self.cache_hits.to_string()),
            ("cache_hit_rate", json::number(self.cache_hit_rate)),
            ("jobs_failed", self.jobs_failed.to_string()),
            ("retries", self.retries.to_string()),
            ("quarantined", self.quarantined.to_string()),
            ("store_warm_hits", self.store_warm_hits.to_string()),
            ("store_enabled", self.store_enabled.to_string()),
            ("cache_conflicts", self.cache_conflicts.to_string()),
            ("campaign_fingerprint", json::string(&format!("{:016x}", self.campaign_fingerprint))),
            ("traces_built", self.traces_built.to_string()),
            ("sim_wall_seconds", json::number(self.sim_wall.as_secs_f64())),
            ("total_wall_seconds", json::number(self.total_wall.as_secs_f64())),
            ("cpu_seconds", json::number(self.cpu_time.as_secs_f64())),
            ("sims_per_sec", json::number(self.sims_per_sec())),
            ("simulated_cycles", self.simulated_cycles.to_string()),
            ("simulated_cycles_per_sec", json::number(self.cycles_per_sec())),
            ("per_workload", Lines.array(&per_workload)),
        ];
        if let Some(sampling) = &self.sampling {
            fields.push(("sampling", sampling.to_json()));
        }
        if self.emit_per_job {
            let per_job: Vec<String> = self
                .per_job
                .iter()
                .map(|t| {
                    let cpi: Vec<(&str, String)> = t
                        .cpi
                        .components()
                        .iter()
                        .map(|&(name, slots)| (name, slots.to_string()))
                        .collect();
                    Inline.object(&[
                        ("point", json::string(&t.key.display())),
                        ("micros", t.wall.as_micros().to_string()),
                        ("cycles", t.cycles.to_string()),
                        ("cpi", Inline.object(&cpi)),
                    ])
                })
                .collect();
            fields.push(("per_job", Lines.array(&per_job)));
        }
        Lines.object(&fields)
    }

    /// Writes the record to `path`.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be written.
    pub fn write(&self, path: &str) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Resolves the output path: `$TVP_BENCH_TELEMETRY` or
    /// [`TELEMETRY_FILE`].
    #[must_use]
    pub fn default_path() -> String {
        std::env::var("TVP_BENCH_TELEMETRY").unwrap_or_else(|_| TELEMETRY_FILE.to_owned())
    }

    /// One-line human summary (stderr companion of the JSON record).
    #[must_use]
    pub fn summary(&self) -> String {
        format!(
            "{} unique sims ({} requested, {:.1}% cache hits) on {} worker(s): \
             {:.2}s wall, {:.1} sims/s, {:.2}M simulated cycles/s",
            self.jobs_unique,
            self.jobs_requested,
            self.cache_hit_rate * 100.0,
            self.workers,
            self.total_wall.as_secs_f64(),
            self.sims_per_sec(),
            self.cycles_per_sec() / 1e6,
        )
    }
}

#[allow(clippy::cast_precision_loss)]
fn per_second(count: f64, wall: Duration) -> f64 {
    let secs = wall.as_secs_f64();
    if secs > 0.0 {
        count / secs
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::ExpKey;
    use tvp_core::config::CoreConfig;

    fn sample(emit_per_job: bool) -> Telemetry {
        let key = ExpKey::new("k", 100, &CoreConfig::table2());
        Telemetry {
            schema: TELEMETRY_SCHEMA,
            workers: 4,
            insts: 100,
            smoke: true,
            jobs_requested: 10,
            jobs_unique: 6,
            cache_hits: 4,
            cache_hit_rate: 0.4,
            jobs_failed: 0,
            retries: 1,
            quarantined: 2,
            store_warm_hits: 3,
            store_enabled: true,
            cache_conflicts: 0,
            campaign_fingerprint: 0x0123_4567_89AB_CDEF,
            traces_built: 5,
            sim_wall: Duration::from_millis(500),
            total_wall: Duration::from_millis(600),
            cpu_time: Duration::from_millis(1_900),
            simulated_cycles: 1_000_000,
            per_job: vec![JobTiming {
                key,
                wall: Duration::from_millis(80),
                cycles: 123,
                cpi: {
                    let mut cpi = tvp_obs::cpi::CpiStack::default();
                    cpi.retire(7);
                    cpi.lose(tvp_obs::cpi::SlotClass::Memory, 1);
                    cpi
                },
            }],
            emit_per_job,
            sampling: None,
        }
    }

    #[test]
    fn telemetry_serialises_all_headline_fields() {
        let t = sample(false);
        let j = t.to_json();
        for field in [
            "\"sims_per_sec\"",
            "\"cache_hit_rate\"",
            "\"total_wall_seconds\"",
            "\"simulated_cycles_per_sec\"",
            "\"per_workload\"",
            "\"workload\": \"k\"",
            "\"jobs\": 1",
            "\"cycles\": 123",
            "\"p50_micros\": 80000",
            "\"p99_micros\": 80000",
            "\"max_micros\": 80000",
            "\"schema\": 8",
            "\"traces_built\": 5",
            "\"retries\": 1",
            "\"quarantined\": 2",
            "\"store_warm_hits\": 3",
            "\"store_enabled\": true",
            "\"cache_conflicts\": 0",
            "\"campaign_fingerprint\": \"0123456789abcdef\"",
        ] {
            assert!(j.contains(field), "missing {field} in {j}");
        }
        assert!(!j.contains("\"per_job\""), "raw array is opt-in: {j}");
        assert!(!j.contains("\"sampling\""), "sampling section only for sampled runs: {j}");
        assert!((t.sims_per_sec() - 12.0).abs() < 1e-9);
        assert!(t.summary().contains("sims/s"));
    }

    #[test]
    fn sampling_section_is_emitted_for_sampled_runs() {
        let mut t = sample(false);
        t.sampling = Some(SamplingTelemetry {
            period: 1_000_000,
            warmup: 20_000,
            measured: 20_000,
            intervals: 100,
            resumed_intervals: 40,
            total_insts: 100_000_000,
            skipped_insts: 96_000_000,
            warmup_insts: 2_000_000,
            measured_insts: 2_000_000,
            detail_fraction: 0.04,
            fingerprint: 0xDEAD_BEEF_CAFE_F00D,
        });
        let j = t.to_json();
        for field in [
            "\"sampling\"",
            "\"period\": 1000000",
            "\"warmup\": 20000",
            "\"measured\": 20000",
            "\"intervals\": 100",
            "\"resumed_intervals\": 40",
            "\"skipped_insts\": 96000000",
            "\"detail_fraction\"",
            "\"fingerprint\": \"deadbeefcafef00d\"",
        ] {
            assert!(j.contains(field), "missing {field} in {j}");
        }
    }

    #[test]
    fn per_job_array_is_emitted_only_on_request() {
        let j = sample(true).to_json();
        for field in
            ["\"per_job\"", "\"cpi\": {", "\"base\": 7", "\"memory\": 1", "\"micros\": 80000"]
        {
            assert!(j.contains(field), "missing {field} in {j}");
        }
    }

    #[test]
    fn workload_aggregates_fold_configs_and_rank_percentiles() {
        let mk = |workload, millis, cycles| JobTiming {
            key: ExpKey::new(workload, 100, &CoreConfig::table2()),
            wall: Duration::from_millis(millis),
            cycles,
            cpi: tvp_obs::cpi::CpiStack::default(),
        };
        // 100 jobs for "a" (1ms..=100ms) across "configs", 1 for "b".
        let mut timings: Vec<JobTiming> = (1..=100).map(|i| mk("a", i, 10)).collect();
        timings.push(mk("b", 7, 42));
        let aggs = aggregate_per_workload(&timings);
        assert_eq!(aggs.len(), 2, "one entry per workload, not per job");
        let a = &aggs[0];
        assert_eq!((a.workload, a.jobs, a.cycles), ("a", 100, 1_000));
        assert_eq!(a.p50_micros, 50_000);
        assert_eq!(a.p95_micros, 95_000);
        assert_eq!(a.p99_micros, 99_000);
        assert_eq!(a.max_micros, 100_000);
        let b = &aggs[1];
        assert_eq!((b.jobs, b.p50_micros, b.max_micros), (1, 7_000, 7_000));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[10], 50), 10);
        assert_eq!(percentile(&[10, 20], 50), 10);
        assert_eq!(percentile(&[10, 20], 51), 20);
        assert_eq!(percentile(&[10, 20, 30], 100), 30);
    }
}
