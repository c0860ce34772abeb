//! No-progress watchdog and structured deadlock diagnostics.
//!
//! The timing core used to `assert!` after a megacycle without a
//! retirement — a hang would kill the process with a one-line message.
//! The watchdog replaces that: the run loop feeds it `(cycle,
//! retired)` each cycle, and when no µop retires for the configured
//! number of cycles the core stops and fills a
//! [`DeadlockDiagnostic`] describing *why* nothing is moving — ROB
//! head state, queue occupancies, pending flushes/replays, the oldest
//! outstanding MSHR — instead of hanging or dying silently.

use std::fmt;

/// Detects commit starvation: no retirement progress for `threshold`
/// consecutive cycles.
#[derive(Clone, Debug)]
pub struct Watchdog {
    threshold: u64,
    last_progress_cycle: u64,
    last_retired: u64,
}

impl Watchdog {
    /// Creates a watchdog that trips after `threshold` cycles without
    /// progress, counted from `cycle` with `retired` µops already
    /// retired — the start of the observed run, which on a warmed core
    /// is far past cycle 0. A zero threshold disables the watchdog.
    #[must_use]
    pub fn new(threshold: u64, cycle: u64, retired: u64) -> Self {
        Watchdog { threshold, last_progress_cycle: cycle, last_retired: retired }
    }

    /// Feeds one cycle's progress; returns `true` when the watchdog
    /// trips.
    pub fn observe(&mut self, cycle: u64, retired: u64) -> bool {
        if retired != self.last_retired {
            self.last_retired = retired;
            self.last_progress_cycle = cycle;
            return false;
        }
        self.threshold > 0 && cycle.saturating_sub(self.last_progress_cycle) >= self.threshold
    }

    /// The cycle at which [`Watchdog::observe`] trips if nothing
    /// retires before it (`None` when the watchdog is disabled). A
    /// caller that skips cycles stops short of it.
    #[must_use]
    pub fn deadline(&self) -> Option<u64> {
        (self.threshold > 0).then(|| self.last_progress_cycle.saturating_add(self.threshold))
    }

    /// Cycles elapsed since the last observed retirement.
    #[must_use]
    pub fn stalled_for(&self, cycle: u64) -> u64 {
        cycle.saturating_sub(self.last_progress_cycle)
    }
}

/// State of the ROB head at the moment the watchdog tripped.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct RobHeadInfo {
    /// Global sequence number of the head µop.
    pub seq: u64,
    /// PC of the head µop.
    pub pc: u64,
    /// Whether the head has issued.
    pub issued: bool,
    /// Whether the head was eliminated at rename (never issues).
    pub eliminated: bool,
    /// Whether the head still waits in the issue queue.
    pub in_iq: bool,
    /// Cycle its result becomes available (`u64::MAX` = unknown).
    pub done_cycle: u64,
}

/// The oldest outstanding miss-status-holding register.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct MshrInfo {
    /// Cache level holding the MSHR ("l1d", "l1i", "l2", "l3").
    pub level: &'static str,
    /// Line address of the outstanding miss.
    pub line_addr: u64,
    /// Cycle the fill completes.
    pub done_cycle: u64,
}

/// Structured dump of the stalled pipeline, produced instead of a
/// hang when the watchdog trips.
#[derive(Clone, Debug, Default)]
pub struct DeadlockDiagnostic {
    /// Cycle at which the watchdog tripped.
    pub cycle: u64,
    /// µops retired before the stall.
    pub uops_retired: u64,
    /// Length of the no-progress window.
    pub stalled_cycles: u64,
    /// ROB occupancy.
    pub rob_occupancy: usize,
    /// ROB head state, if the ROB is non-empty.
    pub rob_head: Option<RobHeadInfo>,
    /// Issue-queue occupancy.
    pub iq_occupancy: usize,
    /// Load-queue occupancy.
    pub lq_occupancy: usize,
    /// Store-queue occupancy.
    pub sq_occupancy: usize,
    /// Fetch-queue occupancy.
    pub fetch_queue: usize,
    /// Trace-replay cursor (next µop index to fetch).
    pub trace_cursor: usize,
    /// Cycle the front end resumes fetching after a redirect.
    pub fetch_resume: u64,
    /// Sequence number of the unresolved branch fetch waits on.
    pub fetch_wait_branch: Option<u64>,
    /// Pending (not yet applied) pipeline flushes.
    pub pending_flushes: usize,
    /// Pending (not yet applied) VP replays.
    pub pending_replays: usize,
    /// Cycle until which value-prediction lookups are silenced.
    pub silence_until: u64,
    /// Oldest outstanding cache miss, if any.
    pub oldest_mshr: Option<MshrInfo>,
}

impl fmt::Display for DeadlockDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline made no commit progress for {} cycles (cycle {}, {} µops retired)",
            self.stalled_cycles, self.cycle, self.uops_retired
        )?;
        match self.rob_head {
            Some(h) => writeln!(
                f,
                "  rob: {} entries; head seq {} pc {:#x} issued={} eliminated={} in_iq={} \
                 done_cycle={}",
                self.rob_occupancy, h.seq, h.pc, h.issued, h.eliminated, h.in_iq, h.done_cycle
            )?,
            None => writeln!(f, "  rob: empty")?,
        }
        writeln!(
            f,
            "  queues: iq={} lq={} sq={} fetch={} (cursor {}, resume @{}, wait_branch {:?})",
            self.iq_occupancy,
            self.lq_occupancy,
            self.sq_occupancy,
            self.fetch_queue,
            self.trace_cursor,
            self.fetch_resume,
            self.fetch_wait_branch
        )?;
        writeln!(
            f,
            "  recovery: {} pending flushes, {} pending replays, vp silenced until cycle {}",
            self.pending_flushes, self.pending_replays, self.silence_until
        )?;
        match self.oldest_mshr {
            Some(m) => write!(
                f,
                "  memory: oldest MSHR {} line {:#x} fills at cycle {}",
                m.level, m.line_addr, m.done_cycle
            ),
            None => write!(f, "  memory: no outstanding MSHRs"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trips_only_after_threshold_without_progress() {
        let mut wd = Watchdog::new(10, 0, 0);
        for cycle in 0..10 {
            assert!(!wd.observe(cycle, 5), "progress at cycle 0 resets the window");
        }
        assert!(wd.observe(10, 5));
        assert_eq!(wd.stalled_for(10), 10);
    }

    #[test]
    fn progress_resets_the_window() {
        let mut wd = Watchdog::new(10, 0, 0);
        assert!(!wd.observe(0, 0));
        assert!(!wd.observe(9, 1), "retired count moved");
        assert!(!wd.observe(18, 1));
        assert!(wd.observe(19, 1));
    }

    #[test]
    fn stall_counts_from_the_start_it_was_given() {
        // Built mid-run (a warmed core, stats just reset): no progress
        // yet is not a stall until `threshold` cycles past the start.
        let mut wd = Watchdog::new(10, 5_000, 0);
        assert!(!wd.observe(5_001, 0));
        assert!(!wd.observe(5_009, 0));
        assert!(wd.observe(5_010, 0));
        assert_eq!(wd.stalled_for(5_010), 10);
    }

    #[test]
    fn zero_threshold_disables() {
        let mut wd = Watchdog::new(0, 0, 0);
        for cycle in 0..100_000 {
            assert!(!wd.observe(cycle, 0));
        }
    }

    #[test]
    fn diagnostic_renders_key_fields() {
        let d = DeadlockDiagnostic {
            cycle: 1234,
            uops_retired: 55,
            stalled_cycles: 1000,
            rob_occupancy: 3,
            rob_head: Some(RobHeadInfo {
                seq: 55,
                pc: 0x1_0040,
                issued: false,
                eliminated: false,
                in_iq: true,
                done_cycle: u64::MAX,
            }),
            oldest_mshr: Some(MshrInfo { level: "l1d", line_addr: 0x4_0000, done_cycle: 2000 }),
            ..DeadlockDiagnostic::default()
        };
        let text = d.to_string();
        assert!(text.contains("no commit progress for 1000 cycles"), "{text}");
        assert!(text.contains("head seq 55"), "{text}");
        assert!(text.contains("oldest MSHR l1d"), "{text}");
    }
}
