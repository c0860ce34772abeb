//! Saturating counter primitives.
//!
//! Counters on fault-campaign paths are hardened: [`sat_inc`] /
//! [`sat_add`] saturate at `u64::MAX` instead of wrapping and bump an
//! `overflow_events` sink, so an arbitrarily long chaos run can
//! degrade a counter's precision but never silently corrupt reported
//! IPC. They live here, not in `tvp_core::stats`, so the core, mem and
//! predictor statistics share one discipline without depending on the
//! core; each of them imports `tvp_obs::counters` directly.

/// Saturating counter increment. On overflow the counter pins at
/// `u64::MAX` and `overflow_events` records the loss.
#[inline]
pub fn sat_inc(counter: &mut u64, overflow_events: &mut u64) {
    sat_add(counter, 1, overflow_events);
}

/// Saturating counter addition (see [`sat_inc`]).
#[inline]
pub fn sat_add(counter: &mut u64, n: u64, overflow_events: &mut u64) {
    let (v, overflowed) = counter.overflowing_add(n);
    if overflowed {
        *counter = u64::MAX;
        *overflow_events = overflow_events.saturating_add(1);
    } else {
        *counter = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturating_counters_never_wrap() {
        let mut counter = u64::MAX - 1;
        let mut overflows = 0;
        sat_inc(&mut counter, &mut overflows);
        assert_eq!(counter, u64::MAX);
        assert_eq!(overflows, 0);
        sat_inc(&mut counter, &mut overflows);
        assert_eq!(counter, u64::MAX, "pins instead of wrapping");
        assert_eq!(overflows, 1);
        sat_add(&mut counter, 1_000, &mut overflows);
        assert_eq!(counter, u64::MAX);
        assert_eq!(overflows, 2);
        let mut fresh = 10;
        sat_add(&mut fresh, 5, &mut overflows);
        assert_eq!(fresh, 15);
        assert_eq!(overflows, 2, "no spurious overflow events");
    }

    #[test]
    fn overflow_sink_itself_saturates() {
        let mut counter = u64::MAX;
        let mut overflows = u64::MAX;
        sat_inc(&mut counter, &mut overflows);
        assert_eq!(overflows, u64::MAX);
    }
}
