//! Chrome `trace_event` export of a captured event ring.
//!
//! Produces the JSON Object Format understood by `chrome://tracing`
//! and Perfetto: a top-level object with a `traceEvents` array plus
//! our own `schema`, `otherData` and `metrics` members (the format
//! explicitly allows extra top-level keys). Each pipeline event
//! becomes an instant event (`"ph":"i"`) on a per-[`EventKind`] lane
//! (`tid`), with the simulated cycle as the timestamp, and lanes are
//! labelled with `thread_name` metadata records.

use crate::event::{EventKind, TraceEvent};
use crate::json;
use crate::json::Layout::Compact;
use crate::registry::Registry;

/// Version of the trace document envelope (the non-`traceEvents`
/// members). The embedded metrics object carries its own
/// [`crate::registry::METRICS_SCHEMA_VERSION`].
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Renders `events` (oldest first) and `metrics` as one Chrome trace
/// JSON document. `dropped` reports ring overwrites so a consumer
/// knows the window is a suffix of the run.
#[must_use]
pub fn chrome_trace(events: &[TraceEvent], dropped: u64, metrics: &Registry) -> String {
    let lanes = EventKind::all().into_iter().map(|kind| {
        Compact.object(&[
            ("name", json::string("thread_name")),
            ("ph", json::string("M")),
            ("pid", "0".to_owned()),
            ("tid", kind.lane().to_string()),
            ("args", Compact.object(&[("name", json::string(kind.name()))])),
        ])
    });
    let instants = events.iter().map(|ev| {
        let args = Compact.object(&[
            ("seq", ev.seq.to_string()),
            ("pc", json::string(&format!("{:#x}", ev.pc))),
            ("arg", ev.arg.to_string()),
        ]);
        Compact.object(&[
            ("name", json::string(ev.kind.name())),
            ("cat", json::string("pipeline")),
            ("ph", json::string("i")),
            ("s", json::string("t")),
            ("ts", ev.cycle.to_string()),
            ("pid", "0".to_owned()),
            ("tid", ev.kind.lane().to_string()),
            ("args", args),
        ])
    });
    let trace_events: Vec<String> = lanes.chain(instants).collect();
    Compact.object(&[
        ("schema", TRACE_SCHEMA_VERSION.to_string()),
        ("displayTimeUnit", json::string("ns")),
        ("traceEvents", Compact.array(&trace_events)),
        (
            "otherData",
            Compact.object(&[
                ("event_count", events.len().to_string()),
                ("dropped_events", dropped.to_string()),
            ]),
        ),
        ("metrics", metrics.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent { cycle: 5, seq: 1, pc: 0x400, arg: 0, kind: EventKind::Rename },
            TraceEvent { cycle: 9, seq: 1, pc: 0x400, arg: 0, kind: EventKind::Commit },
            TraceEvent { cycle: 12, seq: 2, pc: 0x404, arg: 3, kind: EventKind::Flush },
        ]
    }

    #[test]
    fn document_has_envelope_events_and_metrics() {
        let mut reg = Registry::new();
        reg.counter("core.cycles", 13);
        let doc = chrome_trace(&sample(), 7, &reg);
        assert!(doc.starts_with(&format!("{{\"schema\":{TRACE_SCHEMA_VERSION},")));
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.contains("\"name\":\"commit\""));
        assert!(doc.contains("\"ts\":12"));
        assert!(doc.contains("\"pc\":\"0x404\""));
        assert!(doc.contains("\"dropped_events\":7"));
        assert!(doc.contains("\"event_count\":3"));
        assert!(doc.contains("\"metrics\":{\"schema\":"));
        assert!(doc.contains("\"core.cycles\":13"));
        assert!(doc.ends_with("}"));
    }

    #[test]
    fn every_lane_is_labelled_even_with_no_events() {
        let doc = chrome_trace(&[], 0, &Registry::new());
        for kind in EventKind::all() {
            assert!(
                doc.contains(&format!("\"args\":{{\"name\":\"{}\"}}", kind.name())),
                "lane {} labelled",
                kind.name()
            );
        }
    }

    #[test]
    fn braces_and_brackets_balance() {
        let doc = chrome_trace(&sample(), 0, &Registry::new());
        let depth = |open: char, close: char| {
            doc.chars().fold(0i64, |d, c| {
                if c == open {
                    d + 1
                } else if c == close {
                    d - 1
                } else {
                    d
                }
            })
        };
        assert_eq!(depth('{', '}'), 0);
        assert_eq!(depth('[', ']'), 0);
    }
}
