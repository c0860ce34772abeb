//! Counter registry.
//!
//! A [`Registry`] is a flat, ordered list of named counters (`u64`)
//! and gauges (`f64`) assembled after a run by walking the simulator's
//! statistics structs. It serialises to a single schema-versioned JSON
//! document, the workspace's one metrics format; the `simulate
//! --trace` export embeds it.
//!
//! Names are dotted paths (`core.cycles`, `mem.l1d.misses`,
//! `cpi.base`).

use crate::json;
use crate::json::Layout::Compact;

/// Version of the exported metrics document. Bump when a counter is
/// renamed or removed, or the document shape changes; adding new
/// counters is backward compatible and needs no bump.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// An ordered collection of named counters and gauges.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, f64)>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds a monotone counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.counters.push((name.to_owned(), value));
    }

    /// Adds a counter under a dotted scope (`scope.name`).
    pub fn counter_scoped(&mut self, scope: &str, name: &str, value: u64) {
        self.counters.push((format!("{scope}.{name}"), value));
    }

    /// Adds a point-in-time gauge (ratios, derived metrics).
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.gauges.push((name.to_owned(), value));
    }

    /// The counters, in insertion order.
    #[must_use]
    pub fn counters(&self) -> &[(String, u64)] {
        &self.counters
    }

    /// The gauges, in insertion order.
    #[must_use]
    pub fn gauges(&self) -> &[(String, f64)] {
        &self.gauges
    }

    /// The registry as one schema-versioned JSON object:
    /// `{"schema": N, "counters": {...}, "gauges": {...}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        let counters: Vec<(&str, String)> =
            self.counters.iter().map(|(name, value)| (name.as_str(), value.to_string())).collect();
        let gauges: Vec<(&str, String)> =
            self.gauges.iter().map(|(name, value)| (name.as_str(), json::number(*value))).collect();
        Compact.object(&[
            ("schema", METRICS_SCHEMA_VERSION.to_string()),
            ("counters", Compact.object(&counters)),
            ("gauges", Compact.object(&gauges)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_document_is_schema_versioned_and_ordered() {
        let mut r = Registry::new();
        r.counter("core.cycles", 1000);
        r.counter_scoped("mem.l1d", "misses", 42);
        r.gauge("core.ipc", 2.5);
        r.gauge("core.nan", f64::NAN);
        let json = r.to_json();
        assert!(json.starts_with(&format!("{{\"schema\":{METRICS_SCHEMA_VERSION},")));
        assert!(json.contains("\"core.cycles\":1000"));
        assert!(json.contains("\"mem.l1d.misses\":42"));
        assert!(json.contains("\"core.ipc\":2.5"));
        assert!(json.contains("\"core.nan\":null"), "gauges follow the number rule");
        let cycles = json.find("core.cycles").expect("present");
        let misses = json.find("mem.l1d.misses").expect("present");
        assert!(cycles < misses, "insertion order preserved");
    }
}
