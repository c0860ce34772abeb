//! Counter registry and exporters.
//!
//! A [`Registry`] is a flat, ordered list of named counters (`u64`)
//! and gauges (`f64`) assembled after a run by walking the simulator's
//! statistics structs. It serialises to a single schema-versioned JSON
//! document and to Prometheus text exposition format; the bench
//! engine's per-job telemetry and the `simulate --trace` export both
//! consume the JSON form.
//!
//! Names are dotted paths (`core.cycles`, `mem.l1d.misses`,
//! `cpi.base`); the Prometheus emitter maps them to
//! `tvp_core_cycles`-style metric names.

use std::fmt::Write as _;

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
        let mut out = String::new();
        let _ = write!(out, "{{\"schema\":{METRICS_SCHEMA_VERSION},\"counters\":{{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{value}", json_string(name));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{}", json_string(name), json_number(*value));
        }
        out.push_str("}}");
        out
    }

    /// The registry in Prometheus text exposition format (`tvp_`
    /// prefix, dots mapped to underscores).
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let metric = prom_name(name);
            let _ = writeln!(out, "# TYPE {metric} counter");
            let _ = writeln!(out, "{metric} {value}");
        }
        for (name, value) in &self.gauges {
            let metric = prom_name(name);
            let _ = writeln!(out, "# TYPE {metric} gauge");
            if value.is_finite() {
                let _ = writeln!(out, "{metric} {value}");
            } else {
                let _ = writeln!(out, "{metric} NaN");
            }
        }
        out
    }
}

/// A JSON string literal (quotes included): [`json_escape`] in quotes.
#[must_use]
pub fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Escapes `s` for use inside a JSON string literal (no quotes added)
/// with the escapes our code-controlled names and workload labels can
/// need. The workspace's one escape table: `tvp_bench::json::escape`
/// re-exports it.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A JSON number; non-finite floats have no JSON representation and
/// are emitted as `null`.
#[must_use]
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn prom_name(dotted: &str) -> String {
    let mut out = String::with_capacity(dotted.len() + 4);
    out.push_str("tvp_");
    for c in dotted.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
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
        let json = r.to_json();
        assert!(json.starts_with(&format!("{{\"schema\":{METRICS_SCHEMA_VERSION},")));
        assert!(json.contains("\"core.cycles\":1000"));
        assert!(json.contains("\"mem.l1d.misses\":42"));
        assert!(json.contains("\"core.ipc\":2.5"));
        let cycles = json.find("core.cycles").expect("present");
        let misses = json.find("mem.l1d.misses").expect("present");
        assert!(cycles < misses, "insertion order preserved");
    }

    #[test]
    fn non_finite_gauges_serialise_as_null() {
        let mut r = Registry::new();
        r.gauge("bad", f64::INFINITY);
        r.gauge("nan", f64::NAN);
        let json = r.to_json();
        assert!(json.contains("\"bad\":null"));
        assert!(json.contains("\"nan\":null"));
    }

    #[test]
    fn prometheus_text_has_type_lines_and_sanitised_names() {
        let mut r = Registry::new();
        r.counter("mem.l1d.misses", 7);
        r.gauge("core.ipc", 1.25);
        let text = r.to_prometheus();
        assert!(text.contains("# TYPE tvp_mem_l1d_misses counter\ntvp_mem_l1d_misses 7\n"));
        assert!(text.contains("# TYPE tvp_core_ipc gauge\ntvp_core_ipc 1.25\n"));
    }

    #[test]
    fn json_strings_escape_control_and_quote_characters() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("x\ny"), "\"x\\ny\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
