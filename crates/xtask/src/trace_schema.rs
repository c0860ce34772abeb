//! Schema validation for `simulate --trace` output.
//!
//! A minimal recursive-descent JSON parser (no dependencies, matching
//! the workspace's offline-build policy) plus the structural checks the
//! CI trace-smoke step gates on:
//!
//! * the document is one well-formed JSON object;
//! * it carries a numeric `schema` version and a `traceEvents` array;
//! * every trace event is an object with `name`, `ph`, `pid` and `tid`
//!   members, and every non-metadata event (`"ph" != "M"`) also has a
//!   numeric `ts` timestamp;
//! * the embedded `metrics` object is itself schema-versioned and has a
//!   `counters` object.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed JSON value. `Object` keeps insertion-agnostic sorted keys —
/// ordering does not matter for validation.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number, kept as f64 (validation only needs magnitude).
    Number(f64),
    /// A string literal.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object.
    Object(BTreeMap<String, Value>),
}

impl Value {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Number(_) => "number",
            Value::String(_) => "string",
            Value::Array(_) => "array",
            Value::Object(_) => "object",
        }
    }
}

/// A parse or validation failure, with enough context to locate it.
#[derive(Debug)]
pub struct SchemaError(String);

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

fn err<T>(msg: impl Into<String>) -> Result<T, SchemaError> {
    Err(SchemaError(msg.into()))
}

// --------------------------------------------------------------------
// parser
// --------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Self {
        Parser { bytes: src.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<(), SchemaError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!(
                "expected `{}` at byte {}, found {:?}",
                c as char,
                self.pos,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn value(&mut self) -> Result<Value, SchemaError> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Value::String(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => err(format!("unexpected {:?} at byte {}", other.map(|b| b as char), self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Value) -> Result<Value, SchemaError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            err(format!("malformed literal at byte {} (expected `{lit}`)", self.pos))
        }
    }

    fn number(&mut self) -> Result<Value, SchemaError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| SchemaError("non-UTF8 number".to_owned()))?;
        match text.parse::<f64>() {
            Ok(n) => Ok(Value::Number(n)),
            Err(_) => err(format!("malformed number `{text}` at byte {start}")),
        }
    }

    fn string(&mut self) -> Result<String, SchemaError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok());
                            let Some(code) = hex else {
                                return err(format!("malformed \\u escape at byte {}", self.pos));
                            };
                            // Surrogate pairs are not produced by our
                            // emitter; map lone surrogates to U+FFFD.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        other => {
                            return err(format!("bad escape {:?}", other.map(|b| b as char)));
                        }
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x80 => {
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one multi-byte UTF-8 scalar. Decode from a
                    // bounded 4-byte window, never the whole remaining
                    // input — revalidating the tail per character would
                    // make parsing quadratic in document size.
                    let end = (self.pos + 4).min(self.bytes.len());
                    let window = &self.bytes[self.pos..end];
                    let c = match std::str::from_utf8(window) {
                        Ok(s) => s.chars().next(),
                        Err(e) if e.valid_up_to() > 0 => {
                            std::str::from_utf8(&window[..e.valid_up_to()])
                                .expect("validated prefix")
                                .chars()
                                .next()
                        }
                        Err(_) => None,
                    };
                    let Some(c) = c else {
                        return err(format!("non-UTF8 string at byte {}", self.pos));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Value, SchemaError> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Array(out));
        }
        loop {
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Array(out));
                }
                other => {
                    return err(format!(
                        "expected `,` or `]`, found {:?}",
                        other.map(|b| b as char)
                    ));
                }
            }
        }
    }

    fn object(&mut self) -> Result<Value, SchemaError> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Object(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Object(out));
                }
                other => {
                    return err(format!(
                        "expected `,` or `}}`, found {:?}",
                        other.map(|b| b as char)
                    ));
                }
            }
        }
    }
}

/// Parses `src` as one JSON document (trailing whitespace allowed).
pub fn parse(src: &str) -> Result<Value, SchemaError> {
    let mut p = Parser::new(src);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return err(format!("trailing garbage at byte {}", p.pos));
    }
    Ok(v)
}

// --------------------------------------------------------------------
// validation
// --------------------------------------------------------------------

fn get<'v>(obj: &'v BTreeMap<String, Value>, key: &str) -> Result<&'v Value, SchemaError> {
    match obj.get(key) {
        Some(v) => Ok(v),
        None => err(format!("missing required member `{key}`")),
    }
}

fn as_object<'v>(v: &'v Value, what: &str) -> Result<&'v BTreeMap<String, Value>, SchemaError> {
    match v {
        Value::Object(m) => Ok(m),
        other => err(format!("{what} must be an object, found {}", other.type_name())),
    }
}

fn as_number(v: &Value, what: &str) -> Result<f64, SchemaError> {
    match v {
        Value::Number(n) => Ok(*n),
        other => err(format!("{what} must be a number, found {}", other.type_name())),
    }
}

/// Validates a `simulate --trace` document. Returns a one-line summary
/// (event count, schema versions) on success.
pub fn validate(src: &str) -> Result<String, SchemaError> {
    let doc = parse(src)?;
    let root = as_object(&doc, "document root")?;
    let schema = as_number(get(root, "schema")?, "`schema`")?;
    let events = match get(root, "traceEvents")? {
        Value::Array(events) => events,
        other => {
            return err(format!("`traceEvents` must be an array, found {}", other.type_name()));
        }
    };
    let mut instants = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ev = as_object(ev, &format!("traceEvents[{i}]"))?;
        for key in ["name", "ph", "pid", "tid"] {
            if ev.get(key).is_none() {
                return err(format!("traceEvents[{i}] is missing `{key}`"));
            }
        }
        let is_meta = matches!(ev.get("ph"), Some(Value::String(ph)) if ph == "M");
        if !is_meta {
            as_number(get(ev, "ts")?, &format!("traceEvents[{i}].ts"))?;
            instants += 1;
        }
    }
    let metrics = as_object(get(root, "metrics")?, "`metrics`")?;
    let metrics_schema = as_number(get(metrics, "schema")?, "`metrics.schema`")?;
    as_object(get(metrics, "counters")?, "`metrics.counters`")?;
    Ok(format!(
        "{instants} event(s), {} record(s) total, schema {schema}, metrics schema {metrics_schema}",
        events.len()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"{"schema":1,"displayTimeUnit":"ns","traceEvents":[
        {"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{"name":"commit"}},
        {"name":"commit","cat":"pipeline","ph":"i","s":"t","ts":42,"pid":0,"tid":1,
         "args":{"seq":7,"pc":"0x400","arg":0}}
    ],"otherData":{"event_count":1,"dropped_events":0},
      "metrics":{"schema":1,"counters":{"core.cycles":100},"gauges":{"core.ipc":1.5}}}"#;

    #[test]
    fn good_document_validates_with_summary() {
        let summary = validate(GOOD).expect("valid");
        assert!(summary.contains("1 event(s)"), "{summary}");
        assert!(summary.contains("schema 1"), "{summary}");
    }

    #[test]
    fn parser_handles_scalars_arrays_and_escapes() {
        assert_eq!(parse("null").unwrap(), Value::Null);
        assert_eq!(parse(" true ").unwrap(), Value::Bool(true));
        assert_eq!(parse("-2.5e2").unwrap(), Value::Number(-250.0));
        assert_eq!(parse(r#""a\n\"bA""#).unwrap(), Value::String("a\n\"bA".to_owned()));
        // Multi-byte scalars survive the bounded-window decode,
        // including one sitting flush against the closing quote.
        assert_eq!(parse("\"µop → 紀\"").unwrap(), Value::String("µop → 紀".to_owned()));
        assert_eq!(
            parse("[1, [2], {}]").unwrap(),
            Value::Array(vec![
                Value::Number(1.0),
                Value::Array(vec![Value::Number(2.0)]),
                Value::Object(BTreeMap::new()),
            ])
        );
    }

    #[test]
    fn json_writer_strings_round_trip_through_the_parser() {
        let s = "quote \" backslash \\ newline \n control \u{1} end";
        let literal = tvp_obs::json::string(s);
        assert_eq!(parse(&literal).unwrap(), Value::String(s.to_owned()), "{literal}");
    }

    #[test]
    fn malformed_json_is_rejected() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "{\"a\":1}x", "\"open"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn missing_members_fail_with_names() {
        let no_events = r#"{"schema":1,"metrics":{"schema":1,"counters":{}}}"#;
        let e = validate(no_events).unwrap_err().to_string();
        assert!(e.contains("traceEvents"), "{e}");

        let no_ts = r#"{"schema":1,"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":1}],
                        "metrics":{"schema":1,"counters":{}}}"#;
        let e = validate(no_ts).unwrap_err().to_string();
        assert!(e.contains("ts"), "{e}");

        let no_metrics_schema = r#"{"schema":1,"traceEvents":[],"metrics":{"counters":{}}}"#;
        let e = validate(no_metrics_schema).unwrap_err().to_string();
        assert!(e.contains("schema"), "{e}");
    }

    #[test]
    fn metadata_records_need_no_timestamp() {
        let meta_only = r#"{"schema":1,
            "traceEvents":[{"name":"thread_name","ph":"M","pid":0,"tid":3,"args":{"name":"flush"}}],
            "metrics":{"schema":1,"counters":{}}}"#;
        let summary = validate(meta_only).expect("metadata-only trace is valid");
        assert!(summary.contains("0 event(s)"), "{summary}");
    }

    #[test]
    fn real_exporter_output_validates() {
        use tvp_obs::event::{EventKind, TraceEvent};
        let mut metrics = tvp_obs::Registry::new();
        metrics.counter("core.cycles", 13);
        let events = [TraceEvent { cycle: 5, seq: 1, pc: 0x400, arg: 0, kind: EventKind::Rename }];
        let doc = tvp_obs::export::chrome_trace(&events, 0, &metrics);
        let summary = validate(&doc).expect("the exporter's document validates");
        assert!(summary.contains("1 event(s)"), "{summary}");
    }
}
