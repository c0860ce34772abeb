//! The workspace's one JSON writer.
//!
//! Every document the workspace writes goes through here:
//! `results/*.json`, telemetry, the fsck and sampling error reports,
//! the metrics registry, the Chrome trace and `cargo xtask lint
//! --json`. The offline build has no `serde`, so values are rendered
//! to strings first: [`string`] for string literals, [`number`] for
//! floats, `to_string` for integers and booleans, and a [`Layout`]'s
//! [`object`](Layout::object) / [`array`](Layout::array) for
//! containers. One place decides how a string is escaped and how a
//! float is written.

use std::fmt::Write as _;

/// Escapes `s` for use inside a JSON string literal (no quotes added).
#[must_use]
pub fn escape(s: &str) -> String {
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

/// A JSON string literal: `s` [escaped](escape), in quotes.
#[must_use]
pub fn string(s: &str) -> String {
    format!("\"{}\"", escape(s))
}

/// A JSON number. Non-finite floats have no JSON representation and
/// are written as `null`, as `serde_json` does.
#[must_use]
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// The separator styles of the workspace's documents. An empty
/// container is `{}` or `[]` in every layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One member per line, indented as the results files nest them:
    /// array elements by two spaces, object members by four, so an
    /// object closes at two spaces wherever it sits. The results
    /// files, telemetry, the fsck and sampling reports and the lint
    /// findings.
    Lines,
    /// One line, a space after each separator: `{"k": v, "j": w}` and
    /// `[a, b]`. The rows inside a [`Layout::Lines`] document.
    Inline,
    /// No whitespace: `{"k":v}` and `[a,b]`. The metrics registry and
    /// the Chrome trace.
    Compact,
}

impl Layout {
    /// An object of `(key, rendered value)` members, in order.
    #[must_use]
    pub fn object(self, fields: &[(&str, String)]) -> String {
        let colon = if self == Layout::Compact { ":" } else { ": " };
        let members: Vec<String> =
            fields.iter().map(|(k, v)| format!("{}{colon}{v}", string(k))).collect();
        self.container('{', '}', "\n    ", "\n  ", &members)
    }

    /// An array of rendered elements, in order.
    #[must_use]
    pub fn array(self, elements: &[String]) -> String {
        self.container('[', ']', "\n  ", "\n", elements)
    }

    /// `open`, the items joined by this layout's separator, `close`.
    /// `indent` and `outdent` are the [`Layout::Lines`] whitespace
    /// before the first item and before `close`.
    fn container(
        self,
        open: char,
        close: char,
        indent: &str,
        outdent: &str,
        items: &[String],
    ) -> String {
        if items.is_empty() {
            return format!("{open}{close}");
        }
        let (sep, indent, outdent) = match self {
            Layout::Lines => (format!(",{indent}"), indent, outdent),
            Layout::Inline => (", ".to_owned(), "", ""),
            Layout::Compact => (",".to_owned(), "", ""),
        };
        format!("{open}{indent}{}{outdent}{close}", items.join(&sep))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_escape_control_and_quote_characters() {
        assert_eq!(string("plain"), "\"plain\"");
        assert_eq!(string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(string("x\ny\r\tz"), "\"x\\ny\\r\\tz\"");
        assert_eq!(string("\u{1}"), "\"\\u0001\"");
        assert_eq!(escape("naïve"), "naïve", "non-ASCII passes through");
    }

    #[test]
    fn non_finite_numbers_are_null() {
        assert_eq!(number(2.5), "2.5");
        assert_eq!(number(0.0), "0");
        assert_eq!(number(f64::INFINITY), "null");
        assert_eq!(number(f64::NEG_INFINITY), "null");
        assert_eq!(number(f64::NAN), "null");
    }

    /// `{"name": "k", "rows": [{"x": 1, "y": [2, 3]}, {}], "none": []}`
    /// with every container in `layout`.
    fn nested(layout: Layout) -> String {
        let row = layout.object(&[
            ("x", "1".to_owned()),
            ("y", layout.array(&["2".to_owned(), "3".to_owned()])),
        ]);
        layout.object(&[
            ("name", string("k")),
            ("rows", layout.array(&[row, layout.object(&[])])),
            ("none", layout.array(&[])),
        ])
    }

    #[test]
    fn lines_layout_is_pinned() {
        assert_eq!(
            nested(Layout::Lines),
            "{\n    \"name\": \"k\",\n    \"rows\": [\n  {\n    \"x\": 1,\n    \"y\": [\n  2,\n  3\n]\n  },\n  \
             {}\n],\n    \"none\": []\n  }"
        );
    }

    #[test]
    fn inline_layout_is_pinned() {
        assert_eq!(
            nested(Layout::Inline),
            "{\"name\": \"k\", \"rows\": [{\"x\": 1, \"y\": [2, 3]}, {}], \"none\": []}"
        );
    }

    #[test]
    fn compact_layout_is_pinned() {
        assert_eq!(
            nested(Layout::Compact),
            "{\"name\":\"k\",\"rows\":[{\"x\":1,\"y\":[2,3]},{}],\"none\":[]}"
        );
    }
}
