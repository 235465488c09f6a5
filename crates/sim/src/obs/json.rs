//! The workspace's JSON writer: ordered, integer-only values with one
//! fixed layout.
//!
//! The registry snapshot, the trace JSONL and the harness reports are all
//! built as [`Json`] values, so they share one escaping routine and one
//! layout rule:
//!
//! * a document ([`Json::render`]) prints every object one key per line
//!   (nested objects too) and every array one element per line, with each
//!   element inline;
//! * an inline value ([`Json::render_inline`], e.g. one JSONL record) is a
//!   single line: `{ "key": 1, "list": [1, 2] }`, with `{}` and `[]` for
//!   empty containers.
//!
//! Values are `u64`, `i64`, strings, arrays and objects. There are no
//! floats, and object keys keep insertion order, so equal values always
//! render byte-identical text.

use std::borrow::Cow;
use std::fmt::Write as _;

/// A JSON value.
///
/// # Examples
///
/// ```
/// use icbtc_sim::obs::Json;
///
/// let report = Json::Object(vec![
///     ("bench", "demo".into()),
///     ("hot_path", Json::Object(vec![("calls", Json::I64(-3))])),
///     ("samples", Json::Array(vec![Json::Object(vec![("height", 0u64.into())])])),
///     ("empty", Json::Array(vec![])),
/// ]);
/// assert_eq!(
///     report.render(),
///     r#"{
///   "bench": "demo",
///   "hot_path": {
///     "calls": -3
///   },
///   "samples": [
///     { "height": 0 }
///   ],
///   "empty": []
/// }"#
/// );
/// assert_eq!(
///     report.render_inline(),
///     r#"{ "bench": "demo", "hot_path": { "calls": -3 }, "samples": [{ "height": 0 }], "empty": [] }"#
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Json {
    /// An unsigned integer.
    U64(u64),
    /// A signed integer.
    I64(i64),
    /// A string, escaped on output.
    Str(Cow<'static, str>),
    /// An array.
    Array(Vec<Json>),
    /// An object; keys are written in this order.
    Object(Vec<(&'static str, Json)>),
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::U64(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::U64(v as u64)
    }
}

impl From<i64> for Json {
    fn from(v: i64) -> Json {
        Json::I64(v)
    }
}

impl From<&'static str> for Json {
    fn from(v: &'static str) -> Json {
        Json::Str(Cow::Borrowed(v))
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(Cow::Owned(v))
    }
}

impl Json {
    /// Renders the value as a document (no trailing newline).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_document(&mut out, 0);
        out
    }

    /// Renders the value on one line (no trailing newline).
    pub fn render_inline(&self) -> String {
        let mut out = String::new();
        self.write_inline(&mut out);
        out
    }

    fn write_document(&self, out: &mut String, depth: usize) {
        match self {
            Json::Object(fields) if !fields.is_empty() => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    open_line(out, i, depth + 1);
                    push_json_str(out, key);
                    out.push_str(": ");
                    value.write_document(out, depth + 1);
                }
                open_line(out, 0, depth);
                out.push('}');
            }
            Json::Array(items) if !items.is_empty() => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    open_line(out, i, depth + 1);
                    item.write_inline(out);
                }
                open_line(out, 0, depth);
                out.push(']');
            }
            scalar_or_empty => scalar_or_empty.write_inline(out),
        }
    }

    fn write_inline(&self, out: &mut String) {
        match self {
            Json::U64(n) => out.push_str(&n.to_string()),
            Json::I64(n) => out.push_str(&n.to_string()),
            Json::Str(s) => push_json_str(out, s),
            Json::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write_inline(out);
                }
                out.push(']');
            }
            Json::Object(fields) if fields.is_empty() => out.push_str("{}"),
            Json::Object(fields) => {
                out.push_str("{ ");
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    push_json_str(out, key);
                    out.push_str(": ");
                    value.write_inline(out);
                }
                out.push_str(" }");
            }
        }
    }
}

/// Ends the previous document line (with a comma unless this is the
/// container's first entry) and indents the next one two spaces per level.
fn open_line(out: &mut String, index: usize, depth: usize) {
    if index > 0 {
        out.push(',');
    }
    out.push('\n');
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// Appends `s` to `out` as a JSON string literal (with surrounding quotes).
fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escaping_covers_control_and_quotes() {
        let value = Json::from("a\"b\\c\nd\te\u{1}");
        assert_eq!(value.render(), "\"a\\\"b\\\\c\\nd\\te\\u0001\"");
    }
}
