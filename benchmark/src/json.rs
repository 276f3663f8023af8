//! A JSON value and its writer — the result line, the environment block and
//! the trace file need nothing more, and the workspace vendors no serde_json.

use std::fmt::Write;

/// A JSON value; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `true` / `false`.
    Bool(bool),
    /// A whole number.
    Int(u64),
    /// A number as measured, with all its digits; non-finite writes `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// Appends the compact encoding of `self` to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("writing to a String"),
            Json::Num(x) if x.is_finite() => write!(out, "{x}").expect("writing to a String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// The compact encoding of `self`, on one line.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("String write"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_the_result_line_shape() {
        let line = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("failed", Json::Int(0)),
            (
                "metrics",
                Json::obj([(
                    "setup_s",
                    Json::obj([("value", Json::Num(0.8127)), ("unit", Json::str("s"))]),
                )]),
            ),
        ])
        .encode();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }

    #[test]
    fn escapes_strings_and_keeps_every_digit() {
        assert_eq!(
            Json::str("a\"b\\c\nd\u{1}").encode(),
            r#""a\"b\\c\nd\u0001""#
        );
        assert_eq!(Json::Num(1.0 / 3.0).encode(), "0.3333333333333333");
        assert_eq!(Json::Num(f64::NAN).encode(), "null");
        assert_eq!(
            Json::Arr(vec![Json::Int(1), Json::Bool(false)]).encode(),
            "[1,false]"
        );
        assert_eq!(Json::obj::<&str>([]).encode(), "{}");
    }
}
