//! Rendering K-DB documents to interchange formats.
//!
//! The session documents the flight recorder writes are ordinary K-DB
//! [`Document`]s; operators and the service `snapshot()` endpoint want
//! them as JSON. A [`Document`] is an ordered map with a deterministic
//! encoding, so the JSON here is byte-stable for a stable document —
//! the CI smoke gate diffs exports across runs.

use ada_kdb::{Document, Value};

/// Renders a document as a compact JSON object (RFC 8259).
///
/// Non-finite floats have no JSON representation and render as `null`;
/// integers outside the f64-safe range are still emitted exactly (K-DB
/// `I64` is a distinct type, so no precision is lost on our side).
pub fn document_to_json(doc: &Document) -> String {
    let mut out = String::with_capacity(256);
    write_doc(doc, &mut out);
    out
}

fn write_doc(doc: &Document, out: &mut String) {
    out.push('{');
    let mut first = true;
    for (key, value) in doc.iter() {
        if !first {
            out.push(',');
        }
        first = false;
        write_string(key, out);
        out.push(':');
        write_value(value, out);
    }
    out.push('}');
}

fn write_value(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                // `{x:?}` keeps a trailing `.0` on integral floats, so
                // the value re-parses as a float.
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            let mut first = true;
            for item in items {
                if !first {
                    out.push(',');
                }
                first = false;
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Doc(doc) => write_doc(doc, out),
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
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
    fn renders_every_value_type() {
        let doc = Document::new()
            .with("s", "he said \"hi\"\n")
            .with("i", -42i64)
            .with("f", 1.5f64)
            .with("whole", 2.0f64)
            .with("b", true)
            .with("n", Value::Null)
            .with(
                "a",
                Value::Array(vec![Value::I64(1), Value::Str("x".into())]),
            )
            .with("d", Value::Doc(Document::new().with("k", 7i64)));
        let json = document_to_json(&doc);
        // Documents iterate in sorted key order, so the JSON is too.
        assert_eq!(
            json,
            r#"{"a":[1,"x"],"b":true,"d":{"k":7},"f":1.5,"i":-42,"n":null,"s":"he said \"hi\"\n","whole":2.0}"#
        );
    }

    #[test]
    fn non_finite_floats_render_null() {
        let doc = Document::new()
            .with("nan", f64::NAN)
            .with("inf", f64::INFINITY);
        assert_eq!(document_to_json(&doc), r#"{"inf":null,"nan":null}"#);
    }

    #[test]
    fn control_characters_escape() {
        let doc = Document::new().with("c", "\u{1}");
        assert_eq!(document_to_json(&doc), r#"{"c":"\u0001"}"#);
    }

    #[test]
    fn rendering_is_deterministic() {
        let build = || {
            Document::new()
                .with("z", 1i64)
                .with("a", 2i64)
                .with("m", Value::Array(vec![Value::Bool(false)]))
        };
        assert_eq!(document_to_json(&build()), document_to_json(&build()));
    }
}
