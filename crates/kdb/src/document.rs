//! Dynamic document values and their canonical encoding.
//!
//! [`Value`] is a BSON-like dynamic type; [`Document`] an ordered
//! string-keyed map of values (ordered so encodings are canonical and
//! comparisons deterministic). The canonical encoding is a compact,
//! length-prefixed text format — `S5:hello`, `I42`, `A2:[…]` — chosen
//! over escaping-based formats so the journal reader never needs to
//! rescan bytes.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::KdbError;

/// A dynamic document value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Absent/unknown.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    I64(i64),
    /// 64-bit float.
    F64(f64),
    /// UTF-8 string.
    Str(String),
    /// Ordered list.
    Array(Vec<Value>),
    /// Nested document.
    Doc(Document),
}

impl Value {
    /// A short type name for diagnostics.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::I64(_) => "i64",
            Value::F64(_) => "f64",
            Value::Str(_) => "string",
            Value::Array(_) => "array",
            Value::Doc(_) => "document",
        }
    }

    /// The integer value, if this is an `I64`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::I64(v) => Some(*v),
            _ => None,
        }
    }

    /// The numeric value as f64 (`I64` coerces).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::I64(v) => Some(*v as f64),
            Value::F64(v) => Some(*v),
            _ => None,
        }
    }

    /// The string value, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The array, if this is an `Array`.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// The nested document, if this is a `Doc`.
    pub fn as_doc(&self) -> Option<&Document> {
        match self {
            Value::Doc(d) => Some(d),
            _ => None,
        }
    }

    /// Appends the canonical encoding of `self` to `out`.
    pub fn encode_into(&self, out: &mut String) {
        match self {
            Value::Null => out.push('N'),
            Value::Bool(true) => out.push('T'),
            Value::Bool(false) => out.push('B'),
            Value::I64(v) => {
                out.push('I');
                out.push_str(&v.to_string());
                out.push(';');
            }
            Value::F64(v) => {
                out.push('F');
                // Rust's shortest-round-trip float formatting; NaN and
                // infinities parse back via f64::from_str.
                out.push_str(&v.to_string());
                out.push(';');
            }
            Value::Str(s) => {
                out.push('S');
                out.push_str(&s.len().to_string());
                out.push(':');
                out.push_str(s);
            }
            Value::Array(items) => {
                out.push('A');
                out.push_str(&items.len().to_string());
                out.push(':');
                for item in items {
                    item.encode_into(out);
                }
            }
            Value::Doc(doc) => doc.encode_into(out),
        }
    }

    /// The canonical encoding of `self`.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes a canonical encoding, requiring all input be consumed.
    ///
    /// # Errors
    /// Returns [`KdbError::Decode`] on malformed or trailing input.
    pub fn decode(input: &str) -> Result<Value, KdbError> {
        let bytes = input.as_bytes();
        let mut pos = 0usize;
        let value = decode_value(bytes, &mut pos)?;
        if pos != bytes.len() {
            return Err(KdbError::Decode(pos, "trailing bytes".into()));
        }
        Ok(value)
    }

    /// Decodes one value starting at byte offset `*pos`, advancing `*pos`
    /// past it. The encoding is self-delimiting, so this supports
    /// streaming readers (the journal).
    ///
    /// # Errors
    /// Returns [`KdbError::Decode`] on malformed input; `*pos` is left
    /// wherever the error was detected.
    pub fn decode_prefix(input: &[u8], pos: &mut usize) -> Result<Value, KdbError> {
        decode_value(input, pos)
    }
}

fn take_byte(bytes: &[u8], pos: &mut usize) -> Result<u8, KdbError> {
    let b = *bytes
        .get(*pos)
        .ok_or_else(|| KdbError::Decode(*pos, "unexpected end of input".into()))?;
    *pos += 1;
    Ok(b)
}

/// Reads ASCII digits up to (and consuming) the `stop` byte.
fn take_number(bytes: &[u8], pos: &mut usize, stop: u8) -> Result<usize, KdbError> {
    let start = *pos;
    while *pos < bytes.len() && bytes[*pos] != stop {
        *pos += 1;
    }
    if *pos >= bytes.len() {
        return Err(KdbError::Decode(start, "unterminated length".into()));
    }
    let text = std::str::from_utf8(&bytes[start..*pos])
        .map_err(|_| KdbError::Decode(start, "non-UTF-8 length".into()))?;
    let n: usize = text
        .parse()
        .map_err(|_| KdbError::Decode(start, format!("bad length {text:?}")))?;
    *pos += 1; // consume the stop byte
    Ok(n)
}

/// Reads a `<len>:<bytes>` string.
fn take_lstring(bytes: &[u8], pos: &mut usize) -> Result<String, KdbError> {
    let len = take_number(bytes, pos, b':')?;
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= bytes.len())
        .ok_or_else(|| KdbError::Decode(*pos, "string length overruns input".into()))?;
    let s = std::str::from_utf8(&bytes[*pos..end])
        .map_err(|_| KdbError::Decode(*pos, "non-UTF-8 string".into()))?
        .to_owned();
    *pos = end;
    Ok(s)
}

fn decode_value(bytes: &[u8], pos: &mut usize) -> Result<Value, KdbError> {
    let tag = take_byte(bytes, pos)?;
    match tag {
        b'N' => Ok(Value::Null),
        b'T' => Ok(Value::Bool(true)),
        b'B' => Ok(Value::Bool(false)),
        b'I' => {
            let start = *pos;
            while *pos < bytes.len() && bytes[*pos] != b';' {
                *pos += 1;
            }
            if *pos >= bytes.len() {
                return Err(KdbError::Decode(start, "unterminated integer".into()));
            }
            let text = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| KdbError::Decode(start, "non-UTF-8 integer".into()))?;
            *pos += 1;
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| KdbError::Decode(start, format!("bad integer {text:?}")))
        }
        b'F' => {
            let start = *pos;
            while *pos < bytes.len() && bytes[*pos] != b';' {
                *pos += 1;
            }
            if *pos >= bytes.len() {
                return Err(KdbError::Decode(start, "unterminated float".into()));
            }
            let text = std::str::from_utf8(&bytes[start..*pos])
                .map_err(|_| KdbError::Decode(start, "non-UTF-8 float".into()))?;
            *pos += 1;
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| KdbError::Decode(start, format!("bad float {text:?}")))
        }
        b'S' => Ok(Value::Str(take_lstring(bytes, pos)?)),
        b'A' => {
            let count = take_number(bytes, pos, b':')?;
            let mut items = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                items.push(decode_value(bytes, pos)?);
            }
            Ok(Value::Array(items))
        }
        b'O' => {
            let count = take_number(bytes, pos, b':')?;
            let mut doc = Document::new();
            for _ in 0..count {
                let key = take_lstring(bytes, pos)?;
                let value = decode_value(bytes, pos)?;
                doc.fields.insert(key, value);
            }
            Ok(Value::Doc(doc))
        }
        other => Err(KdbError::Decode(
            *pos - 1,
            format!("unknown tag {:?}", other as char),
        )),
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}
impl From<Document> for Value {
    fn from(v: Document) -> Self {
        Value::Doc(v)
    }
}

/// An ordered string-keyed document.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Document {
    fields: BTreeMap<String, Value>,
}

impl Document {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a field (builder style).
    pub fn with(mut self, key: impl Into<String>, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    /// Sets a field.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        self.fields.insert(key.into(), value.into());
    }

    /// The value at `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.get(key)
    }

    /// The value at a dotted path, e.g. `"patient.age"` descends into
    /// nested documents.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut current = self;
        let mut parts = path.split('.').peekable();
        while let Some(part) = parts.next() {
            let value = current.fields.get(part)?;
            if parts.peek().is_none() {
                return Some(value);
            }
            current = value.as_doc()?;
        }
        None
    }

    /// Removes and returns a field.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.fields.remove(key)
    }

    /// Number of top-level fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the document has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates over (key, value) pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Appends the canonical encoding of this document (identical to
    /// that of a [`Value::Doc`] holding it) to `out`.
    pub fn encode_into(&self, out: &mut String) {
        out.push('O');
        out.push_str(&self.fields.len().to_string());
        out.push(':');
        for (k, v) in &self.fields {
            out.push_str(&k.len().to_string());
            out.push(':');
            out.push_str(k);
            v.encode_into(out);
        }
    }

    /// The canonical encoding of this document.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Decodes a document from its canonical encoding.
    ///
    /// # Errors
    /// Returns [`KdbError::Decode`] when the input is malformed or does
    /// not encode a document.
    pub fn decode(input: &str) -> Result<Document, KdbError> {
        match Value::decode(input)? {
            Value::Doc(d) => Ok(d),
            other => Err(KdbError::Decode(
                0,
                format!("expected document, found {}", other.type_name()),
            )),
        }
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: ")?;
            match v {
                Value::Null => write!(f, "null")?,
                Value::Bool(b) => write!(f, "{b}")?,
                Value::I64(n) => write!(f, "{n}")?,
                Value::F64(x) => write!(f, "{x}")?,
                Value::Str(s) => write!(f, "{s:?}")?,
                Value::Array(a) => write!(f, "[{} items]", a.len())?,
                Value::Doc(d) => write!(f, "{d}")?,
            }
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Document {
        Document::new()
            .with("name", "HbA1c: the \"gold\" standard")
            .with("count", 42i64)
            .with("score", 0.125f64)
            .with("active", true)
            .with("missing", Value::Null)
            .with("tags", vec!["a", "b"])
            .with(
                "nested",
                Document::new().with("depth", 2i64).with("leaf", false),
            )
    }

    #[test]
    fn builder_and_access() {
        let d = sample_doc();
        assert_eq!(d.get("count").unwrap().as_i64(), Some(42));
        assert_eq!(d.get("score").unwrap().as_f64(), Some(0.125));
        assert_eq!(d.get("active").unwrap().as_bool(), Some(true));
        assert_eq!(d.get("tags").unwrap().as_array().unwrap().len(), 2);
        assert!(d.get("nope").is_none());
        assert_eq!(d.len(), 7);
    }

    #[test]
    fn dotted_path_access() {
        let d = sample_doc();
        assert_eq!(d.get_path("nested.depth").unwrap().as_i64(), Some(2));
        assert_eq!(d.get_path("nested.leaf").unwrap().as_bool(), Some(false));
        assert_eq!(d.get_path("count").unwrap().as_i64(), Some(42));
        assert!(d.get_path("nested.none").is_none());
        assert!(d.get_path("count.sub").is_none()); // non-doc traversal
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(Value::I64(3).as_f64(), Some(3.0));
        assert_eq!(Value::F64(3.5).as_i64(), None);
        assert_eq!(Value::Str("3".into()).as_f64(), None);
    }

    #[test]
    fn encode_decode_round_trip() {
        let d = sample_doc();
        let encoded = d.encode();
        let back = Document::decode(&encoded).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn encoding_handles_tricky_strings() {
        for s in ["", "a:b;c", "42:", "héllo → wörld", "S5:inner", "\n\t"] {
            let v = Value::Str(s.to_owned());
            assert_eq!(Value::decode(&v.encode()).unwrap(), v, "string {s:?}");
        }
    }

    #[test]
    fn encoding_handles_extreme_numbers() {
        for v in [
            Value::I64(i64::MIN),
            Value::I64(i64::MAX),
            Value::I64(0),
            Value::F64(0.1 + 0.2),
            Value::F64(f64::MAX),
            Value::F64(f64::MIN_POSITIVE),
            Value::F64(-0.0),
            Value::F64(f64::INFINITY),
            Value::F64(f64::NEG_INFINITY),
        ] {
            assert_eq!(Value::decode(&v.encode()).unwrap(), v, "{v:?}");
        }
        // NaN round-trips structurally (NaN != NaN, so check the bit class).
        let nan = Value::F64(f64::NAN);
        match Value::decode(&nan.encode()).unwrap() {
            Value::F64(x) => assert!(x.is_nan()),
            other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn decode_rejects_malformed() {
        for bad in ["", "X", "I12", "S5:ab", "A2:I1;", "O1:3:abI1", "NI1;"] {
            assert!(Value::decode(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn decode_rejects_non_document_for_document() {
        assert!(Document::decode("I5;").is_err());
    }

    #[test]
    fn deeply_nested_round_trip() {
        let mut v = Value::I64(1);
        for _ in 0..50 {
            v = Value::Array(vec![v, Value::Null]);
        }
        assert_eq!(Value::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn display_is_readable() {
        let d = Document::new().with("k", 1i64).with("s", "x");
        let text = d.to_string();
        assert!(text.contains("k: 1"));
        assert!(text.contains("s: \"x\""));
    }
}
