//! Dynamic document values and their canonical encoding.
//!
//! [`Value`] is a BSON-like dynamic type; [`Document`] an ordered
//! string-keyed map of values (ordered so encodings are canonical and
//! comparisons deterministic). The canonical encoding is a compact,
//! length-prefixed text format — `S5:hello`, `I42`, `A2:[…]` — chosen
//! over escaping-based formats so the journal reader never needs to
//! rescan bytes.

use std::fmt::{self, Write};
use std::ops::Deref;
use std::sync::OnceLock;

use crate::error::KdbError;

/// A dynamic document value.
#[derive(Debug, Clone, PartialEq)]
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
                out.push_str(if *v < 0 { "I-" } else { "I" });
                push_decimal(out, v.unsigned_abs());
                out.push(';');
            }
            // Rust's shortest-round-trip float formatting; NaN and
            // infinities parse back via f64::from_str.
            Value::F64(v) => write!(out, "F{v};").expect("a String takes any write"),
            Value::Str(s) => {
                push_len(out, 'S', s.len());
                out.push_str(s);
            }
            Value::Array(items) => {
                push_len(out, 'A', items.len());
                for item in items {
                    item.encode_into(out);
                }
            }
            Value::Doc(doc) => doc.encode_into(out),
        }
    }

    /// Whether arrays and documents nest at most `levels` deep in `self`.
    fn nests_within(&self, levels: usize) -> bool {
        match self {
            Value::Array(items) => levels > 0 && items.iter().all(|v| v.nests_within(levels - 1)),
            Value::Doc(doc) => doc.nests_within(levels),
            _ => true,
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
    /// Returns [`KdbError::Decode`] on malformed or trailing input, and
    /// on arrays and documents nested deeper than [`MAX_DEPTH`].
    pub fn decode(input: &str) -> Result<Value, KdbError> {
        let mut pos = 0usize;
        let value = decode_value(input.as_bytes(), &mut pos, 0)?;
        if pos != input.len() {
            return Err(KdbError::Decode(pos, "trailing bytes".into()));
        }
        Ok(value)
    }

    /// Decodes one value starting at byte offset `*pos`, advancing `*pos`
    /// past it. The encoding is self-delimiting, so this supports
    /// streaming readers (the journal).
    ///
    /// # Errors
    /// Returns [`KdbError::Decode`] on malformed input, and on arrays and
    /// documents nested deeper than [`MAX_DEPTH`]; `*pos` is left
    /// wherever the error was detected.
    pub fn decode_prefix(input: &[u8], pos: &mut usize) -> Result<Value, KdbError> {
        decode_value(input, pos, 0)
    }
}

/// How deep arrays and documents may nest in a decoded value: far above any writer's (a
/// session record nests 4 deep, 6 in a wire listing), far below a 2 MB stack's limit.
/// The store refuses to write a document that nests deeper, so replay never meets one.
pub const MAX_DEPTH: usize = 64;

/// Appends `n` in decimal, as `write!(out, "{n}")` would. Through
/// `write!`, encoding a 1.2 MB `PastSessions` answer takes twice as long.
fn push_decimal(out: &mut String, mut n: u64) {
    let (mut buf, mut at) = ([0u8; 20], 20);
    loop {
        at -= 1;
        buf[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            return out.push_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"));
        }
    }
}

/// Appends a `<tag><len>:` prefix.
fn push_len(out: &mut String, tag: char, len: usize) {
    out.push(tag);
    push_decimal(out, len as u64);
    out.push(':');
}

/// Reads the `what` before `stop` with `str::parse`, and consumes `stop`.
fn take_token<T: std::str::FromStr>(
    bytes: &[u8],
    pos: &mut usize,
    stop: u8,
    what: &str,
) -> Result<T, KdbError> {
    let start = *pos;
    let Some(len) = bytes[start..].iter().position(|&b| b == stop) else {
        return Err(KdbError::Decode(start, format!("unterminated {what}")));
    };
    *pos = start + len + 1;
    let text = std::str::from_utf8(&bytes[start..start + len])
        .map_err(|_| KdbError::Decode(start, format!("non-UTF-8 {what}")))?;
    text.parse()
        .map_err(|_| KdbError::Decode(start, format!("bad {what} {text:?}")))
}

/// Reads a `<len>:<bytes>` string.
fn take_lstring(bytes: &[u8], pos: &mut usize) -> Result<String, KdbError> {
    let len: usize = take_token(bytes, pos, b':', "length")?;
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

/// Decodes the value at `*pos`, `depth` arrays and documents deep.
fn decode_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Value, KdbError> {
    let &tag = bytes
        .get(*pos)
        .ok_or_else(|| KdbError::Decode(*pos, "unexpected end of input".into()))?;
    *pos += 1;
    match tag {
        b'A' | b'O' if depth >= MAX_DEPTH => {
            Err(KdbError::Decode(*pos - 1, "nesting too deep".into()))
        }
        b'N' => Ok(Value::Null),
        b'T' => Ok(Value::Bool(true)),
        b'B' => Ok(Value::Bool(false)),
        b'I' => take_token(bytes, pos, b';', "integer").map(Value::I64),
        b'F' => take_token(bytes, pos, b';', "float").map(Value::F64),
        b'S' => Ok(Value::Str(take_lstring(bytes, pos)?)),
        b'A' => {
            let count: usize = take_token(bytes, pos, b':', "length")?;
            let mut items = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                items.push(decode_value(bytes, pos, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        b'O' => {
            let count: usize = take_token(bytes, pos, b':', "length")?;
            let mut doc = Document {
                fields: Vec::with_capacity(count.min(1024)),
            };
            for _ in 0..count {
                let key = take_lstring(bytes, pos)?;
                doc.set(key, decode_value(bytes, pos, depth + 1)?);
            }
            Ok(Value::Doc(doc))
        }
        other => Err(KdbError::Decode(
            *pos - 1,
            format!("unknown tag {:?}", other as char),
        )),
    }
}

macro_rules! value_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Value {
            fn from(v: $t) -> Self {
                Value::$variant(v)
            }
        }
    )*};
}
value_from!(i64 => I64, f64 => F64, bool => Bool, String => Str, Document => Doc);
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl<T: Into<Value>> From<Vec<T>> for Value {
    fn from(v: Vec<T>) -> Self {
        Value::Array(v.into_iter().map(Into::into).collect())
    }
}

/// An ordered string-keyed document.
#[derive(Clone, PartialEq, Default)]
pub struct Document {
    /// Sorted by key, each key once.
    fields: Vec<(String, Value)>,
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

    /// Where `key` is, or where it would go.
    fn slot(&self, key: &str) -> Result<usize, usize> {
        self.fields.binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    /// Sets a field; a key past the last one (a decode's keys) appends.
    pub fn set(&mut self, key: impl Into<String>, value: impl Into<Value>) {
        let (key, value) = (key.into(), value.into());
        if self.fields.last().is_none_or(|(last, _)| *last < key) {
            return self.fields.push((key, value));
        }
        match self.slot(&key) {
            Ok(i) => self.fields[i].1 = value,
            Err(i) => self.fields.insert(i, (key, value)),
        }
    }

    /// The value at `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.slot(key).ok().map(|i| &self.fields[i].1)
    }

    /// The value at a dotted path, e.g. `"patient.age"` descends into
    /// nested documents.
    pub fn get_path(&self, path: &str) -> Option<&Value> {
        let mut current = self;
        let mut parts = path.split('.').peekable();
        while let Some(part) = parts.next() {
            let value = current.get(part)?;
            if parts.peek().is_none() {
                return Some(value);
            }
            current = value.as_doc()?;
        }
        None
    }

    /// Removes and returns a field.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        self.slot(key).ok().map(|i| self.fields.remove(i).1)
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
        push_len(out, 'O', self.fields.len());
        for (k, v) in &self.fields {
            push_decimal(out, k.len() as u64);
            out.push(':');
            out.push_str(k);
            v.encode_into(out);
        }
    }

    /// Whether arrays and documents, this one counted, nest at most
    /// `levels` deep (the store writes none a decode would refuse).
    pub(crate) fn nests_within(&self, levels: usize) -> bool {
        levels > 0 && self.fields.iter().all(|(_, v)| v.nests_within(levels - 1))
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

/// Prints what `derive(Debug)` did over a `BTreeMap`: `Document { fields: {"k": …} }`.
impl fmt::Debug for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fields = fmt::from_fn(|f| f.debug_map().entries(self.iter()).finish());
        f.debug_struct("Document").field("fields", &fields).finish()
    }
}

impl fmt::Display for Document {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            write!(f, "{}{k}: ", if i > 0 { ", " } else { "" })?;
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

/// A document as a collection stores it: immutable behind its `Arc`
/// (an update swaps the `Arc`), with a slot for its canonical encoding.
/// The first listing that serves the document fills the slot, and every
/// later listing — from any snapshot image sharing the `Arc` — splices
/// the cached text instead of encoding again. Nothing else fills it:
/// inserts, journal replay and replication apply leave it empty, so a
/// document nobody lists costs one empty slot. Dereferences to, and
/// compares as, its [`Document`].
pub struct Stored {
    pub(crate) doc: Document,
    canonical: OnceLock<Box<str>>,
}

impl Stored {
    /// `doc`, with its encoding slot empty.
    pub fn new(doc: Document) -> Self {
        Self {
            doc,
            canonical: OnceLock::new(),
        }
    }

    /// The canonical encoding ([`Document::encode`]), computed on the
    /// first call and cached for the document's lifetime.
    pub fn canonical(&self) -> &str {
        self.canonical
            .get_or_init(|| self.doc.encode().into_boxed_str())
    }

    /// Whether [`Stored::canonical`] has filled the slot.
    pub fn is_encoded(&self) -> bool {
        self.canonical.get().is_some()
    }
}

impl Deref for Stored {
    type Target = Document;

    fn deref(&self) -> &Document {
        &self.doc
    }
}

impl PartialEq for Stored {
    fn eq(&self, other: &Self) -> bool {
        self.doc == other.doc
    }
}

impl fmt::Debug for Stored {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.doc.fmt(f)
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
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nested = |levels: usize| format!("{}N", "A1:".repeat(levels));
        assert!(Value::decode(&nested(MAX_DEPTH)).is_ok());
        assert_eq!(
            Value::decode(&nested(MAX_DEPTH + 1)),
            Err(KdbError::Decode(3 * MAX_DEPTH, "nesting too deep".into()))
        );
        // 30 KB of nesting used to recurse a 2 MB connection thread's
        // stack away and abort the process.
        let hostile = nested(10_000);
        let decoded = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || Value::decode(&hostile).is_err())
            .unwrap()
            .join();
        assert_eq!(decoded.ok(), Some(true));
    }

    #[test]
    fn display_is_readable() {
        let d = Document::new().with("k", 1i64).with("s", "x");
        let text = d.to_string();
        assert!(text.contains("k: 1"));
        assert!(text.contains("s: \"x\""));
    }
}
