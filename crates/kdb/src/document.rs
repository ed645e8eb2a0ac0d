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
        let value = Input::text(input).value(&mut pos)?;
        if pos != input.len() {
            return Err(KdbError::Decode(pos, "trailing bytes".into()));
        }
        Ok(value)
    }

    /// Decodes one value starting at byte offset `*pos`, advancing `*pos`
    /// past it. The encoding is self-delimiting, so this supports
    /// streaming readers. `input` is checked for UTF-8 once per call, so
    /// hand it one bounded payload (a frame's), not a whole stream.
    ///
    /// # Errors
    /// Returns [`KdbError::Decode`] on malformed input, and on arrays and
    /// documents nested deeper than [`MAX_DEPTH`]; `*pos` is left
    /// wherever the error was detected.
    pub fn decode_prefix(input: &[u8], pos: &mut usize) -> Result<Value, KdbError> {
        Input::new(input).value(pos)
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

/// Digits a number may have for the one-pass reader: 18 cannot
/// overflow an `i64` or a 64-bit `usize`. Longer ones go to `str::parse`.
const FAST_DIGITS: usize = 18;

/// One bounded input to decode. Its UTF-8 is checked once, up front:
/// when all of it is valid, every string is a borrowed sub-slice of
/// `text` (a sub-slice of valid UTF-8 is valid exactly when both ends
/// are char boundaries, which `str::get` checks). When it is not, each
/// string is checked on its own, so errors keep their offset and text.
#[derive(Clone, Copy)]
pub(crate) struct Input<'a> {
    bytes: &'a [u8],
    text: Option<&'a str>,
}

impl<'a> Input<'a> {
    /// `bytes`, checked for UTF-8 once.
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            text: std::str::from_utf8(bytes).ok(),
        }
    }

    fn text(text: &'a str) -> Self {
        Self {
            bytes: text.as_bytes(),
            text: Some(text),
        }
    }

    /// `bytes[start..end]` as text, if it is UTF-8.
    fn str(self, start: usize, end: usize) -> Option<&'a str> {
        match self.text {
            Some(text) => text.get(start..end),
            None => std::str::from_utf8(&self.bytes[start..end]).ok(),
        }
    }

    /// Reads the `what` before `stop` with `str::parse`, and consumes `stop`.
    fn token<T: std::str::FromStr>(
        self,
        pos: &mut usize,
        stop: u8,
        what: &str,
    ) -> Result<T, KdbError> {
        let start = *pos;
        let Some(len) = self.bytes[start..].iter().position(|&b| b == stop) else {
            return Err(KdbError::Decode(start, format!("unterminated {what}")));
        };
        *pos = start + len + 1;
        let text = self
            .str(start, start + len)
            .ok_or_else(|| KdbError::Decode(start, format!("non-UTF-8 {what}")))?;
        text.parse()
            .map_err(|_| KdbError::Decode(start, format!("bad {what} {text:?}")))
    }

    /// Reads 1..=[`FAST_DIGITS`] plain digits and `stop` in one pass,
    /// optionally after a `-`; `None` (nothing consumed) for anything
    /// else, which [`Input::token`] then reads as it always did.
    fn digits(self, pos: &mut usize, stop: u8, signed: bool) -> Option<i64> {
        let negative = signed && self.bytes.get(*pos) == Some(&b'-');
        let start = *pos + usize::from(negative);
        let mut n = 0i64;
        for (i, &b) in self.bytes.get(start..)?.iter().enumerate() {
            match b {
                b'0'..=b'9' if i < FAST_DIGITS => n = n * 10 + i64::from(b - b'0'),
                _ if b == stop && i > 0 => {
                    *pos = start + i + 1;
                    return Some(if negative { -n } else { n });
                }
                _ => return None,
            }
        }
        None
    }

    /// Reads a `<len>:` prefix.
    fn len(self, pos: &mut usize) -> Result<usize, KdbError> {
        let mut at = *pos;
        match self.digits(&mut at, b':', false).map(usize::try_from) {
            Some(Ok(n)) => {
                *pos = at;
                Ok(n)
            }
            _ => self.token(pos, b':', "length"),
        }
    }

    /// Reads a `<len>:<bytes>` string.
    fn lstring(self, pos: &mut usize) -> Result<&'a str, KdbError> {
        let len = self.len(pos)?;
        let end = pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| KdbError::Decode(*pos, "string length overruns input".into()))?;
        let s = self
            .str(*pos, end)
            .ok_or_else(|| KdbError::Decode(*pos, "non-UTF-8 string".into()))?;
        *pos = end;
        Ok(s)
    }

    /// Decodes the value at `*pos`.
    pub(crate) fn value(self, pos: &mut usize) -> Result<Value, KdbError> {
        self.value_at(pos, 0)
    }

    /// Decodes the value at `*pos`, `depth` arrays and documents deep.
    fn value_at(self, pos: &mut usize, depth: usize) -> Result<Value, KdbError> {
        let &tag = self
            .bytes
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
            b'I' => match self.digits(pos, b';', true) {
                Some(n) => Ok(Value::I64(n)),
                None => self.token(pos, b';', "integer").map(Value::I64),
            },
            b'F' => self.token(pos, b';', "float").map(Value::F64),
            b'S' => Ok(Value::Str(self.lstring(pos)?.to_owned())),
            b'A' => {
                let count = self.len(pos)?;
                let mut items = Vec::with_capacity(count.min(1024));
                for _ in 0..count {
                    items.push(self.value_at(pos, depth + 1)?);
                }
                Ok(Value::Array(items))
            }
            b'O' => {
                let count = self.len(pos)?;
                let mut doc = Document {
                    fields: Vec::with_capacity(count.min(1024)),
                };
                for _ in 0..count {
                    let key = Key::new(self.lstring(pos)?);
                    doc.set_key(key, self.value_at(pos, depth + 1)?);
                }
                Ok(Value::Doc(doc))
            }
            other => Err(KdbError::Decode(
                *pos - 1,
                format!("unknown tag {:?}", other as char),
            )),
        }
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

/// Key bytes a [`Key`] holds in place: with its length byte and tag,
/// a key is as large as a `String`.
const INLINE_KEY: usize = 22;

/// A field name. Names of at most [`INLINE_KEY`] bytes — every name the
/// system writes — live in place, so decoding one allocates nothing;
/// longer ones go to the heap. Keys compare as bytes, the order of `str`.
#[derive(Clone)]
enum Key {
    Inline(u8, [u8; INLINE_KEY]),
    Heap(Box<str>),
}

impl Key {
    fn new(key: &str) -> Self {
        let mut bytes = [0u8; INLINE_KEY];
        match bytes.get_mut(..key.len()) {
            Some(head) => {
                head.copy_from_slice(key.as_bytes());
                Key::Inline(key.len() as u8, bytes)
            }
            None => Key::Heap(key.into()),
        }
    }

    fn as_bytes(&self) -> &[u8] {
        match self {
            Key::Inline(len, bytes) => &bytes[..usize::from(*len)],
            Key::Heap(key) => key.as_bytes(),
        }
    }

    fn as_str(&self) -> &str {
        match self {
            Key::Inline(..) => std::str::from_utf8(self.as_bytes()).expect("a key holds a str"),
            Key::Heap(key) => key,
        }
    }
}

const _: () = assert!(std::mem::size_of::<Key>() == std::mem::size_of::<String>());

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

/// An ordered string-keyed document.
#[derive(Clone, PartialEq, Default)]
pub struct Document {
    /// Sorted by key, each key once.
    fields: Vec<(Key, Value)>,
}

impl Document {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a field (builder style).
    pub fn with(mut self, key: impl AsRef<str>, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    /// Where `key` is, or where it would go.
    fn slot(&self, key: &[u8]) -> Result<usize, usize> {
        self.fields.binary_search_by(|(k, _)| k.as_bytes().cmp(key))
    }

    /// Sets a field.
    pub fn set(&mut self, key: impl AsRef<str>, value: impl Into<Value>) {
        self.set_key(Key::new(key.as_ref()), value.into());
    }

    /// Sets a field; a key past the last one (a decode's keys) appends.
    fn set_key(&mut self, key: Key, value: Value) {
        let last = self.fields.last();
        if last.is_none_or(|(last, _)| last.as_bytes() < key.as_bytes()) {
            return self.fields.push((key, value));
        }
        match self.slot(key.as_bytes()) {
            Ok(i) => self.fields[i].1 = value,
            Err(i) => self.fields.insert(i, (key, value)),
        }
    }

    /// The value at `key`, if present.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.slot(key.as_bytes()).ok().map(|i| &self.fields[i].1)
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
        self.slot(key.as_bytes())
            .ok()
            .map(|i| self.fields.remove(i).1)
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
            let k = k.as_str();
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

    /// The decoder this one replaced, kept as the oracle: every number
    /// through `str::parse`, every string (keys too) checked for UTF-8
    /// and copied on its own.
    mod retired {
        use super::super::{Document, Value, MAX_DEPTH};
        use crate::error::KdbError;

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

        pub fn decode_value(
            bytes: &[u8],
            pos: &mut usize,
            depth: usize,
        ) -> Result<Value, KdbError> {
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
                    let mut doc = Document::new();
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
    }

    /// Structural equality with floats compared by their bits (NaN included).
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::F64(x), Value::F64(y)) => x.to_bits() == y.to_bits(),
            (Value::Array(x), Value::Array(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same(x, y))
            }
            (Value::Doc(x), Value::Doc(y)) => {
                x.len() == y.len()
                    && x.iter()
                        .zip(y.iter())
                        .all(|((kx, x), (ky, y))| kx == ky && same(x, y))
            }
            _ => a == b,
        }
    }

    /// A seeded source of encodings: well-formed ones (keys in any order,
    /// repeated, longer than a key holds in place; multibyte text; the
    /// extreme integers and floats; nesting to past [`MAX_DEPTH`]) and
    /// malformed ones made from them.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
            &items[self.below(items.len())]
        }

        fn text(&mut self, max_chars: usize) -> String {
            const CHARS: [&str; 10] = ["a", "z", "_", ":", ";", "5", "é", "→", "𝄞", "S3:"];
            (0..self.below(max_chars + 1))
                .map(|_| *self.pick(&CHARS))
                .collect()
        }

        fn lstring(&mut self, out: &mut Vec<u8>, max_chars: usize) {
            let s = self.text(max_chars);
            out.extend_from_slice(format!("{}:{s}", s.len()).as_bytes());
        }

        fn value(&mut self, out: &mut Vec<u8>, depth: usize) {
            const INTS: [i64; 6] = [i64::MIN, i64::MAX, 0, -1, 42, -9_000_000_000_000_000_000];
            const FLOATS: [f64; 7] = [
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                -0.0,
                0.1,
                1e300,
                -5e-324,
            ];
            let nest = depth < 4 || self.below(8) == 0;
            match self.below(if nest { 9 } else { 6 }) {
                0 => out.push(*self.pick(b"NTB")),
                1 => {
                    let n = if self.below(2) == 0 {
                        *self.pick(&INTS)
                    } else {
                        self.next() as i64 >> self.below(64)
                    };
                    out.extend_from_slice(format!("I{n};").as_bytes());
                }
                2 => {
                    let x = *self.pick(&FLOATS) * (self.below(1000) as f64);
                    out.extend_from_slice(format!("F{x};").as_bytes());
                }
                3 | 4 => {
                    out.push(b'S');
                    self.lstring(out, 12);
                }
                5 if depth < MAX_DEPTH + 2 && self.below(8) == 0 => {
                    // A chain down to the depth limit, or one past it.
                    let levels = MAX_DEPTH + 1 - self.below(3) - depth;
                    for _ in 0..levels {
                        out.extend_from_slice(b"A1:");
                    }
                    out.push(b'N');
                }
                5 | 6 => {
                    let count = self.below(4);
                    out.extend_from_slice(format!("A{count}:").as_bytes());
                    for _ in 0..count {
                        self.value(out, depth + 1);
                    }
                }
                _ => {
                    let count = self.below(5);
                    out.extend_from_slice(format!("O{count}:").as_bytes());
                    for _ in 0..count {
                        // Up to 96 bytes: some keys outgrow the in-place store.
                        let max_chars = if self.below(3) == 0 { 24 } else { 4 };
                        self.lstring(out, max_chars);
                        self.value(out, depth + 1);
                    }
                }
            }
        }

        /// One malformation of `bytes`.
        fn damage(&mut self, bytes: &mut Vec<u8>) {
            const SPLICES: [&[u8]; 12] = [
                b"+5",
                b"-0",
                b"-",
                b"99999999999999999999",
                b"0000000000000000000007",
                b"\xFF",
                b"\xC3",
                b"\x80",
                b"\xE2\x86",
                "é".as_bytes(),
                b":",
                b";",
            ];
            const BYTES: &[u8] = b"0123456789:;-+NTBIFSAOX\xFF\x80\xC3\xE2";
            let at = self.below(bytes.len() + 1);
            match self.below(4) {
                0 => bytes.truncate(at),
                1 => {
                    let b = *self.pick(BYTES);
                    if let Some(slot) = bytes.get_mut(at) {
                        *slot = b;
                    }
                }
                2 => {
                    let splice = *self.pick(&SPLICES);
                    bytes.splice(at..at, splice.iter().copied());
                }
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
    }

    /// `Value::decode`, `Value::decode_prefix` and `Document::decode`
    /// against the retired decoder on `bytes`: the same value, or the
    /// same error at the same offset, and the same end position.
    fn agree(bytes: &[u8]) -> Result<(), String> {
        let (mut ours_at, mut oracle_at) = (0, 0);
        let ours = Value::decode_prefix(bytes, &mut ours_at);
        let oracle = retired::decode_value(bytes, &mut oracle_at, 0);
        let same_outcome = match (&ours, &oracle) {
            (Ok(a), Ok(b)) => same(a, b),
            (a, b) => a == b,
        };
        if !same_outcome || ours_at != oracle_at {
            return Err(format!(
                "decode_prefix of {:?}: {ours:?} at {ours_at}, oracle {oracle:?} at {oracle_at}",
                String::from_utf8_lossy(bytes)
            ));
        }
        if let Ok(text) = std::str::from_utf8(bytes) {
            let whole = oracle.and_then(|v| match oracle_at == bytes.len() {
                true => Ok(v),
                false => Err(KdbError::Decode(oracle_at, "trailing bytes".into())),
            });
            let whole_doc = whole.clone().and_then(|v| match v {
                Value::Doc(d) => Ok(Value::Doc(d)),
                other => Err(KdbError::Decode(
                    0,
                    format!("expected document, found {}", other.type_name()),
                )),
            });
            for (what, ours, oracle) in [
                ("Value::decode", Value::decode(text), whole),
                (
                    "Document::decode",
                    Document::decode(text).map(Value::Doc),
                    whole_doc,
                ),
            ] {
                let agreed = match (&ours, &oracle) {
                    (Ok(a), Ok(b)) => same(a, b),
                    (a, b) => a == b,
                };
                if !agreed {
                    return Err(format!("{what} of {text:?}: {ours:?}, oracle {oracle:?}"));
                }
            }
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn decoder_agrees_with_the_retired_decoder(seed in proptest::prelude::any::<u64>()) {
            let mut gen = Gen(seed);
            let mut bytes = Vec::new();
            gen.value(&mut bytes, 0);
            if let Err(e) = agree(&bytes) {
                proptest::prop_assert!(false, "well-formed: {}", e);
            }
            for _ in 0..16 {
                let mut bad = bytes.clone();
                for _ in 0..1 + gen.below(3) {
                    gen.damage(&mut bad);
                }
                if let Err(e) = agree(&bad) {
                    proptest::prop_assert!(false, "malformed: {}", e);
                }
            }
        }
    }

    #[test]
    fn display_is_readable() {
        let d = Document::new().with("k", 1i64).with("s", "x");
        let text = d.to_string();
        assert!(text.contains("k: 1"));
        assert!(text.contains("s: \"x\""));
    }
}
