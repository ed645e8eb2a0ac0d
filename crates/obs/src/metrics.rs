//! Metric families declared once.
//!
//! Every collector's snapshot type lists its series in one table,
//! [`Metrics::SERIES`]: family name, type, optional label, optional
//! document path, and the getter that reads the value off the
//! snapshot. The Prometheus exposition and the K-DB metrics document
//! are both rendered from that table by the two provided methods of
//! [`Metrics`], so a family's name, type and document key exist in
//! exactly one place.

use std::fmt::Write;

use ada_kdb::{Document, Value};

/// One sample value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Num {
    /// A count or watermark (clamped to `i64::MAX` in a document).
    U(u64),
    /// A signed gauge.
    I(i64),
    /// A float, rendered in its shortest round-trip form.
    F(f64),
    /// A float rendered with one decimal (a log2 bucket midpoint).
    F1(f64),
    /// A flag: `1` / `0` in the exposition, a boolean in a document.
    Bool(bool),
}

impl Num {
    fn value(self) -> Value {
        match self {
            Num::U(v) => Value::I64(i64::try_from(v).unwrap_or(i64::MAX)),
            Num::I(v) => Value::I64(v),
            Num::F(v) | Num::F1(v) => Value::F64(v),
            Num::Bool(v) => Value::Bool(v),
        }
    }
}

/// The quantiles a [`Summary`] may carry: exposition label and
/// document key.
const QUANTILES: [(&str, &str); 3] = [("0.5", "p50_ns"), ("0.9", "p90_ns"), ("0.99", "p99_ns")];

/// A summary's samples. In a document (only latency summaries, in
/// nanoseconds, carry a path) it is `runs`, `total_ns`, `mean_ns` and
/// one `pNN_ns` per present quantile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// p50, p90, p99; a `None` quantile is not rendered.
    pub quantiles: [Option<Num>; 3],
    /// The exact sum, when the collector keeps one.
    pub sum: Option<u64>,
    /// Observations.
    pub count: u64,
}

/// What a series reads off a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub enum Reading {
    /// One sample.
    One(Num),
    /// One summary.
    Summary(Summary),
    /// One reading per value of the named label, in order; in a
    /// document, a sub-document keyed by label value.
    Each(&'static str, Vec<(&'static str, Reading)>),
}

macro_rules! reading_from {
    ($($t:ty => $num:ident),*) => {$(
        impl From<$t> for Reading {
            fn from(v: $t) -> Self {
                Reading::One(Num::$num(v))
            }
        }
    )*};
}
reading_from!(u64 => U, i64 => I, f64 => F, bool => Bool);

impl Reading {
    fn write(self, out: &mut String, family: &str, label: Option<(&str, &str)>) {
        let labels = label.as_slice();
        match self {
            Reading::One(v) => write_sample(out, family, labels, v),
            Reading::Summary(s) => {
                for ((q, _), v) in QUANTILES.iter().zip(s.quantiles) {
                    if let Some(v) = v {
                        write_sample(out, family, &[labels, &[("quantile", q)]].concat(), v);
                    }
                }
                if let Some(sum) = s.sum {
                    write_sample(out, &format!("{family}_sum"), labels, Num::U(sum));
                }
                write_sample(out, &format!("{family}_count"), labels, Num::U(s.count));
            }
            Reading::Each(name, items) => {
                for (value, reading) in items {
                    reading.write(out, family, Some((name, value)));
                }
            }
        }
    }

    fn value(self) -> Value {
        match self {
            Reading::One(v) => v.value(),
            Reading::Summary(s) => {
                let sum = s.sum.unwrap_or(0);
                let mean = sum.checked_div(s.count).unwrap_or(0);
                let mut doc = Document::new()
                    .with("runs", Num::U(s.count).value())
                    .with("total_ns", Num::U(sum).value())
                    .with("mean_ns", Num::U(mean).value());
                for ((_, key), v) in QUANTILES.iter().zip(s.quantiles) {
                    if let Some(v) = v {
                        doc.set(*key, v.value());
                    }
                }
                Value::Doc(doc)
            }
            Reading::Each(_, items) => Value::Doc(
                items
                    .into_iter()
                    .fold(Document::new(), |doc, (key, r)| doc.with(key, r.value())),
            ),
        }
    }
}

/// One row of a family table.
pub struct Series<S> {
    /// Family name; empty for a field only the document carries.
    family: &'static str,
    /// Prometheus type, rendered once per run of rows sharing a family.
    kind: &'static str,
    /// A fixed `(name, value)` label on this row's sample.
    label: Option<(&'static str, &'static str)>,
    /// Dotted document path; `None` keeps the series out of the document.
    key: Option<&'static str>,
    read: fn(&S) -> Reading,
}

impl<S> Series<S> {
    const fn new(family: &'static str, kind: &'static str, read: fn(&S) -> Reading) -> Self {
        Self {
            family,
            kind,
            label: None,
            key: None,
            read,
        }
    }

    /// A counter family.
    pub const fn counter(family: &'static str, read: fn(&S) -> Reading) -> Self {
        Self::new(family, "counter", read)
    }

    /// A gauge family.
    pub const fn gauge(family: &'static str, read: fn(&S) -> Reading) -> Self {
        Self::new(family, "gauge", read)
    }

    /// A summary family.
    pub const fn summary(family: &'static str, read: fn(&S) -> Reading) -> Self {
        Self::new(family, "summary", read)
    }

    /// A field only the document carries, at `key`.
    pub const fn field(key: &'static str, read: fn(&S) -> Reading) -> Self {
        Self::new("", "", read).key(key)
    }

    /// This row's sample carries the label `name="value"`.
    pub const fn label(mut self, name: &'static str, value: &'static str) -> Self {
        self.label = Some((name, value));
        self
    }

    /// The series also appears in the document, at the dotted `key`.
    pub const fn key(mut self, key: &'static str) -> Self {
        self.key = Some(key);
        self
    }
}

/// A snapshot whose series are declared once, in [`Metrics::SERIES`].
pub trait Metrics: Sized + 'static {
    /// Every series, in exposition order.
    const SERIES: &'static [Series<Self>];

    /// The snapshot as Prometheus text exposition.
    fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        let mut family = "";
        for row in Self::SERIES.iter().filter(|row| !row.family.is_empty()) {
            if row.family != family {
                family = row.family;
                let _ = writeln!(out, "# TYPE {family} {}", row.kind);
            }
            (row.read)(self).write(&mut out, family, row.label);
        }
        out
    }

    /// The snapshot as one K-DB document: every series with a key.
    fn to_document(&self) -> Document {
        let mut doc = Document::new();
        for row in Self::SERIES {
            if let Some(key) = row.key {
                set_path(&mut doc, key, (row.read)(self).value());
            }
        }
        doc
    }
}

/// One sample line: `name{labels} value`.
fn write_sample(out: &mut String, name: &str, labels: &[(&str, &str)], v: Num) {
    out.push_str(name);
    for (i, (label, value)) in labels.iter().enumerate() {
        let open = if i == 0 { '{' } else { ',' };
        let _ = write!(out, "{open}{label}=\"{value}\"");
    }
    if !labels.is_empty() {
        out.push('}');
    }
    let _ = match v {
        Num::U(v) => writeln!(out, " {v}"),
        Num::I(v) => writeln!(out, " {v}"),
        Num::F(v) => writeln!(out, " {v}"),
        Num::F1(v) => writeln!(out, " {v:.1}"),
        Num::Bool(v) => writeln!(out, " {}", u8::from(v)),
    };
}

/// Sets `value` at a dotted `path`, creating sub-documents on the way.
fn set_path(doc: &mut Document, path: &str, value: Value) {
    match path.split_once('.') {
        None => doc.set(path, value),
        Some((head, rest)) => {
            let mut sub = match doc.remove(head) {
                Some(Value::Doc(sub)) => sub,
                _ => Document::new(),
            };
            set_path(&mut sub, rest, value);
            doc.set(head, Value::Doc(sub));
        }
    }
}
