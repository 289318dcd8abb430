//! The one JSON path of the bench crate: a value type, its parser, one
//! deterministic renderer, and the [`ToJson`] conversion every report
//! row derives through [`json_row!`](crate::json_row).
//!
//! Rendering is byte-deterministic, so the committed `BENCH_*.json`
//! baselines and same-seed reruns compare byte for byte: strings are
//! escaped per RFC 8259, numbers print as Rust's shortest round-trip
//! decimal, and non-finite numbers (which JSON cannot spell) print as
//! `null`. Inside an object a `None` field is left out entirely, so a
//! reading a scenario never measured is absent, not a silent zero.

use std::fmt::Write as _;

/// A JSON value. Objects keep their fields in insertion order.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also what the renderer writes for non-finite numbers).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, insertion-ordered.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_obj()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Numeric reading (`null` reads as NaN — the renderer's non-finite
    /// encoding).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// String reading.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array reading.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Object reading: the fields in insertion order.
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Renders the value as deterministic JSON text (no trailing
    /// newline). The root and its direct children, and any object with
    /// more than `INLINE_MAX_FIELDS` fields, lay out one entry per line;
    /// everything else prints on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn expanded(&self, depth: usize) -> bool {
        match self {
            Json::Arr(items) => depth < 2 && !items.is_empty(),
            Json::Obj(fields) => {
                !fields.is_empty() && (depth < 2 || fields.len() > INLINE_MAX_FIELDS)
            }
            _ => false,
        }
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                self.write_seq(out, depth, ('[', ']'), items.iter().map(|v| (None, v)))
            }
            Json::Obj(fields) => self.write_seq(
                out,
                depth,
                ('{', '}'),
                fields.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }

    fn write_seq<'a>(
        &self,
        out: &mut String,
        depth: usize,
        (open, close): (char, char),
        entries: impl Iterator<Item = (Option<&'a str>, &'a Json)>,
    ) {
        let expanded = self.expanded(depth);
        let indent = |out: &mut String, level: usize| {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', 2 * level));
        };
        out.push(open);
        for (i, (key, value)) in entries.enumerate() {
            if i > 0 {
                out.push(',');
                if !expanded {
                    out.push(' ');
                }
            }
            if expanded {
                indent(out, depth + 1);
            }
            if let Some(key) = key {
                write_str(out, key);
                out.push_str(": ");
            }
            value.write(out, depth + 1);
        }
        if expanded {
            indent(out, depth);
        }
        out.push(close);
    }
}

/// Objects with more fields than this lay out one field per line even
/// when nested: a long record (an arm summary) reads and diffs better
/// that way, while short rows (a metric, a timeline bin) stay on one
/// line.
const INLINE_MAX_FIELDS: usize = 8;

/// Writes `s` as a JSON string literal, escaped per RFC 8259.
fn write_str(out: &mut String, s: &str) {
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

// ---------------------------------------------------------------------------
// Conversion
// ---------------------------------------------------------------------------

/// Conversion of a report value into [`Json`].
pub trait ToJson {
    /// The value as JSON.
    fn to_json(&self) -> Json;

    /// The value as an object field; `None` leaves the field out.
    fn to_field(&self) -> Option<Json> {
        Some(self.to_json())
    }
}

macro_rules! number_to_json {
    ($($t:ty),+) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::Num(*self as f64)
            }
        }
    )+};
}

number_to_json!(u64, usize);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, ToJson::to_json)
    }

    fn to_field(&self) -> Option<Json> {
        self.as_ref().map(ToJson::to_json)
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

/// Field converter for an `Option` whose `None` is itself a reading —
/// an incident that has not closed yet — rendered as `null` instead of
/// being left out.
pub fn nullable<T: ToJson>(v: &Option<T>) -> Option<Json> {
    Some(v.to_json())
}

/// Defines a report-row struct and derives its [`ToJson`] from the same
/// field list, so adding a field changes the JSON without a second
/// edit. Fields render in declaration order under their own names; an
/// `Option` field set to `None` is left out. A field may name its own
/// converter after `=>` (a `fn(&T) -> Option<Json>`, such as
/// [`nullable`]).
///
/// ```ignore
/// presto_bench::json_row! {
///     #[derive(Clone, Debug)]
///     pub struct Row {
///         pub arm: String,
///         pub shed: Option<u64>,
///         pub closed_s: Option<f64> => presto_bench::json::nullable,
///     }
/// }
/// ```
#[macro_export]
macro_rules! json_row {
    (
        $(#[$meta:meta])*
        pub struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                pub $field:ident : $ty:ty $(=> $conv:path)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        pub struct $name {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl $crate::json::ToJson for $name {
            fn to_json(&self) -> $crate::json::Json {
                let mut fields = Vec::new();
                $(
                    if let Some(v) = $crate::json_row!(@field &self.$field $(, $conv)?) {
                        fields.push((stringify!($field).to_string(), v));
                    }
                )*
                $crate::json::Json::Obj(fields)
            }
        }
    };
    (@field $v:expr) => { $crate::json::ToJson::to_field($v) };
    (@field $v:expr, $conv:path) => { $conv($v) };
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .seq("{", b'}', |p| {
                    let key = p.string()?;
                    p.skip_ws();
                    p.eat(":")?;
                    Ok((key, p.value()?))
                })
                .map(Json::Obj),
            Some(b'[') => self.seq("[", b']', Self::value).map(Json::Arr),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    /// A comma-separated object or array body, `open` through `close`.
    fn seq<T>(
        &mut self,
        open: &str,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.eat(open)?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(close) {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(item(self)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b) if b == close => {
                    self.pos += 1;
                    return Ok(items);
                }
                _ => return Err(self.err(&format!("expected `,` or `{}`", close as char))),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
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
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy one UTF-8 scalar (multi-byte sequences pass
                    // through unvalidated — input came from str).
                    let start = self.pos;
                    self.pos += 1;
                    while self.bytes.get(self.pos).is_some_and(|&b| b & 0xC0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(Json::Num)
            .ok_or_else(|| self.err("malformed number"))
    }
}

/// Parses a JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after document"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    json_row! {
        #[derive(Default)]
        pub struct Row {
            pub name: String,
            pub pair: (u64, f64),
            pub missing: Option<f64>,
            pub present: Option<f64>,
            pub open: Option<f64> => nullable,
            pub list: Vec<Option<u64>>,
        }
    }

    #[test]
    fn rows_follow_their_field_list() {
        let row = Row {
            name: "a".into(),
            pair: (3, f64::NAN),
            present: Some(1.5),
            list: vec![Some(1), None],
            ..Row::default()
        };
        assert_eq!(
            row.to_json().render(),
            r#"{
  "name": "a",
  "pair": [
    3,
    null
  ],
  "present": 1.5,
  "open": null,
  "list": [
    1,
    null
  ]
}"#
        );
    }

    #[test]
    fn layout_expands_the_top_and_long_records_only() {
        let long = Json::Obj(
            (0..9)
                .map(|i| (format!("f{i}"), Json::Num(i as f64)))
                .collect(),
        );
        let doc = Json::Obj(vec![
            ("empty".into(), Json::Arr(vec![])),
            (
                "rows".into(),
                Json::Arr(vec![
                    Json::Obj(vec![("key".into(), Json::Str("x".into()))]),
                    Json::Arr(vec![long]),
                ]),
            ),
        ]);
        let text = doc.render();
        assert!(text.contains("\"empty\": [],\n"), "{text}");
        assert!(text.contains("\n    {\"key\": \"x\"},\n"), "{text}");
        // The nine-field record nested at depth 3 still expands.
        assert!(text.contains("[{\n        \"f0\": 0,\n"), "{text}");
        assert_eq!(parse(&text), Ok(doc));
    }

    /// Finite numbers across the whole range, and strings built from the
    /// characters escaping has to get right.
    struct AnyJson {
        depth: u32,
    }

    const TRICKY: &[char] = &[
        'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{c}', '\u{1f}',
        '\u{7f}', 'é', 'ß', '中', '\u{2028}', '😀',
    ];

    impl Strategy for AnyJson {
        type Value = Json;
        fn generate(&self, rng: &mut TestRng) -> Json {
            let string = |rng: &mut TestRng| -> String {
                (0..rng.below(8))
                    .map(|_| TRICKY[rng.below(TRICKY.len() as u64) as usize])
                    .collect()
            };
            let leaf = rng.below(if self.depth == 0 { 4 } else { 6 });
            let inner = AnyJson {
                depth: self.depth.saturating_sub(1),
            };
            match leaf {
                0 => Json::Null,
                1 => Json::Bool(rng.below(2) == 1),
                2 => {
                    let bits = f64::from_bits(rng.next_u64());
                    let small = (rng.below(2_000_001) as f64 - 1e6) / 8.0;
                    Json::Num(if bits.is_finite() && rng.below(2) == 0 {
                        bits
                    } else {
                        small
                    })
                }
                3 => Json::Str(string(rng)),
                4 => Json::Arr((0..rng.below(5)).map(|_| inner.generate(rng)).collect()),
                _ => Json::Obj(
                    (0..rng.below(11))
                        .map(|_| (string(rng), inner.generate(rng)))
                        .collect(),
                ),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn render_then_parse_is_identity(v in AnyJson { depth: 4 }) {
            let text = v.render();
            // RFC 8259: no raw control character outside the layout's
            // own newlines.
            prop_assert!(text.chars().all(|c| c >= ' ' || c == '\n'), "{text:?}");
            prop_assert_eq!(parse(&text), Ok(v));
        }
    }
}
