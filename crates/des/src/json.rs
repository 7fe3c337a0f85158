//! Minimal JSON: one value type, one writer, one parser.
//!
//! Every JSON document the workspace reads or writes goes through
//! [`Json`]: the `hyperq run --json` run summary, the Chrome trace
//! export and the chaos and torture repro files. [`Json::render`] writes compact or two-space
//! pretty text; [`parse_json`] is total: malformed input (truncated,
//! corrupt, hostile nesting) yields `Err`, never a panic.

use std::borrow::Cow;
use std::fmt::Write;

/// A JSON value. Objects keep their fields in insertion order, so a
/// value always renders to the same bytes.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also how an absent `Option` and a non-finite float render).
    Null,
    /// Boolean.
    Bool(bool),
    /// Non-negative integer, exact over the whole `u64` range.
    Num(u64),
    /// Any other number: negative, fractional, or beyond `u64`.
    F64(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Json>),
    /// Object (insertion-ordered key/value pairs). Keys of objects built
    /// with [`Json::obj`] borrow their `'static` names, so no allocation.
    Obj(Vec<(Cow<'static, str>, Json)>),
}

macro_rules! from {
    ($($t:ty => |$x:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Json {
            fn from($x: $t) -> Self {
                $e
            }
        }
    )*};
}

from!(
    bool => |b| Json::Bool(b),
    u64 => |n| Json::Num(n),
    u32 => |n| Json::Num(n.into()),
    u16 => |n| Json::Num(n.into()),
    f64 => |x| Json::F64(x),
    String => |s| Json::Str(s),
    &str => |s| Json::Str(s.to_string()),
);

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> FromIterator<T> for Json {
    fn from_iter<I: IntoIterator<Item = T>>(items: I) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// Build an object from `(key, value)` pairs, in order.
    pub fn obj(fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (Cow::Borrowed(k), v))
                .collect(),
        )
    }

    /// `x` rounded to `places` decimals, for reports read by people:
    /// it renders as the shortest text of the rounded value.
    pub fn rounded(x: f64, places: i32) -> Json {
        let scale = 10f64.powi(places);
        Json::F64((x * scale).round() / scale)
    }

    /// Object field lookup.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The first field named `key` at any depth, searched depth first
    /// in document order — for documents whose keys are unique
    /// throughout, whatever their nesting.
    pub fn find<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => {
                fields
                    .iter()
                    .find_map(|(k, v)| if k == key { Some(v) } else { v.find(key) })
            }
            Json::Arr(items) => items.iter().find_map(|v| v.find(key)),
            _ => None,
        }
    }

    /// A number as `f64` (an `f64` written as an integer converts back
    /// exactly); `None` for any other value.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n as f64),
            Json::F64(x) => Some(*x),
            _ => None,
        }
    }

    /// Required non-negative integer field.
    pub fn num(&self, key: &str) -> Result<u64, String> {
        match self.get(key) {
            Some(Json::Num(n)) => Ok(*n),
            _ => Err(format!("missing or non-numeric field '{key}'")),
        }
    }

    /// Required numeric field as `f64` (an `f64` written as an integer
    /// converts back exactly).
    pub fn float(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
    }

    /// Required boolean field.
    pub fn boolean(&self, key: &str) -> Result<bool, String> {
        match self.get(key) {
            Some(Json::Bool(b)) => Ok(*b),
            _ => Err(format!("missing or non-boolean field '{key}'")),
        }
    }

    /// Required array field.
    pub fn arr<'a>(&'a self, key: &str) -> Result<&'a [Json], String> {
        match self.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("missing or non-array field '{key}'")),
        }
    }

    /// Required string field.
    pub fn str_field<'a>(&'a self, key: &str) -> Result<&'a str, String> {
        match self.get(key) {
            Some(Json::Str(s)) => Ok(s),
            _ => Err(format!("missing or non-string field '{key}'")),
        }
    }

    /// Render as JSON text: compact, or pretty-printed with two-space
    /// indentation. Every control character in a string is escaped, and
    /// floats use Rust's shortest round-trip form, so parsing the text
    /// back yields the same bits.
    pub fn render(&self, pretty: bool) -> String {
        let mut out = String::with_capacity(1024);
        self.write(&mut out, pretty.then_some(0));
        out
    }

    /// `indent` is the current depth when pretty-printing.
    fn write(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Json::F64(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::F64(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => write_seq(out, indent, "[]", items.iter().map(|v| (None, v))),
            Json::Obj(fields) => {
                let fields = fields.iter().map(|(k, v)| (Some(k.as_ref()), v));
                write_seq(out, indent, "{}", fields)
            }
        }
    }
}

fn write_seq<'a>(
    out: &mut String,
    indent: Option<usize>,
    brackets: &str,
    items: impl ExactSizeIterator<Item = (Option<&'a str>, &'a Json)>,
) {
    let newline = |out: &mut String, depth: usize| {
        out.push('\n');
        (0..depth).for_each(|_| out.push_str("  "));
    };
    out.push_str(&brackets[..1]);
    let nonempty = items.len() > 0;
    for (i, (key, value)) in items.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if let Some(depth) = indent {
            newline(out, depth + 1);
        }
        if let Some(key) = key {
            write_str(out, key);
            out.push_str(if indent.is_some() { ": " } else { ":" });
        }
        value.write(out, indent.map(|d| d + 1));
    }
    if let (Some(depth), true) = (indent, nonempty) {
        newline(out, depth);
    }
    out.push_str(&brackets[1..]);
}

/// Write `s` as a JSON string literal: quote, backslash and every
/// control character are escaped; everything else passes through.
fn write_str(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest
        .bytes()
        .position(|b| b < 0x20 || b == b'"' || b == b'\\')
    {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            b => {
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Deepest array/object nesting [`parse_json`] accepts; deeper input is
/// an error rather than a stack overflow.
const MAX_DEPTH: usize = 128;

/// Parse a JSON document into a [`Json`] value. The whole input must be
/// one value plus optional trailing whitespace. Errors are structured
/// strings ("expected ',' or '}' ..."), never panics — truncating the
/// input at any byte yields `Err`.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser { text, pos: 0 };
    let v = p.value(0)?;
    match p.peek() {
        Some(c) => Err(format!(
            "trailing garbage '{}' at byte {}",
            c as char, p.pos
        )),
        None => Ok(v),
    }
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn rest(&self) -> &[u8] {
        &self.text.as_bytes()[self.pos..]
    }

    /// Skip whitespace, then look at the next byte.
    fn peek(&mut self) -> Option<u8> {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.rest().first() {
            self.pos += 1;
        }
        self.rest().first().copied()
    }

    /// Consume `c` if it is the very next byte.
    fn eat(&mut self, c: u8) -> bool {
        let hit = self.rest().first() == Some(&c);
        self.pos += hit as usize;
        hit
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        match self.peek() == Some(c) && self.eat(c) {
            true => Ok(()),
            false => Err(format!("expected '{}' at byte {}", c as char, self.pos)),
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(format!("JSON nested deeper than {MAX_DEPTH} levels"));
        }
        match self.peek() {
            Some(b'{') => self.seq(depth, b'}'),
            Some(b'[') => self.seq(depth, b']'),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => self.literal(),
        }
    }

    /// An object (`close` is `}`) or array (`]`), from its opening
    /// bracket on.
    fn seq(&mut self, depth: usize, close: u8) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        while self.peek() != Some(close) {
            if !items.is_empty() {
                self.expect(b',')?;
            }
            let mut key = String::new();
            if close == b'}' {
                key = self.string()?;
                self.expect(b':')?;
            }
            items.push((Cow::Owned(key), self.value(depth + 1)?));
        }
        self.pos += 1;
        Ok(match close {
            b'}' => Json::Obj(items),
            _ => Json::Arr(items.into_iter().map(|(_, v)| v).collect()),
        })
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte; all three are ASCII, so the slice is whole UTF-8.
            let run = self
                .rest()
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20);
            let run = run.ok_or("unterminated string")?;
            out.push_str(&self.text[self.pos..self.pos + run]);
            self.pos += run + 1;
            match self.text.as_bytes()[self.pos - 1] {
                b'"' => return Ok(out),
                b'\\' => out.push(self.escape()?),
                c => return Err(format!("unescaped control byte {c:#04x} in string")),
            }
        }
    }

    /// Decode the escape after a backslash.
    fn escape(&mut self) -> Result<char, String> {
        let c = *self.rest().first().ok_or("unterminated escape")?;
        self.pos += 1;
        Ok(match c {
            b'"' | b'\\' | b'/' => c as char,
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let mut code = self.hex4()?;
                // A high surrogate must be followed by `\u` + a low one.
                if (0xD800..0xDC00).contains(&code) && self.eat(b'\\') && self.eat(b'u') {
                    let lo = self.hex4()?;
                    if (0xDC00..0xE000).contains(&lo) {
                        code = 0x10000 + ((code - 0xD800) << 10) + (lo - 0xDC00);
                    }
                }
                char::from_u32(code).ok_or("unpaired UTF-16 surrogate in \\u escape")?
            }
            other => return Err(format!("unsupported escape '\\{}'", other as char)),
        })
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let digits = self.text.get(self.pos..self.pos + 4).unwrap_or("");
        match digits.bytes().all(|b| b.is_ascii_hexdigit()) && digits.len() == 4 {
            true => self.pos += 4,
            false => return Err(format!("bad \\u escape at byte {}", self.pos)),
        }
        Ok(u32::from_str_radix(digits, 16).expect("four hex digits"))
    }

    /// Consume a run of ASCII digits; true if it was non-empty.
    fn digits(&mut self) -> bool {
        let n = self
            .rest()
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.pos += n;
        n > 0
    }

    /// `-? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?` — a plain
    /// non-negative integer that fits is [`Json::Num`], anything else
    /// [`Json::F64`].
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let mut float = self.eat(b'-');
        let leading_zero =
            self.rest().starts_with(b"0") && self.rest().get(1).is_some_and(u8::is_ascii_digit);
        let mut ok = self.digits() && !leading_zero;
        if self.eat(b'.') {
            float = true;
            ok &= self.digits();
        }
        if self.eat(b'e') || self.eat(b'E') {
            float = true;
            let _ = self.eat(b'+') || self.eat(b'-');
            ok &= self.digits();
        }
        let text = &self.text[start..self.pos];
        match (ok, float, text.parse()) {
            (false, _, _) => Err(format!("bad number '{text}' at byte {start}")),
            (true, false, Ok(n)) => Ok(Json::Num(n)),
            _ => text
                .parse()
                .map(Json::F64)
                .map_err(|e| format!("bad number '{text}': {e}")),
        }
    }

    fn literal(&mut self) -> Result<Json, String> {
        for (word, v) in [
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
            ("null", Json::Null),
        ] {
            if self.rest().starts_with(word.as_bytes()) {
                self.pos += word.len();
                return Ok(v);
            }
        }
        Err(format!("unexpected token at byte {}", self.pos))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_rejects() {
        let v = parse_json("{\"a\": 1, \"b\": [true, \"x\", null], \"c\": {\"d\": 2}}").unwrap();
        assert_eq!(v.num("a"), Ok(1));
        assert_eq!(v.arr("b").unwrap(), [true.into(), "x".into(), Json::Null]);
        assert_eq!(v.get("c").unwrap().num("d"), Ok(2));
        let bad = [
            "",
            "{\"a\": }",
            "[1, 2",
            "[1,]",
            "01",
            "1.",
            ".5",
            "-",
            "1e",
            "+1",
            "nul",
        ];
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        for doc in bad.iter().chain(&["\"\u{1}\"", "\"\\ud800\"", &deep]) {
            assert!(parse_json(doc).is_err(), "{doc:?}");
        }
    }

    /// Every token kind appears, and every strict prefix is an `Err`
    /// (never a panic, never a silently shorter document).
    #[test]
    fn every_prefix_is_a_clean_error() {
        let doc = r#"{"k": [1, {"s": "a\"b\/\t\r\n\u00e9\ud83d\ude00 é", "t": true}],
                      "n": 42, "neg": -7, "f": 2.5e-3, "z": null, "b": false}"#;
        for cut in (0..doc.len()).filter(|&c| doc.is_char_boundary(c)) {
            assert!(parse_json(&doc[..cut]).is_err(), "{cut}");
        }
        let v = parse_json(doc).unwrap();
        let s = v.arr("k").unwrap()[1].str_field("s");
        assert_eq!(s, Ok("a\"b/\t\r\né😀 é"));
        assert_eq!(v.get("neg"), Some(&Json::F64(-7.0)));
        assert_eq!(v.float("f"), Ok(2.5e-3));
        assert_eq!(v.get("z"), Some(&Json::Null));
    }

    /// Non-ASCII text decodes as UTF-8; any Rust string, control
    /// characters included, renders to valid JSON and parses back.
    #[test]
    fn strings_round_trip_utf8_and_control_characters() {
        assert_eq!(parse_json("\"é 日本\""), Ok(Json::Str("é 日本".into())));
        let s = "quote\" back\\ nl\n tab\t cr\r nul\0 bell\u{7} del\u{7f} é 😀";
        let text = Json::from(s).render(false);
        assert!(!text.bytes().any(|b| b < 0x20), "{text:?}");
        assert!(text.contains("\\u0000") && text.contains("\\u0007"));
        assert_eq!(parse_json(&text), Ok(Json::Str(s.into())));
    }

    #[test]
    fn floats_round_trip_bit_exact() {
        let xs = [0.0, -0.0, 3.0, 0.1, -2.5e-8, 1e300, 5e-324, f64::MAX];
        for x in xs {
            let doc = Json::obj([("x", x.into())]).render(false);
            let back = parse_json(&doc).unwrap().float("x").unwrap();
            assert_eq!(back.to_bits(), x.to_bits(), "{doc}");
        }
        assert_eq!(Json::F64(f64::NAN).render(false), "null");
    }

    #[test]
    fn compact_and_pretty_rendering() {
        let v = Json::obj([
            ("a", 1u64.into()),
            ("b", [true, false].into_iter().collect()),
            ("e", Json::Arr(vec![])),
            ("o", Json::obj([("x", None::<u64>.into())])),
        ]);
        let compact = r#"{"a":1,"b":[true,false],"e":[],"o":{"x":null}}"#;
        assert_eq!(v.render(false), compact);
        let pretty = "{\n  \"a\": 1,\n  \"b\": [\n    true,\n    false\n  ],\n  \"e\": [],\n  \"o\": {\n    \"x\": null\n  }\n}";
        assert_eq!(v.render(true), pretty);
        assert_eq!(parse_json(pretty), Ok(v));
    }

    #[test]
    fn find_reaches_any_depth() {
        let v =
            parse_json(r#"{"a": 12.5, "nested": {"b": 3, "l": [{"c": 7}]}, "s": "x"}"#).unwrap();
        assert_eq!(v.find("a").and_then(Json::as_f64), Some(12.5));
        assert_eq!(v.find("b").and_then(Json::as_f64), Some(3.0));
        assert_eq!(v.find("c").and_then(Json::as_f64), Some(7.0));
        assert_eq!(v.find("s").and_then(Json::as_f64), None);
        assert_eq!(v.find("missing"), None);
    }

    #[test]
    fn rounded_renders_short() {
        assert_eq!(Json::rounded(2.0 / 3.0, 3).render(false), "0.667");
        assert_eq!(Json::rounded(1234.56, 0).render(false), "1235");
    }
}
