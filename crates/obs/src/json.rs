//! JSON for the whole workspace: the one encoder every document is
//! written through (run manifests, metrics, `/progress` and `/healthz`,
//! Chrome traces, comparison and bench reports) and the one strict
//! reader that reads such documents back.
//!
//! The encoder streams into a `String`, with no value tree between, so
//! a document keeps its writer's key order. [`object`] opens an
//! [`Object`] whose methods add one member each, nested objects and
//! [`Array`]s included; the builders own separators, key quoting and
//! `null` for a `None`. A value is anything [`Encode`] (strings,
//! booleans, integers, floats in shortest round-trip form, options,
//! vectors, string-keyed maps, and types that implement it, often
//! through [`encode_fields!`](crate::encode_fields)), or through `num`
//! a number in the caller's `Display` form (`{:.1}`, a trace's `µs.ns`).
//! Every string goes through [`escape_into`]: `"` and `\` are
//! backslash-escaped, control characters use the short escapes or
//! `\u00XX`, and non-ASCII characters become `\uXXXX` (surrogate pairs
//! for astral code points), so the output is plain-ASCII JSON any
//! parser accepts.
//!
//! [`parse`] is the reading half: RFC 8259 exactly (no comments, no
//! trailing commas, no leading zeros, one top-level value), with
//! nesting capped at [`MAX_DEPTH`] so hostile input cannot exhaust the
//! stack.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// Append `s` to `out` with every character JSON-escaped (no
/// surrounding quotes).
pub fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c if c.is_ascii() => out.push(c),
            c => {
                let mut units = [0u16; 2];
                for unit in c.encode_utf16(&mut units) {
                    let _ = write!(out, "\\u{unit:04x}");
                }
            }
        }
    }
}

/// `s` escaped and wrapped in double quotes, ready to splice into a
/// JSON document as a string literal or object key.
pub fn quoted(s: &str) -> String {
    to_string(s)
}

/// A value the encoder can write.
pub trait Encode {
    /// Append this value's JSON to `out`.
    fn encode(&self, out: &mut String);
}

/// Implement [`Encode`] for a struct as an object of the listed
/// fields, each keyed by its own name, in the listed order:
/// `encode_fields!(Type: field, field, …)`.
#[macro_export]
macro_rules! encode_fields {
    ($t:ident: $($field:ident),+ $(,)?) => {
        impl $crate::json::Encode for $t {
            fn encode(&self, out: &mut String) {
                $crate::json::write_object(out, |o| {
                    $(o.field(stringify!($field), &self.$field);)*
                });
            }
        }
    };
}

/// `value` as a JSON document.
pub fn to_string(value: &(impl Encode + ?Sized)) -> String {
    let mut out = String::new();
    value.encode(&mut out);
    out
}

/// A JSON object document whose members `members` adds.
pub fn object(members: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::new();
    write_object(&mut out, members);
    out
}

/// Append a JSON object to `out`; `members` adds its members.
pub fn write_object(out: &mut String, members: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    members(&mut Object(Seq { out, first: true }));
    out.push('}');
}

fn write_array(out: &mut String, items: impl FnOnce(&mut Array<'_>)) {
    out.push('[');
    items(&mut Array(Seq { out, first: true }));
    out.push(']');
}

/// The open body of an object or array: the one place a separator is
/// written.
struct Seq<'a> {
    out: &'a mut String,
    first: bool,
}

impl Seq<'_> {
    /// The buffer, positioned for the next entry.
    fn next(&mut self) -> &mut String {
        if !std::mem::take(&mut self.first) {
            self.out.push(',');
        }
        self.out
    }
}

/// An open JSON object, members written in call order.
pub struct Object<'a>(Seq<'a>);

impl Object<'_> {
    /// The buffer, positioned for the value of member `key`.
    fn key(&mut self, key: &str) -> &mut String {
        let out = self.0.next();
        key.encode(out);
        out.push(':');
        out
    }

    /// Add member `key` with `value`.
    pub fn field(&mut self, key: &str, value: impl Encode) -> &mut Self {
        value.encode(self.key(key));
        self
    }

    /// Add member `key` with the number `n` in its `Display` form.
    pub fn num(&mut self, key: &str, n: impl Display) -> &mut Self {
        let _ = write!(self.key(key), "{n}");
        self
    }

    /// Add member `key` with an object whose members `members` adds.
    pub fn object(&mut self, key: &str, members: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        write_object(self.key(key), members);
        self
    }

    /// Add member `key` with an array whose elements `items` adds.
    pub fn array(&mut self, key: &str, items: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        write_array(self.key(key), items);
        self
    }
}

/// An open JSON array, elements written in call order.
pub struct Array<'a>(Seq<'a>);

impl Array<'_> {
    /// Add `value`.
    pub fn item(&mut self, value: impl Encode) -> &mut Self {
        value.encode(self.0.next());
        self
    }

    /// Add the number `n` in its `Display` form.
    pub fn num(&mut self, n: impl Display) -> &mut Self {
        let _ = write!(self.0.next(), "{n}");
        self
    }

    /// Add an object whose members `members` adds.
    pub fn object(&mut self, members: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        write_object(self.0.next(), members);
        self
    }
}

/// Already-encoded JSON, appended as is (a child process's document,
/// say).
pub struct Raw<'a>(pub &'a str);

impl Encode for Raw<'_> {
    fn encode(&self, out: &mut String) {
        out.push_str(self.0);
    }
}

impl Encode for str {
    fn encode(&self, out: &mut String) {
        out.push('"');
        escape_into(out, self);
        out.push('"');
    }
}

impl Encode for String {
    fn encode(&self, out: &mut String) {
        self.as_str().encode(out);
    }
}

/// Types written in their `Display` form.
macro_rules! encode_display {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}

encode_display!(bool, u16, u32, u64, usize);

/// Written in its shortest round-trip form (`{:?}`); `num` takes any
/// other.
impl Encode for f64 {
    fn encode(&self, out: &mut String) {
        let _ = write!(out, "{self:?}");
    }
}

impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, out: &mut String) {
        (**self).encode(out);
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut String) {
        match self {
            Some(v) => v.encode(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut String) {
        write_array(out, |a| {
            for v in self {
                a.item(v);
            }
        });
    }
}

impl<K: AsRef<str>, V: Encode> Encode for BTreeMap<K, V> {
    fn encode(&self, out: &mut String) {
        write_object(out, |o| {
            for (k, v) in self {
                o.field(k.as_ref(), v);
            }
        });
    }
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number, as `f64`.
    Number(f64),
    /// A string, escapes resolved.
    String(String),
    /// An array.
    Array(Vec<Value>),
    /// An object, keys sorted (a repeated key keeps its last value).
    Object(BTreeMap<String, Value>),
}

impl Value {
    /// The member `key` of an object (`None` for other values).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.as_object().and_then(|o| o.get(key))
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The number, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&Vec<Value>> {
        match self {
            Value::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The members, if this is an object.
    pub fn as_object(&self) -> Option<&BTreeMap<String, Value>> {
        match self {
            Value::Object(members) => Some(members),
            _ => None,
        }
    }

    /// True for `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Nesting limit for [`parse`].
pub const MAX_DEPTH: usize = 128;

/// Parse one complete JSON document. The error names what was wrong
/// and the byte offset where.
pub fn parse(text: &str) -> Result<Value, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.bytes.get(self.pos) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), String> {
        if self.bytes.get(self.pos) == Some(&b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn literal(&mut self, word: &str, v: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn value(&mut self) -> Result<Value, String> {
        self.ws();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(Value::String),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn nested(&mut self, f: fn(&mut Self) -> Result<Value, String>) -> Result<Value, String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn object(&mut self) -> Result<Value, String> {
        self.eat(b'{')?;
        let mut members = BTreeMap::new();
        self.ws();
        if self.eat(b'}').is_ok() {
            return Ok(Value::Object(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            let v = self.value()?;
            members.insert(key, v);
            self.ws();
            if self.eat(b',').is_ok() {
                continue;
            }
            self.eat(b'}')?;
            return Ok(Value::Object(members));
        }
    }

    fn array(&mut self) -> Result<Value, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.eat(b']').is_ok() {
            return Ok(Value::Array(items));
        }
        loop {
            items.push(self.value()?);
            self.ws();
            if self.eat(b',').is_ok() {
                continue;
            }
            self.eat(b']')?;
            return Ok(Value::Array(items));
        }
    }

    fn number(&mut self) -> Result<Value, String> {
        let start = self.pos;
        let digits = |p: &mut Self| {
            let from = p.pos;
            while let Some(b'0'..=b'9') = p.bytes.get(p.pos) {
                p.pos += 1;
            }
            p.pos > from
        };
        if self.bytes.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        if self.bytes.get(self.pos) == Some(&b'0') {
            self.pos += 1;
        } else if !digits(self) {
            return Err(self.err("invalid number"));
        }
        if self.bytes.get(self.pos) == Some(&b'.') {
            self.pos += 1;
            if !digits(self) {
                return Err(self.err("invalid fraction"));
            }
        }
        if let Some(b'e' | b'E') = self.bytes.get(self.pos) {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.bytes.get(self.pos) {
                self.pos += 1;
            }
            if !digits(self) {
                return Err(self.err("invalid exponent"));
            }
        }
        // The grammar above admits only ASCII digits, signs, '.', 'e'.
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        text.parse()
            .map(Value::Number)
            .map_err(|_| self.err("invalid number"))
    }

    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .filter(|h| h.iter().all(u8::is_ascii_hexdigit))
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.bytes[self.pos..];
            let run = rest
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.err("unterminated string"))?;
            out.push_str(std::str::from_utf8(&rest[..run]).map_err(|_| self.err("invalid UTF-8"))?);
            self.pos += run;
            match self.bytes[self.pos] {
                b'"' => {
                    self.pos += 1;
                    return Ok(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self
                        .bytes
                        .get(self.pos)
                        .ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xd800..0xdc00).contains(&hi) {
                                self.eat(b'\\')?;
                                self.eat(b'u')?;
                                let lo = self.hex4()?;
                                if !(0xdc00..0xe000).contains(&lo) {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                            } else {
                                hi
                            };
                            // A lone low surrogate is not a scalar value.
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("unpaired surrogate"))?,
                            );
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                }
                _ => return Err(self.err("control character in string")),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lockdown_testkit::{check, Gen};

    #[test]
    fn plain_ascii_passes_through() {
        assert_eq!(quoted("pipeline.flows_in"), "\"pipeline.flows_in\"");
    }

    #[test]
    fn quotes_backslashes_and_controls_escape() {
        assert_eq!(
            quoted("a\"b\\c\nd\te\rf\u{8}g\u{c}h\u{1}i"),
            "\"a\\\"b\\\\c\\nd\\te\\rf\\bg\\fh\\u0001i\""
        );
    }

    #[test]
    fn non_ascii_becomes_u_escapes() {
        assert_eq!(quoted("π"), "\"\\u03c0\"");
        assert_eq!(quoted("é"), "\"\\u00e9\"");
        // Astral plane → surrogate pair.
        assert_eq!(quoted("\u{1F600}"), "\"\\ud83d\\ude00\"");
        // Output is pure ASCII regardless of input.
        assert!(quoted("日本語 ≠ ascii").is_ascii());
    }

    #[test]
    fn escaped_strings_roundtrip_through_strict_parser() {
        for nasty in [
            "plain",
            "with \"quotes\" and \\slashes\\",
            "newline\nand\ttab",
            "control\u{7}chars\u{1f}",
            "bmp π é 中",
            "astral \u{1F600}",
        ] {
            let doc = format!("{{{}:{}}}", quoted(nasty), quoted(nasty));
            let v = parse(&doc).expect(nasty);
            let obj = v.as_object().expect("object");
            let (k, val) = obj.iter().next().expect("one entry");
            assert_eq!(k, nasty);
            assert_eq!(val.as_str(), Some(nasty));
        }
    }

    #[test]
    fn parses_nested_documents() {
        let v =
            parse(r#" {"a": [1, -2.5e3, true, null], "b": {"c": "x\"\u00e9\/"}} "#).expect("valid");
        let a = v.get("a").and_then(Value::as_array).expect("array");
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2500.0));
        assert_eq!(a[1].as_u64(), None);
        assert_eq!(a[2].as_bool(), Some(true));
        assert!(a[3].is_null());
        let c = v.get("b").and_then(|b| b.get("c")).and_then(Value::as_str);
        assert_eq!(c, Some("x\"é/"));
        assert_eq!(v.get("missing"), None);
        assert_eq!(a[0].get("a"), None);
    }

    /// Every document here breaks RFC 8259 in one way.
    #[test]
    fn rejects_what_the_grammar_forbids() {
        let malformed = [
            "",
            " ",
            "{",
            "[",
            "\"a",
            "nul",
            "tru",
            "{\"a\" 1}",
            "{1:2}",
            "[1 2]",
        ];
        let leading_zeros_and_bad_numbers = [
            "01", "-01", "00", "1.", ".5", "-", "+1", "1e", "1e+", "0x10", "NaN", "Infinity",
        ];
        let trailing_commas = ["[1,]", "{\"a\":1,}", "[,1]", "{,}"];
        let trailing_bytes = ["[1] 2", "{} {}", "null x", "\"a\"\"b\""];
        let raw_controls = ["\"a\u{0}b\"", "\"a\u{1f}b\"", "\"a\nb\"", "\"a\tb\""];
        let bad_surrogates = [
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ud83d\u0041""#,
            r#""\ude00""#,
            r#""\ude00\ud83d""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\x41""#,
        ];
        for bad in [
            &malformed[..],
            &leading_zeros_and_bad_numbers,
            &trailing_commas,
            &trailing_bytes,
            &raw_controls,
            &bad_surrogates,
        ]
        .concat()
        {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn accepts_the_edges_of_the_grammar() {
        assert_eq!(parse("0").expect("zero").as_u64(), Some(0));
        assert_eq!(parse("-0.5e-1").expect("fraction").as_f64(), Some(-0.05));
        assert_eq!(parse("1E+2").expect("exponent").as_f64(), Some(100.0));
        assert!(parse(" [1, 2] \n").is_ok());
        // Escaped controls are fine; DEL is not a control character to JSON.
        assert_eq!(
            parse(r#""\u0000\n\t""#).expect("escaped").as_str(),
            Some("\u{0}\n\t")
        );
        assert_eq!(parse("\"\u{7f}\"").expect("DEL").as_str(), Some("\u{7f}"));
        assert_eq!(
            parse(r#""\ud83d\ude00""#).expect("pair").as_str(),
            Some("\u{1F600}")
        );
        // A repeated key keeps its last value.
        let v = parse(r#"{"k":1,"k":2}"#).expect("duplicate keys parse");
        assert_eq!(v.get("k").and_then(Value::as_u64), Some(2));
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert!(parse(&deep).unwrap_err().contains("nesting too deep"));
        // A million unclosed brackets fail fast instead of overflowing
        // the stack.
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(1_000_000)).is_err());
    }

    #[test]
    fn builders_write_members_in_call_order() {
        let doc = object(|o| {
            o.field("z", 1u64)
                .field("a", Some("x"))
                .field("n", None::<&str>)
                .field("f", 0.5)
                .num("g", format_args!("{:.2}", 0.5))
                .field("r", Raw("[1,{}]"))
                .object("o", |_| {})
                .array("l", |a| {
                    a.item(true).num(2).object(|_| {});
                });
        });
        assert_eq!(
            doc,
            r#"{"z":1,"a":"x","n":null,"f":0.5,"g":0.50,"r":[1,{}],"o":{},"l":[true,2,{}]}"#
        );
    }

    /// A string with printable ASCII, other Unicode, and now and then a
    /// quote, a backslash or a control character.
    fn text(g: &mut Gen) -> String {
        let mut s = g.text(6);
        if g.any() {
            s.push(['"', '\\', '/', '\n', '\u{0}', '\u{1f}'][g.range(0..6usize)]);
            s.push_str(&g.text(2));
        }
        s
    }

    /// A random value: nested objects and arrays (down to `depth`) of
    /// strings, integers, floats, booleans and nulls.
    fn value(g: &mut Gen, depth: u32) -> Value {
        match g.range(0..if depth == 0 { 5u32 } else { 7 }) {
            0 => Value::Null,
            1 => Value::Bool(g.any()),
            2 => Value::Number(g.any::<u64>() as f64),
            3 => Value::Number(g.range(-1.0..1.0) * 10f64.powi(g.range(-300i64..300) as i32)),
            4 => Value::String(text(g)),
            5 => Value::Array(g.vec(0..5, |g| value(g, depth - 1))),
            _ => Value::Object(members(g, depth - 1)),
        }
    }

    fn members(g: &mut Gen, depth: u32) -> BTreeMap<String, Value> {
        g.vec(0..5, |g| (text(g), value(g, depth)))
            .into_iter()
            .collect()
    }

    /// A value written back through the encoder: whole non-negative
    /// numbers as `u64`, the rest as `f64`.
    struct Tree<'a>(&'a Value);

    impl Encode for Tree<'_> {
        fn encode(&self, out: &mut String) {
            match self.0 {
                Value::Null => None::<u64>.encode(out),
                Value::Bool(b) => b.encode(out),
                Value::Number(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 => {
                    (*n as u64).encode(out)
                }
                Value::Number(n) => n.encode(out),
                Value::String(s) => s.encode(out),
                Value::Array(items) => items.iter().map(Tree).collect::<Vec<_>>().encode(out),
                Value::Object(m) => write_object(out, |o| {
                    for (k, v) in m {
                        o.field(k, Tree(v));
                    }
                }),
            }
        }
    }

    #[test]
    fn encoded_documents_parse_back_to_their_values() {
        check("encoded_documents_parse_back_to_their_values", |g| {
            let doc = Value::Object(members(g, 3));
            let text = to_string(&Tree(&doc));
            assert!(text.is_ascii(), "{text}");
            assert_eq!(parse(&text), Ok(doc), "{text}");
        });
    }
}
