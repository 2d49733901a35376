//! The workspace's single hand-rolled JSON codec.
//!
//! The workspace vendors no serde, so the two machine-readable artifacts
//! the repo emits — `BENCH_*.json` baselines (this crate) and the
//! `TUNED.json` design-point document (`pim-dse`) — share this one
//! reader/writer pair instead of each growing an ad-hoc string scraper.
//!
//! * [`JsonValue`] is a recursive-descent parser over the full JSON value
//!   grammar (objects keep key order, numbers are `f64`).
//! * [`JsonWriter`] emits the repo's house style: two-space indent, one
//!   field per line, with [`JsonWriter::begin_inline_obj`] for compact
//!   one-line records and per-field decimal control on numbers.

use std::fmt::Write as _;

/// A parsed JSON value. Object fields preserve document order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number, held as `f64`.
    Num(f64),
    /// A string (escape sequences decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, as ordered key/value pairs.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Parses `text` as a single JSON value (surrounding whitespace
    /// allowed); `None` on any syntax error or trailing garbage.
    pub fn parse(text: &str) -> Option<JsonValue> {
        let mut p = Parser {
            s: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos == p.s.len() {
            Some(v)
        } else {
            None
        }
    }

    /// Looks up `key` when `self` is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            Self::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if `self` is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if `self` is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if `self` is an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The ordered fields, if `self` is an object.
    pub fn as_obj(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            Self::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// Convenience: `get(key)` then [`Self::as_f64`].
    pub fn num_at(&self, key: &str) -> Option<f64> {
        self.get(key)?.as_f64()
    }

    /// Convenience: `get(key)` then [`Self::as_str`].
    pub fn str_at(&self, key: &str) -> Option<&str> {
        self.get(key)?.as_str()
    }

    /// Convenience: `num_at(key)` as a `usize`, rejecting negatives and
    /// non-integral values.
    pub fn usize_at(&self, key: &str) -> Option<usize> {
        let n = self.num_at(key)?;
        if n >= 0.0 && n.fract() == 0.0 && n <= usize::MAX as f64 {
            Some(n as usize)
        } else {
            None
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .s
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        if self.s.get(self.pos) == Some(&b) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_lit(&mut self, lit: &str) -> bool {
        if self.s[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Option<JsonValue> {
        match *self.s.get(self.pos)? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => self.string().map(JsonValue::Str),
            b't' => self.eat_lit("true").then_some(JsonValue::Bool(true)),
            b'f' => self.eat_lit("false").then_some(JsonValue::Bool(false)),
            b'n' => self.eat_lit("null").then_some(JsonValue::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Option<JsonValue> {
        self.eat(b'{');
        let mut fields = Vec::new();
        self.skip_ws();
        if self.eat(b'}') {
            return Some(JsonValue::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            if !self.eat(b':') {
                return None;
            }
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            return self.eat(b'}').then_some(JsonValue::Obj(fields));
        }
    }

    fn array(&mut self) -> Option<JsonValue> {
        self.eat(b'[');
        let mut items = Vec::new();
        self.skip_ws();
        if self.eat(b']') {
            return Some(JsonValue::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            if self.eat(b',') {
                continue;
            }
            return self.eat(b']').then_some(JsonValue::Arr(items));
        }
    }

    fn string(&mut self) -> Option<String> {
        if !self.eat(b'"') {
            return None;
        }
        let mut out = String::new();
        loop {
            match *self.s.get(self.pos)? {
                b'"' => {
                    self.pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = *self.s.get(self.pos)?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'u' => {
                            let hex = self.s.get(self.pos..self.pos + 4)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            self.pos += 4;
                            out.push(char::from_u32(code)?);
                        }
                        _ => return None,
                    }
                }
                _ => {
                    // Consume one whole UTF-8 scalar from the remaining text.
                    let rest = std::str::from_utf8(&self.s[self.pos..]).ok()?;
                    let ch = rest.chars().next()?;
                    self.pos += ch.len_utf8();
                    out.push(ch);
                }
            }
        }
    }

    fn number(&mut self) -> Option<JsonValue> {
        let start = self.pos;
        while self
            .s
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()?
            .parse()
            .ok()
            .map(JsonValue::Num)
    }
}

#[derive(Clone, Copy)]
struct Frame {
    is_obj: bool,
    inline: bool,
    items: usize,
}

/// An incremental pretty-printer for the repo's JSON house style.
///
/// Nested containers print one field per line at two-space indentation;
/// [`Self::begin_inline_obj`] switches a record to the compact one-line
/// form `{"name": "x", "ns_per_iter": 1.5}` used inside arrays.
#[derive(Default)]
pub struct JsonWriter {
    buf: String,
    stack: Vec<Frame>,
    pending_value: bool,
}

impl JsonWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes the document with a trailing newline.
    pub fn finish(mut self) -> String {
        debug_assert!(self.stack.is_empty(), "unclosed container");
        self.buf.push('\n');
        self.buf
    }

    fn indent(&self) -> usize {
        2 * self.stack.iter().filter(|f| !f.inline).count()
    }

    /// Comma/newline/indent bookkeeping before a new item in the current
    /// container (an object field via [`Self::key`], or an array element).
    fn start_item(&mut self) {
        if self.pending_value {
            self.pending_value = false;
            return;
        }
        let indent = self.indent();
        if let Some(frame) = self.stack.last_mut() {
            if frame.items > 0 {
                self.buf.push(',');
            }
            if frame.inline {
                if frame.items > 0 {
                    self.buf.push(' ');
                }
            } else {
                self.buf.push('\n');
                self.buf.push_str(&" ".repeat(indent));
            }
            frame.items += 1;
        }
    }

    fn push_escaped(&mut self, s: &str) {
        self.buf.push('"');
        for ch in s.chars() {
            match ch {
                '"' => self.buf.push_str("\\\""),
                '\\' => self.buf.push_str("\\\\"),
                '\n' => self.buf.push_str("\\n"),
                '\t' => self.buf.push_str("\\t"),
                '\r' => self.buf.push_str("\\r"),
                _ => self.buf.push(ch),
            }
        }
        self.buf.push('"');
    }

    /// Starts an object field: emits `"name": ` (with separator handling)
    /// and arms the next value/container call to attach to it.
    pub fn key(&mut self, name: &str) {
        self.start_item();
        self.push_escaped(name);
        self.buf.push_str(": ");
        self.pending_value = true;
    }

    /// Opens a multi-line `{`.
    pub fn begin_obj(&mut self) {
        self.start_item();
        self.buf.push('{');
        self.stack.push(Frame {
            is_obj: true,
            inline: false,
            items: 0,
        });
    }

    /// Opens a compact one-line `{` whose fields separate with `", "`.
    pub fn begin_inline_obj(&mut self) {
        self.start_item();
        self.buf.push('{');
        self.stack.push(Frame {
            is_obj: true,
            inline: true,
            items: 0,
        });
    }

    /// Closes the current object.
    pub fn end_obj(&mut self) {
        let frame = self.stack.pop().expect("end_obj without begin_obj");
        debug_assert!(frame.is_obj, "end_obj closing an array");
        if !frame.inline {
            self.buf.push('\n');
            self.buf.push_str(&" ".repeat(self.indent()));
        }
        self.buf.push('}');
    }

    /// Opens a multi-line `[`.
    pub fn begin_arr(&mut self) {
        self.start_item();
        self.buf.push('[');
        self.stack.push(Frame {
            is_obj: false,
            inline: false,
            items: 0,
        });
    }

    /// Closes the current array.
    pub fn end_arr(&mut self) {
        let frame = self.stack.pop().expect("end_arr without begin_arr");
        debug_assert!(!frame.is_obj, "end_arr closing an object");
        if !frame.inline {
            self.buf.push('\n');
            self.buf.push_str(&" ".repeat(self.indent()));
        }
        self.buf.push(']');
    }

    /// Writes a string value.
    pub fn str(&mut self, v: &str) {
        self.start_item();
        self.push_escaped(v);
    }

    /// Writes a number with a fixed decimal count (`decimals == 0` prints
    /// an integer).
    pub fn num(&mut self, v: f64, decimals: usize) {
        self.start_item();
        let _ = write!(self.buf, "{v:.decimals$}");
    }

    /// Writes a boolean value.
    pub fn bool(&mut self, v: bool) {
        self.start_item();
        self.buf.push_str(if v { "true" } else { "false" });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(JsonValue::parse("null"), Some(JsonValue::Null));
        assert_eq!(JsonValue::parse(" true "), Some(JsonValue::Bool(true)));
        assert_eq!(JsonValue::parse("false"), Some(JsonValue::Bool(false)));
        assert_eq!(JsonValue::parse("-12.5e2"), Some(JsonValue::Num(-1250.0)));
        assert_eq!(
            JsonValue::parse("\"hi\\n\\\"there\\\"\""),
            Some(JsonValue::Str("hi\n\"there\"".into()))
        );
        assert_eq!(
            JsonValue::parse("\"\\u0041\""),
            Some(JsonValue::Str("A".into()))
        );
    }

    #[test]
    fn parses_nested_structures_preserving_order() {
        let v = JsonValue::parse(r#"{"b": [1, 2, {"c": "x"}], "a": {}}"#).unwrap();
        let obj = v.as_obj().unwrap();
        assert_eq!(obj[0].0, "b");
        assert_eq!(obj[1].0, "a");
        let arr = v.get("b").unwrap().as_arr().unwrap();
        assert_eq!(arr[0].as_f64(), Some(1.0));
        assert_eq!(arr[2].str_at("c"), Some("x"));
        assert_eq!(v.get("a").unwrap().as_obj(), Some(&[][..]));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "not json at all",
            "{",
            "[1, 2",
            "{\"a\": }",
            "{\"a\": 1,}",
            "{\"a\": 1} trailing",
            "\"unterminated",
            "nul",
        ] {
            assert_eq!(JsonValue::parse(bad), None, "should reject {bad:?}");
        }
    }

    #[test]
    fn usize_at_rejects_negative_and_fractional() {
        let v = JsonValue::parse(r#"{"a": 4, "b": -1, "c": 1.5}"#).unwrap();
        assert_eq!(v.usize_at("a"), Some(4));
        assert_eq!(v.usize_at("b"), None);
        assert_eq!(v.usize_at("c"), None);
        assert_eq!(v.usize_at("missing"), None);
    }

    #[test]
    fn writer_emits_house_style() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("bench");
        w.str("kernels");
        w.key("entries");
        w.begin_arr();
        for (name, ns) in [("a_kernel", 123.456), ("b_kernel", 7.0)] {
            w.begin_inline_obj();
            w.key("name");
            w.str(name);
            w.key("ns_per_iter");
            w.num(ns, 1);
            w.end_obj();
        }
        w.end_arr();
        w.key("derived");
        w.begin_obj();
        w.key("speedup");
        w.num(17.25, 3);
        w.end_obj();
        w.end_obj();
        let text = w.finish();
        assert_eq!(
            text,
            concat!(
                "{\n",
                "  \"bench\": \"kernels\",\n",
                "  \"entries\": [\n",
                "    {\"name\": \"a_kernel\", \"ns_per_iter\": 123.5},\n",
                "    {\"name\": \"b_kernel\", \"ns_per_iter\": 7.0}\n",
                "  ],\n",
                "  \"derived\": {\n",
                "    \"speedup\": 17.250\n",
                "  }\n",
                "}\n"
            )
        );
        // And the writer's output is parseable by the reader.
        let v = JsonValue::parse(&text).unwrap();
        assert_eq!(v.str_at("bench"), Some("kernels"));
        assert_eq!(v.get("derived").unwrap().num_at("speedup"), Some(17.25));
    }

    #[test]
    fn writer_escapes_strings() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("msg");
        w.str("a \"quoted\\\" line\n");
        w.end_obj();
        let text = w.finish();
        let v = JsonValue::parse(&text).expect("escaped output parses");
        assert_eq!(v.str_at("msg"), Some("a \"quoted\\\" line\n"));
    }

    #[test]
    fn writer_handles_empty_containers() {
        let mut w = JsonWriter::new();
        w.begin_obj();
        w.key("entries");
        w.begin_arr();
        w.end_arr();
        w.key("derived");
        w.begin_obj();
        w.end_obj();
        w.end_obj();
        assert_eq!(
            w.finish(),
            "{\n  \"entries\": [\n  ],\n  \"derived\": {\n  }\n}\n"
        );
    }
}
