//! The JSON reader and the scalar writers behind every wire document:
//! shard partial reports, `POST /run` NDJSON events, final reports and
//! error bodies.
//!
//! The environment vendors no serde, so the engine parses with this
//! small recursive-descent parser. Numbers keep their **literal text**:
//! `f64` values are recovered by parsing the exact digits [`num`]
//! emitted (Rust's shortest-round-trip `{}` format), so every float
//! survives the JSON round trip bit-for-bit, and 64-bit seeds are read
//! as integers without passing through `f64`. Records read their
//! members through [`Json::field`], whose error names the key and the
//! kind it expected.

use std::fmt;
use std::fmt::Write as _;

/// Nesting depth past which [`parse`] refuses a document. Every wire
/// record nests at most four deep; the bound keeps a hostile document
/// from exhausting the parser's stack.
const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object member order is preserved (lookups are
/// linear — wire records have a handful of keys per object).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its literal text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in member order.
    Obj(Vec<(String, Json)>),
}

/// A kind of JSON value a record member is read as ([`Json::field`]).
pub(crate) trait Kind<'a>: Sized {
    /// The kind as an error names it ("an integer").
    const NAME: &'static str;
    /// `v` as this kind, if it is one.
    fn read(v: &'a Json) -> Option<Self>;
}

/// Implements [`Kind`] for each `type => name, |v| read` entry.
macro_rules! kinds {
    ($($t:ty => $name:literal, |$v:ident| $read:expr;)*) => {$(
        impl<'a> Kind<'a> for $t {
            const NAME: &'static str = $name;
            fn read($v: &'a Json) -> Option<Self> {
                $read
            }
        }
    )*};
}

// Numbers parse their literal text: integers exactly (never through
// `f64`), floats bit-exactly for everything [`num`] wrote.
kinds! {
    &'a str => "a string", |v| match v { Json::Str(s) => Some(s), _ => None };
    String => "a string", |v| v.to::<&str>().map(str::to_string);
    u64 => "an integer", |v| match v { Json::Num(t) => t.parse().ok(), _ => None };
    usize => "an integer", |v| match v { Json::Num(t) => t.parse().ok(), _ => None };
    f64 => "a number", |v| match v { Json::Num(t) => t.parse().ok(), _ => None };
    bool => "a boolean", |v| match v { Json::Bool(b) => Some(*b), _ => None };
    &'a [Json] => "an array", |v| match v { Json::Arr(items) => Some(items), _ => None };
    // A nested record, read on through its own fields.
    &'a Json => "an object", |v| matches!(v, Json::Obj(_)).then_some(v);
}

impl Json {
    /// Object member lookup.
    pub(crate) fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// This value as kind `T`, if it is one.
    pub(crate) fn to<'a, T: Kind<'a>>(&'a self) -> Option<T> {
        T::read(self)
    }

    /// The required member `key` as kind `T` — the one reader behind
    /// every wire record. A missing or mistyped member is an error that
    /// names the key and the kind expected.
    pub(crate) fn field<'a, T: Kind<'a>>(&'a self, key: &str) -> Result<T, String> {
        self.get(key)
            .and_then(T::read)
            .ok_or_else(|| format!("field {key:?} must be {}", T::NAME))
    }

    /// The required array member `key`, every element as kind `T`.
    pub(crate) fn items<'a, T: Kind<'a>>(&'a self, key: &str) -> Result<Vec<T>, String> {
        self.field::<&[Json]>(key)?
            .iter()
            .map(|v| T::read(v).ok_or_else(|| format!("field {key:?} must hold only {}", T::NAME)))
            .collect()
    }
}

/// Parses a complete JSON document (trailing garbage is an error).
pub(crate) fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing content after JSON value"));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected {word:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(self.err("nested too deeply"));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a JSON value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
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
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair: require the low half.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                    self.expect(b'u')?;
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                                } else {
                                    return Err(self.err("lone high surrogate"));
                                }
                            } else {
                                hi
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err("invalid \\u escape")),
                            }
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                // Multi-byte UTF-8 passes through verbatim (the input is a
                // &str, so the bytes are valid UTF-8 by construction).
                _ => {
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && self.bytes[end] & 0xC0 == 0x80 {
                        end += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..end])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                    self.pos = end;
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, String> {
        if self.bytes.len() - self.pos < 4 {
            return Err(self.err("truncated \\u escape"));
        }
        let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
            .map_err(|_| self.err("invalid \\u escape"))?;
        let code = u32::from_str_radix(hex, 16).map_err(|_| self.err("invalid \\u escape"))?;
        self.pos += 4;
        Ok(code)
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if text.is_empty() || text == "-" || text.parse::<f64>().is_err() {
            return Err(self.err("invalid number"));
        }
        Ok(Json::Num(text.to_string()))
    }
}

/// Writes a float for JSON emission: shortest-round-trip decimals for
/// finite values (`{}`, recovered bit-exactly by [`Json::field`]),
/// `null` otherwise. Every float of every wire document (final report,
/// partial report, NDJSON event, JSON log line) is written through it,
/// so the dialects cannot diverge.
pub(crate) fn num(x: f64) -> Num {
    Num(x)
}

/// A float as [`num`] writes it (formats without allocating).
pub(crate) struct Num(f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            fmt::Display::fmt(&self.0, f)
        } else {
            f.write_str("null")
        }
    }
}

/// Escapes a string for JSON emission — the single escaper behind every
/// wire document and the JSON log format of [`crate::trace`].
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// Generators shared by the wire-record property tests.
#[cfg(test)]
pub(crate) mod arbitrary {
    use proptest::prelude::*;

    /// Characters a wire string must survive: quotes, backslashes,
    /// control characters and non-ASCII text.
    const ALPHABET: [&str; 12] = [
        "a", "Z", "\"", "\\", "\n", "\t", "\u{1}", "\u{1f}", "é", "σ", "混", "😀",
    ];

    /// Short strings over [`ALPHABET`].
    pub(crate) fn text() -> impl Strategy<Value = String> {
        collection::vec(0..ALPHABET.len(), 0..6)
            .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
    }

    /// Any finite `f64` bit pattern, with `-0.0` and subnormals drawn
    /// often.
    pub(crate) fn finite() -> impl Strategy<Value = f64> {
        (0u64..u64::MAX, 0u8..4).prop_map(|(bits, pick)| match pick {
            0 => -0.0,
            1 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF),
            // An all-ones exponent is infinite or NaN: clear its top bit.
            _ if f64::from_bits(bits).is_finite() => f64::from_bits(bits),
            _ => f64::from_bits(bits ^ (1 << 62)),
        })
    }

    /// Byte positions and a flip mask for [`mangle`].
    pub(crate) fn damage() -> impl Strategy<Value = (usize, usize, u8)> {
        (0usize..1 << 20, 0usize..1 << 20, 1u8..255)
    }

    /// `text` cut short at a byte position, and `text` with one byte
    /// flipped (read back lossily, as a decoder's `&str` input).
    pub(crate) fn mangle(text: &str, (cut, at, mask): (usize, usize, u8)) -> [String; 2] {
        let mut cut = cut % (text.len() + 1);
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let mut bytes = text.as_bytes().to_vec();
        if !bytes.is_empty() {
            let at = at % bytes.len();
            bytes[at] ^= mask;
        }
        [
            text[..cut].to_string(),
            String::from_utf8_lossy(&bytes).into_owned(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_and_containers() {
        let v = parse(r#"{"a": [1, 2.5, -3e2], "b": "x\ny", "c": true, "d": null}"#).unwrap();
        assert_eq!(v.field::<&[Json]>("a").unwrap().len(), 3);
        assert_eq!(v.items::<f64>("a").unwrap(), [1.0, 2.5, -300.0]);
        assert_eq!(v.field::<&[Json]>("a").unwrap()[0].to::<u64>(), Some(1));
        assert_eq!(v.field::<&str>("b"), Ok("x\ny"));
        assert_eq!(v.field::<bool>("c"), Ok(true));
        assert_eq!(v.get("d"), Some(&Json::Null));
    }

    #[test]
    fn field_errors_name_the_key_and_the_kind() {
        let v = parse(r#"{"n": 1.5, "s": "x", "a": [1, "y"]}"#).unwrap();
        assert_eq!(
            v.field::<usize>("n"),
            Err("field \"n\" must be an integer".into())
        );
        assert_eq!(
            v.field::<f64>("s"),
            Err("field \"s\" must be a number".into())
        );
        assert_eq!(
            v.field::<bool>("missing"),
            Err("field \"missing\" must be a boolean".into())
        );
        assert_eq!(
            v.items::<u64>("a"),
            Err("field \"a\" must hold only an integer".into())
        );
        assert!(v.field::<&Json>("s").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&deep(MAX_DEPTH)).is_ok());
        assert!(parse(&deep(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"[".repeat(1 << 20)).is_err());
    }

    #[test]
    fn floats_round_trip_bit_exactly() {
        // Shortest-round-trip formatting + literal-text parsing is lossless
        // for every finite f64 — spot-check awkward values.
        for x in [
            0.1,
            1.0 / 3.0,
            f64::MIN_POSITIVE,
            f64::MAX,
            -0.0,
            1e-300,
            0.49999999999999994,
        ] {
            let text = format!("{{\"x\": {}}}", num(x));
            let v = parse(&text).unwrap();
            assert_eq!(v.field::<f64>("x").unwrap().to_bits(), x.to_bits(), "{x}");
        }
    }

    #[test]
    fn u64_seeds_do_not_pass_through_f64() {
        let seed = u64::MAX - 17; // not representable as f64
        let v = parse(&format!("{{\"seed\": {seed}}}")).unwrap();
        assert_eq!(v.field::<u64>("seed"), Ok(seed));
    }

    #[test]
    fn escapes_round_trip() {
        let original = "a\"b\\c\nd\te\u{1}é✓";
        let v = parse(&format!("{{\"s\": \"{}\"}}", escape(original))).unwrap();
        assert_eq!(v.field::<&str>("s"), Ok(original));
    }

    #[test]
    fn surrogate_pairs_decode() {
        let v = parse(r#""\ud83d\ude00""#).unwrap();
        assert_eq!(v.to::<&str>(), Some("😀"));
    }

    #[test]
    fn malformed_documents_error() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "nul",
            "1 2",
            "\"abc",
            "{\"a\": 1,}",
            "-",
            "\"\\ud800x\"",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} parsed");
        }
    }
}
