//! The workspace's one JSON reader and string escaper.
//!
//! Every JSON document the workspace writes (experiment artefacts, campaign
//! checkpoint sidecars, telemetry JSONL) is formatted by hand at its call
//! site, with every string passed through [`escaped`]. Everything read back
//! goes through [`parse`], so the format decisions live here:
//!
//! - numbers keep their raw token ([`Value::Num`]), so a `u64` seed
//!   round-trips exactly instead of passing through an `f64`;
//! - nesting deeper than [`MAX_DEPTH`] is an error, so hostile input cannot
//!   overflow the stack of the recursive reader;
//! - anything after the value except whitespace is an error, so a torn or
//!   concatenated line never half-parses.

use std::fmt::{self, Write as _};
use std::str::FromStr;

/// Deepest array/object nesting [`parse`] accepts. The deepest document the
/// workspace writes nests four levels.
pub const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A number as its raw token, which is known to parse as an `f64`.
    Num(String),
    /// A string with its escapes decoded.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object's entries in document order, duplicates included.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The first value stored under `key`, if this is an object.
    pub fn get(&self, key: &str) -> Option<&Value> {
        let Value::Obj(entries) = self else {
            return None;
        };
        entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// The number token parsed as `T` (`None` for non-numbers and for
    /// tokens `T` cannot hold, e.g. `-1` as a `u64`).
    pub fn as_num<T: FromStr>(&self) -> Option<T> {
        let Value::Num(token) = self else {
            return None;
        };
        token.parse().ok()
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        let Value::Str(s) = self else {
            return None;
        };
        Some(s)
    }

    /// The boolean, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        let Value::Bool(b) = self else {
            return None;
        };
        Some(*b)
    }

    /// The items, if this is an array.
    pub fn as_arr(&self) -> Option<&[Value]> {
        let Value::Arr(items) = self else {
            return None;
        };
        Some(items)
    }
}

/// Why [`parse`] rejected its input, and where.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// Byte offset of the problem in the input.
    pub offset: usize,
    /// What was wrong there.
    pub msg: &'static str,
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.offset, self.msg)
    }
}

/// Parses one complete JSON value. Never panics; see the module docs for
/// what is rejected beyond malformed syntax.
pub fn parse(text: &str) -> Result<Value, Error> {
    let mut p = Parser { text, pos: 0 };
    let value = p.value(0)?;
    if p.peek().is_some() {
        return Err(p.err("trailing content"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &'static str) -> Error {
        Error {
            offset: self.pos,
            msg,
        }
    }

    fn byte(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The next byte after skipping whitespace.
    fn peek(&mut self) -> Option<u8> {
        while matches!(self.byte(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
        self.byte()
    }

    fn value(&mut self, depth: usize) -> Result<Value, Error> {
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, Error> {
        let rest = self.text.get(self.pos..).unwrap_or_default();
        if !rest.starts_with(word) {
            return Err(self.err("bad literal"));
        }
        self.pos += word.len();
        Ok(value)
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        while self
            .byte()
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let token = self.text.get(start..self.pos).unwrap_or_default();
        if token.parse::<f64>().is_err() {
            return Err(Error {
                offset: start,
                msg: "malformed number",
            });
        }
        Ok(Value::Num(token.to_owned()))
    }

    fn string(&mut self) -> Result<String, Error> {
        self.pos += 1; // the opening quote `value`/`object` peeked
        let mut out = String::new();
        loop {
            let start = self.pos;
            while self
                .byte()
                .is_some_and(|c| c != b'"' && c != b'\\' && c >= 0x20)
            {
                self.pos += 1;
            }
            // The run stops at an ASCII byte or the end, so it is a whole
            // number of UTF-8 characters.
            out.push_str(self.text.get(start..self.pos).unwrap_or_default());
            match self.byte() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(_) => return Err(self.err("control character in string")),
                None => return Err(self.err("unterminated string")),
            }
        }
    }

    /// Decodes the escape after a backslash.
    fn escape(&mut self) -> Result<char, Error> {
        let c = match self.byte() {
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                let hex = self
                    .text
                    .get(self.pos + 1..self.pos + 5)
                    .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                    .ok_or_else(|| self.err("bad \\u escape"))?;
                let c = u32::from_str_radix(hex, 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.err("\\u escape is not a character"))?;
                self.pos += 4;
                c
            }
            _ => return Err(self.err("unknown escape")),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Steps into a container, refusing to nest past [`MAX_DEPTH`].
    fn open(&mut self, depth: usize) -> Result<usize, Error> {
        if depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.pos += 1;
        Ok(depth + 1)
    }

    /// After an item: `true` past a `,`, `false` past the closing byte.
    fn more(&mut self, close: u8) -> Result<bool, Error> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.err("expected `,` or a closing bracket")),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Value, Error> {
        let depth = self.open(depth)?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(self.value(depth)?);
            if !self.more(b']')? {
                return Ok(Value::Arr(items));
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Value, Error> {
        let depth = self.open(depth)?;
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(entries));
        }
        loop {
            if self.peek() != Some(b'"') {
                return Err(self.err("expected a string key"));
            }
            let key = self.string()?;
            if self.peek() != Some(b':') {
                return Err(self.err("expected `:`"));
            }
            self.pos += 1;
            entries.push((key, self.value(depth)?));
            if !self.more(b'}')? {
                return Ok(Value::Obj(entries));
            }
        }
    }
}

/// `s` escaped for use inside a JSON string literal, as a `Display` value
/// for `format!`/`write!`. Escapes `"`, `\` and every control character, so
/// an identifier-only string comes out unchanged.
pub fn escaped(s: &str) -> impl fmt::Display + '_ {
    Escaped(s)
}

struct Escaped<'a>(&'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if u32::from(c) < 0x20 => write!(f, "\\u{:04x}", u32::from(c))?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn num(token: &str) -> Value {
        Value::Num(token.into())
    }

    #[test]
    fn parses_every_value_kind() {
        let v = parse(" {\"a\":[1, -2.5e3, true, false, null],\"b\":{\"c\":\"x\"}} ").unwrap();
        assert_eq!(
            v.get("a").and_then(Value::as_arr),
            Some(
                &[
                    num("1"),
                    num("-2.5e3"),
                    Value::Bool(true),
                    Value::Bool(false),
                    Value::Null
                ][..]
            )
        );
        assert_eq!(
            v.get("b").and_then(|b| b.get("c")),
            Some(&Value::Str("x".into()))
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(parse("[]").unwrap(), Value::Arr(Vec::new()));
        assert_eq!(parse("{}").unwrap(), Value::Obj(Vec::new()));
    }

    #[test]
    fn numbers_keep_their_token() {
        let v = parse("18446744073709551615").unwrap();
        assert_eq!(v.as_num::<u64>(), Some(u64::MAX));
        assert_eq!(v.as_num::<u32>(), None);
        assert_eq!(parse("-3").unwrap().as_num::<u64>(), None);
        assert_eq!(parse("0.1").unwrap().as_num::<f64>(), Some(0.1));
        assert!(parse("1-2").is_err());
        assert!(parse("-").is_err());
    }

    #[test]
    fn duplicate_keys_resolve_to_the_first() {
        let v = parse("{\"k\":1,\"k\":2}").unwrap();
        assert_eq!(v.get("k"), Some(&num("1")));
    }

    #[test]
    fn escapes_round_trip() {
        let s = "quote \" backslash \\ slash / nl \n cr \r tab \t bell \u{7} nul \u{0} é ✓";
        let line = format!("\"{}\"", escaped(s));
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(parse(&line).unwrap().as_str(), Some(s));
        assert_eq!(
            parse("\"\\/\\u00e9\"").unwrap(),
            Value::Str("/é".into()),
            "decodes escapes the writer never emits"
        );
        assert_eq!(escaped("plain_ident-1.5").to_string(), "plain_ident-1.5");
    }

    #[test]
    fn malformed_input_is_an_error_with_an_offset() {
        for bad in [
            "",
            "   ",
            "[1, 2] trailing",
            "{\"open\":",
            "{\"a\" 1}",
            "{1:2}",
            "[1,]",
            "[1 2]",
            "nul",
            "\"unterminated",
            "\"raw\ttab\"",
            "\"\\x\"",
            "\"\\u12\"",
            "\"\\u+041\"",
            "\"\\ud800\"",
            "+1",
            "{\"a\":1}}",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
        assert_eq!(
            parse("[1, 2] x"),
            Err(Error {
                offset: 7,
                msg: "trailing content"
            })
        );
        assert_eq!(
            parse("[1, 2] x").unwrap_err().to_string(),
            "byte 7: trailing content"
        );
    }

    #[test]
    fn nesting_is_capped() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let deep = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        assert_eq!(parse(&deep).unwrap_err().msg, "nesting too deep");
        let objects = "{\"a\":".repeat(MAX_DEPTH + 1);
        assert_eq!(parse(&objects).unwrap_err().msg, "nesting too deep");
    }

    #[test]
    fn hundred_thousand_open_brackets_are_an_error_not_an_abort() {
        let hostile = "[".repeat(100_000);
        let err = parse(&hostile).unwrap_err();
        assert_eq!(err.msg, "nesting too deep");
        assert_eq!(err.offset, MAX_DEPTH);
    }
}
