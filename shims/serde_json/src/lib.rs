//! Offline drop-in replacement for the subset of `serde_json` this
//! workspace uses: `to_string` / `to_vec` / `from_str` / `from_slice`,
//! [`Value`], and the [`json!`] macro — all over the `serde` shim's value
//! tree. Output is compact JSON compatible with upstream `serde_json`.

#![deny(unsafe_code)]

pub use serde::DeError as Error;
pub use serde::Value;

use serde::{Deserialize, Serialize};

/// Serializes a value to a compact JSON string.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), &mut out);
    Ok(out)
}

/// Serializes a value to compact JSON bytes.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>, Error> {
    to_string(value).map(String::into_bytes)
}

/// Deserializes a value from a JSON string.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(Error::new(format!("trailing characters at byte {}", p.pos)));
    }
    T::from_value(&v)
}

/// Deserializes a value from JSON bytes.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T, Error> {
    let s = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(s)
}

/// Builds a [`Value`] from JSON-like literal syntax: `null`, booleans,
/// nested arrays/objects, and arbitrary Rust expressions convertible via
/// `Value::from`. Object keys must be string literals.
#[macro_export]
macro_rules! json {
    ($($tt:tt)+) => { $crate::json_value!($($tt)+) };
}

#[doc(hidden)]
#[macro_export]
macro_rules! json_value {
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(::std::vec::Vec::new()) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_array!(@elems [] () $($tt)+)) };
    ({}) => { $crate::Value::Object(::std::vec::Vec::new()) };
    ({ $($tt:tt)+ }) => { $crate::Value::Object($crate::json_object!(@entries [] $($tt)+)) };
    ($other:expr) => { $crate::Value::from($other) };
}

// Array elements: munch token trees into the current element until a
// top-level comma (commas nested in (), [], {} are invisible at tt level).
#[doc(hidden)]
#[macro_export]
macro_rules! json_array {
    (@elems [$($done:expr,)*] ($($cur:tt)+) , $($rest:tt)+) => {
        $crate::json_array!(@elems [$($done,)* $crate::json_value!($($cur)+),] () $($rest)+)
    };
    (@elems [$($done:expr,)*] ($($cur:tt)+) $(,)?) => {
        vec![$($done,)* $crate::json_value!($($cur)+)]
    };
    (@elems [$($done:expr,)*] ($($cur:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_array!(@elems [$($done,)*] ($($cur)* $next) $($rest)*)
    };
}

// Object entries: `"key": <value tokens>` separated by top-level commas.
#[doc(hidden)]
#[macro_export]
macro_rules! json_object {
    (@entries [$($done:expr,)*] $key:literal : $($rest:tt)+) => {
        $crate::json_object!(@val [$($done,)*] ($key) () $($rest)+)
    };
    (@entries [$($done:expr,)*]) => {
        vec![$($done,)*]
    };
    (@val [$($done:expr,)*] ($key:literal) ($($cur:tt)+) , $($rest:tt)*) => {
        $crate::json_object!(@entries
            [$($done,)* (::std::string::String::from($key), $crate::json_value!($($cur)+)),]
            $($rest)*)
    };
    (@val [$($done:expr,)*] ($key:literal) ($($cur:tt)+)) => {
        vec![$($done,)* (::std::string::String::from($key), $crate::json_value!($($cur)+))]
    };
    (@val [$($done:expr,)*] ($key:literal) ($($cur:tt)*) $next:tt $($rest:tt)*) => {
        $crate::json_object!(@val [$($done,)*] ($key) ($($cur)* $next) $($rest)*)
    };
}

fn write_value(v: &Value, out: &mut String) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                // `{:?}` prints the shortest representation that round-trips.
                out.push_str(&format!("{x:?}"));
            } else {
                out.push_str("null"); // upstream serde_json behaviour
            }
        }
        Value::Str(s) => write_string(s, out),
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Value::Object(fields) => {
            out.push('{');
            for (i, (k, val)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(k, out);
                out.push(':');
                write_value(val, out);
            }
            out.push('}');
        }
    }
}

fn write_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(Error::new(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            )))
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.bytes[self.pos..].starts_with(kw.as_bytes()) {
            self.pos += kw.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') if self.eat_keyword("null") => Ok(Value::Null),
            Some(b't') if self.eat_keyword("true") => Ok(Value::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(Value::Bool(false)),
            Some(b'"') => self.string().map(Value::Str),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(Error::new(format!("bad array at byte {}", self.pos))),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Object(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Object(fields));
                        }
                        _ => return Err(Error::new(format!("bad object at byte {}", self.pos))),
                    }
                }
            }
            Some(b) if b == b'-' || b.is_ascii_digit() => self.number(),
            other => Err(Error::new(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            ))),
        }
    }

    fn string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let start = self.pos;
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'"' || b == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            out.push_str(
                std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|e| Error::new(format!("invalid UTF-8 in string: {e}")))?,
            );
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc =
                        self.peek().ok_or_else(|| Error::new("unterminated escape".to_string()))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| Error::new("truncated \\u escape".to_string()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| Error::new("bad \\u escape".to_string()))?,
                                16,
                            )
                            .map_err(|_| Error::new("bad \\u escape".to_string()))?;
                            self.pos += 4;
                            // Surrogate pairs are not produced by our writer;
                            // map lone surrogates to the replacement char.
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(Error::new(format!("unknown escape `\\{}`", other as char)))
                        }
                    }
                }
                _ => return Err(Error::new("unterminated string".to_string())),
            }
        }
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        if !is_float {
            if let Ok(n) = text.parse::<i64>() {
                return Ok(Value::I64(n));
            }
            if let Ok(n) = text.parse::<u64>() {
                return Ok(Value::U64(n));
            }
        }
        text.parse::<f64>()
            .map(Value::F64)
            .map_err(|_| Error::new(format!("invalid number `{text}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_nesting() {
        let v = json!({
            "name": "seneca",
            "fps": 335.4,
            "threads": 4,
            "ok": true,
            "tags": ["edge", "int8"],
            "nothing": null
        });
        let s = to_string(&v).unwrap();
        let back: Value = from_str(&s).unwrap();
        assert_eq!(back, v);
        assert_eq!(back["name"], "seneca");
        assert_eq!(back["tags"].as_array().unwrap().len(), 2);
        assert_eq!(back["threads"].as_i64(), Some(4));
    }

    #[test]
    fn float_roundtrip_is_exact() {
        for &x in &[0.1f64, -3.5e-9, 1.0, 12345.678901234567] {
            let s = to_string(&x).unwrap();
            let y: f64 = from_str(&s).unwrap();
            assert_eq!(x, y, "{s}");
        }
        let f = 0.3f32;
        let s = to_string(&f).unwrap();
        let g: f32 = from_str(&s).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn string_escapes() {
        let s = "line\n\"quoted\"\tand \\ backslash \u{1}".to_string();
        let json = to_string(&s).unwrap();
        let back: String = from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn rejects_garbage() {
        assert!(from_str::<Value>("{\"a\": }").is_err());
        assert!(from_str::<Value>("[1, 2,]").is_err());
        assert!(from_str::<Value>("12 34").is_err());
    }

    #[test]
    fn vec_of_i8_roundtrips() {
        let xs: Vec<i8> = (-128i16..=127).map(|v| v as i8).collect();
        let back: Vec<i8> = from_str(&to_string(&xs).unwrap()).unwrap();
        assert_eq!(back, xs);
    }
}
