//! A minimal JSON parser for validating emitted artifacts.
//!
//! The workspace writes JSON (`voltron_core::report::Json`, the Chrome
//! tracer, the probe series) but never parsed any — and the container
//! has no serde. This recursive-descent parser exists so `trace_check`
//! and the trace-format tests can assert that what we emit actually
//! parses, not just that it looks braced. It accepts exactly RFC 8259
//! JSON (minus `\u` surrogate-pair pedantry) and keeps object keys in
//! insertion order.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`, like browsers do).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<JValue>),
    /// An object, keys in document order.
    Obj(Vec<(String, JValue)>),
}

impl JValue {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&JValue> {
        match self {
            JValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[JValue]> {
        match self {
            JValue::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// The string contents, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts. The parser recurses
/// once per level, so without a bound a line of `[`s overflows the
/// thread's stack and aborts the process (a daemon reading untrusted
/// lines included).
const MAX_DEPTH: usize = 128;

/// Parse a complete JSON document.
///
/// # Errors
/// Returns a message with the byte offset of the first syntax error, or
/// of the first array/object nested more than 128 levels deep.
pub fn parse(src: &str) -> Result<JValue, String> {
    let b = src.as_bytes();
    let mut p = Parser {
        b,
        pos: 0,
        depth: 0,
    };
    p.ws();
    let v = p.value()?;
    p.ws();
    if p.pos != b.len() {
        return Err(p.err("trailing content"));
    }
    Ok(v)
}

struct Parser<'a> {
    b: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn ws(&mut self) {
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| matches!(c, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.b.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", c as char)))
        }
    }

    fn value(&mut self) -> Result<JValue, String> {
        match self.b.get(self.pos) {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => self.string().map(JValue::Str),
            Some(b't') => self.lit("true", JValue::Bool(true)),
            Some(b'f') => self.lit("false", JValue::Bool(false)),
            Some(b'n') => self.lit("null", JValue::Null),
            Some(c) if c.is_ascii_digit() || *c == b'-' => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Parse one array or object, one level deeper.
    fn nested(&mut self, f: fn(&mut Self) -> Result<JValue, String>) -> Result<JValue, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = f(self);
        self.depth -= 1;
        v
    }

    fn lit(&mut self, word: &str, v: JValue) -> Result<JValue, String> {
        if self.b[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self) -> Result<JValue, String> {
        self.eat(b'{')?;
        let mut members = Vec::new();
        self.ws();
        if self.b.get(self.pos) == Some(&b'}') {
            self.pos += 1;
            return Ok(JValue::Obj(members));
        }
        loop {
            self.ws();
            let key = self.string()?;
            self.ws();
            self.eat(b':')?;
            self.ws();
            members.push((key, self.value()?));
            self.ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JValue::Obj(members));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn array(&mut self) -> Result<JValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.ws();
        if self.b.get(self.pos) == Some(&b']') {
            self.pos += 1;
            return Ok(JValue::Arr(items));
        }
        loop {
            self.ws();
            items.push(self.value()?);
            self.ws();
            match self.b.get(self.pos) {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JValue::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.b.get(self.pos) {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = *self.b.get(self.pos).ok_or_else(|| self.err("bad escape"))?;
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
                            let hex = self
                                .b
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                }
                Some(&c) if c < 0x20 => return Err(self.err("control char in string")),
                Some(_) => {
                    // Copy the full UTF-8 sequence starting here.
                    let start = self.pos;
                    self.pos += 1;
                    while self.b.get(self.pos).is_some_and(|&c| c & 0xc0 == 0x80) {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.pos])
                            .map_err(|_| self.err("invalid UTF-8"))?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<JValue, String> {
        let start = self.pos;
        if self.b.get(self.pos) == Some(&b'-') {
            self.pos += 1;
        }
        while self
            .b
            .get(self.pos)
            .is_some_and(|c| c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.b[start..self.pos])
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .map(JValue::Num)
            .ok_or_else(|| self.err("bad number"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a":[1,2.5,-3e2],"b":{"c":"x\ny","d":null},"e":true}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&JValue::Null));
        assert_eq!(v.get("e"), Some(&JValue::Bool(true)));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["{", "[1,]", "{\"a\":}", "tru", "\"abc", "{} x", "{\"a\" 1}"] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn nesting_is_bounded() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        let err = parse(&nested(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting"), "{err}");
        // Far past the limit fails the same way instead of overflowing
        // the stack; so does an unclosed run of mixed openers.
        assert!(parse(&"[".repeat(200_000)).unwrap_err().contains("nesting"));
        assert!(parse(&"[{\"a\":".repeat(100_000))
            .unwrap_err()
            .contains("nesting"));
    }

    #[test]
    fn round_trips_report_json() {
        // The report writer's own rendering must be parseable.
        use voltron_core::report::Json;
        let j = Json::Obj(vec![
            ("name".into(), Json::Str("a \"quoted\" name".into())),
            ("n".into(), Json::UInt(42)),
            (
                "xs".into(),
                Json::Arr(vec![Json::Num(1.5), Json::Num(f64::NAN)]),
            ),
        ]);
        let v = parse(&j.render()).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("a \"quoted\" name"));
        assert_eq!(v.get("xs").unwrap().as_arr().unwrap()[1], JValue::Null);
    }
}
