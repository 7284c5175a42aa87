//! Minimal hand-rolled JSON: emission helpers, a recursive-descent parser
//! and a canonical (sorted-key, compact) form.
//!
//! Grown out of the benchmark-snapshot validator and shared by everything
//! in the workspace that speaks JSON without a serde dependency: the
//! snapshot schema check, the audit report emitter and the `dls-serve`
//! request/response codec. The canonical form is what the round-trip
//! tests pin; the service keys its caches on bytes written from decoded
//! requests instead.
//!
//! The parser refuses documents nested deeper than [`MAX_DEPTH`], so a
//! hostile body cannot overflow the stack of the thread parsing it, and
//! every recursive walk over a parsed value ([`Json::all_finite`],
//! [`Json::canonical`], drop) is bounded too.

/// A parsed JSON value. Object fields preserve their source order;
/// [`Json::canonical`] sorts them on output so two objects with the same
/// fields in different order canonicalize identically.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, as (key, value) pairs in source order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Field lookup on an object; `None` on missing key or non-object.
    pub fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, if this is an object.
    pub fn obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// True when every number in the document (at any nesting depth) is
    /// finite. JSON has no NaN/infinity literals, but an overflowing
    /// token like `1e999` parses to f64 infinity — callers that feed
    /// parsed numbers into simulation configs use this to reject such
    /// documents wholesale.
    pub fn all_finite(&self) -> bool {
        match self {
            Json::Null | Json::Bool(_) | Json::Str(_) => true,
            Json::Num(x) => x.is_finite(),
            Json::Arr(items) => items.iter().all(Json::all_finite),
            Json::Obj(fields) => fields.iter().all(|(_, v)| v.all_finite()),
        }
    }

    /// Canonical serialization: compact (no whitespace), object keys
    /// sorted lexicographically at every level, numbers in Rust's shortest
    /// round-trip `{}` form. Two semantically equal documents — same
    /// fields, any order, any formatting — canonicalize to the same bytes,
    /// which is what makes this usable as a cache key.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        self.write_canonical(&mut out);
        out
    }

    fn write_canonical(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => out.push_str(&json_num(*x)),
            Json::Str(s) => {
                out.push('"');
                out.push_str(&json_escape(s));
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_canonical(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                let mut sorted: Vec<&(String, Json)> = fields.iter().collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                out.push('{');
                for (i, (k, v)) in sorted.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    out.push_str(&json_escape(k));
                    out.push_str("\":");
                    v.write_canonical(out);
                }
                out.push('}');
            }
        }
    }
}

/// Escape a string for embedding between JSON quotes.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Render a number as a JSON token.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        // NaN/inf are not JSON. Emit `null` so a schema validator — which
        // requires every schema number to be finite — rejects the document,
        // rather than a finite sentinel that would sail through unnoticed.
        "null".into()
    }
}

/// The deepest array/object nesting [`parse_json`] accepts. Every
/// document this workspace reads nests a handful of levels.
pub const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open at `pos`.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Parse an array or object one level deeper, refusing to nest past
    /// [`MAX_DEPTH`].
    fn nested(&mut self, parse: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(self.error(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn error(&self, msg: &str) -> String {
        format!("json parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.nested(Self::parse_object),
            Some(b'[') => self.nested(Self::parse_array),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn parse_lit(&mut self, lit: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(value)
        } else {
            Err(self.error(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.error("bad number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.error("unterminated string")),
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
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| self.error("truncated \\u escape"))?;
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.error("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Copy the full UTF-8 character, not just one byte.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.error("invalid utf-8"))?;
                    let c = rest.chars().next().expect("non-empty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.error("expected ',' or ']'")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.error("expected ',' or '}'")),
            }
        }
    }
}

/// Parse a complete JSON document (trailing garbage is an error).
pub fn parse_json(s: &str) -> Result<Json, String> {
    let mut p = Parser::new(s);
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.error("trailing garbage"));
    }
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trip() {
        let doc = r#" {"b": [1, 2.5, -3e2], "a": {"x": null, "y": true}, "s": "h\ni"} "#;
        let v = parse_json(doc).unwrap();
        assert_eq!(v.get("b").unwrap().arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().get("y").unwrap().bool(), Some(true));
        assert_eq!(v.get("s").unwrap().str(), Some("h\ni"));
    }

    #[test]
    fn canonical_sorts_keys_and_compacts() {
        let a = parse_json(r#"{"b": 1, "a": {"z": 2, "y": [1, 2]}}"#).unwrap();
        let b = parse_json(r#"{ "a": {"y": [1,2], "z": 2}, "b": 1 }"#).unwrap();
        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(a.canonical(), r#"{"a":{"y":[1,2],"z":2},"b":1}"#);
    }

    #[test]
    fn canonical_is_a_fixed_point() {
        let v = parse_json(r#"{"n": -0.125, "s": "q\"uote", "e": {}}"#).unwrap();
        let c = v.canonical();
        assert_eq!(parse_json(&c).unwrap().canonical(), c);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("1 2").is_err());
        assert!(parse_json("{'a': 1}").is_err());
        assert!(parse_json("").is_err());
    }

    fn arrays(depth: usize) -> String {
        "[".repeat(depth) + &"]".repeat(depth)
    }

    fn objects(depth: usize) -> String {
        "{\"a\":".repeat(depth) + "1" + &"}".repeat(depth)
    }

    #[test]
    fn nesting_is_bounded_at_max_depth() {
        for nest in [arrays, objects] {
            assert!(parse_json(&nest(MAX_DEPTH)).is_ok());
            let e = parse_json(&nest(MAX_DEPTH + 1)).unwrap_err();
            assert!(e.contains("nesting deeper than 128"), "{e}");
        }
        // Depth is nesting, not the number of containers: siblings reset it.
        let wide = format!("[{}]", vec![arrays(MAX_DEPTH - 1); 3].join(","));
        assert!(parse_json(&wide).is_ok());
        // A hostile body fails fast instead of overflowing the stack.
        assert!(parse_json(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn all_finite_walks_every_depth() {
        assert!(parse_json(r#"{"a": [1, {"b": 2.5}], "c": null}"#)
            .unwrap()
            .all_finite());
        // 1e999 overflows to infinity during parsing.
        assert!(!parse_json(r#"{"a": [1, {"b": 1e999}]}"#)
            .unwrap()
            .all_finite());
        assert!(!parse_json("[[[-1e999]]]").unwrap().all_finite());
    }

    #[test]
    fn non_finite_numbers_emit_null() {
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(0.5), "0.5");
    }
}
