//! A minimal JSON value and writer (the workspace has no serde). Numbers
//! print with every digit `f64` round-trips; non-finite values, which JSON
//! cannot carry, print as `null`.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order so output is stable.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact single-line rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) if v.is_finite() => {
                // `{:?}` keeps a trailing `.0` on whole numbers, so the
                // value reads back as a float.
                let _ = write!(out, "{v:?}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
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

pub use parse::parse;

/// The reader: the multi-run modes read their children's result lines with
/// it, and the tests read the writer's output and `BENCHMARK.json` back.
mod parse {
    use super::Json;

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value()?;
        p.ws();
        if p.i != p.s.len() {
            return Err(format!("trailing input at byte {}", p.i));
        }
        Ok(v)
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, lit: &str) -> bool {
            if self.s[self.i..].starts_with(lit.as_bytes()) {
                self.i += lit.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self) -> Result<Json, String> {
            self.ws();
            match self.s.get(self.i).copied() {
                None => Err("unexpected end".into()),
                Some(b'n') if self.eat("null") => Ok(Json::Null),
                Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
                Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
                Some(b'"') => self.string().map(Json::Str),
                Some(b'[') => {
                    self.i += 1;
                    let mut items = Vec::new();
                    loop {
                        self.ws();
                        if self.eat("]") {
                            return Ok(Json::Arr(items));
                        }
                        if !items.is_empty() && !self.eat(",") {
                            return Err(format!("expected ',' at byte {}", self.i));
                        }
                        items.push(self.value()?);
                    }
                }
                Some(b'{') => {
                    self.i += 1;
                    let mut pairs = Vec::new();
                    loop {
                        self.ws();
                        if self.eat("}") {
                            return Ok(Json::Obj(pairs));
                        }
                        if !pairs.is_empty() && !self.eat(",") {
                            return Err(format!("expected ',' at byte {}", self.i));
                        }
                        self.ws();
                        let k = self.string()?;
                        self.ws();
                        if !self.eat(":") {
                            return Err(format!("expected ':' at byte {}", self.i));
                        }
                        pairs.push((k, self.value()?));
                    }
                }
                Some(_) => {
                    let start = self.i;
                    while self.i < self.s.len()
                        && matches!(
                            self.s[self.i],
                            b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                        )
                    {
                        self.i += 1;
                    }
                    let tok = std::str::from_utf8(&self.s[start..self.i]).expect("ascii");
                    if let Ok(v) = tok.parse::<u64>() {
                        return Ok(Json::Int(v));
                    }
                    tok.parse::<f64>()
                        .map(Json::Num)
                        .map_err(|_| format!("bad token at byte {start}"))
                }
            }
        }

        fn string(&mut self) -> Result<String, String> {
            if !self.eat("\"") {
                return Err(format!("expected string at byte {}", self.i));
            }
            let mut out = String::new();
            loop {
                let rest = std::str::from_utf8(&self.s[self.i..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().ok_or("unterminated string")?;
                self.i += c.len_utf8();
                match c {
                    '"' => return Ok(out),
                    '\\' => {
                        let e = self.s.get(self.i).copied().ok_or("bad escape")?;
                        self.i += 1;
                        match e {
                            b'"' => out.push('"'),
                            b'\\' => out.push('\\'),
                            b'/' => out.push('/'),
                            b'n' => out.push('\n'),
                            b'r' => out.push('\r'),
                            b't' => out.push('\t'),
                            b'u' => {
                                let digits = self
                                    .s
                                    .get(self.i..self.i + 4)
                                    .ok_or("truncated \\u escape")?;
                                let hex = std::str::from_utf8(digits).map_err(|e| e.to_string())?;
                                let code =
                                    u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                                out.push(char::from_u32(code).ok_or("bad code point")?);
                                self.i += 4;
                            }
                            _ => return Err("unknown escape".into()),
                        }
                    }
                    c => out.push(c),
                }
            }
        }
    }

    impl Json {
        /// Object field lookup.
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_output_parses_back() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("attempted", Json::Int(1000)),
            ("name", Json::str("a \"quoted\"\\ line\nwith\ttabs \u{1} é")),
            (
                "metrics",
                Json::obj([(
                    "latency_ms",
                    Json::obj([
                        ("value", Json::Num(1.2034567890123)),
                        ("unit", Json::str("ms")),
                    ]),
                )]),
            ),
            ("whole", Json::Num(3.0)),
            ("tiny", Json::Num(1.5e-9)),
            (
                "list",
                Json::Arr(vec![Json::Null, Json::Int(0), Json::Num(-2.5)]),
            ),
        ]);
        let text = v.render();
        assert!(!text.contains('\n'), "one line: {text}");
        assert_eq!(parse(&text).unwrap(), v);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let text = Json::Arr(vec![Json::Num(f64::NAN), Json::Num(f64::INFINITY)]).render();
        assert_eq!(text, "[null,null]");
    }
}
