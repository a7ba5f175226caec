//! A minimal read-only JSON parser for the benchmark's files.
//!
//! The workspace's JSON writer, `stod_obs::json`, only *writes* JSON; the
//! repository benchmark needs to *read* `BENCHMARK.json` and the run
//! records it compares. This parser covers exactly that JSON — objects,
//! arrays, strings with `\"`/`\\`/`\u` escapes, numbers, booleans, null —
//! and nothing more. It is not a general-purpose JSON library and
//! rejects anything it does not understand rather than guessing.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Jv {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (lossless for integers up to 2^53).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Jv>),
    /// An object, in source order (keys may repeat; first wins on `get`).
    Obj(Vec<(String, Jv)>),
}

impl Jv {
    /// Field lookup on an object; `None` on other variants.
    pub fn get(&self, key: &str) -> Option<&Jv> {
        match self {
            Jv::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Jv::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload as `u64`, if this is a non-negative integer.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Jv::Num(n) if *n >= 0.0 && n.fract() == 0.0 => Some(*n as u64),
            _ => None,
        }
    }

    /// The numeric payload as `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Jv::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The array elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Jv]> {
        match self {
            Jv::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one complete JSON document; trailing garbage is an error.
pub fn parse(src: &str) -> Result<Jv, String> {
    let bytes = src.as_bytes();
    let mut pos = 0usize;
    let v = value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at offset {}", ch as char, *pos))
    }
}

fn value(b: &[u8], pos: &mut usize) -> Result<Jv, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => object(b, pos),
        Some(b'[') => array(b, pos),
        Some(b'"') => Ok(Jv::Str(string(b, pos)?)),
        Some(b't') => literal(b, pos, "true", Jv::Bool(true)),
        Some(b'f') => literal(b, pos, "false", Jv::Bool(false)),
        Some(b'n') => literal(b, pos, "null", Jv::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => number(b, pos),
        Some(c) => Err(format!(
            "unexpected byte {:?} at offset {}",
            *c as char, pos
        )),
        None => Err("unexpected end of input".into()),
    }
}

fn literal(b: &[u8], pos: &mut usize, word: &str, v: Jv) -> Result<Jv, String> {
    if b[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {}", *pos))
    }
}

fn object(b: &[u8], pos: &mut usize) -> Result<Jv, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Jv::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        fields.push((key, value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Jv::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
        }
    }
}

fn array(b: &[u8], pos: &mut usize) -> Result<Jv, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Jv::Arr(items));
    }
    loop {
        items.push(value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Jv::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
        }
    }
}

fn string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")
                            .and_then(|h| std::str::from_utf8(h).map_err(|_| "bad \\u escape"))
                            .map_err(str::to_string)?;
                        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape hex")?;
                        out.push(char::from_u32(cp).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {}", *pos)),
                }
                *pos += 1;
            }
            Some(&c) => {
                // Multi-byte UTF-8 sequences pass through unchanged.
                let len = utf8_len(c);
                let chunk = b
                    .get(*pos..*pos + len)
                    .ok_or_else(|| "truncated UTF-8 sequence".to_string())?;
                out.push_str(std::str::from_utf8(chunk).map_err(|_| "invalid UTF-8 in string")?);
                *pos += len;
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

fn number(b: &[u8], pos: &mut usize) -> Result<Jv, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len()
        && (b[*pos].is_ascii_digit() || matches!(b[*pos], b'.' | b'e' | b'E' | b'+' | b'-'))
    {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Jv::Num)
        .ok_or_else(|| format!("bad number at offset {start}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let v = parse(
            r#"{"a": [1, 2.5, -3], "b": {"c": "x\ny", "d": true, "e": null}, "f": 18446744073709551616}"#,
        )
        .unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[0].as_u64(), Some(1));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d"), Some(&Jv::Bool(true)));
        assert_eq!(v.get("b").unwrap().get("e"), Some(&Jv::Null));
        assert!(v.get("f").unwrap().as_f64().unwrap() > 1e19);
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\" 1}",
            "tru",
            "{} garbage",
            "\"unterminated",
        ] {
            assert!(parse(bad).is_err(), "must reject {bad:?}");
        }
    }

    #[test]
    fn roundtrips_obs_snapshot_json() {
        stod_obs::with_mode(stod_obs::ObsMode::On, || {
            stod_obs::reset();
            stod_obs::count("demo/counter", 3);
            {
                let _s = stod_obs::span!("demo/span");
            }
            let snap = stod_obs::snapshot();
            let v = parse(&snap.to_json()).expect("obs JSON must parse");
            assert_eq!(v.get("schema").unwrap().as_u64(), Some(1));
            let spans = v.get("spans").unwrap().as_arr().unwrap();
            assert!(spans
                .iter()
                .any(|s| s.get("path").unwrap().as_str() == Some("demo/span")));
        });
    }
}
