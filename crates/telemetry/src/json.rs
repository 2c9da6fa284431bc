//! The workspace's one JSON codec: a string escaper, a number writer and
//! a small recursive-descent reader.
//!
//! Every JSON surface the workspace writes — trace JSONL, Chrome trace
//! export, gateway bodies (`/audit`, `/healthz`, `/debug/vars`), the SLO
//! monitor's `/alerts` and `/metrics/history`, the bench ledger — builds
//! its objects by hand in a fixed key order and routes every string
//! through [`escape_into`] / [`quoted`] and every float through [`Num`],
//! so identical values always render identical bytes. Every reader
//! (`sink::parse_jsonl`, the bench ledger) goes through [`parse`].
//!
//! The schemas are small and closed, so the reader keeps only what they
//! need: numbers are `f64`, object members keep file order.

use std::fmt::{self, Write as _};

/// Appends the JSON escape of `s` (without surrounding quotes) to `out`.
///
/// `"` and `\` are backslash-escaped, `\n`, `\r` and `\t` use their short
/// forms, other characters below U+0020 become `\u00XX`, and everything
/// else — non-ASCII included — passes through as UTF-8.
pub fn escape_into(s: &str, out: &mut String) {
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
}

/// `s` as a quoted, escaped JSON string.
pub fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    escape_into(s, &mut out);
    out.push('"');
    out
}

/// A float rendered as a JSON number: Rust's shortest round-trip `{v}`
/// formatting (deterministic, and [`parse`] reads it back bit for bit),
/// with non-finite values written as `null` since JSON has no
/// `NaN`/`Infinity`.
#[derive(Debug, Clone, Copy)]
pub struct Num(pub f64);

impl fmt::Display for Num {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_finite() {
            write!(f, "{}", self.0)
        } else {
            f.write_str("null")
        }
    }
}

/// A parsed JSON value. Numbers are `f64`; object members keep file
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number.
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<JsonValue>),
    /// An object, in file order.
    Obj(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Member `key` of an object (`None` otherwise).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The f64 behind a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The str behind a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The slice behind an array.
    pub fn as_arr(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Parses one JSON document (surrounding whitespace allowed).
///
/// # Errors
///
/// A human-readable message naming the byte offset of the problem.
pub fn parse(text: &str) -> Result<JsonValue, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected {:?} at byte {}", b as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".to_owned()),
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(JsonValue::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", JsonValue::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", JsonValue::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", JsonValue::Null),
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_literal(
    bytes: &[u8],
    pos: &mut usize,
    word: &str,
    value: JsonValue,
) -> Result<JsonValue, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(JsonValue::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_owned()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| format!("bad \\u escape at byte {}", *pos))?;
                        // The writer never emits surrogate pairs (it
                        // escapes only control characters); map unpaired
                        // surrogates to U+FFFD.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Multi-byte UTF-8 sequences pass through untouched.
                let s = &bytes[*pos..];
                let ch_len = std::str::from_utf8(s)
                    .map_err(|_| "invalid utf-8 in string".to_owned())?
                    .chars()
                    .next()
                    .map_or(1, char::len_utf8);
                out.push_str(std::str::from_utf8(&s[..ch_len]).unwrap());
                *pos += ch_len;
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(JsonValue::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(JsonValue::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<JsonValue, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(JsonValue::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(JsonValue::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use fakeaudit_prop::prelude::*;
    use fakeaudit_prop::{DetStream, FromFn};

    fn escaped(s: &str) -> String {
        let mut out = String::new();
        escape_into(s, &mut out);
        out
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escaped("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escaped("\u{1}"), "\\u0001");
        assert_eq!(escaped("\t\r"), "\\t\\r");
        assert_eq!(escaped("é😀/"), "é😀/");
        assert_eq!(quoted("quota: \"x\""), "\"quota: \\\"x\\\"\"");
    }

    #[test]
    fn numbers_are_shortest_round_trip_or_null() {
        assert_eq!(Num(0.0).to_string(), "0");
        assert_eq!(Num(1.25).to_string(), "1.25");
        assert_eq!(Num(100_000.0).to_string(), "100000");
        assert_eq!(Num(0.1 + 0.2).to_string(), "0.30000000000000004");
        assert_eq!(Num(f64::NAN).to_string(), "null");
        assert_eq!(Num(f64::INFINITY).to_string(), "null");
        assert_eq!(Num(f64::NEG_INFINITY).to_string(), "null");
    }

    /// A bench JSON in the `render_bench_json` shape.
    const BENCH_JSON: &str = "{\n  \"schema_version\": 1,\n  \"bench\": \"gateway\",\n  \
        \"config\": {\n    \"seed\": 7,\n    \"allocs_per_req\": 120.5\n  },\n  \
        \"scenarios\": [\n    {\"name\": \"closed_loop\", \"p50_ms\": 1.000, \
        \"p99_ms\": 3.000, \"shed_rate\": 0.0}\n  ]\n}\n";

    #[test]
    fn json_reader_handles_the_bench_schema() {
        let doc = parse(BENCH_JSON).unwrap();
        assert_eq!(
            doc.get("bench").and_then(JsonValue::as_str),
            Some("gateway")
        );
        assert_eq!(
            doc.get("config")
                .and_then(|c| c.get("seed"))
                .and_then(JsonValue::as_f64),
            Some(7.0)
        );
        let scenarios = doc.get("scenarios").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(scenarios.len(), 1);
        assert_eq!(
            scenarios[0].get("p99_ms").and_then(JsonValue::as_f64),
            Some(3.0)
        );
    }

    #[test]
    fn json_reader_rejects_malformed_input() {
        assert!(parse("{\"a\":").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\":1} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("nul").is_err());
        // Escapes and nesting round-trip.
        let v = parse(" {\"s\": \"a\\n\\\"b\\\"\", \"l\": [true, null, -2.5e1]} ").unwrap();
        assert_eq!(v.get("s").and_then(JsonValue::as_str), Some("a\n\"b\""));
        assert_eq!(v.get("l").and_then(JsonValue::as_arr).unwrap().len(), 3);
        assert_eq!(
            v.get("l").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-25.0)
        );
        // Short and `\u` spellings of control characters decode alike.
        let v = parse("[\"a\\tb\\rc\", \"a\\u0009b\\u000dc\", \"\\/\\b\\f\"]").unwrap();
        let items = v.as_arr().unwrap();
        assert_eq!(items[0].as_str(), Some("a\tb\rc"));
        assert_eq!(items[1].as_str(), Some("a\tb\rc"));
        assert_eq!(items[2].as_str(), Some("/\u{8}\u{c}"));
    }

    /// Characters biased toward what an escaper can get wrong: quotes,
    /// backslashes, every control character, plus plain ASCII, BMP and
    /// non-BMP code points.
    pub(crate) fn hostile_string(rng: &mut DetStream) -> String {
        let len = rng.next_u64() % 24;
        (0..len)
            .map(|_| {
                let r = rng.next_u64();
                let pick = |range: std::ops::Range<u32>| {
                    let code = range.start + ((r >> 8) % u64::from(range.end - range.start)) as u32;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                };
                match r % 6 {
                    0 => '"',
                    1 => '\\',
                    2 => pick(0..0x20),
                    3 => pick(0x20..0x7f),
                    4 => pick(0x80..0xd800),
                    _ => pick(0x1_0000..0x11_0000),
                }
            })
            .collect()
    }

    proptest! {
        #[test]
        fn any_string_survives_quoted_then_parse(s in FromFn(hostile_string)) {
            let q = quoted(&s);
            // Valid JSON: no raw control character inside the string.
            prop_assert!(!q.chars().any(|c| (c as u32) < 0x20), "raw control in {:?}", q);
            prop_assert_eq!(parse(&q).unwrap(), JsonValue::Str(s));
        }

        #[test]
        fn any_finite_f64_survives_the_number_writer(bits in any::<u64>()) {
            let v = f64::from_bits(bits);
            prop_assume!(v.is_finite());
            let back = parse(&Num(v).to_string()).unwrap().as_f64().unwrap();
            prop_assert_eq!(back.to_bits(), v.to_bits());
        }
    }
}
