//! A minimal JSON reader for the `trajectory` aggregator — just enough to
//! load the `BENCH_*.json` artifacts the harness itself emits (objects,
//! arrays, strings, numbers, booleans, null). No external dependencies.

/// A parsed JSON value. Object keys keep file order.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// `null` (the harness encodes non-finite floats this way).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; the harness only emits values f64 round-trips.
    Num(f64),
    /// String.
    Str(String),
    /// Array.
    Arr(Vec<Value>),
    /// Object, in file order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// Member of an object by key.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a float (numbers only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Object fields in file order.
    pub fn as_obj(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest array/object nesting [`parse`] accepts, so a hostile input
/// cannot overflow the stack. `Harness::render_json` writes three levels.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document; trailing non-whitespace is an error, and so
/// is nesting deeper than 64 levels.
pub fn parse(input: &str) -> Result<Value, String> {
    let mut pos = 0;
    let value = parse_value(input, &mut pos, 0)?;
    skip_ws(input.as_bytes(), &mut pos);
    if pos != input.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at offset {}",
            c as char,
            *pos
        ))
    }
}

/// Parses the value at `pos`, `depth` arrays and objects deep.
fn parse_value(s: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let b = s.as_bytes();
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at offset {}",
            *pos
        )),
        Some(b'{') => parse_object(s, pos, depth + 1),
        Some(b'[') => parse_array(s, pos, depth + 1),
        Some(b'"') => Ok(Value::Str(parse_string(s, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Value::Null),
        Some(_) => parse_number(b, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Value) -> Result<Value, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {}", *pos))
    }
}

fn parse_number(b: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E') {
        *pos += 1;
    }
    let s = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    s.parse::<f64>()
        .map(Value::Num)
        .map_err(|e| format!("bad number {s:?} at offset {start}: {e}"))
}

fn parse_string(s: &str, pos: &mut usize) -> Result<String, String> {
    let b = s.as_bytes();
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
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // One char straight from the input: everything else the
                // parser steps over is ASCII, so `pos` is on a boundary.
                let c = s
                    .get(*pos..)
                    .and_then(|rest| rest.chars().next())
                    .ok_or("unterminated string")?;
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(s: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let b = s.as_bytes();
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(s, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {}", *pos)),
        }
    }
}

fn parse_object(s: &str, pos: &mut usize, depth: usize) -> Result<Value, String> {
    let b = s.as_bytes();
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(s, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        fields.push((key, parse_value(s, pos, depth)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_harness_output() {
        let mut h = crate::harness::Harness::new("demo");
        h.metric_u64("n", 3)
            .metric_f64("eff", 0.25, 4)
            .metric_bool("ok", true)
            .metric_str("label", "8 x 8");
        h.gate("eff high enough", "eff", crate::harness::GateOp::Ge, 0.2);
        let v = parse(&h.render_json()).expect("parse");
        assert_eq!(v.get("schema_version").and_then(Value::as_f64), Some(1.0));
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("demo"));
        assert_eq!(v.get("seed").and_then(Value::as_f64), Some(20170814.0));
        let metrics = v.get("metrics").expect("metrics");
        assert_eq!(metrics.get("n").and_then(Value::as_f64), Some(3.0));
        assert_eq!(metrics.get("eff").and_then(Value::as_f64), Some(0.25));
        assert_eq!(metrics.get("ok").and_then(Value::as_bool), Some(true));
        assert_eq!(metrics.get("label").and_then(Value::as_str), Some("8 x 8"));
        let gates = v.get("gates").and_then(Value::as_arr).expect("gates");
        assert_eq!(gates.len(), 1);
        assert_eq!(gates[0].get("pass").and_then(Value::as_bool), Some(true));
        assert_eq!(gates[0].get("threshold").and_then(Value::as_f64), Some(0.2));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{}x").is_err());
        assert!(parse("\"unterminated").is_err());
        assert!(parse("[1,]").is_err());
    }

    #[test]
    fn escapes_and_nesting() {
        let v = parse(r#"{"a": [null, {"b\"c": -1.5e2}], "d": "x\ny"}"#).expect("parse");
        let arr = v.get("a").and_then(Value::as_arr).expect("arr");
        assert_eq!(arr[0], Value::Null);
        assert_eq!(arr[1].get("b\"c").and_then(Value::as_f64), Some(-150.0));
        assert_eq!(v.get("d").and_then(Value::as_str), Some("x\ny"));
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        assert!(parse(&"[".repeat(1_000_000)).is_err());
        assert!(parse(&"{\"a\":".repeat(100_000)).is_err());
        let at_limit = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok(), "{MAX_DEPTH} levels parse");
        let over = format!("[{at_limit}]");
        assert!(parse(&over).is_err(), "{} levels do not", MAX_DEPTH + 1);
    }

    #[test]
    fn long_strings_parse_in_linear_time() {
        // 2^20 chars, two-byte ones among them: a per-char re-validation
        // of the rest of the input would take minutes here.
        let body: String = (0..1 << 20)
            .map(|i| if i % 7 == 0 { 'é' } else { 'x' })
            .collect();
        let v = parse(&format!("\"{body}\"")).expect("parse");
        assert_eq!(v.as_str().map(str::len), Some(body.len()));
    }
}
