//! Minimal JSON reading and string escaping.
//!
//! The workspace builds fully offline and carries no serde; every
//! JSON-speaking subsystem (trace record/replay, the audit baseline and
//! metrics export in `qelect-bench`) shares this hand-rolled reader
//! instead of growing its own. The dialect is deliberately small:
//! objects, arrays, strings (with the common escapes), numbers,
//! booleans, null — exactly what the repo's own writers emit.
//!
//! Writers stay hand-rolled at their call sites (each schema is a dozen
//! `push_str`s); [`escape`] is the one shared writing helper, so every
//! emitted string literal round-trips through [`parse`].

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (f64 is exact for the integers our schemas use).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Value>),
    /// An object, in source order.
    Obj(Vec<(String, Value)>),
}

impl Value {
    /// The object fields, if this value is an object.
    pub fn as_object(&self) -> Option<&[(String, Value)]> {
        match self {
            Value::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The number, if this value is a number.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The items, if this value is an array.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The boolean, if this value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// First value for `key` in an object's fields.
pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// The workspace's public schema registry: the shared
/// versioned-envelope convention of every JSON document the workspace
/// reads or writes, daemon wire formats included.
///
/// Each document is an object whose first field is
/// `"schema": "<name>/<version>"`; readers call [`envelope::check`] (or
/// [`envelope::check_document`]) before trusting any other field, so a
/// format bump is a loud, typed failure instead of a silent misparse.
/// Every schema is declared here once and nowhere else; each has a
/// serialize→parse round-trip test next to its writer.
///
/// | schema | writer | reader |
/// |---|---|---|
/// | `qelect-audit/1` | `qelectctl audit --json` (and the committed `BENCH_audit.json` baseline) | the audit baseline gate |
/// | `qelect-sweep/1` | `qelectctl sweep --json` | downstream tooling |
/// | `qelect-trace/1` | trace recording (`tests/traces/*.json`) | trace replay |
/// | `qelect-faults/1` | `qelectctl faults --json`; serialized fault plans | fault-plan replay; nested plans in `qelect-request/1` |
/// | `qelect-request/1` | `qelectd` clients (`qelectctl load`, curl) | the `qelectd` daemon |
/// | `qelect-response/1` | the `qelectd` daemon (election, `/healthz`, `/metrics`, error bodies) | `qelectctl load`, curl |
/// | `qelect-load/1` | `qelectctl load` (and the committed `BENCH_serve.json`) | the serving benchmark gate |
/// | `qelect-simbench/1` | `qelectctl simbench` (and the committed `BENCH_sim.json`) | the engine-throughput record |
/// | `qelect-canonbench/2` | `qelectctl canonbench` (and the committed `BENCH_canon.json`) | the canonicalization-kernel and ELECT end-to-end scaling record |
/// | `qelect-zoo/1` | `qelectctl zoo` (and the committed `BENCH_zoo.json`) | the cross-protocol experiment gate |
/// | `qelect-explore/1` | `qelectctl explore --json` (and the committed `BENCH_explore.json`) | the schedule-exploration coverage record |
pub mod envelope {
    use super::{get, parse, Value};

    /// `qelectctl audit` reports (and the committed audit baseline).
    pub const AUDIT: &str = "qelect-audit/1";
    /// `qelectctl sweep --json` reports.
    pub const SWEEP: &str = "qelect-sweep/1";
    /// Recorded traces (`tests/traces/*.json`). Legacy trace files
    /// predate the envelope and carry `"version": 1` instead of a
    /// `"schema"` field; [`check`] grandfathers them in.
    pub const TRACE: &str = "qelect-trace/1";
    /// `qelectctl faults` reports and serialized fault plans.
    pub const FAULTS: &str = "qelect-faults/1";
    /// Election requests POSTed to `qelectd` (`/v1/elect`).
    pub const REQUEST: &str = "qelect-request/1";
    /// Every document `qelectd` emits: election results, `/healthz`,
    /// `/metrics`, and error bodies (which add an `"error"` field).
    pub const RESPONSE: &str = "qelect-response/1";
    /// `qelectctl load` reports (and the committed `BENCH_serve.json`).
    pub const LOAD: &str = "qelect-load/1";
    /// `qelectctl simbench` reports (and the committed `BENCH_sim.json`):
    /// gated-vs-sim election throughput on a shared instance family.
    pub const SIMBENCH: &str = "qelect-simbench/1";
    /// `qelectctl canonbench` reports (and the committed
    /// `BENCH_canon.json`): oracle-vs-worklist canonicalization timings
    /// with a built-in byte-identity check, and the ELECT end-to-end
    /// curve.
    pub const CANONBENCH: &str = "qelect-canonbench/2";
    /// `qelectctl zoo` reports (and the committed `BENCH_zoo.json`):
    /// every registered protocol run across a shared instance family,
    /// each verdict gated on its protocol's own oracle — the empirical
    /// Table 1.
    pub const ZOO: &str = "qelect-zoo/1";
    /// `qelectctl explore --json` reports (and the committed
    /// `BENCH_explore.json`): schedule-space coverage of one exploration
    /// — DFS + swarm schedule counts, unique interleaving signatures,
    /// counterexamples found/shrunk.
    pub const EXPLORE: &str = "qelect-explore/1";

    /// The full registry: `(schema tag, one-line description)` for every
    /// wire schema the workspace speaks, in declaration order.
    pub fn all() -> &'static [(&'static str, &'static str)] {
        &[
            (
                AUDIT,
                "phase-resolved audit reports and the committed baseline",
            ),
            (SWEEP, "parallel sweep reports"),
            (TRACE, "recorded deterministic traces"),
            (FAULTS, "fault-injection reports and serialized fault plans"),
            (REQUEST, "qelectd election requests"),
            (
                RESPONSE,
                "qelectd responses (elections, health, metrics, errors)",
            ),
            (LOAD, "qelectctl load serving-benchmark reports"),
            (SIMBENCH, "gated-vs-sim engine-throughput reports"),
            (CANONBENCH, "canonicalization and ELECT scaling reports"),
            (ZOO, "cross-protocol zoo experiment reports"),
            (EXPLORE, "schedule-exploration coverage reports"),
        ]
    }

    /// The opening `"schema"` line every writer emits first (two-space
    /// indented, trailing comma — the house object style).
    pub fn header(schema: &str) -> String {
        format!("  \"schema\": {},\n", super::escape(schema))
    }

    /// Check a parsed document's envelope against the expected schema.
    pub fn check(obj: &[(String, Value)], expected: &str) -> Result<(), String> {
        match get(obj, "schema").and_then(Value::as_str) {
            Some(s) if s == expected => Ok(()),
            Some(s) => Err(format!(
                "schema mismatch: expected {expected:?}, found {s:?}"
            )),
            None => {
                if expected == TRACE && get(obj, "version").and_then(Value::as_num) == Some(1.0) {
                    // Pre-envelope trace files.
                    Ok(())
                } else {
                    Err(format!(
                        "document lacks a \"schema\" field (expected {expected:?})"
                    ))
                }
            }
        }
    }

    /// Parse a document and check its envelope in one step; returns the
    /// parsed object's fields.
    pub fn check_document(text: &str, expected: &str) -> Result<Vec<(String, Value)>, String> {
        let value = parse(text)?;
        let obj = value
            .as_object()
            .ok_or_else(|| format!("{expected} document must be a JSON object"))?;
        check(obj, expected)?;
        Ok(obj.to_vec())
    }
}

/// Serialize a [`Value`] back to compact JSON text.
///
/// The inverse of [`parse`] up to whitespace and number formatting
/// (integers that fit `i64` print without a fractional part, so the
/// integer-valued documents our schemas use round-trip exactly). This is
/// how nested documents are re-extracted — e.g. the `qelect-faults/1`
/// plan embedded in a `qelect-request/1` envelope.
pub fn write(value: &Value) -> String {
    let mut out = String::new();
    write_into(value, &mut out);
    out
}

fn write_into(value: &Value, out: &mut String) {
    match value {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Num(n) => {
            if n.fract() == 0.0 && n.abs() < 9e15 {
                out.push_str(&format!("{}", *n as i64));
            } else {
                out.push_str(&format!("{n}"));
            }
        }
        Value::Str(s) => out.push_str(&escape(s)),
        Value::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_into(item, out);
            }
            out.push(']');
        }
        Value::Obj(fields) => {
            out.push('{');
            for (i, (k, v)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&escape(k));
                out.push(':');
                write_into(v, out);
            }
            out.push('}');
        }
    }
}

/// Serialize a string as a JSON string literal (quoted, escaped).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse a complete JSON document.
pub fn parse(text: &str) -> Result<Value, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing input at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", b as char, pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Value::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Value::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Value::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Value::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Value) -> Result<Value, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < bytes.len()
        && (bytes[*pos].is_ascii_digit()
            || bytes[*pos] == b'.'
            || bytes[*pos] == b'e'
            || bytes[*pos] == b'E'
            || bytes[*pos] == b'+'
            || bytes[*pos] == b'-')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Value::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
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
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16)
                            .map_err(|_| "bad \\u escape".to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err("bad escape".into()),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (the input is valid UTF-8
                // because it arrived as &str).
                let s = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = s.chars().next().unwrap();
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Value::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Value::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {pos}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Value, String> {
    expect(bytes, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Value::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos)?;
        fields.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Value::Obj(fields));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_roundtrips_through_parse() {
        for s in [
            "plain",
            "with \"quotes\"",
            "tab\tnl\ncr\r",
            "ctrl\u{01}byte",
            "π-unicode",
        ] {
            let parsed = parse(&escape(s)).unwrap();
            assert_eq!(parsed.as_str(), Some(s), "{s:?}");
        }
    }

    #[test]
    fn accessors_discriminate() {
        let v = parse(r#"{"a":[1,2],"s":"x","b":true}"#).unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(get(obj, "a").unwrap().as_array().unwrap().len(), 2);
        assert_eq!(get(obj, "s").unwrap().as_str(), Some("x"));
        assert_eq!(get(obj, "a").unwrap().as_str(), None);
        assert_eq!(get(obj, "missing"), None);
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse("{} x").is_err());
        assert!(parse("[1,").is_err());
    }

    #[test]
    fn envelope_checks_schema() {
        let doc = format!("{{{} \"x\": 1}}", envelope::header(envelope::AUDIT));
        let fields = envelope::check_document(&doc, envelope::AUDIT).unwrap();
        assert_eq!(get(&fields, "x").unwrap().as_num(), Some(1.0));
        assert!(envelope::check_document(&doc, envelope::SWEEP).is_err());
        assert!(envelope::check_document("{\"x\": 1}", envelope::AUDIT).is_err());
        assert!(envelope::check_document("[1]", envelope::AUDIT).is_err());
    }

    #[test]
    fn registry_names_are_unique_and_versioned() {
        let all = envelope::all();
        assert_eq!(all.len(), 11);
        for (i, (name, desc)) in all.iter().enumerate() {
            let version = name
                .rsplit_once('/')
                .and_then(|(_, v)| v.parse::<u32>().ok());
            assert!(
                version.is_some_and(|v| v >= 1),
                "{name} lacks a version suffix"
            );
            assert!(name.starts_with("qelect-"), "{name}");
            assert!(!desc.is_empty());
            for (other, _) in &all[i + 1..] {
                assert_ne!(name, other, "duplicate schema tag");
            }
        }
        // The registry contains exactly the named constants.
        for tag in [
            envelope::AUDIT,
            envelope::SWEEP,
            envelope::TRACE,
            envelope::FAULTS,
            envelope::REQUEST,
            envelope::RESPONSE,
            envelope::LOAD,
            envelope::SIMBENCH,
            envelope::CANONBENCH,
            envelope::ZOO,
            envelope::EXPLORE,
        ] {
            assert!(all.iter().any(|(n, _)| *n == tag), "{tag} not registered");
        }
    }

    #[test]
    fn write_roundtrips_through_parse() {
        let docs = [
            r#"{"schema":"qelect-faults/1","seed":7,"events":[{"agent":0,"op":3,"action":"crash"}],"nested":{"x":[true,null,-2.5]}}"#,
            r#"[1,2,3]"#,
            r#""just a string""#,
            r#"{"empty_obj":{},"empty_arr":[]}"#,
        ];
        for doc in docs {
            let v = parse(doc).unwrap();
            let text = write(&v);
            assert_eq!(parse(&text).unwrap(), v, "{doc}");
        }
        // Integers print without a fractional part.
        assert_eq!(write(&Value::Num(42.0)), "42");
        assert_eq!(write(&Value::Num(-1.5)), "-1.5");
    }

    #[test]
    fn envelope_grandfathers_legacy_traces() {
        let legacy = r#"{"version": 1, "label": "old"}"#;
        assert!(envelope::check_document(legacy, envelope::TRACE).is_ok());
        // But only traces: the same shape is rejected for other schemas.
        assert!(envelope::check_document(legacy, envelope::FAULTS).is_err());
        // And only version 1.
        let v2 = r#"{"version": 2}"#;
        assert!(envelope::check_document(v2, envelope::TRACE).is_err());
    }
}
