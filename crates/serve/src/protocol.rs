//! The `posetrl-serve` wire protocol: one JSON object per line.
//!
//! A client sends [`Request`] lines (`.pir` module text plus routing
//! metadata) and receives exactly one [`Response`] line per request, in
//! request order on the stdio transport. The parser is deliberately
//! *strict* — unknown fields, duplicate fields, and wrong types are
//! structured [`ProtocolError`]s rather than silently-ignored input,
//! following PR-5's fail-fast convention. (The vendored serde derive
//! ignores unknown fields, so both sides are parsed by hand over
//! `serde_json::Value`.)
//!
//! Request:
//!
//! ```json
//! {"id":"r1","module":"define i64 @main() { ... }","arch":"x86-64","max_steps":15}
//! ```
//!
//! `id` and `module` are required; `arch` defaults to `x86-64`;
//! `max_steps` defaults to the server's episode budget (and is clamped to
//! it). Success response:
//!
//! ```json
//! {"id":"r1","ok":true,"module":"...","actions":[3,1],"size_before":940,
//!  "size_after":830,"cycles_before":61.0,"cycles_after":55.5,
//!  "wall_us":1834,"cached":false,"shard":2,"batch":1}
//! ```
//!
//! Error response (`id` is `null` when the request never parsed far
//! enough to have one):
//!
//! ```json
//! {"id":"r1","ok":false,"error":{"kind":"module-too-large","message":"..."}}
//! ```
//!
//! Cost: a module's text is most of every line, so each of the four
//! functions copies it at most once. [`Request::to_json`] and
//! [`Response::to_json`] clone it into a [`Value`] and print that through
//! its `Display`; [`parse_request`] and [`parse_response`] parse the line
//! with `Value`'s `FromStr` and move the string out of the tree. Escaping
//! and unescaping work by runs of plain bytes (see the vendored
//! `serde_json`), so their cost is a scan of the text plus one write per
//! escape: in `.pir` text, about one per line (`\n`, `\t`, `\"`).

use posetrl_target::TargetArch;
use serde_json::{json, Value};
use std::fmt;

/// Machine-readable error classes (kebab-case on the wire).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The line is not valid JSON, or a field is duplicated.
    Parse,
    /// A field the protocol does not define.
    UnknownField,
    /// A required field is absent.
    MissingField,
    /// A field has the wrong type or an out-of-domain value.
    BadValue,
    /// The module text exceeds the server's byte budget.
    ModuleTooLarge,
    /// Admission control rejected the request (queue full).
    Overloaded,
    /// The module text did not parse or verify as `.pir`.
    BadModule,
    /// The policy rollout failed (e.g. the sanitizer rejected a pass).
    RolloutFailed,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorKind {
    /// All kinds, for exhaustive tests.
    pub const ALL: [ErrorKind; 9] = [
        ErrorKind::Parse,
        ErrorKind::UnknownField,
        ErrorKind::MissingField,
        ErrorKind::BadValue,
        ErrorKind::ModuleTooLarge,
        ErrorKind::Overloaded,
        ErrorKind::BadModule,
        ErrorKind::RolloutFailed,
        ErrorKind::Internal,
    ];

    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Parse => "parse",
            ErrorKind::UnknownField => "unknown-field",
            ErrorKind::MissingField => "missing-field",
            ErrorKind::BadValue => "bad-value",
            ErrorKind::ModuleTooLarge => "module-too-large",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::BadModule => "bad-module",
            ErrorKind::RolloutFailed => "rollout-failed",
            ErrorKind::Internal => "internal",
        }
    }

    /// Inverse of [`ErrorKind::as_str`].
    pub fn parse(s: &str) -> Option<ErrorKind> {
        ErrorKind::ALL.iter().copied().find(|k| k.as_str() == s)
    }
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured protocol-level error.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// Error class.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
}

impl ProtocolError {
    /// Convenience constructor.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ProtocolError {
        ProtocolError {
            kind,
            message: message.into(),
        }
    }
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// One optimization request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed on the response.
    pub id: String,
    /// The `.pir` module text to optimize.
    pub module: String,
    /// Measurement target (wire: `"x86-64"` or `"aarch64"`).
    pub arch: TargetArch,
    /// Optional episode-length override; clamped to the server budget.
    pub max_steps: Option<u64>,
}

impl Request {
    /// Serializes to one wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        let fields = [
            ("id", Value::String(self.id.clone())),
            ("module", Value::String(self.module.clone())),
            ("arch", Value::String(self.arch.name().to_string())),
        ];
        let steps = self.max_steps.map(|n| ("max_steps", json!(n)));
        object(fields.into_iter().chain(steps)).to_string()
    }
}

/// A successful optimization result.
#[derive(Debug, Clone, PartialEq)]
pub struct OkResponse {
    /// Echoed request id.
    pub id: String,
    /// Optimized `.pir` module text.
    pub module: String,
    /// Applied action indices, in order.
    pub actions: Vec<u64>,
    /// Object size of the input module (bytes).
    pub size_before: u64,
    /// Object size of the optimized module (bytes).
    pub size_after: u64,
    /// Flat MCA cycles of the input module.
    pub cycles_before: f64,
    /// Flat MCA cycles of the optimized module.
    pub cycles_after: f64,
    /// Server-side wall time in microseconds (non-deterministic metadata).
    pub wall_us: u64,
    /// Whether the response came straight from the content-addressed store.
    pub cached: bool,
    /// The worker that owned this module.
    pub shard: u64,
    /// States per policy sweep: 1 for a rollout (each decision sweeps one
    /// state), 0 for a store hit (no inference ran).
    pub batch: u64,
}

/// An error response.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrResponse {
    /// Echoed request id, when the request parsed far enough to have one.
    pub id: Option<String>,
    /// What went wrong.
    pub error: ProtocolError,
}

/// One response line: success or structured error.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Optimized module and measurements.
    Ok(OkResponse),
    /// Structured failure.
    Err(ErrResponse),
}

impl Response {
    /// Builds an error response.
    pub fn err(id: Option<String>, kind: ErrorKind, message: impl Into<String>) -> Response {
        Response::Err(ErrResponse {
            id,
            error: ProtocolError::new(kind, message),
        })
    }

    /// Whether this is a success response.
    pub fn is_ok(&self) -> bool {
        matches!(self, Response::Ok(_))
    }

    /// The echoed request id, if any.
    pub fn id(&self) -> Option<&str> {
        match self {
            Response::Ok(r) => Some(&r.id),
            Response::Err(r) => r.id.as_deref(),
        }
    }

    /// Serializes to one wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        let v = match self {
            Response::Ok(r) => object([
                ("id", Value::String(r.id.clone())),
                ("ok", Value::Bool(true)),
                ("module", Value::String(r.module.clone())),
                ("actions", json!(r.actions)),
                ("size_before", json!(r.size_before)),
                ("size_after", json!(r.size_after)),
                ("cycles_before", json!(r.cycles_before)),
                ("cycles_after", json!(r.cycles_after)),
                ("wall_us", json!(r.wall_us)),
                ("cached", Value::Bool(r.cached)),
                ("shard", json!(r.shard)),
                ("batch", json!(r.batch)),
            ]),
            Response::Err(r) => object([
                ("id", r.id.clone().map_or(Value::Null, Value::String)),
                ("ok", Value::Bool(false)),
                (
                    "error",
                    object([
                        ("kind", Value::String(r.error.kind.as_str().to_string())),
                        ("message", Value::String(r.error.message.clone())),
                    ]),
                ),
            ]),
        };
        v.to_string()
    }
}

/// Parses `s` as the target-arch wire spelling.
pub fn parse_arch(s: &str) -> Option<TargetArch> {
    TargetArch::ALL.iter().copied().find(|a| a.name() == s)
}

/// A JSON object of `fields`, in order.
fn object<'a>(fields: impl IntoIterator<Item = (&'a str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

// --- strict object access helpers -----------------------------------------

fn as_strict_object(v: &Value) -> Result<&Vec<(String, Value)>, ProtocolError> {
    let obj = v.as_object().ok_or_else(|| {
        ProtocolError::new(ErrorKind::BadValue, "top level must be a JSON object")
    })?;
    for (i, (k, _)) in obj.iter().enumerate() {
        if obj.iter().take(i).any(|(prev, _)| prev == k) {
            return Err(ProtocolError::new(
                ErrorKind::Parse,
                format!("duplicate field `{k}`"),
            ));
        }
    }
    Ok(obj)
}

fn reject_unknown(obj: &[(String, Value)], allowed: &[&str]) -> Result<(), ProtocolError> {
    for (k, _) in obj {
        if !allowed.contains(&k.as_str()) {
            return Err(ProtocolError::new(
                ErrorKind::UnknownField,
                format!("unknown field `{k}`"),
            ));
        }
    }
    Ok(())
}

fn missing(key: &str) -> ProtocolError {
    ProtocolError::new(ErrorKind::MissingField, format!("missing field `{key}`"))
}

fn required<'a>(v: &'a Value, key: &str) -> Result<&'a Value, ProtocolError> {
    v.get(key).ok_or_else(|| missing(key))
}

/// Moves the string member `key` out of `v` (leaving it empty), so a
/// parsed string is never copied again.
fn take_str(v: &mut Value, key: &str) -> Result<String, ProtocolError> {
    match v.get_mut(key).ok_or_else(|| missing(key))? {
        Value::String(s) => Ok(std::mem::take(s)),
        _ => Err(ProtocolError::new(
            ErrorKind::BadValue,
            format!("`{key}` must be a string"),
        )),
    }
}

fn required_u64(v: &Value, key: &str) -> Result<u64, ProtocolError> {
    required(v, key)?.as_u64().ok_or_else(|| {
        ProtocolError::new(
            ErrorKind::BadValue,
            format!("`{key}` must be a non-negative integer"),
        )
    })
}

fn required_f64(v: &Value, key: &str) -> Result<f64, ProtocolError> {
    required(v, key)?
        .as_f64()
        .ok_or_else(|| ProtocolError::new(ErrorKind::BadValue, format!("`{key}` must be a number")))
}

fn required_bool(v: &Value, key: &str) -> Result<bool, ProtocolError> {
    required(v, key)?.as_bool().ok_or_else(|| {
        ProtocolError::new(ErrorKind::BadValue, format!("`{key}` must be a boolean"))
    })
}

/// Parses one wire line into a JSON value; its error text is the client's
/// `message`.
fn parse_line(line: &str) -> Result<Value, ProtocolError> {
    line.parse()
        .map_err(|e: serde_json::Error| ProtocolError::new(ErrorKind::Parse, e.to_string()))
}

/// Parses one request line strictly.
///
/// # Errors
///
/// Structured [`ProtocolError`]s for malformed JSON, duplicate/unknown/
/// missing fields, and wrong types — never a panic.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let mut v = parse_line(line)?;
    let obj = as_strict_object(&v)?;
    reject_unknown(obj, &["id", "module", "arch", "max_steps"])?;
    let id = take_str(&mut v, "id")?;
    let module = take_str(&mut v, "module")?;
    let arch = match v.get("arch") {
        None => TargetArch::X86_64,
        Some(a) => {
            let s = a.as_str().ok_or_else(|| {
                ProtocolError::new(ErrorKind::BadValue, "`arch` must be a string")
            })?;
            parse_arch(s).ok_or_else(|| {
                ProtocolError::new(
                    ErrorKind::BadValue,
                    format!("unknown arch `{s}` (expected x86-64 or aarch64)"),
                )
            })?
        }
    };
    let max_steps = match v.get("max_steps") {
        None => None,
        Some(n) => Some(n.as_u64().ok_or_else(|| {
            ProtocolError::new(
                ErrorKind::BadValue,
                "`max_steps` must be a non-negative integer",
            )
        })?),
    };
    Ok(Request {
        id,
        module,
        arch,
        max_steps,
    })
}

/// Parses one response line strictly (used by the scripted client,
/// `--check`, and the load generator).
///
/// # Errors
///
/// Structured [`ProtocolError`]s, never a panic.
pub fn parse_response(line: &str) -> Result<Response, ProtocolError> {
    let mut v = parse_line(line)?;
    let obj = as_strict_object(&v)?;
    let ok = required_bool(&v, "ok")?;
    if ok {
        reject_unknown(
            obj,
            &[
                "id",
                "ok",
                "module",
                "actions",
                "size_before",
                "size_after",
                "cycles_before",
                "cycles_after",
                "wall_us",
                "cached",
                "shard",
                "batch",
            ],
        )?;
        let actions_v = required(&v, "actions")?
            .as_array()
            .ok_or_else(|| ProtocolError::new(ErrorKind::BadValue, "`actions` must be an array"))?;
        let mut actions = Vec::with_capacity(actions_v.len());
        for a in actions_v {
            actions.push(a.as_u64().ok_or_else(|| {
                ProtocolError::new(ErrorKind::BadValue, "`actions` entries must be integers")
            })?);
        }
        Ok(Response::Ok(OkResponse {
            id: take_str(&mut v, "id")?,
            module: take_str(&mut v, "module")?,
            actions,
            size_before: required_u64(&v, "size_before")?,
            size_after: required_u64(&v, "size_after")?,
            cycles_before: required_f64(&v, "cycles_before")?,
            cycles_after: required_f64(&v, "cycles_after")?,
            wall_us: required_u64(&v, "wall_us")?,
            cached: required_bool(&v, "cached")?,
            shard: required_u64(&v, "shard")?,
            batch: required_u64(&v, "batch")?,
        }))
    } else {
        reject_unknown(obj, &["id", "ok", "error"])?;
        let id = match v.get_mut("id").ok_or_else(|| missing("id"))? {
            Value::Null => None,
            Value::String(s) => Some(std::mem::take(s)),
            _ => {
                return Err(ProtocolError::new(
                    ErrorKind::BadValue,
                    "`id` must be a string or null",
                ))
            }
        };
        let err_v = v.get_mut("error").ok_or_else(|| missing("error"))?;
        let err_obj = err_v
            .as_object()
            .ok_or_else(|| ProtocolError::new(ErrorKind::BadValue, "`error` must be an object"))?;
        reject_unknown(err_obj, &["kind", "message"])?;
        let kind_s = take_str(err_v, "kind")?;
        let kind = ErrorKind::parse(&kind_s).ok_or_else(|| {
            ProtocolError::new(
                ErrorKind::BadValue,
                format!("unknown error kind `{kind_s}`"),
            )
        })?;
        Ok(Response::Err(ErrResponse {
            id,
            error: ProtocolError::new(kind, take_str(err_v, "message")?),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let r = Request {
            id: "r-1".into(),
            module: "define i64 @main() {\nentry:\n  ret i64 0\n}\n".into(),
            arch: TargetArch::AArch64,
            max_steps: Some(7),
        };
        assert_eq!(parse_request(&r.to_json()).unwrap(), r);
        let r2 = Request {
            max_steps: None,
            ..r.clone()
        };
        assert_eq!(parse_request(&r2.to_json()).unwrap(), r2);
    }

    #[test]
    fn request_defaults_and_strictness() {
        let ok = parse_request(r#"{"id":"a","module":"m"}"#).unwrap();
        assert_eq!(ok.arch, TargetArch::X86_64);
        assert_eq!(ok.max_steps, None);

        let cases: &[(&str, ErrorKind)] = &[
            (
                r#"{"id":"a","module":"m","extra":1}"#,
                ErrorKind::UnknownField,
            ),
            (r#"{"module":"m"}"#, ErrorKind::MissingField),
            (r#"{"id":"a"}"#, ErrorKind::MissingField),
            (r#"{"id":1,"module":"m"}"#, ErrorKind::BadValue),
            (r#"{"id":"a","module":5}"#, ErrorKind::BadValue),
            (
                r#"{"id":"a","module":"m","arch":"mips"}"#,
                ErrorKind::BadValue,
            ),
            (
                r#"{"id":"a","module":"m","max_steps":-3}"#,
                ErrorKind::BadValue,
            ),
            (
                r#"{"id":"a","module":"m","max_steps":1.5}"#,
                ErrorKind::BadValue,
            ),
            (r#"{"id":"a","id":"b","module":"m"}"#, ErrorKind::Parse),
            (r#"[1,2]"#, ErrorKind::BadValue),
            (r#"{"id":"a","module":"#, ErrorKind::Parse),
        ];
        for (line, kind) in cases {
            let err = parse_request(line).unwrap_err();
            assert_eq!(err.kind, *kind, "line {line}: {err}");
        }
    }

    #[test]
    fn response_round_trip_both_arms() {
        let ok = Response::Ok(OkResponse {
            id: "x".into(),
            module: "define i64 @main() { ret i64 0 }".into(),
            actions: vec![3, 0, 11],
            size_before: 940,
            size_after: 830,
            cycles_before: 61.25,
            cycles_after: 55.5,
            wall_us: 1834,
            cached: false,
            shard: 2,
            batch: 3,
        });
        assert_eq!(parse_response(&ok.to_json()).unwrap(), ok);

        let err = Response::err(Some("x".into()), ErrorKind::ModuleTooLarge, "1 MiB cap");
        assert_eq!(parse_response(&err.to_json()).unwrap(), err);
        let anon = Response::err(None, ErrorKind::Parse, "bad line");
        assert_eq!(parse_response(&anon.to_json()).unwrap(), anon);
    }

    #[test]
    fn response_strictness() {
        let base = Response::err(Some("x".into()), ErrorKind::Internal, "m").to_json();
        assert!(parse_response(&base).is_ok());
        let cases: &[&str] = &[
            r#"{"id":"x","ok":true}"#,
            r#"{"id":"x","ok":false,"error":{"kind":"nope","message":"m"}}"#,
            r#"{"id":"x","ok":false,"error":{"kind":"parse"}}"#,
            r#"{"id":"x","ok":false,"error":{"kind":"parse","message":"m","x":1}}"#,
            r#"{"id":"x","ok":"yes"}"#,
            r#"{"id":7,"ok":false,"error":{"kind":"parse","message":"m"}}"#,
        ];
        for line in cases {
            assert!(parse_response(line).is_err(), "should reject {line}");
        }
    }

    /// `MODULE` as a wire line carries it.
    macro_rules! module_wire {
        () => {
            concat!(
                r#""module \"q\\\"t\"\nfn @main() -> i64 internal {\nbb0:\n\tret 0:i64 ; \\ \u0001\u001f\b\f\r"#,
                "\u{7f}",
                r#" é→😀 /\n}\n""#
            )
        };
    }

    /// A module name and body with quotes, backslashes, control bytes,
    /// DEL and multi-byte characters.
    const MODULE: &str = "module \"q\\\"t\"\nfn @main() -> i64 internal {\nbb0:\n\tret 0:i64 ; \\ \u{1}\u{1f}\u{8}\u{c}\r\u{7f} é→😀 /\n}\n";
    const ID: &str = "r\"1\\\n";

    fn ok_response(id: &str, cached: bool) -> OkResponse {
        OkResponse {
            id: id.into(),
            module: MODULE.into(),
            actions: vec![23, 0, 7],
            size_before: 940,
            size_after: 830,
            cycles_before: 61.25,
            cycles_after: 55.0,
            wall_us: 1834,
            cached,
            shard: 1,
            batch: u64::from(!cached),
        }
    }

    /// Wire lines are pinned byte for byte: a faster encoder must write
    /// exactly what clients have always read.
    #[test]
    fn golden_wire_lines() {
        let req = Request {
            id: ID.into(),
            module: MODULE.into(),
            arch: TargetArch::AArch64,
            max_steps: Some(7),
        };
        let cases = [
            (
                req.to_json(),
                concat!(
                    r#"{"id":"r\"1\\\n","module":"#,
                    module_wire!(),
                    r#","arch":"aarch64","max_steps":7}"#
                ),
            ),
            (
                Request {
                    arch: TargetArch::X86_64,
                    max_steps: None,
                    ..req.clone()
                }
                .to_json(),
                concat!(
                    r#"{"id":"r\"1\\\n","module":"#,
                    module_wire!(),
                    r#","arch":"x86-64"}"#
                ),
            ),
            (
                Response::Ok(ok_response(ID, false)).to_json(),
                concat!(
                    r#"{"id":"r\"1\\\n","ok":true,"module":"#,
                    module_wire!(),
                    r#","actions":[23,0,7],"size_before":940,"size_after":830,"cycles_before":61.25,"cycles_after":55.0,"wall_us":1834,"cached":false,"shard":1,"batch":1}"#
                ),
            ),
            (
                // a store hit: the stored response under a new id
                Response::Ok(ok_response("again\t", true)).to_json(),
                concat!(
                    r#"{"id":"again\t","ok":true,"module":"#,
                    module_wire!(),
                    r#","actions":[23,0,7],"size_before":940,"size_after":830,"cycles_before":61.25,"cycles_after":55.0,"wall_us":1834,"cached":true,"shard":1,"batch":0}"#
                ),
            ),
            (
                Response::err(
                    Some(ID.into()),
                    ErrorKind::BadModule,
                    "module does not parse: \"x\\y\"\n\u{2}",
                )
                .to_json(),
                r#"{"id":"r\"1\\\n","ok":false,"error":{"kind":"bad-module","message":"module does not parse: \"x\\y\"\n\u0002"}}"#,
            ),
            (
                Response::err(None, ErrorKind::Parse, "expected `,` or `}` at offset 9").to_json(),
                r#"{"id":null,"ok":false,"error":{"kind":"parse","message":"expected `,` or `}` at offset 9"}}"#,
            ),
        ];
        for (got, want) in cases {
            assert_eq!(got, want);
        }
        assert_eq!(parse_request(&req.to_json()).unwrap(), req);
    }

    /// Parse errors reach clients as the error `message`, so their text
    /// is pinned too.
    #[test]
    fn golden_parse_error_texts() {
        let cases = [
            ("", "expected a JSON value at offset 0"),
            ("{", "expected `\"` at offset 1"),
            (
                r#"{"id":"a","module":"m""#,
                "expected `,` or `}` at offset 22",
            ),
            (
                r#"{"id":"a","module":"m"} trailing"#,
                "trailing characters at offset 24",
            ),
            ("nul", "expected `null` at offset 0"),
            (r#""\x""#, "unknown escape at offset 3"),
            (r#""\u12""#, "truncated \\u escape at offset 3"),
            (r#""\u12g4""#, "invalid \\u escape at offset 3"),
            (r#""\ud800x""#, "expected `\\` at offset 7"),
            ("[1,]", "expected a JSON value at offset 3"),
            (r#"{"a" 1}"#, "expected `:` at offset 5"),
            ("-", "invalid number at offset 1"),
            ("1e", "invalid number at offset 2"),
            (r#""abc"#, "unterminated string at offset 4"),
            ("\"\\", "unterminated escape at offset 2"),
        ];
        for (line, message) in cases {
            let want = ProtocolError::new(ErrorKind::Parse, message);
            assert_eq!(parse_request(line).unwrap_err(), want, "{line}");
            assert_eq!(parse_response(line).unwrap_err(), want, "{line}");
        }
    }

    #[test]
    fn error_kinds_round_trip() {
        for k in ErrorKind::ALL {
            assert_eq!(ErrorKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(ErrorKind::parse("bogus"), None);
    }
}
