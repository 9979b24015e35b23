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
        let mut fields = vec![
            ("id".to_string(), Value::String(self.id.clone())),
            ("module".to_string(), Value::String(self.module.clone())),
            (
                "arch".to_string(),
                Value::String(self.arch.name().to_string()),
            ),
        ];
        if let Some(n) = self.max_steps {
            fields.push(("max_steps".to_string(), json!(n)));
        }
        serde_json::to_string(&Value::Object(fields)).expect("request serialization is total")
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
            Response::Ok(r) => json!({
                "id": r.id,
                "ok": true,
                "module": r.module,
                "actions": r.actions,
                "size_before": r.size_before,
                "size_after": r.size_after,
                "cycles_before": r.cycles_before,
                "cycles_after": r.cycles_after,
                "wall_us": r.wall_us,
                "cached": r.cached,
                "shard": r.shard,
                "batch": r.batch,
            }),
            Response::Err(r) => {
                let id = match &r.id {
                    Some(s) => Value::String(s.clone()),
                    None => Value::Null,
                };
                json!({
                    "id": id,
                    "ok": false,
                    "error": json!({
                        "kind": r.error.kind.as_str(),
                        "message": r.error.message,
                    }),
                })
            }
        };
        serde_json::to_string(&v).expect("response serialization is total")
    }
}

/// Parses `s` as the target-arch wire spelling.
pub fn parse_arch(s: &str) -> Option<TargetArch> {
    TargetArch::ALL.iter().copied().find(|a| a.name() == s)
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

fn required<'a>(v: &'a Value, key: &str) -> Result<&'a Value, ProtocolError> {
    v.get(key).ok_or_else(|| {
        ProtocolError::new(ErrorKind::MissingField, format!("missing field `{key}`"))
    })
}

fn required_str(v: &Value, key: &str) -> Result<String, ProtocolError> {
    required(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| ProtocolError::new(ErrorKind::BadValue, format!("`{key}` must be a string")))
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

/// Parses one request line strictly.
///
/// # Errors
///
/// Structured [`ProtocolError`]s for malformed JSON, duplicate/unknown/
/// missing fields, and wrong types — never a panic.
pub fn parse_request(line: &str) -> Result<Request, ProtocolError> {
    let v: Value = serde_json::from_str(line)
        .map_err(|e| ProtocolError::new(ErrorKind::Parse, e.to_string()))?;
    let obj = as_strict_object(&v)?;
    reject_unknown(obj, &["id", "module", "arch", "max_steps"])?;
    let id = required_str(&v, "id")?;
    let module = required_str(&v, "module")?;
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
    let v: Value = serde_json::from_str(line)
        .map_err(|e| ProtocolError::new(ErrorKind::Parse, e.to_string()))?;
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
            id: required_str(&v, "id")?,
            module: required_str(&v, "module")?,
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
        let id = match required(&v, "id")? {
            Value::Null => None,
            Value::String(s) => Some(s.clone()),
            _ => {
                return Err(ProtocolError::new(
                    ErrorKind::BadValue,
                    "`id` must be a string or null",
                ))
            }
        };
        let err_v = required(&v, "error")?;
        let err_obj = err_v
            .as_object()
            .ok_or_else(|| ProtocolError::new(ErrorKind::BadValue, "`error` must be an object"))?;
        reject_unknown(err_obj, &["kind", "message"])?;
        let kind_s = required_str(err_v, "kind")?;
        let kind = ErrorKind::parse(&kind_s).ok_or_else(|| {
            ProtocolError::new(
                ErrorKind::BadValue,
                format!("unknown error kind `{kind_s}`"),
            )
        })?;
        Ok(Response::Err(ErrResponse {
            id,
            error: ProtocolError::new(kind, required_str(err_v, "message")?),
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

    #[test]
    fn error_kinds_round_trip() {
        for k in ErrorKind::ALL {
            assert_eq!(ErrorKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(ErrorKind::parse("bogus"), None);
    }
}
