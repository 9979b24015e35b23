//! Property tests for the wire protocol: round-trips through serde for
//! arbitrary values, and a malformed-input corpus that must produce
//! structured errors — never a panic (PR-5's fail-fast convention).
//!
//! The JSON kernels underneath are checked byte for byte: the run-based
//! string writer against the per-character escaper it replaced, and the
//! `Value` entry points (`Display`, `FromStr`) against the generic ones.

use posetrl_serve::protocol::{
    parse_request, parse_response, ErrResponse, ErrorKind, OkResponse, ProtocolError, Request,
    Response,
};
use posetrl_target::TargetArch;
use proptest::prelude::*;
use serde_json::{Number, Value};

/// Strings exercising escapes, unicode, and JSON-ish noise.
fn string_from(seed: u64, len: usize) -> String {
    const ALPHABET: &[char] = &[
        'a', 'Z', '0', '_', '-', ' ', '"', '\\', '\n', '\t', '{', '}', '[', ']', ':', ',', 'é',
        '→', '\u{1}',
    ];
    string_over(ALPHABET, seed, len)
}

/// Every byte the writer escapes (0x00–0x1f, `"`, `\`), the neighbours
/// it must not escape (`/`, DEL), and 1- to 4-byte UTF-8.
fn escape_alphabet() -> Vec<char> {
    let mut alphabet: Vec<char> = (0u8..0x20).map(char::from).collect();
    alphabet.extend(['"', '\\', '/', '\u{7f}', 'a', ' ', 'é', '→', '😀']);
    alphabet
}

/// A string of `len` characters drawn from `alphabet` by an xorshift
/// stream seeded with `seed`.
fn string_over(alphabet: &[char], seed: u64, len: usize) -> String {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            alphabet[(state % alphabet.len() as u64) as usize]
        })
        .collect()
}

/// The per-character string escaper the run-based writer replaced, kept
/// as the reference its output must match byte for byte.
fn write_string_reference(s: &str) -> String {
    let mut out = String::from('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `\uXXXX` for `c`, as a surrogate pair above the basic plane, with
/// upper- or lowercase hex digits.
fn unicode_escape(c: char, upper: bool) -> String {
    let mut units = [0u16; 2];
    c.encode_utf16(&mut units)
        .iter()
        .map(|u| {
            if upper {
                format!("\\u{u:04X}")
            } else {
                format!("\\u{u:04x}")
            }
        })
        .collect()
}

/// A `Value` tree of every kind: nested objects and arrays, numbers of
/// each representation and strings over the escape alphabet.
fn value_from(seed: u64, depth: u32) -> Value {
    let alphabet = escape_alphabet();
    let text = |k: u64| Value::String(string_over(&alphabet, seed ^ k, (seed % 17) as usize));
    let mut fields = vec![
        ("s".to_string(), text(1)),
        (
            "i".to_string(),
            Value::Number(Number::I64(-(seed as i64 >> 3))),
        ),
        ("u".to_string(), Value::Number(Number::U64(seed | 1 << 63))),
        (
            "f".to_string(),
            Value::Number(Number::F64(finite_f64(seed))),
        ),
        ("b".to_string(), Value::Bool(seed & 1 == 0)),
        ("n".to_string(), Value::Null),
        (
            string_over(&alphabet, seed, 5),
            Value::Array(vec![text(2), text(3)]),
        ),
    ];
    if depth > 0 {
        fields.push(("o".to_string(), value_from(seed.rotate_left(7), depth - 1)));
    }
    Value::Object(fields)
}

/// Finite, exactly-representable floats (NaN/Inf are not representable in
/// JSON and the vendored writer emits them as null).
fn finite_f64(bits: u64) -> f64 {
    let v = (bits % 1_000_000_007) as f64 / 128.0;
    if bits & 1 == 0 {
        v
    } else {
        -v
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn request_round_trips(
        id_seed in any::<u64>(),
        id_len in 0usize..24,
        mod_seed in any::<u64>(),
        mod_len in 0usize..200,
        arch_flip in any::<bool>(),
        has_steps in any::<bool>(),
        steps in any::<u64>(),
    ) {
        let req = Request {
            id: string_from(id_seed, id_len),
            module: string_from(mod_seed, mod_len),
            arch: if arch_flip { TargetArch::AArch64 } else { TargetArch::X86_64 },
            max_steps: has_steps.then_some(steps),
        };
        let line = req.to_json();
        prop_assert!(!line.contains('\n'), "wire lines must be single-line");
        let back = parse_request(&line).expect("own serialization must parse");
        prop_assert_eq!(back, req);
    }

    #[test]
    fn ok_response_round_trips(
        id_seed in any::<u64>(),
        mod_seed in any::<u64>(),
        mod_len in 0usize..200,
        actions in prop::collection::vec(0u64..64, 0..20),
        size_a in any::<u64>(),
        size_b in any::<u64>(),
        cyc_a in any::<u64>(),
        cyc_b in any::<u64>(),
        wall in any::<u64>(),
        cached in any::<bool>(),
        shard in 0u64..64,
        batch in 0u64..128,
    ) {
        let resp = Response::Ok(OkResponse {
            id: string_from(id_seed, 8),
            module: string_from(mod_seed, mod_len),
            actions,
            size_before: size_a,
            size_after: size_b,
            cycles_before: finite_f64(cyc_a),
            cycles_after: finite_f64(cyc_b),
            wall_us: wall,
            cached,
            shard,
            batch,
        });
        let line = resp.to_json();
        prop_assert!(!line.contains('\n'));
        let back = parse_response(&line).expect("own serialization must parse");
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn err_response_round_trips(
        has_id in any::<bool>(),
        id_seed in any::<u64>(),
        kind_idx in 0usize..9,
        msg_seed in any::<u64>(),
        msg_len in 0usize..120,
    ) {
        let resp = Response::Err(ErrResponse {
            id: has_id.then(|| string_from(id_seed, 10)),
            error: ProtocolError::new(
                ErrorKind::ALL[kind_idx],
                string_from(msg_seed, msg_len),
            ),
        });
        let back = parse_response(&resp.to_json()).expect("own serialization must parse");
        prop_assert_eq!(back, resp);
    }

    #[test]
    fn run_writer_matches_the_reference_escaper(seed in any::<u64>(), len in 0usize..300) {
        let s = string_over(&escape_alphabet(), seed, len);
        let want = write_string_reference(&s);
        prop_assert_eq!(serde_json::to_string(&s).unwrap(), want.clone());
        prop_assert_eq!(Value::String(s.clone()).to_string(), want.clone());
        // parse(encode(s)) == s, through both parse entry points
        prop_assert_eq!(serde_json::from_str::<String>(&want).unwrap(), s.clone());
        prop_assert_eq!(want.parse::<Value>().unwrap(), Value::String(s));
    }

    #[test]
    fn unicode_escapes_decode(cp in any::<u32>(), upper in any::<bool>(), seed in any::<u64>()) {
        // any scalar value, surrogate pairs included, between plain runs
        let c = char::from_u32(cp % 0x11_0000).unwrap_or('\u{fffd}');
        let run = string_over(&['a', 'é', '😀', '/'], seed, (seed % 5) as usize);
        let line = format!("\"{run}{}{run}\"", unicode_escape(c, upper));
        let want = format!("{run}{c}{run}");
        prop_assert_eq!(line.parse::<Value>().unwrap(), Value::String(want));
    }

    #[test]
    fn value_entry_points_match_the_generic_ones(seed in any::<u64>(), depth in 0u32..3) {
        let v = value_from(seed, depth);
        let text = v.to_string();
        prop_assert_eq!(text.clone(), serde_json::to_string(&v).unwrap());
        prop_assert_eq!(text.parse::<Value>().unwrap(), v.clone());
        prop_assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), v);
    }

    #[test]
    fn value_parse_matches_from_str_on_noise(seed in any::<u64>(), len in 0usize..200) {
        // the same value or the same error text, which reaches clients as
        // the error `message`
        let mut noise = string_from(seed, len);
        noise.push_str(&string_over(&escape_alphabet(), seed, len / 4));
        prop_assert_eq!(noise.parse::<Value>(), serde_json::from_str::<Value>(&noise));
    }

    #[test]
    fn arbitrary_input_never_panics(
        seed in any::<u64>(),
        len in 0usize..300,
        truncate_at in 0usize..300,
    ) {
        // arbitrary noise, plus truncated valid requests
        let noise = string_from(seed, len);
        let _ = parse_request(&noise);
        let _ = parse_response(&noise);
        let valid = Request {
            id: "t".into(),
            module: string_from(seed, 64),
            arch: TargetArch::X86_64,
            max_steps: Some(seed % 32),
        }
        .to_json();
        let cut: String = valid.chars().take(truncate_at).collect();
        if cut.len() < valid.len() {
            prop_assert!(parse_request(&cut).is_err(), "truncated JSON must be an error");
        }
        let _ = parse_response(&cut);
    }
}

#[test]
fn malformed_corpus_yields_structured_errors() {
    // (input, expected kind) — the fixed malformed-input corpus from the
    // issue: truncated JSON, oversized module (server-side test), unknown
    // fields, plus type and duplicate-key attacks.
    let corpus: &[(&str, ErrorKind)] = &[
        ("", ErrorKind::Parse),
        ("{", ErrorKind::Parse),
        (r#"{"id":"a","module":"m""#, ErrorKind::Parse),
        (r#"{"id":"a","module":"m"} trailing"#, ErrorKind::Parse),
        ("null", ErrorKind::BadValue),
        ("42", ErrorKind::BadValue),
        (r#""just a string""#, ErrorKind::BadValue),
        (
            r#"{"id":"a","module":"m","surprise":true}"#,
            ErrorKind::UnknownField,
        ),
        (
            r#"{"id":"a","module":"m","MODULE":"m"}"#,
            ErrorKind::UnknownField,
        ),
        (r#"{"module":"m"}"#, ErrorKind::MissingField),
        (r#"{"id":"a"}"#, ErrorKind::MissingField),
        ("{}", ErrorKind::MissingField),
        (r#"{"id":null,"module":"m"}"#, ErrorKind::BadValue),
        (r#"{"id":"a","module":["m"]}"#, ErrorKind::BadValue),
        (r#"{"id":"a","module":"m","arch":86}"#, ErrorKind::BadValue),
        (
            r#"{"id":"a","module":"m","arch":"riscv"}"#,
            ErrorKind::BadValue,
        ),
        (
            r#"{"id":"a","module":"m","max_steps":"ten"}"#,
            ErrorKind::BadValue,
        ),
        (r#"{"id":"a","module":"m","module":"n"}"#, ErrorKind::Parse),
    ];
    for (line, kind) in corpus {
        assert_eq!(line.parse::<Value>(), serde_json::from_str::<Value>(line));
        let err = std::panic::catch_unwind(|| parse_request(line))
            .expect("parser must never panic")
            .expect_err("malformed input must be rejected");
        assert_eq!(err.kind, *kind, "input {line:?} produced {err}");
    }
}
