//! Parity of the borrowed wire decoder with the tree-building decoder it
//! replaced: on recorded lines and on every kind of damage to them, the
//! two return an equal `Ok` event or an equal `Err` reason.

mod common;

use proptest::prelude::*;
use secloc_alerter::{parse_line, WireEvent};
use secloc_obs::json::{push_json_string, JsonValue};
use std::borrow::Cow;
use std::sync::OnceLock;

/// The decoder as it was before wire decoding went borrowed: build the
/// whole `JsonValue` tree, then read fields with `get` (first
/// occurrence wins). Kept here, outside `src`, only as the oracle.
mod oracle {
    use super::*;

    fn str_of(v: Option<&JsonValue>) -> Option<Cow<'static, str>> {
        v.and_then(|v| v.as_str())
            .map(|s| Cow::Owned(s.to_string()))
    }

    fn u32_of(v: Option<&JsonValue>, field: &str) -> Result<u32, String> {
        let raw = v
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("missing or non-u64 \"{field}\""))?;
        u32::try_from(raw).map_err(|_| format!("\"{field}\" {raw} exceeds u32"))
    }

    fn deployment_of(obj: &JsonValue) -> Option<Cow<'static, str>> {
        str_of(obj.get("cell")).or_else(|| str_of(obj.get("deployment")))
    }

    pub(crate) fn parse_line(line: &str) -> Result<WireEvent<'static>, String> {
        let obj = JsonValue::parse(line).map_err(|e| format!("invalid JSON: {e}"))?;
        if obj.as_object().is_none() {
            return Err("line is not a JSON object".to_string());
        }
        let kind = obj
            .get("kind")
            .and_then(|k| k.as_str())
            .ok_or_else(|| "missing or non-string \"kind\"".to_string())?;
        match kind {
            "cell.start" | "deploy.start" => {
                let deployment = deployment_of(&obj)
                    .ok_or_else(|| format!("{kind} missing \"cell\"/\"deployment\""))?;
                let maybe_u32 = |field: &str| -> Result<Option<u32>, String> {
                    match obj.get(field) {
                        None => Ok(None),
                        some => u32_of(some, field).map(Some),
                    }
                };
                Ok(WireEvent::DeployStart {
                    deployment,
                    tau: maybe_u32("tau")?,
                    tau_prime: maybe_u32("tau_prime")?,
                    seed: obj.get("seed").and_then(|v| v.as_u64()),
                })
            }
            "bs.alert" | "alert" => Ok(WireEvent::Accusation {
                deployment: deployment_of(&obj),
                reporter: u32_of(obj.get("reporter"), "reporter")?,
                target: u32_of(obj.get("target"), "target")?,
                source: str_of(obj.get("source")),
                recorded_outcome: str_of(obj.get("outcome")),
            }),
            "revocation" => Ok(WireEvent::RecordedRevocation {
                deployment: deployment_of(&obj),
                target: u32_of(obj.get("target"), "target")?,
            }),
            "cell.complete" | "deploy.end" => Ok(WireEvent::DeployEnd {
                deployment: deployment_of(&obj),
                cache: str_of(obj.get("cache")),
            }),
            _ => Ok(WireEvent::Ignored),
        }
    }
}

fn recorded() -> &'static [String] {
    static LINES: OnceLock<Vec<String>> = OnceLock::new();
    LINES.get_or_init(common::recorded_lines)
}

/// One line of each kind the alerter reads, plus one it ignores.
fn samples() -> Vec<&'static str> {
    common::first_of_each(
        recorded(),
        &[
            "cell.start",
            "bs.alert",
            "revocation",
            "cell.complete",
            "phase",
        ],
    )
}

fn assert_parity(line: &str) {
    assert_eq!(
        parse_line(line),
        oracle::parse_line(line),
        "decoders disagree on {line:?}"
    );
}

#[test]
fn recorded_lines_decode_identically() {
    let lines = recorded();
    assert!(lines
        .iter()
        .any(|l| common::str_field(l, "kind") == "revocation"));
    for line in lines {
        assert_parity(line);
        assert!(parse_line(line).is_ok(), "recorded line rejected: {line}");
    }
}

#[test]
fn truncation_at_every_offset() {
    for line in samples() {
        for end in (0..line.len()).filter(|&i| line.is_char_boundary(i)) {
            assert_parity(&line[..end]);
        }
    }
}

#[test]
fn single_byte_flips() {
    // Every position, overwritten with each byte that matters to the
    // grammar (plus a plain letter and a control byte). All are ASCII, so
    // the damaged line stays a `str`.
    let replacements = b"\"\\{}[]:,0129-.eEtfnu x\n\t\x01\x7f";
    for line in samples() {
        for pos in 0..line.len() {
            for &b in replacements {
                let mut bytes = line.as_bytes().to_vec();
                bytes[pos] = b;
                if let Ok(flipped) = String::from_utf8(bytes) {
                    assert_parity(&flipped);
                }
            }
        }
    }
}

#[test]
fn non_object_documents() {
    for doc in [
        "[1,2,3]",
        "[{\"kind\":\"alert\",\"reporter\":1,\"target\":2}]",
        "42",
        "-0.5e3",
        "\"bs.alert\"",
        "null",
        "true",
        " false ",
        "",
        "   ",
        "{}",
        "{} {}",
    ] {
        assert_parity(doc);
    }
}

#[test]
fn escapes_duplicates_and_nested_values() {
    for line in [
        r#"{"kind":"bs.alert","cell":"cell-\"7\"","reporter":1,"target":2,"source":"det\/ection","outcome":"accepted"}"#,
        r#"{"kind":"alert","deployment":"🚀","reporter":1,"target":2}"#,
        r#"{"kind":"alert","deployment":"a\nb","reporter":1,"target":2}"#,
        r#"{"kind":"alert","reporter":1,"reporter":"x","target":2}"#,
        r#"{"kind":"alert","reporter":"x","reporter":1,"target":2}"#,
        r#"{"kind":"phase","kind":"alert","reporter":1,"target":2}"#,
        r#"{"kind":"alert","cell":5,"deployment":"d","reporter":1,"target":2}"#,
        r#"{"kind":"alert","cell":"c","cell":"d","reporter":1,"target":2}"#,
        r#"{"kind":"cell.start","cell":"c","tau":[2],"tau_prime":2}"#,
        r#"{"kind":"cell.start","cell":{"id":"c"},"deployment":"d","tau":2}"#,
        r#"{"kind":"cell.start","cell":"c","tau":null}"#,
        r#"{"kind":"cell.start","cell":"c","seed":-1,"tau":2.0}"#,
        r#"{"kind":"bs.alert","nested":{"kind":"x","a":[1,{"b":[]}]},"reporter":1,"target":2}"#,
        r#"{"kind":"revocation","target":18446744073709551616}"#,
        r#"{"kind":"cell.complete","cell":"c","cache":{"hit":true}}"#,
        r#"{"kind":{"nested":"alert"}}"#,
        r#"{"kind":"alert","reporter":1,"target":2,"source":"\x"}"#,
    ] {
        assert_parity(line);
    }
}

#[test]
fn keys_one_byte_off_a_read_name_decode_identically() {
    // A key one byte off a name the decoder reads, at any position, or one
    // byte longer or shorter, must read as a member it ignores.
    let names = [
        "kind",
        "cell",
        "deployment",
        "tau",
        "tau_prime",
        "seed",
        "reporter",
        "target",
        "source",
        "outcome",
        "cache",
    ];
    let live = [
        r#"{"kind":"deploy.start","deployment":"d","tau":1,"tau_prime":0,"seed":3}"#,
        r#"{"kind":"deploy.end","deployment":"d","cache":"miss"}"#,
    ];
    for line in samples().into_iter().chain(live) {
        for name in names {
            let member = format!("\"{name}\":");
            if !line.contains(&member) {
                continue;
            }
            let mut variants = vec![format!("{name}s"), name[1..].to_string()];
            for pos in 0..name.len() {
                for b in [b'a', b'k', b's', b't', b'_'] {
                    let mut off = name.as_bytes().to_vec();
                    off[pos] = b;
                    variants.push(String::from_utf8(off).expect("ASCII"));
                }
            }
            for variant in variants.iter().filter(|v| v.as_str() != name) {
                assert_parity(&line.replacen(&member, &format!("\"{variant}\":"), 1));
            }
        }
    }
}

/// A small deterministic generator for the proptest's choices.
struct Choices(u64);

impl Choices {
    fn next(&mut self) -> u64 {
        // xorshift64*
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn one_in(&mut self, n: u64) -> bool {
        self.next().is_multiple_of(n)
    }
}

/// `s` as a JSON string with some characters written as escapes.
fn escaped(s: &str, c: &mut Choices) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        if c.one_in(3) {
            match ch {
                '/' => out.push_str("\\/"),
                ch if (ch as u32) < 0x1_0000 => out.push_str(&format!("\\u{:04x}", ch as u32)),
                ch => {
                    let mut units = [0u16; 2];
                    for unit in ch.encode_utf16(&mut units) {
                        out.push_str(&format!("\\u{unit:04X}"));
                    }
                }
            }
        } else {
            let mut plain = String::new();
            push_json_string(&mut plain, &ch.to_string());
            out.push_str(&plain[1..plain.len() - 1]);
        }
    }
    out.push('"');
    out
}

/// Re-renders a recorded object with escaped keys and strings, nested
/// and duplicated members chosen by `c`.
fn mangle(line: &str, c: &mut Choices) -> String {
    let tree = JsonValue::parse(line).expect("recorded lines are JSON");
    let members = tree.as_object().expect("recorded lines are objects");
    let scalar = |v: &JsonValue, c: &mut Choices| match v {
        JsonValue::String(s) => escaped(s, c),
        JsonValue::Number(n) => n.raw().to_string(),
        JsonValue::Bool(b) => b.to_string(),
        _ => "null".to_string(),
    };
    let mut parts = Vec::new();
    for (key, value) in members {
        let mut value = scalar(value, c);
        if c.one_in(8) {
            value = match c.next() % 3 {
                0 => format!("[{value}]"),
                1 => format!("{{\"v\":{value}}}"),
                _ => format!("[[],{{}},{value}]"),
            };
        }
        let member = format!("{}:{value}", escaped(key, c));
        if c.one_in(8) {
            // A duplicate of this key, before or after it, with another
            // value (which one the decoder keeps is what is under test).
            let other = match c.next() % 4 {
                0 => "\"dup\"".to_string(),
                1 => (c.next() % 70).to_string(),
                2 => "{\"x\":1}".to_string(),
                _ => "null".to_string(),
            };
            let dup = format!("{}:{other}", escaped(key, c));
            if c.one_in(2) {
                parts.push(dup);
                parts.push(member);
            } else {
                parts.push(member);
                parts.push(dup);
            }
        } else {
            parts.push(member);
        }
    }
    let doc = format!("{{{}}}", parts.join(","));
    if c.one_in(16) {
        format!("[{doc}]")
    } else {
        doc
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mangled_recorded_lines_decode_identically(pick in any::<u64>(), seed in any::<u64>()) {
        let lines = recorded();
        let line = &lines[(pick % lines.len() as u64) as usize];
        let mut choices = Choices(seed | 1);
        let mangled = mangle(line, &mut choices);
        prop_assert_eq!(parse_line(&mangled), oracle::parse_line(&mangled), "on {}", mangled);
    }
}
