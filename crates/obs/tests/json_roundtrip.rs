//! Property test: every JSON line `Event::to_json` can emit parses back —
//! via the crate's own RFC 8259 parser — to the exact event that produced
//! it. Kinds, keys and string values are drawn to include quotes,
//! backslashes, control characters and non-BMP code points; floats are
//! drawn from raw bit patterns so NaN, infinities and subnormals are all
//! exercised.
//!
//! The same lines, truncated and with single bytes overwritten, also
//! check that the two front ends of the parser — the tree-building
//! `JsonValue::parse` and the borrowing `visit_object` — accept the same
//! documents, see the same members, and fail with the same `JsonError`.

use proptest::prelude::*;
use secloc_obs::json::{visit_object, JsonRef, JsonValue};
use secloc_obs::{Event, SpanContext, Value};

/// Characters that historically break hand-rolled JSON escapers.
const NASTY: &[char] = &[
    '"',
    '\\',
    '\n',
    '\r',
    '\t',
    '\u{08}',
    '\u{0C}',
    '\u{00}',
    '\u{01}',
    '\u{1F}',
    '\u{7F}',
    '/',
    ' ',
    'α',
    'τ',
    '→',
    '🚀',
    '\u{FFFD}',
    '\u{10FFFF}',
];

/// Maps one raw draw to a char, biased heavily toward the nasty set.
fn char_from(raw: u32) -> char {
    if !raw.is_multiple_of(3) {
        NASTY[(raw / 3) as usize % NASTY.len()]
    } else {
        // Skip the surrogate gap; anything else is a valid scalar value.
        char::from_u32((raw / 3) % 0x11_0000).unwrap_or('\u{FFFD}')
    }
}

fn string_from(raws: &[u32]) -> String {
    raws.iter().map(|&r| char_from(r)).collect()
}

/// One generated field: a key and a value covering every `Value` variant.
fn build_value(selector: u8, payload: u64, raws: &[u32]) -> Value {
    match selector % 5 {
        0 => Value::U64(payload),
        1 => Value::I64(payload as i64),
        // From raw bits: hits NaN, ±inf, -0.0, subnormals, and every
        // finite magnitude.
        2 => Value::F64(f64::from_bits(payload)),
        3 => Value::Bool(payload.is_multiple_of(2)),
        _ => Value::Str(string_from(raws)),
    }
}

/// Asserts that `parsed` is the JSON image of `value`.
fn assert_value_matches(parsed: &JsonValue, value: &Value) {
    match value {
        Value::U64(v) => assert_eq!(parsed.as_u64(), Some(*v), "u64 must survive exactly"),
        Value::I64(v) => match parsed {
            JsonValue::Number(n) => assert_eq!(n.raw().parse::<i64>(), Ok(*v)),
            other => panic!("i64 parsed as {other:?}"),
        },
        Value::F64(v) if v.is_finite() => {
            let back = parsed.as_f64().expect("finite f64 must parse as number");
            assert_eq!(
                back.to_bits(),
                v.to_bits(),
                "finite f64 must round-trip bit-exactly ({v} vs {back})"
            );
        }
        Value::F64(_) => assert_eq!(
            parsed,
            &JsonValue::Null,
            "non-finite f64 serializes as null"
        ),
        Value::Bool(v) => assert_eq!(parsed.as_bool(), Some(*v)),
        Value::Str(v) => assert_eq!(parsed.as_str(), Some(v.as_str())),
    }
}

/// Asserts that `visit_object` and `JsonValue::parse` agree on `doc`.
fn assert_same_grammar(doc: &str) {
    let mut visited = Vec::new();
    let result = visit_object(doc, |key, value| visited.push((key, value)));
    match (result, JsonValue::parse(doc)) {
        (Ok(is_object), Ok(tree)) => {
            let members = tree.as_object().unwrap_or(&[]);
            assert_eq!(is_object, tree.as_object().is_some(), "{doc:?}");
            assert_eq!(visited.len(), members.len(), "{doc:?}");
            for ((key, value), (tree_key, tree_value)) in visited.iter().zip(members) {
                assert_eq!(key, tree_key, "{doc:?}");
                let same = match (value, tree_value) {
                    (JsonRef::Null, JsonValue::Null) => true,
                    (JsonRef::Bool(a), JsonValue::Bool(b)) => a == b,
                    (JsonRef::Number(a), JsonValue::Number(b)) => *a == b.raw(),
                    (JsonRef::String(a), JsonValue::String(b)) => a == b,
                    (JsonRef::Array, JsonValue::Array(_)) => true,
                    (JsonRef::Object, JsonValue::Object(_)) => true,
                    _ => false,
                };
                assert!(
                    same,
                    "member {key:?}: {value:?} vs {tree_value:?} in {doc:?}"
                );
            }
        }
        (Err(visit), Err(parse)) => assert_eq!(visit, parse, "{doc:?}"),
        (visit, parse) => panic!("front ends disagree on {doc:?}: {visit:?} vs {parse:?}"),
    }
}

#[test]
fn front_ends_agree_on_a_grammar_corpus() {
    for doc in [
        "",
        " ",
        "{",
        "}",
        "{}",
        " {} ",
        "[]",
        "[",
        "[1,]",
        "[1 2]",
        "{\"a\"}",
        "{\"a\":}",
        "{\"a\":1,}",
        "{\"a\":1 \"b\":2}",
        "{a:1}",
        "{\"a\":1}}",
        "{\"a\":1} x",
        "{\"a\":[1,{\"b\":[true,false,null]}],\"c\":{}}",
        "{\"a\":{\"b\":{\"c\":[[]]}}}",
        "{\"a\":[1,{\"b\":]}",
        "{\"a\":\"\\u00e9\\n\"}",
        "{\"\\ud83d\\ude80\":1}",
        "{\"a\":\"\\ud83d\"}",
        "{\"a\":\"\\udc00\"}",
        "{\"a\":\"\\u+041\"}",
        "{\"a\":\"\\q\"}",
        "{\"a\":\"\u{1}\"}",
        "{\"a\":01}",
        "{\"a\":-}",
        "{\"a\":1.}",
        "{\"a\":1e+}",
        "{\"a\":-0.5E-3}",
        "{\"a\":tru}",
        "{\"a\":nul}",
        "{\"a\":1,\"a\":2}",
        "\t{\r\n\"a\" : [ 1 , 2 ] }\n",
        "42",
        "\"s\"",
        "null",
        " true ",
        "[{}]",
        "[{]",
        "{\"a\":[1,]}",
    ] {
        assert_same_grammar(doc);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn front_ends_agree_on_damaged_event_lines(
        kind_raws in proptest::collection::vec(any::<u32>(), 0..6),
        fields in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u32>(), 0..6),
                any::<u8>(),
                any::<u64>(),
                proptest::collection::vec(any::<u32>(), 0..8),
            ),
            0..6,
        ),
        cut in any::<u64>(),
        flip_at in any::<u64>(),
        flip_to in 0u8..0x80,
    ) {
        let built: Vec<(String, Value)> = fields
            .iter()
            .map(|(key_raws, sel, payload, str_raws)| {
                (string_from(key_raws), build_value(*sel, *payload, str_raws))
            })
            .collect();
        let borrowed: Vec<(&str, Value)> = built
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let line = Event::new(&string_from(&kind_raws), &borrowed).to_json();
        assert_same_grammar(&line);
        // Truncated at a char boundary.
        let mut end = (cut % (line.len() as u64 + 1)) as usize;
        while !line.is_char_boundary(end) {
            end -= 1;
        }
        assert_same_grammar(&line[..end]);
        // One byte overwritten with an ASCII byte (skipped when that
        // breaks UTF-8).
        let mut bytes = line.clone().into_bytes();
        let at = (flip_at % bytes.len() as u64) as usize;
        bytes[at] = flip_to;
        if let Ok(flipped) = String::from_utf8(bytes) {
            assert_same_grammar(&flipped);
        }
    }

    #[test]
    fn every_event_line_round_trips(
        kind_raws in proptest::collection::vec(any::<u32>(), 0..12),
        fields in proptest::collection::vec(
            (
                proptest::collection::vec(any::<u32>(), 0..8),
                any::<u8>(),
                any::<u64>(),
                proptest::collection::vec(any::<u32>(), 0..16),
            ),
            0..8,
        ),
        has_ctx in any::<bool>(),
        trace_id in any::<u64>(),
        span_name_raw in any::<u32>(),
        has_parent in any::<bool>(),
    ) {
        let built: Vec<(String, Value)> = fields
            .iter()
            .map(|(key_raws, sel, payload, str_raws)| {
                (string_from(key_raws), build_value(*sel, *payload, str_raws))
            })
            .collect();
        let borrowed: Vec<(&str, Value)> = built
            .iter()
            .map(|(k, v)| (k.as_str(), v.clone()))
            .collect();
        let mut event = Event::new(&string_from(&kind_raws), &borrowed);
        if has_ctx {
            let root = SpanContext::root(trace_id);
            event.ctx = Some(if has_parent {
                root.child(&char_from(span_name_raw).to_string())
            } else {
                root
            });
        }

        let line = event.to_json();
        let parsed = JsonValue::parse(&line)
            .unwrap_or_else(|err| panic!("invalid JSON emitted: {err}\nline: {line}"));

        // Fixed prefix: kind, seq, then the optional trace coordinates.
        let members = parsed.as_object().expect("event serializes as an object");
        prop_assert_eq!(members[0].0.as_str(), "kind");
        prop_assert_eq!(members[0].1.as_str(), Some(event.kind.as_str()));
        prop_assert_eq!(members[1].0.as_str(), "seq");
        prop_assert_eq!(members[1].1.as_u64(), Some(event.seq));
        let mut next = 2;
        if let Some(ctx) = event.ctx {
            prop_assert_eq!(members[next].0.as_str(), "trace");
            prop_assert_eq!(
                members[next].1.as_str(),
                Some(format!("{:016x}", ctx.trace_id).as_str())
            );
            prop_assert_eq!(members[next + 1].0.as_str(), "span");
            prop_assert_eq!(
                members[next + 1].1.as_str(),
                Some(format!("{:016x}", ctx.span_id).as_str())
            );
            next += 2;
            if let Some(parent) = ctx.parent_id {
                prop_assert_eq!(members[next].0.as_str(), "parent");
                prop_assert_eq!(
                    members[next].1.as_str(),
                    Some(format!("{parent:016x}").as_str())
                );
                next += 1;
            }
        }

        // Then the fields, positionally (duplicate keys are legal in an
        // event and the parser preserves them in order).
        prop_assert_eq!(members.len() - next, event.fields.len());
        for (member, (key, value)) in members[next..].iter().zip(&event.fields) {
            prop_assert_eq!(member.0.as_str(), key.as_str());
            assert_value_matches(&member.1, value);
        }
    }
}
