//! Snapshot-container surgery shared by the integration suites: how a
//! test reaches the decoder with a document the typed API refuses to
//! build. Each suite uses part of it.
#![allow(dead_code)]

/// Container bytes before the meta body: magic (8), version (4), payload
/// kind (1), reserved (3), section count (4), then the meta and payload
/// table entries (tag `u32` + byte length `u64` each).
const HEADER_LEN: usize = 44;

/// A container of the current version with an f64 payload kind, holding
/// `meta` as its meta document and `payload` as its payload section.
pub fn wrap(meta: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = b"CERLSNAP".to_vec();
    out.extend_from_slice(&cerl::core::SNAPSHOT_FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // payload kind f64, reserved
    out.extend_from_slice(&2u32.to_le_bytes());
    for (tag, len) in [(1u32, meta.len()), (2, payload.len())] {
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&(len as u64).to_le_bytes());
    }
    out.extend_from_slice(meta.as_bytes());
    out.extend_from_slice(payload);
    out
}

/// Re-wrap an f64-payload `container` after `edit` rewrote its meta
/// document: the snapshot's JSON text, float arrays hoisted into the
/// payload section as `{"$floats": i}` placeholders, scalars inline. The
/// payload section is kept as it was.
pub fn rewrap_meta(container: &[u8], edit: impl FnOnce(&str) -> String) -> Vec<u8> {
    assert_eq!(container[12], 0, "an f64-payload container");
    let meta_len = u64::from_le_bytes(container[24..32].try_into().unwrap()) as usize;
    let (meta, payload) = container[HEADER_LEN..].split_at(meta_len);
    wrap(&edit(std::str::from_utf8(meta).unwrap()), payload)
}

/// `container` (f64 payload) with the first element of the parameter
/// `name` set to `value`.
pub fn with_param_float(container: &[u8], name: &str, value: f64) -> Vec<u8> {
    assert_eq!(container[12], 0, "an f64-payload container");
    with_float(container, &[&format!(r#""name":"{name}""#)], 0, value)
}

/// `container` (f64 or f32 payload) with element `index` of a float array
/// set to `value`: the array whose `{"$floats":k}` placeholder comes first
/// after `needles`, each found in the meta document after the one before
/// (`[r#""memory":"#, r#""y":"#]` names the memory's outcomes). The
/// payload section holds the array count (u32), then each array's length
/// (u64) and its floats, 8 or 4 bytes each.
pub fn with_float(container: &[u8], needles: &[&str], index: usize, value: f64) -> Vec<u8> {
    let width = match container[12] {
        0 => 8,
        1 => 4,
        kind => panic!("payload kind {kind}"),
    };
    let meta_len = u64::from_le_bytes(container[24..32].try_into().unwrap()) as usize;
    let meta = std::str::from_utf8(&container[HEADER_LEN..HEADER_LEN + meta_len]).unwrap();
    let mut at_meta = 0;
    for needle in needles {
        at_meta += meta[at_meta..].find(needle).expect("field in the snapshot") + needle.len();
    }
    let key = r#""$floats":"#;
    let placeholder = &meta[at_meta..][meta[at_meta..].find(key).unwrap() + key.len()..];
    let k: usize = placeholder[..placeholder.find('}').unwrap()]
        .parse()
        .unwrap();
    let mut at = HEADER_LEN + meta_len + 4;
    for _ in 0..k {
        let len = u64::from_le_bytes(container[at..at + 8].try_into().unwrap()) as usize;
        at += 8 + width * len;
    }
    let len = u64::from_le_bytes(container[at..at + 8].try_into().unwrap()) as usize;
    assert!(index < len, "element {index} of a {len}-float array");
    at += 8 + width * index;
    let mut out = container.to_vec();
    match width {
        8 => out[at..at + 8].copy_from_slice(&value.to_le_bytes()),
        _ => out[at..at + 4].copy_from_slice(&(value as f32).to_le_bytes()),
    }
    out
}

/// Float arrays of an f64 payload section: the count (u32), then each
/// array's length (u64) and its floats.
fn payload_arrays(payload: &[u8]) -> Vec<Vec<f64>> {
    let count = u32::from_le_bytes(payload[..4].try_into().unwrap()) as usize;
    let mut at = 4;
    (0..count)
        .map(|_| {
            let len = u64::from_le_bytes(payload[at..at + 8].try_into().unwrap()) as usize;
            at += 8;
            let floats = (0..len)
                .map(|i| {
                    f64::from_le_bytes(payload[at + 8 * i..at + 8 * i + 8].try_into().unwrap())
                })
                .collect();
            at += 8 * len;
            floats
        })
        .collect()
}

/// The f64 payload section holding `arrays`.
fn payload_section(arrays: &[Vec<f64>]) -> Vec<u8> {
    let mut out = (arrays.len() as u32).to_le_bytes().to_vec();
    for array in arrays {
        out.extend_from_slice(&(array.len() as u64).to_le_bytes());
        array
            .iter()
            .for_each(|v| out.extend_from_slice(&v.to_le_bytes()));
    }
    out
}

/// Move every non-empty all-float array under `v` into `arrays`, leaving
/// a `{"$floats": i}` placeholder: the snapshot writer's layout.
fn hoist(v: &mut serde_json::Value, arrays: &mut Vec<Vec<f64>>) {
    use serde_json::Value;
    match v {
        Value::Array(items) if !items.is_empty() => {
            let floats: Option<Vec<f64>> = items
                .iter()
                .map(|item| match item {
                    Value::Float(f) => Some(*f),
                    _ => None,
                })
                .collect();
            match floats {
                Some(floats) => {
                    *v = Value::Object(vec![("$floats".into(), Value::UInt(arrays.len() as u64))]);
                    arrays.push(floats);
                }
                None => items.iter_mut().for_each(|item| hoist(item, arrays)),
            }
        }
        Value::Object(fields) => fields.iter_mut().for_each(|(_, v)| hoist(v, arrays)),
        _ => {}
    }
}

/// The f64 container of a snapshot document written with every float
/// inline, laid out as the writer lays it out: the float arrays under
/// `model` and `memory` hoisted into the payload section.
pub fn hoisted_container(doc: &str) -> Vec<u8> {
    let mut value = serde_json::parse(doc).expect("a JSON document");
    let mut arrays = Vec::new();
    if let serde_json::Value::Object(fields) = &mut value {
        for (key, v) in fields.iter_mut() {
            if key == "model" || key == "memory" {
                hoist(v, &mut arrays);
            }
        }
    }
    let meta = serde_json::to_string(&value).expect("serializes");
    wrap(&meta, &payload_section(&arrays))
}

/// `container` (f64 payload) with its first payload array written back
/// inline into the meta document, in place of its placeholder, and the
/// other placeholders renumbered: the same snapshot in an encoding the
/// writer never produces.
pub fn with_first_array_inline(container: &[u8]) -> Vec<u8> {
    use serde_json::Value;
    fn renumber(v: &mut Value, first: &mut Option<Vec<f64>>) {
        match v {
            Value::Object(fields) => match fields.as_mut_slice() {
                [(key, Value::UInt(k))] if key == "$floats" => match k {
                    0 => {
                        let floats = first.take().expect("one placeholder 0");
                        *v = Value::Array(floats.into_iter().map(Value::Float).collect());
                    }
                    k => *k -= 1,
                },
                fields => fields.iter_mut().for_each(|(_, v)| renumber(v, first)),
            },
            Value::Array(items) => items.iter_mut().for_each(|item| renumber(item, first)),
            _ => {}
        }
    }
    assert_eq!(container[12], 0, "an f64-payload container");
    let meta_len = u64::from_le_bytes(container[24..32].try_into().unwrap()) as usize;
    let (meta, payload) = container[HEADER_LEN..].split_at(meta_len);
    let mut arrays = payload_arrays(payload);
    let mut first = Some(arrays.remove(0));
    let mut value = serde_json::parse(std::str::from_utf8(meta).unwrap()).unwrap();
    renumber(&mut value, &mut first);
    assert!(first.is_none(), "placeholder 0 was in the meta document");
    let meta = serde_json::to_string(&value).expect("serializes");
    wrap(&meta, &payload_section(&arrays))
}
