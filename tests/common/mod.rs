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
/// `name` set to `value`. The meta document names each parameter beside
/// the `{"$floats":k}` placeholder of its data; the payload section holds
/// the array count (u32), then each array's length (u64) and its floats.
pub fn with_param_float(container: &[u8], name: &str, value: f64) -> Vec<u8> {
    assert_eq!(container[12], 0, "an f64-payload container");
    let meta_len = u64::from_le_bytes(container[24..32].try_into().unwrap()) as usize;
    let meta = std::str::from_utf8(&container[HEADER_LEN..HEADER_LEN + meta_len]).unwrap();
    let param = meta
        .find(&format!(r#""name":"{name}""#))
        .expect("parameter in the snapshot");
    let key = r#""$floats":"#;
    let index = &meta[param..][meta[param..].find(key).unwrap() + key.len()..];
    let k: usize = index[..index.find('}').unwrap()].parse().unwrap();
    let mut at = HEADER_LEN + meta_len + 4;
    for _ in 0..k {
        let len = u64::from_le_bytes(container[at..at + 8].try_into().unwrap()) as usize;
        at += 8 + 8 * len;
    }
    at += 8;
    let mut out = container.to_vec();
    out[at..at + 8].copy_from_slice(&value.to_le_bytes());
    out
}
