//! Compact binary snapshot format: a tagged encoding of the serde
//! [`Value`] tree inside a versioned, checksummed frame.
//!
//! ## Frame layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"FSNP"
//! 4       2     format version (FORMAT_VERSION)
//! 6       1     kind length K
//! 7       K     kind bytes (utf-8 engine tag, e.g. "fedsim")
//! 7+K     4     state version (engine schema version)
//! 11+K    8     virtual tick
//! 19+K    8     payload length P
//! 27+K    P     payload (encoded Value, see below)
//! 27+K+P  8     FNV-1a 64 checksum over bytes [0, 27+K+P)
//! ```
//!
//! A torn write — the process died mid-`write` — shows up as a frame
//! shorter than its declared payload, or as a checksum mismatch after a
//! bit flip. Both decode to [`FrameError::Torn`]; neither can panic. A
//! frame with a valid checksum whose payload is not a value tree, or
//! nests arrays and objects deeper than 128 levels, decodes to
//! [`FrameError::Malformed`].
//!
//! ## Value encoding
//!
//! One tag byte then a payload; lengths and non-negative integers are
//! LEB128 varints:
//!
//! ```text
//! 0x00 null          0x01 false         0x02 true
//! 0x03 uint  varint  0x04 negint varint(-(n+1))  0x05 f64 (8 bytes, LE bits)
//! 0x06 string: varint len + utf-8
//! 0x07 array:  varint count + elements
//! 0x08 object: varint count + (string key, value) pairs
//! 0x09 bytes:  varint len + raw bytes (packed record columns)
//! ```
//!
//! Key order is preserved, so encode(decode(bytes)) == bytes and the
//! format inherits the repo's bit-identity discipline.

use serde::{Map, Number, Value};

/// Version of the frame + value encoding itself (not the engine schema).
pub const FORMAT_VERSION: u16 = 1;

/// Frame magic: "Fediscope SNaPshot".
pub const MAGIC: [u8; 4] = *b"FSNP";

const TAG_NULL: u8 = 0x00;
const TAG_FALSE: u8 = 0x01;
const TAG_TRUE: u8 = 0x02;
const TAG_UINT: u8 = 0x03;
const TAG_NEGINT: u8 = 0x04;
const TAG_F64: u8 = 0x05;
const TAG_STR: u8 = 0x06;
const TAG_ARR: u8 = 0x07;
const TAG_OBJ: u8 = 0x08;
const TAG_BYTES: u8 = 0x09;

/// Deepest nesting of arrays and objects a payload may hold, the cap the
/// vendored JSON parser puts on text. Each level is one recursive call of
/// the decoder, so without a cap a hostile frame overflows the stack.
const MAX_DEPTH: usize = 128;

/// Frame header fields, decoded without touching the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameMeta {
    /// Engine family tag (e.g. `"fedsim"`).
    pub kind: String,
    /// Engine state-schema version.
    pub state_version: u32,
    /// Virtual tick at capture time.
    pub tick: u64,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame is truncated or its checksum does not match: a torn
    /// write. Recoverable by falling back to an earlier snapshot.
    Torn(&'static str),
    /// The bytes are not a snapshot at all (bad magic), or were written
    /// by an incompatible format/schema version.
    Incompatible(String),
    /// Framing is intact but the payload is not a well-formed value
    /// tree. Treated like `Torn` by recovery (skip, fall back).
    Malformed(&'static str),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Torn(what) => write!(f, "torn snapshot: {what}"),
            FrameError::Incompatible(what) => write!(f, "incompatible snapshot: {what}"),
            FrameError::Malformed(what) => write!(f, "malformed snapshot payload: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// FNV-1a 64-bit — same constants as `fedsim`'s event digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn put_varint(mut n: u64, out: &mut Vec<u8>) {
    loop {
        let byte = (n & 0x7F) as u8;
        n >>= 7;
        if n == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, FrameError> {
    let mut n: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf
            .get(*pos)
            .ok_or(FrameError::Malformed("varint past end"))?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(FrameError::Malformed("varint overflow"));
        }
        n |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(n);
        }
        shift += 7;
    }
}

/// Append the compact encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Number(n) => match *n {
            Number::U(u) => {
                out.push(TAG_UINT);
                put_varint(u, out);
            }
            Number::I(i) if i >= 0 => {
                out.push(TAG_UINT);
                put_varint(i as u64, out);
            }
            Number::I(i) => {
                out.push(TAG_NEGINT);
                // -1 → 0, -2 → 1, … i64::MIN → u64::MAX>>1: always exact
                put_varint(!(i as u64), out);
            }
            Number::F(f) => {
                out.push(TAG_F64);
                out.extend_from_slice(&f.to_bits().to_le_bytes());
            }
        },
        Value::String(s) => {
            out.push(TAG_STR);
            put_varint(s.len() as u64, out);
            out.extend_from_slice(s.as_bytes());
        }
        Value::Array(items) => {
            out.push(TAG_ARR);
            put_varint(items.len() as u64, out);
            for item in items {
                encode_value(item, out);
            }
        }
        Value::Object(map) => {
            out.push(TAG_OBJ);
            put_varint(map.len() as u64, out);
            for (k, val) in map.iter() {
                put_varint(k.len() as u64, out);
                out.extend_from_slice(k.as_bytes());
                encode_value(val, out);
            }
        }
        Value::Bytes(b) => {
            out.push(TAG_BYTES);
            put_varint(b.len() as u64, out);
            out.extend_from_slice(b);
        }
    }
}

fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8], FrameError> {
    let end = pos
        .checked_add(len)
        .filter(|&e| e <= buf.len())
        .ok_or(FrameError::Malformed("length past end"))?;
    let slice = &buf[*pos..end];
    *pos = end;
    Ok(slice)
}

fn get_str(buf: &[u8], pos: &mut usize) -> Result<String, FrameError> {
    let len = get_varint(buf, pos)? as usize;
    let bytes = get_bytes(buf, pos, len)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| FrameError::Malformed("invalid utf-8"))
}

/// Decode one value starting at `*pos`, advancing it. Arrays and objects
/// nested deeper than 128 levels are [`FrameError::Malformed`].
pub fn decode_value(buf: &[u8], pos: &mut usize) -> Result<Value, FrameError> {
    decode_nested(buf, pos, 0)
}

/// [`decode_value`] for a value inside `depth` arrays and objects.
fn decode_nested(buf: &[u8], pos: &mut usize, depth: usize) -> Result<Value, FrameError> {
    let &tag = buf.get(*pos).ok_or(FrameError::Malformed("tag past end"))?;
    *pos += 1;
    if matches!(tag, TAG_ARR | TAG_OBJ) && depth >= MAX_DEPTH {
        return Err(FrameError::Malformed("nested deeper than 128 levels"));
    }
    match tag {
        TAG_NULL => Ok(Value::Null),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_UINT => Ok(Value::Number(Number::U(get_varint(buf, pos)?))),
        TAG_NEGINT => {
            let raw = get_varint(buf, pos)?;
            if raw > i64::MAX as u64 {
                return Err(FrameError::Malformed("negint out of range"));
            }
            Ok(Value::Number(Number::I(!(raw) as i64)))
        }
        TAG_F64 => {
            let bytes = get_bytes(buf, pos, 8)?;
            let bits = u64::from_le_bytes(bytes.try_into().unwrap());
            Ok(Value::Number(Number::F(f64::from_bits(bits))))
        }
        TAG_STR => Ok(Value::String(get_str(buf, pos)?)),
        TAG_ARR => {
            let count = get_varint(buf, pos)? as usize;
            // cap pre-allocation: a corrupt count must not OOM
            let mut items = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                items.push(decode_nested(buf, pos, depth + 1)?);
            }
            Ok(Value::Array(items))
        }
        TAG_BYTES => {
            let len = get_varint(buf, pos)? as usize;
            Ok(Value::Bytes(get_bytes(buf, pos, len)?.to_vec()))
        }
        TAG_OBJ => {
            let count = get_varint(buf, pos)? as usize;
            let mut map = Map::new();
            for _ in 0..count {
                let key = get_str(buf, pos)?;
                let val = decode_nested(buf, pos, depth + 1)?;
                map.insert(key, val);
            }
            Ok(Value::Object(map))
        }
        _ => Err(FrameError::Malformed("unknown tag")),
    }
}

/// Build a complete framed snapshot: header + payload + checksum.
///
/// The payload streams straight into the frame buffer — the length field
/// is patched in afterwards — so a large snapshot costs one buffer, not
/// an encode-then-copy.
pub fn encode_frame(kind: &str, state_version: u32, tick: u64, state: &Value) -> Vec<u8> {
    assert!(kind.len() <= u8::MAX as usize, "kind tag too long");
    let mut out = Vec::with_capacity(64 * 1024);
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.push(kind.len() as u8);
    out.extend_from_slice(kind.as_bytes());
    out.extend_from_slice(&state_version.to_le_bytes());
    out.extend_from_slice(&tick.to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes()); // payload length, patched below
    let payload_start = out.len();
    encode_value(state, &mut out);
    let payload_len = (out.len() - payload_start) as u64;
    out[payload_start - 8..payload_start].copy_from_slice(&payload_len.to_le_bytes());
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Decode a framed snapshot. Truncation and bit corruption come back as
/// [`FrameError::Torn`]; wrong magic or versions as
/// [`FrameError::Incompatible`].
pub fn decode_frame(bytes: &[u8]) -> Result<(FrameMeta, Value), FrameError> {
    // fixed prefix: magic + version + kind length
    if bytes.len() < 7 {
        return Err(FrameError::Torn("shorter than fixed header"));
    }
    if bytes[0..4] != MAGIC {
        return Err(FrameError::Incompatible("bad magic".into()));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(FrameError::Incompatible(format!(
            "format version {version}, expected {FORMAT_VERSION}"
        )));
    }
    let kind_len = bytes[6] as usize;
    let header_len = 7 + kind_len + 4 + 8 + 8;
    if bytes.len() < header_len {
        return Err(FrameError::Torn("shorter than header"));
    }
    let kind = std::str::from_utf8(&bytes[7..7 + kind_len])
        .map_err(|_| FrameError::Malformed("kind not utf-8"))?
        .to_string();
    let mut at = 7 + kind_len;
    let state_version = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
    at += 4;
    let tick = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    at += 8;
    let payload_len = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap()) as usize;
    at += 8;

    let total = match at.checked_add(payload_len).and_then(|n| n.checked_add(8)) {
        Some(t) => t,
        None => return Err(FrameError::Torn("payload length overflow")),
    };
    if bytes.len() < total {
        return Err(FrameError::Torn("truncated payload"));
    }
    let body_end = at + payload_len;
    let declared = u64::from_le_bytes(bytes[body_end..body_end + 8].try_into().unwrap());
    if fnv1a(&bytes[..body_end]) != declared {
        return Err(FrameError::Torn("checksum mismatch"));
    }

    let payload = &bytes[at..body_end];
    let mut pos = 0;
    let state = decode_value(payload, &mut pos)?;
    if pos != payload.len() {
        return Err(FrameError::Malformed("trailing bytes in payload"));
    }
    Ok((
        FrameMeta {
            kind,
            state_version,
            tick,
        },
        state,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Serialize;

    pub(super) fn sample_state() -> Value {
        let mut inner = Map::new();
        inner.insert("due".into(), Value::from(42u64));
        inner.insert("neg".into(), Value::Number(Number::I(-7)));
        inner.insert("f".into(), Value::Number(Number::F(0.25)));
        let mut m = Map::new();
        m.insert("tick".into(), Value::from(9u64));
        m.insert(
            "queue".into(),
            Value::Array(vec![Value::Object(inner), Value::Null]),
        );
        m.insert("name".into(), Value::String("mastodon.social".into()));
        m.insert("empty".into(), Value::Array(vec![]));
        m.insert(
            "col".into(),
            Value::Bytes(vec![0x00, 0xFF, 0x7F, 0x80, 0x09]),
        );
        Value::Object(m)
    }

    /// A frame around raw payload bytes, with a valid checksum.
    pub(super) fn frame_with_payload(payload: &[u8]) -> Vec<u8> {
        let mut out = encode_frame("t", 1, 0, &Value::Null);
        // drop the one-byte null payload and the checksum
        out.truncate(out.len() - 9);
        let len_at = out.len() - 8;
        out[len_at..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(payload);
        let sum = fnv1a(&out);
        out.extend_from_slice(&sum.to_le_bytes());
        out
    }

    #[test]
    fn frame_round_trip() {
        let state = sample_state();
        let bytes = encode_frame("fedsim", 3, 1234, &state);
        let (meta, back) = decode_frame(&bytes).unwrap();
        assert_eq!(meta.kind, "fedsim");
        assert_eq!(meta.state_version, 3);
        assert_eq!(meta.tick, 1234);
        assert_eq!(back, state);
    }

    #[test]
    fn encoding_is_canonical() {
        // encode(decode(bytes)) == bytes: no hidden nondeterminism
        let bytes = encode_frame("x", 1, 0, &sample_state());
        let (_, state) = decode_frame(&bytes).unwrap();
        assert_eq!(encode_frame("x", 1, 0, &state), bytes);
    }

    #[test]
    fn every_truncation_is_torn_never_panics() {
        let bytes = encode_frame("fedsim", 1, 77, &sample_state());
        for len in 0..bytes.len() {
            match decode_frame(&bytes[..len]) {
                Err(_) => {}
                Ok(_) => panic!("truncated to {len} bytes decoded successfully"),
            }
        }
    }

    #[test]
    fn every_bit_flip_is_detected() {
        let bytes = encode_frame("fedsim", 1, 77, &sample_state());
        let (_, original) = decode_frame(&bytes).unwrap();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                // either an error, or (checksum-trailer flips only) a
                // mismatch against the payload — never a silently wrong
                // successful decode
                if let Ok((_, v)) = decode_frame(&corrupt) {
                    panic!(
                        "bit flip at byte {i} bit {bit} decoded: {:?} vs {:?}",
                        v, original
                    );
                }
            }
        }
    }

    #[test]
    fn deep_nesting_is_malformed_not_a_stack_overflow() {
        let nested = |depth: usize, open: &[u8]| {
            let mut payload = open.repeat(depth);
            payload.push(TAG_NULL);
            frame_with_payload(&payload)
        };
        let too_deep = Err(FrameError::Malformed("nested deeper than 128 levels"));
        // one-element arrays, and one-key objects (key "k")
        for open in [&[TAG_ARR, 1][..], &[TAG_OBJ, 1, 1, b'k'][..]] {
            assert_eq!(decode_frame(&nested(100_000, open)), too_deep);
            assert_eq!(decode_frame(&nested(MAX_DEPTH + 1, open)), too_deep);
            assert!(decode_frame(&nested(MAX_DEPTH, open)).is_ok());
        }
    }

    #[test]
    fn wrong_magic_and_version_are_incompatible() {
        let mut bytes = encode_frame("fedsim", 1, 0, &Value::Null);
        bytes[0] = b'X';
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Incompatible(_))
        ));

        let mut bytes = encode_frame("fedsim", 1, 0, &Value::Null);
        bytes[4] = 0xFF;
        // version flip also breaks the checksum; rebuild the frame with a
        // future version properly to hit the version check itself
        let sum = fnv1a(&bytes[..bytes.len() - 8]);
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Incompatible(_))
        ));
    }

    #[test]
    fn extreme_integers_round_trip() {
        for v in [
            Value::Number(Number::U(u64::MAX)),
            Value::Number(Number::U(0)),
            Value::Number(Number::I(i64::MIN)),
            Value::Number(Number::I(-1)),
            Value::Number(Number::F(f64::NEG_INFINITY)),
            Value::Number(Number::F(-0.0)),
        ] {
            let bytes = encode_frame("t", 1, 0, &v);
            let (_, back) = decode_frame(&bytes).unwrap();
            // NaN-safe comparison via re-encoding
            let mut a = Vec::new();
            let mut b = Vec::new();
            encode_value(&v, &mut a);
            encode_value(&back, &mut b);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn derived_types_round_trip_through_frames() {
        // the exact path engines use: derive → Value → frame → Value → derive
        let m: std::collections::BTreeMap<u32, Vec<u64>> =
            [(3u32, vec![9u64, 8]), (1, vec![])].into_iter().collect();
        let bytes = encode_frame("m", 1, 0, &m.to_json_value());
        let (_, v) = decode_frame(&bytes).unwrap();
        let back: std::collections::BTreeMap<u32, Vec<u64>> =
            serde::Deserialize::from_json_value(&v).unwrap();
        assert_eq!(back, m);
    }
}

#[cfg(test)]
mod prop_tests {
    use super::tests::frame_with_payload;
    use super::*;
    use proptest::prelude::*;

    /// Edit the payload at `at`: overwrite one byte with a varint of at
    /// least 2^40 (a huge count or length where one was), with a tag
    /// (`0x0A` is unknown), or with a byte no UTF-8 text holds; or cut up
    /// to 16 bytes out (a truncated string or value).
    fn mutate(payload: &mut Vec<u8>, op: u8, at: usize, x: u64) {
        if payload.is_empty() {
            return;
        }
        let at = at % payload.len();
        match op % 4 {
            0 => {
                let mut huge = Vec::new();
                put_varint(x | 1 << 40, &mut huge);
                payload.splice(at..=at, huge);
            }
            1 => payload[at] = (x % 11) as u8,
            2 => {
                let end = (at + 1 + (x % 16) as usize).min(payload.len());
                payload.drain(at..end);
            }
            _ => payload[at] = [0xFF, 0xC0, 0x80, 0xED][(x % 4) as usize],
        }
    }

    /// Decode a frame around `payload`; a value that decodes must survive
    /// an encode-decode round trip unchanged.
    fn decode_checked(payload: &[u8]) -> Result<(), proptest::TestCaseError> {
        if let Ok((_, v)) = decode_frame(&frame_with_payload(payload)) {
            let mut once = Vec::new();
            encode_value(&v, &mut once);
            let (_, again) = decode_frame(&frame_with_payload(&once)).unwrap();
            let mut twice = Vec::new();
            encode_value(&again, &mut twice);
            prop_assert_eq!(once, twice);
        }
        Ok(())
    }

    /// The payload of a real frame: every tag, nested arrays and objects.
    fn real_payload() -> Vec<u8> {
        let mut state = super::tests::sample_state();
        if let Value::Object(m) = &mut state {
            m.insert("up".into(), Value::Bool(true));
            m.insert("down".into(), Value::Bool(false));
        }
        let frame = encode_frame("fedsim", 1, 77, &state);
        let header = 7 + "fedsim".len() + 4 + 8 + 8;
        frame[header..frame.len() - 8].to_vec()
    }

    proptest! {
        /// Hostile payloads behind a valid checksum: every single edit at
        /// every offset, then runs of random edits. `decode_frame` returns
        /// a value or an error and never panics.
        #[test]
        fn mutated_payloads_never_panic(
            ops in proptest::collection::vec((any::<u8>(), any::<usize>(), any::<u64>()), 1..12),
            x in any::<u64>()
        ) {
            let base = real_payload();
            for at in 0..base.len() {
                for op in 0..4 {
                    let mut p = base.clone();
                    mutate(&mut p, op, at, x);
                    decode_checked(&p)?;
                }
            }
            let mut p = base;
            for &(op, at, x) in &ops {
                mutate(&mut p, op, at, x);
                decode_checked(&p)?;
            }
        }
    }
}
