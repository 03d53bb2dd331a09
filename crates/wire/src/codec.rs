//! Byte serialization for payloads that cross a process boundary.
//!
//! In-proc, payloads travel as `Box<dyn Any>` — ownership transfer through
//! shared memory, no bytes ever produced. Across processes that is
//! impossible, so every type that crosses the wire implements [`WireCodec`]:
//! a small, explicit, little-endian encoding with *total* decoding — every
//! byte string either decodes or returns a [`CodecError`], never a panic.
//! That totality is what the frame layer's corruption story rests on: a
//! damaged payload that somehow passes CRC still cannot crash the decoder.
//!
//! A [`CodecRegistry`] maps concrete Rust types to stable numeric tags so
//! the type-erased send path (`Payload::Owned(Box<dyn Any>)`) can find the
//! encoder at runtime and the receiver can find the decoder from the tag
//! in the frame header. `Payload::Shared` (the `Arc`-based zero-clone
//! multicast representation) is deliberately *not* encodable: sharing one
//! allocation is an in-proc concept, and the transport returns a type
//! error rather than silently deep-copying.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::fmt;

/// Why a byte string failed to decode.
///
/// Decoders must be total: any input produces `Ok` or one of these — a
/// panic in a decoder is a crash vector a remote peer could trigger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// The input ended before the value did.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually remaining.
        have: usize,
    },
    /// No decoder is registered for this payload tag.
    BadTag {
        /// The unknown tag.
        tag: u32,
    },
    /// The value decoded but bytes were left over — a framing/codec
    /// mismatch (e.g. tag collision between two types).
    Trailing {
        /// Leftover byte count.
        extra: usize,
    },
    /// The bytes were structurally well-formed but semantically invalid
    /// (e.g. a string that is not UTF-8).
    Invalid {
        /// What was invalid.
        what: &'static str,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, have } => {
                write!(f, "truncated payload: needed {needed} more bytes, have {have}")
            }
            CodecError::BadTag { tag } => write!(f, "no codec registered for payload tag {tag}"),
            CodecError::Trailing { extra } => {
                write!(f, "{extra} trailing bytes after a complete value")
            }
            CodecError::Invalid { what } => write!(f, "invalid encoding: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Takes `n` bytes off the front of `input`, or reports truncation.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], CodecError> {
    if input.len() < n {
        return Err(CodecError::Truncated { needed: n, have: input.len() });
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

/// A type that can serialize itself to wire bytes and decode itself back.
///
/// Encodings are little-endian and length-prefixed where variable-sized;
/// `decode` consumes exactly the bytes `encode` produced and must never
/// panic on arbitrary input.
pub trait WireCodec: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes one value off the front of `input`, advancing it.
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError>;

    /// Appends the encodings of `items` back to back (the body of a
    /// `Vec<Self>`). Fixed-width scalars override this with one bulk pass.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        for v in items {
            v.encode(out);
        }
    }

    /// Decodes `count` values off the front of `input` (the body of a
    /// `Vec<Self>`). Fixed-width scalars override this with one bulk pass.
    fn decode_vec(count: usize, input: &mut &[u8]) -> Result<Vec<Self>, CodecError> {
        // No speculative reservation: a corrupt count must hit `Truncated`
        // while decoding elements, not allocate gigabytes up front.
        let mut out = Vec::new();
        for _ in 0..count {
            out.push(Self::decode(input)?);
        }
        Ok(out)
    }
}

macro_rules! int_codec {
    ($($t:ty),*) => {$(
        impl WireCodec for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
                let n = std::mem::size_of::<$t>();
                let bytes = take(input, n)?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("take returned n bytes")))
            }
            fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
                const W: usize = std::mem::size_of::<$t>();
                let start = out.len();
                out.resize(start + items.len() * W, 0);
                for (dst, v) in out[start..].chunks_exact_mut(W).zip(items) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }
            fn decode_vec(count: usize, input: &mut &[u8]) -> Result<Vec<Self>, CodecError> {
                const W: usize = std::mem::size_of::<$t>();
                // The whole body is checked against the remaining input
                // before anything is allocated.
                let needed = count.checked_mul(W).unwrap_or(usize::MAX);
                let bytes = take(input, needed)?;
                Ok(bytes
                    .chunks_exact(W)
                    .map(|c| <$t>::from_le_bytes(c.try_into().expect("chunks_exact yields W bytes")))
                    .collect())
            }
        }
    )*};
}

int_codec!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl WireCodec for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let v = u64::decode(input)?;
        usize::try_from(v).map_err(|_| CodecError::Invalid { what: "usize out of range" })
    }
}

impl WireCodec for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(u8::decode(input)? != 0)
    }
}

impl WireCodec for () {
    fn encode(&self, _out: &mut Vec<u8>) {}
    fn decode(_input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok(())
    }
}

impl WireCodec for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let len = u32::decode(input)? as usize;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| CodecError::Invalid { what: "string is not UTF-8" })
    }
}

impl<T: WireCodec> WireCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        T::encode_slice(self, out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        let count = u32::decode(input)? as usize;
        T::decode_vec(count, input)
    }
}

impl<T: WireCodec> WireCodec for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        match u8::decode(input)? {
            0 => Ok(None),
            _ => Ok(Some(T::decode(input)?)),
        }
    }
}

impl<A: WireCodec, B: WireCodec> WireCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl<A: WireCodec, B: WireCodec, C: WireCodec> WireCodec for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Result<Self, CodecError> {
        Ok((A::decode(input)?, B::decode(input)?, C::decode(input)?))
    }
}

/// Encodes `value` into a fresh buffer.
pub fn encode_value<T: WireCodec>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a complete value from `bytes`, rejecting leftovers.
pub fn decode_value<T: WireCodec>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut input = bytes;
    let v = T::decode(&mut input)?;
    if !input.is_empty() {
        return Err(CodecError::Trailing { extra: input.len() });
    }
    Ok(v)
}

type EncodeFn = fn(&dyn Any, &mut Vec<u8>) -> bool;
type DecodeFn = fn(&[u8]) -> Result<Box<dyn Any + Send>, CodecError>;

/// Runtime mapping between concrete payload types and wire tags.
///
/// The send path holds a type-erased `Box<dyn Any>`; the registry finds
/// the encoder by `TypeId` and stamps the tag into the frame header so the
/// receiver can find the matching decoder. Both processes must register
/// the same `(tag, type)` pairs — the tag is the cross-process name of the
/// type, exactly as CORBA-style IDL gives remote methods numeric ids.
#[derive(Default)]
pub struct CodecRegistry {
    by_type: HashMap<TypeId, (u32, EncodeFn)>,
    by_tag: HashMap<u32, DecodeFn>,
}

impl CodecRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry preloaded with the scalar and vector types the coupling
    /// and PRMI layers send: use this unless an application needs custom
    /// structs, and extend it with [`CodecRegistry::register`] when it does.
    pub fn with_defaults() -> Self {
        let mut r = Self::new();
        r.register::<()>(1);
        r.register::<bool>(2);
        r.register::<u8>(3);
        r.register::<u32>(4);
        r.register::<u64>(5);
        r.register::<i32>(6);
        r.register::<i64>(7);
        r.register::<f32>(8);
        r.register::<f64>(9);
        r.register::<usize>(10);
        r.register::<String>(11);
        r.register::<Vec<u8>>(12);
        r.register::<Vec<u32>>(13);
        r.register::<Vec<u64>>(14);
        r.register::<Vec<f64>>(15);
        r.register::<Vec<usize>>(16);
        r.register::<(u64, u64)>(17);
        r.register::<(u64, f64)>(18);
        r.register::<Vec<(usize, f64)>>(19);
        r
    }

    /// Registers `T` under `tag`. Panics if either the tag or the type is
    /// already taken — tag collisions are configuration bugs, and failing
    /// at registration is the only place they are locally detectable.
    pub fn register<T: WireCodec + Any + Send>(&mut self, tag: u32) {
        let enc: EncodeFn = |any, out| match any.downcast_ref::<T>() {
            Some(v) => {
                v.encode(out);
                true
            }
            None => false,
        };
        let dec: DecodeFn = |bytes| decode_value::<T>(bytes).map(|v| Box::new(v) as _);
        assert!(
            self.by_type.insert(TypeId::of::<T>(), (tag, enc)).is_none(),
            "type registered twice in CodecRegistry"
        );
        assert!(self.by_tag.insert(tag, dec).is_none(), "payload tag {tag} registered twice");
    }

    /// Encodes a type-erased payload, returning its tag and bytes, or
    /// `None` if the concrete type was never registered.
    pub fn encode_any(&self, value: &dyn Any) -> Option<(u32, Vec<u8>)> {
        let mut out = Vec::new();
        self.encode_any_into(value, &mut out).map(|tag| (tag, out))
    }

    /// Appends the encoding of a type-erased payload to `out` and returns
    /// its tag, or `None` (leaving `out` as it was) if the concrete type was
    /// never registered. The wire's send path encodes straight into the
    /// frame buffer this way.
    pub fn encode_any_into(&self, value: &dyn Any, out: &mut Vec<u8>) -> Option<u32> {
        let (tag, enc) = self.by_type.get(&value.type_id())?;
        let matched = enc(value, out);
        debug_assert!(matched, "TypeId lookup and downcast must agree");
        matched.then_some(*tag)
    }

    /// Decodes payload bytes under `tag` back into a type-erased box.
    pub fn decode_any(&self, tag: u32, bytes: &[u8]) -> Result<Box<dyn Any + Send>, CodecError> {
        let dec = self.by_tag.get(&tag).ok_or(CodecError::BadTag { tag })?;
        dec(bytes)
    }

    /// Whether `T` has an encoder registered.
    pub fn knows<T: Any>(&self) -> bool {
        self.by_type.contains_key(&TypeId::of::<T>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireCodec + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = encode_value(&v);
        assert_eq!(decode_value::<T>(&bytes).unwrap(), v);
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-7i32);
        roundtrip(3.25f64);
        roundtrip(true);
        roundtrip(());
        roundtrip(usize::MAX);
    }

    #[test]
    fn compound_roundtrips() {
        roundtrip(String::from("héllo wörld"));
        roundtrip(vec![1.0f64, -2.5, f64::INFINITY]);
        roundtrip(Vec::<u32>::new());
        roundtrip(Some(vec![(3usize, 1.5f64)]));
        roundtrip((1u64, 2u64, String::from("x")));
    }

    /// Round-trips `v` and checks every truncation of its encoding fails
    /// with `Truncated`. Compares encodings, so NaN payloads count too.
    fn bulk_case<T: WireCodec>(v: Vec<T>) {
        let bytes = encode_value(&v);
        assert_eq!(bytes.len(), 4 + v.len() * std::mem::size_of::<T>(), "fixed width");
        let back = decode_value::<Vec<T>>(&bytes).expect("own encoding decodes");
        assert_eq!(encode_value(&back), bytes, "round trip");
        for cut in 0..bytes.len() {
            let r = decode_value::<Vec<T>>(&bytes[..cut]);
            assert!(matches!(r, Err(CodecError::Truncated { .. })), "cut={cut}");
        }
    }

    #[test]
    fn fixed_width_vectors_roundtrip() {
        bulk_case(vec![0u8, 1, 0x7f, 0xff]);
        bulk_case(vec![0u16, 0x1234, u16::MAX]);
        bulk_case(vec![0u32, 0xdead_beef, u32::MAX]);
        bulk_case(vec![0u64, 0x0123_4567_89ab_cdef, u64::MAX]);
        bulk_case(vec![i8::MIN, -1, 0, i8::MAX]);
        bulk_case(vec![i16::MIN, -1, i16::MAX]);
        bulk_case(vec![i32::MIN, -7, i32::MAX]);
        bulk_case(vec![i64::MIN, -7, i64::MAX]);
        bulk_case(vec![-0.0f32, f32::MIN_POSITIVE, f32::NAN, f32::INFINITY]);
        bulk_case(vec![-0.0f64, f64::MIN_POSITIVE, f64::from_bits(0x7ff8_dead_beef_0001)]);
        bulk_case(Vec::<f64>::new());
        assert_eq!(encode_value(&vec![1u16, 2]), [2, 0, 0, 0, 1, 0, 2, 0], "little-endian");
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = encode_value(&vec![1u64, 2, 3]);
        for cut in 0..bytes.len() {
            let r = decode_value::<Vec<u64>>(&bytes[..cut]);
            assert!(matches!(r, Err(CodecError::Truncated { .. })), "cut={cut}: {r:?}");
        }
        let bytes = encode_value(&vec![(1usize, 2.5f64)]);
        for cut in 0..bytes.len() {
            let r = decode_value::<Vec<(usize, f64)>>(&bytes[..cut]);
            assert!(matches!(r, Err(CodecError::Truncated { .. })), "cut={cut}: {r:?}");
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_value(&5u32);
        bytes.push(0);
        assert_eq!(decode_value::<u32>(&bytes), Err(CodecError::Trailing { extra: 1 }));
    }

    #[test]
    fn huge_length_prefix_does_not_allocate() {
        // A corrupt count of u32::MAX elements must fail fast on truncation.
        let mut bytes = Vec::new();
        u32::MAX.encode(&mut bytes);
        assert!(matches!(decode_value::<Vec<u64>>(&bytes), Err(CodecError::Truncated { .. })));
        assert!(matches!(decode_value::<Vec<f64>>(&bytes), Err(CodecError::Truncated { .. })));
        assert!(matches!(decode_value::<Vec<u8>>(&bytes), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn non_utf8_string_is_invalid() {
        let mut bytes = Vec::new();
        2u32.encode(&mut bytes);
        bytes.extend_from_slice(&[0xff, 0xfe]);
        assert_eq!(
            decode_value::<String>(&bytes),
            Err(CodecError::Invalid { what: "string is not UTF-8" })
        );
    }

    #[test]
    fn registry_roundtrips_type_erased() {
        let reg = CodecRegistry::with_defaults();
        let value: Box<dyn Any + Send> = Box::new(vec![1.5f64, 2.5]);
        let (tag, bytes) = reg.encode_any(value.as_ref()).unwrap();
        let back = reg.decode_any(tag, &bytes).unwrap();
        assert_eq!(*back.downcast::<Vec<f64>>().unwrap(), vec![1.5, 2.5]);
    }

    #[test]
    fn registry_rejects_unknown_type_and_tag() {
        let reg = CodecRegistry::with_defaults();
        struct Opaque;
        assert!(reg.encode_any(&Opaque).is_none());
        assert_eq!(reg.decode_any(0xdead, &[]).unwrap_err(), CodecError::BadTag { tag: 0xdead });
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_tag_panics_at_registration() {
        let mut reg = CodecRegistry::new();
        reg.register::<u32>(1);
        reg.register::<u64>(1);
    }
}
