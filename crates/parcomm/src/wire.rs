//! Wire serialization for collective payloads.
//!
//! [`ThreadComm`](crate::ThreadComm) moves payloads between ranks as typed
//! values inside one address space and never encodes them. The
//! multi-process transport ([`ProcComm`](crate::ProcComm)) moves them over
//! Unix-domain sockets, which needs an explicit byte encoding. [`Wire`] is
//! that encoding: a minimal, dependency-free, little-endian format
//! implemented for exactly the payload shapes the workspace's algorithms
//! exchange (scalars, tuples, fixed arrays, vectors). It also carries the
//! one byte-accounting rule every transport's counters use
//! ([`Wire::payload_bytes`]).
//!
//! The [`Comm`](crate::Comm) trait bounds its generic collectives on
//! `Wire`, so every algorithm written against `Comm` is guaranteed to run
//! unchanged on every transport. The encoding is not self-describing (no
//! field tags, no type ids): both sides of a collective already agree on
//! `T` by the SPMD contract, and the framing layer around it carries
//! length, sequence number, and collective kind (see `proc::frame`).

/// A value that can cross a process boundary inside a collective.
///
/// Implementations must round-trip exactly: `from_wire(to_wire(x)) == x`
/// bit-for-bit (floats are encoded as their IEEE-754 bits, so NaN payloads
/// survive). `wire_write` appends to the buffer; `wire_read` consumes from
/// the cursor and panics on truncated or malformed input — inside a
/// collective that indicates a framing bug, and the worker's panic is
/// converted into a job error by the process runner.
pub trait Wire: Clone + Send + 'static {
    /// Append this value's encoding to `out`.
    fn wire_write(&self, out: &mut Vec<u8>);
    /// Decode one value from the cursor.
    fn wire_read(r: &mut WireCursor<'_>) -> Self;

    /// Bytes this value counts for when a rank receives it in a
    /// collective: its shallow size, or for a vector the shallow size of
    /// its elements. Independent of the encoding, so every transport
    /// counts the same bytes.
    fn payload_bytes(&self) -> u64 {
        std::mem::size_of::<Self>() as u64
    }
}

/// Read cursor over an encoded buffer.
#[derive(Debug)]
pub struct WireCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireCursor<'a> {
    /// Cursor over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        WireCursor { buf, pos: 0 }
    }

    /// Take the next `n` bytes.
    pub fn take(&mut self, n: usize) -> &'a [u8] {
        let end = self.pos.checked_add(n).expect("wire cursor overflow");
        assert!(end <= self.buf.len(), "wire payload truncated: need {n} bytes at {}", self.pos);
        let s = &self.buf[self.pos..end];
        self.pos = end;
        s
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Encode one value into a fresh buffer.
pub fn to_wire<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.wire_write(&mut out);
    out
}

/// Decode one value, requiring the buffer to be fully consumed.
pub fn from_wire<T: Wire>(bytes: &[u8]) -> T {
    let mut c = WireCursor::new(bytes);
    let v = T::wire_read(&mut c);
    assert_eq!(c.remaining(), 0, "wire payload has trailing bytes");
    v
}

macro_rules! wire_scalar {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn wire_write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn wire_read(r: &mut WireCursor<'_>) -> Self {
                <$t>::from_le_bytes(r.take(std::mem::size_of::<$t>()).try_into().unwrap())
            }
        }
    )*};
}

wire_scalar!(u8, u16, u32, u64, u128, i8, i16, i32, i64, i128, f32, f64);

// usize/isize travel as 8-byte values so the encoding does not depend on
// the host word size (all ranks of one job share an architecture anyway,
// but the frames should not care).
impl Wire for usize {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (*self as u64).wire_write(out);
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        u64::wire_read(r) as usize
    }
}

impl Wire for isize {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (*self as i64).wire_write(out);
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        i64::wire_read(r) as isize
    }
}

impl Wire for bool {
    fn wire_write(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        r.take(1)[0] != 0
    }
}

impl Wire for () {
    fn wire_write(&self, _out: &mut Vec<u8>) {}
    fn wire_read(_r: &mut WireCursor<'_>) -> Self {}
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.0.wire_write(out);
        self.1.wire_write(out);
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        (A::wire_read(r), B::wire_read(r))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.0.wire_write(out);
        self.1.wire_write(out);
        self.2.wire_write(out);
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        (A::wire_read(r), B::wire_read(r), C::wire_read(r))
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn wire_write(&self, out: &mut Vec<u8>) {
        self.0.wire_write(out);
        self.1.wire_write(out);
        self.2.wire_write(out);
        self.3.wire_write(out);
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        (A::wire_read(r), B::wire_read(r), C::wire_read(r), D::wire_read(r))
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn wire_write(&self, out: &mut Vec<u8>) {
        for x in self {
            x.wire_write(out);
        }
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        std::array::from_fn(|_| T::wire_read(r))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (self.len() as u64).wire_write(out);
        for x in self {
            x.wire_write(out);
        }
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        let n = u64::wire_read(r) as usize;
        // Sanity floor: even 1-byte elements cannot outnumber the bytes
        // left, so a corrupt length fails here instead of in an OOM.
        assert!(n <= r.remaining(), "wire vector length {n} exceeds payload");
        (0..n).map(|_| T::wire_read(r)).collect()
    }
    fn payload_bytes(&self) -> u64 {
        (self.len() * std::mem::size_of::<T>()) as u64
    }
}

impl<T: Wire> Wire for Option<T> {
    fn wire_write(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.wire_write(out);
            }
        }
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        match r.take(1)[0] {
            0 => None,
            1 => Some(T::wire_read(r)),
            t => panic!("wire Option tag {t} invalid"),
        }
    }
}

impl Wire for String {
    fn wire_write(&self, out: &mut Vec<u8>) {
        (self.len() as u64).wire_write(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn wire_read(r: &mut WireCursor<'_>) -> Self {
        let n = u64::wire_read(r) as usize;
        String::from_utf8(r.take(n).to_vec()).expect("wire string not UTF-8")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(from_wire::<T>(&to_wire(&v)), v);
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(u64::MAX);
        roundtrip(-5i64);
        roundtrip(3.75f64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(());
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let back = from_wire::<f64>(&to_wire(&weird));
        assert_eq!(back.to_bits(), weird.to_bits());
    }

    #[test]
    fn compounds_roundtrip() {
        roundtrip((1u64, 2.5f64));
        roundtrip((1u64, [0.5f64, -0.25], 7u32));
        roundtrip(vec![vec![1u32, 2], vec![], vec![3]]);
        roundtrip(Some(vec![(4u64, 9u32)]));
        roundtrip(None::<u64>);
        roundtrip(String::from("rank-7"));
        roundtrip([1u64, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "truncated")]
    fn truncated_payload_panics() {
        let bytes = to_wire(&12345u64);
        let _ = from_wire::<u64>(&bytes[..4]);
    }

    #[test]
    #[should_panic(expected = "trailing")]
    fn trailing_bytes_panic() {
        let mut bytes = to_wire(&1u32);
        bytes.push(0);
        let _ = from_wire::<u32>(&bytes);
    }

    #[test]
    #[should_panic(expected = "exceeds payload")]
    fn corrupt_vec_length_panics() {
        let mut bytes = Vec::new();
        (u64::MAX).wire_write(&mut bytes);
        let _ = from_wire::<Vec<u64>>(&bytes);
    }
}
