//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no crates.io access, so this crate provides
//! the (small) subset of the real `bytes` 1.x API the workspace uses:
//! [`Bytes`], [`BytesMut`], and the [`Buf`]/[`BufMut`] traits with
//! little-endian put/get accessors. Backed by a plain `Vec<u8>`.

/// Read access to a contiguous buffer of bytes.
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Skip `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    /// Read a little-endian u16.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        b.copy_from_slice(&self.chunk()[..2]);
        self.advance(2);
        u16::from_le_bytes(b)
    }

    /// Read a little-endian u32.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(b)
    }

    /// Read a big-endian u32.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0u8; 4];
        b.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_be_bytes(b)
    }

    /// Read a little-endian u64.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(b)
    }

    /// Read a little-endian f32.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    /// Read a little-endian f64.
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

/// Write access to a growable buffer of bytes.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append `cnt` copies of the byte `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_u8(val);
        }
    }

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian u16.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u32.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a little-endian u64.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian f32.
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }

    /// Append a little-endian f64.
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

/// Growable byte buffer (write side).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    v: Vec<u8>,
}

impl BytesMut {
    /// New empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// New buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            v: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.v.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.v.is_empty()
    }

    /// Copy the contents out as a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.v.clone()
    }

    /// Freeze into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.v)
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.v.extend_from_slice(src);
    }

    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.v.resize(self.v.len() + cnt, val);
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.v
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.v
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Vec<u8> {
        b.v
    }
}

/// Immutable byte buffer with a cursor (read side).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Bytes {
    v: Vec<u8>,
    pos: usize,
}

impl Bytes {
    /// Total length (including already-consumed bytes).
    pub fn len(&self) -> usize {
        self.v.len() - self.pos
    }

    /// Whether no unconsumed bytes remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy the unconsumed contents out as a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.v[self.pos..].to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes { v, pos: 0 }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Bytes {
        Bytes::from(v.to_vec())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.v.len() - self.pos
    }

    fn chunk(&self) -> &[u8] {
        &self.v[self.pos..]
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.remaining(), "advance out of range");
        self.pos += cnt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let mut w = BytesMut::with_capacity(16);
        w.put_u8(1);
        w.put_u32_le(0xAABBCCDD);
        w.put_u64_le(42);
        w.put_f32_le(1.5);
        w.put_f64_le(-2.25);
        w.put_slice(b"xy");
        let mut r = Bytes::from(w.to_vec());
        assert_eq!(r.get_u8(), 1);
        assert_eq!(r.get_u32_le(), 0xAABBCCDD);
        assert_eq!(r.get_u64_le(), 42);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.get_f64_le(), -2.25);
        assert_eq!(r.chunk(), b"xy");
        r.advance(2);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn put_bytes_then_fill_in_place() {
        let mut w = BytesMut::new();
        w.put_u8(9);
        w.put_bytes(0, 3);
        w[1..].copy_from_slice(b"abc");
        assert_eq!(&w[..], b"\x09abc");
    }
}
