//! A compact little-endian wire codec for job/result payloads.
//!
//! RCCE moves raw bytes; everything rckAlign ships between cores (protein
//! chains, job descriptors, result records) is encoded with this writer /
//! reader pair. Sizes are explicit so the simulator's byte-accurate
//! communication cost model sees realistic payload sizes. Runs of
//! fixed-width elements cross as slabs ([`Writer::put_with`],
//! [`Reader::take`]): one capacity or bounds check per run, not per
//! element.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Encoding error — the only failure mode is running out of input while
/// decoding (corrupt or truncated payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// What the reader was trying to decode.
    pub what: &'static str,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "payload truncated while decoding {}", self.what)
    }
}

impl std::error::Error for DecodeError {}

/// Byte-stream writer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Fresh empty writer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// With a pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Writer {
        Writer {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Append a u8.
    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    /// Append a u32 (LE).
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32_le(v);
        self
    }

    /// Append a u64 (LE).
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64_le(v);
        self
    }

    /// Append an f32 (LE). Coordinates are shipped as f32 — the paper's C
    /// port does the same, and it halves on-mesh traffic.
    pub fn put_f32(&mut self, v: f32) -> &mut Self {
        self.buf.put_f32_le(v);
        self
    }

    /// Append an f64 (LE).
    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.put_f64_le(v);
        self
    }

    /// Append a length-prefixed byte string.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        assert!(v.len() <= u32::MAX as usize);
        self.buf.put_u32_le(v.len() as u32);
        self.buf.put_slice(v);
        self
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// Append an `n`-byte slab that `fill` writes in place (it is handed
    /// exactly `n` zeroed bytes): the buffer grows once for the slab, not
    /// once per element written into it.
    pub fn put_with(&mut self, n: usize, fill: impl FnOnce(&mut [u8])) -> &mut Self {
        let start = self.buf.len();
        self.buf.put_bytes(0, n);
        fill(&mut self.buf[start..]);
        self
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finish and take the encoded payload.
    pub fn finish(self) -> Vec<u8> {
        self.buf.into()
    }
}

/// Byte-stream reader.
#[derive(Debug)]
pub struct Reader {
    buf: Bytes,
}

impl Reader {
    /// Wrap an encoded payload.
    pub fn new(data: Vec<u8>) -> Reader {
        Reader {
            buf: Bytes::from(data),
        }
    }

    fn need(&self, n: usize, what: &'static str) -> Result<(), DecodeError> {
        if self.buf.remaining() < n {
            Err(DecodeError { what })
        } else {
            Ok(())
        }
    }

    /// Read a u8.
    pub fn get_u8(&mut self) -> Result<u8, DecodeError> {
        self.need(1, "u8")?;
        Ok(self.buf.get_u8())
    }

    /// Read a u32.
    pub fn get_u32(&mut self) -> Result<u32, DecodeError> {
        self.need(4, "u32")?;
        Ok(self.buf.get_u32_le())
    }

    /// Read a u64.
    pub fn get_u64(&mut self) -> Result<u64, DecodeError> {
        self.need(8, "u64")?;
        Ok(self.buf.get_u64_le())
    }

    /// Read an f32.
    pub fn get_f32(&mut self) -> Result<f32, DecodeError> {
        self.need(4, "f32")?;
        Ok(self.buf.get_f32_le())
    }

    /// Read an f64.
    pub fn get_f64(&mut self) -> Result<f64, DecodeError> {
        self.need(8, "f64")?;
        Ok(self.buf.get_f64_le())
    }

    /// Hand the next `n` bytes to `f` as one borrowed slab, then consume
    /// them: one bounds check for the slab (an error naming `what` when
    /// fewer than `n` bytes remain), not one per element read out of it.
    pub fn take<T>(
        &mut self,
        n: usize,
        what: &'static str,
        f: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, DecodeError> {
        let slab = self.buf.chunk().get(..n).ok_or(DecodeError { what })?;
        let out = f(slab);
        self.buf.advance(n);
        Ok(out)
    }

    /// Read a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, DecodeError> {
        let len = self.get_u32()? as usize;
        self.take(len, "bytes body", <[u8]>::to_vec)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, DecodeError> {
        let raw = self.get_bytes()?;
        String::from_utf8(raw).map_err(|_| DecodeError {
            what: "utf-8 string",
        })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut w = Writer::new();
        w.put_u8(7)
            .put_u32(0xDEAD_BEEF)
            .put_u64(u64::MAX - 3)
            .put_f32(1.5)
            .put_f64(-2.25)
            .put_str("rck00")
            .put_bytes(&[1, 2, 3]);
        let mut r = Reader::new(w.finish());
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_f64().unwrap(), -2.25);
        assert_eq!(r.get_str().unwrap(), "rck00");
        assert_eq!(r.get_bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_input_errors() {
        let mut w = Writer::new();
        w.put_u64(42);
        let mut data = w.finish();
        data.truncate(3);
        let mut r = Reader::new(data);
        assert!(r.get_u64().is_err());
    }

    #[test]
    fn truncated_bytes_body_errors() {
        let mut w = Writer::new();
        w.put_bytes(&[9; 100]);
        let mut data = w.finish();
        data.truncate(10);
        let mut r = Reader::new(data);
        let e = r.get_bytes().unwrap_err();
        assert_eq!(e.what, "bytes body");
        assert!(e.to_string().contains("truncated"));
    }

    #[test]
    fn take_reads_a_slab_up_to_exactly_what_remains() {
        let mut w = Writer::new();
        w.put_u8(1).put_with(5, |out| out.copy_from_slice(b"slab!"));
        assert_eq!(w.len(), 6);
        let mut r = Reader::new(w.finish());
        assert_eq!(r.get_u8().unwrap(), 1);
        // One byte past the end: an error naming the slab, nothing consumed.
        let e = r.take(r.remaining() + 1, "test slab", |_| ()).unwrap_err();
        assert_eq!(e.what, "test slab");
        assert_eq!(r.remaining(), 5);
        // Exactly what remains: the whole slab, then the reader is empty.
        assert_eq!(r.take(5, "test slab", <[u8]>::to_vec).unwrap(), b"slab!");
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.take(0, "empty slab", |s| s.len()).unwrap(), 0);
    }

    #[test]
    fn get_bytes_reads_the_body_and_only_the_body() {
        let mut w = Writer::new();
        w.put_bytes(&[]).put_bytes(&[4, 5, 6]).put_u8(7);
        let mut r = Reader::new(w.finish());
        assert_eq!(r.get_bytes().unwrap(), Vec::<u8>::new());
        assert_eq!(r.get_bytes().unwrap(), vec![4, 5, 6]);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_bytes().unwrap_err().what, "u32");
    }

    #[test]
    fn invalid_utf8_errors() {
        let mut w = Writer::new();
        w.put_bytes(&[0xFF, 0xFE]);
        let mut r = Reader::new(w.finish());
        assert!(r.get_str().is_err());
    }

    #[test]
    fn writer_len_tracks() {
        let mut w = Writer::with_capacity(64);
        assert!(w.is_empty());
        w.put_u32(1);
        assert_eq!(w.len(), 4);
    }
}
