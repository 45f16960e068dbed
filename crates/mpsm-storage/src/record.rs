//! Fixed-size record trait connecting the storage layer to tuple types.
//!
//! The storage layer is generic over the stored record so that
//! `mpsm-core`'s `Tuple` (which lives above this crate in the dependency
//! graph) can flow through it. A [`Record`] is a small `Copy` value with
//! a fixed on-disk size, a stable byte encoding, and a sort key — the
//! key is what the page index orders runs by.

/// A fixed-size, plain-old-data record.
pub trait Record: Copy + Send + Sync + 'static {
    /// Encoded size in bytes. Must be non-zero.
    const SIZE: usize;

    /// Serialize into `buf` (exactly `Self::SIZE` bytes).
    ///
    /// # Panics
    /// Implementations may panic if `buf.len() != Self::SIZE`.
    fn write_to(&self, buf: &mut [u8]);

    /// Deserialize from `buf` (exactly `Self::SIZE` bytes).
    fn read_from(buf: &[u8]) -> Self;

    /// The join/sort key of this record.
    fn key(&self) -> u64;
}

/// The paper's 16-byte `[joinkey: 64-bit, payload: 64-bit]` record, the
/// storage tests' own record type.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvRecord {
    /// 64-bit join key.
    pub key: u64,
    /// 64-bit payload (record id or data pointer, per the paper).
    pub payload: u64,
}

#[cfg(test)]
impl KvRecord {
    /// Construct from key and payload.
    pub fn new(key: u64, payload: u64) -> Self {
        KvRecord { key, payload }
    }
}

#[cfg(test)]
impl Record for KvRecord {
    const SIZE: usize = 16;

    fn write_to(&self, buf: &mut [u8]) {
        assert_eq!(buf.len(), Self::SIZE);
        buf[..8].copy_from_slice(&self.key.to_le_bytes());
        buf[8..].copy_from_slice(&self.payload.to_le_bytes());
    }

    fn read_from(buf: &[u8]) -> Self {
        assert_eq!(buf.len(), Self::SIZE);
        let key = u64::from_le_bytes(buf[..8].try_into().expect("8-byte key"));
        let payload = u64::from_le_bytes(buf[8..].try_into().expect("8-byte payload"));
        KvRecord { key, payload }
    }

    fn key(&self) -> u64 {
        self.key
    }
}

/// Encode a slice of records into a contiguous byte buffer.
pub fn encode_page<R: Record>(records: &[R]) -> Vec<u8> {
    let mut buf = vec![0u8; records.len() * R::SIZE];
    for (r, chunk) in records.iter().zip(buf.chunks_mut(R::SIZE)) {
        r.write_to(chunk);
    }
    buf
}

/// Decode a byte buffer produced by [`encode_page`].
///
/// # Panics
/// Panics if the buffer length is not a multiple of `R::SIZE`.
pub fn decode_page<R: Record>(buf: &[u8]) -> Vec<R> {
    assert_eq!(buf.len() % R::SIZE, 0, "page buffer not a whole number of records");
    buf.chunks(R::SIZE).map(R::read_from).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_roundtrip() {
        let r = KvRecord::new(0xdead_beef, 42);
        let mut buf = [0u8; 16];
        r.write_to(&mut buf);
        assert_eq!(KvRecord::read_from(&buf), r);
    }

    #[test]
    fn page_roundtrip() {
        let recs: Vec<KvRecord> = (0..100).map(|i| KvRecord::new(i, i * 2)).collect();
        let bytes = encode_page(&recs);
        assert_eq!(bytes.len(), 100 * 16);
        assert_eq!(decode_page::<KvRecord>(&bytes), recs);
    }

    #[test]
    fn empty_page_roundtrip() {
        let bytes = encode_page::<KvRecord>(&[]);
        assert!(bytes.is_empty());
        assert!(decode_page::<KvRecord>(&bytes).is_empty());
    }

    #[test]
    #[should_panic(expected = "whole number of records")]
    fn ragged_page_panics() {
        let _ = decode_page::<KvRecord>(&[0u8; 17]);
    }

    #[test]
    fn key_accessor() {
        assert_eq!(KvRecord::new(7, 9).key(), 7);
    }
}
