//! The on-disk format: a versioned superblock followed by an
//! append-only log of checksummed pair records.
//!
//! The framing reuses the discipline of the serve layer's protocol v2
//! frames: every record is `kind (1) | payload_len (4, LE) | checksum
//! (8, LE) | payload`, where the checksum is FNV-1a 64 over the kind
//! byte, the length bytes and the payload. A record is accepted only if
//! its kind is known, its declared length matches the fixed pair-payload
//! size (so a corrupt length can never drive an allocation), every byte
//! is present, and the checksum matches. Anything else ends the scan:
//! the log's value is exactly its longest intact prefix.

/// Magic number at offset 0 of every store file (`RCKL`).
pub const STORE_MAGIC: u32 = 0x5243_4B4C;

/// On-disk format version. Bump on any layout change; a mismatch makes
/// [`read_superblock`] refuse the file rather than misparse it.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Bytes of the superblock: magic, format version, FNV-1a 64 over both.
pub const SUPERBLOCK_LEN: usize = 16;

/// Record kind of a pair result (the only kind in format v1).
pub const RECORD_KIND_PAIR: u8 = 1;

/// Bytes of a record header: kind, payload length, checksum.
pub const RECORD_HEADER_LEN: usize = 13;

/// Bytes of a pair-record payload: key (8 + 8 + 4 + 1) and value
/// (8 + 8 + 4 + 8), all little-endian, floats as IEEE-754 bits.
pub const PAIR_PAYLOAD_LEN: usize = 49;

/// Bytes of one complete pair record on disk.
pub const PAIR_RECORD_LEN: usize = RECORD_HEADER_LEN + PAIR_PAYLOAD_LEN;

/// FNV-1a 64 over `bytes`, chained from `seed` (0 selects the standard
/// offset basis) — the same hash the serve-layer frame checksums use.
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = if seed == 0 { OFFSET } else { seed };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Content address of one stored comparison: the two chains' content
/// hashes in job order (`i < j` everywhere in the workspace, so the
/// orientation is stable), the method code, and the kernel version that
/// produced the result — a kernel change invalidates nothing but simply
/// never matches old records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PairKey {
    /// Content hash of the lower-index chain.
    pub hash_a: u64,
    /// Content hash of the higher-index chain.
    pub hash_b: u64,
    /// Comparison method code (`MethodKind::code`).
    pub method: u8,
    /// Kernel version the result was computed with.
    pub kernel_version: u32,
}

/// The stored result: the outcome fields that survive content
/// addressing (indices are positional, not content, so they are
/// reconstructed by the caller). Floats round-trip as raw bits, so a
/// stored matrix is bit-identical to the run that produced it — NaN
/// RMSDs included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredPair {
    /// Method-defined similarity score.
    pub similarity: f64,
    /// RMSD over the aligned region (NaN when the method defines none).
    pub rmsd: f64,
    /// Number of aligned residue pairs.
    pub aligned_len: u32,
    /// Kernel operation count charged to the comparison.
    pub ops: u64,
}

impl StoredPair {
    /// Bitwise equality — the store's fidelity contract. `PartialEq`
    /// compares NaN as unequal; recovery invariants need exact bits.
    pub fn same_bits(&self, other: &StoredPair) -> bool {
        self.similarity.to_bits() == other.similarity.to_bits()
            && self.rmsd.to_bits() == other.rmsd.to_bits()
            && self.aligned_len == other.aligned_len
            && self.ops == other.ops
    }
}

/// Encode the superblock.
pub fn encode_superblock() -> [u8; SUPERBLOCK_LEN] {
    let mut out = [0u8; SUPERBLOCK_LEN];
    out[0..4].copy_from_slice(&STORE_MAGIC.to_le_bytes());
    out[4..8].copy_from_slice(&STORE_FORMAT_VERSION.to_le_bytes());
    let sum = fnv1a64(0, &out[0..8]);
    out[8..16].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Validate the superblock at the head of `bytes`.
pub fn read_superblock(bytes: &[u8]) -> Result<(), &'static str> {
    if bytes.len() < SUPERBLOCK_LEN {
        return Err("file shorter than the superblock");
    }
    if bytes[0..4] != STORE_MAGIC.to_le_bytes() {
        return Err("bad magic");
    }
    if bytes[4..8] != STORE_FORMAT_VERSION.to_le_bytes() {
        return Err("unsupported format version");
    }
    let want = fnv1a64(0, &bytes[0..8]);
    if bytes[8..16] != want.to_le_bytes() {
        return Err("superblock checksum mismatch");
    }
    Ok(())
}

/// Encode one pair record (header + payload).
pub fn encode_record(key: &PairKey, pair: &StoredPair) -> Vec<u8> {
    let mut out = Vec::new();
    encode_record_into(&mut out, key, pair);
    out
}

/// Append one encoded pair record to `out` — how a slice append builds
/// its one write.
pub(crate) fn encode_record_into(out: &mut Vec<u8>, key: &PairKey, pair: &StoredPair) {
    out.reserve(PAIR_RECORD_LEN);
    let start = out.len();
    let len = PAIR_PAYLOAD_LEN as u32;
    out.push(RECORD_KIND_PAIR);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&[0; 8]); // the checksum, once the payload is in
    out.extend_from_slice(&key.hash_a.to_le_bytes());
    out.extend_from_slice(&key.hash_b.to_le_bytes());
    out.extend_from_slice(&key.kernel_version.to_le_bytes());
    out.push(key.method);
    out.extend_from_slice(&pair.similarity.to_bits().to_le_bytes());
    out.extend_from_slice(&pair.rmsd.to_bits().to_le_bytes());
    out.extend_from_slice(&pair.aligned_len.to_le_bytes());
    out.extend_from_slice(&pair.ops.to_le_bytes());
    let record = &mut out[start..];
    debug_assert_eq!(record.len(), PAIR_RECORD_LEN);

    let mut sum = fnv1a64(0, &record[..5]);
    sum = fnv1a64(sum, &record[RECORD_HEADER_LEN..]);
    record[5..RECORD_HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
}

fn decode_payload(payload: &[u8]) -> (PairKey, StoredPair) {
    let u64_at = |off: usize| u64::from_le_bytes(payload[off..off + 8].try_into().unwrap());
    let u32_at = |off: usize| u32::from_le_bytes(payload[off..off + 4].try_into().unwrap());
    let key = PairKey {
        hash_a: u64_at(0),
        hash_b: u64_at(8),
        kernel_version: u32_at(16),
        method: payload[20],
    };
    let pair = StoredPair {
        similarity: f64::from_bits(u64_at(21)),
        rmsd: f64::from_bits(u64_at(29)),
        aligned_len: u32_at(37),
        ops: u64_at(41),
    };
    (key, pair)
}

/// Result of scanning a store file.
#[derive(Debug)]
pub struct Scan {
    /// Every intact record, in log order.
    pub records: Vec<(PairKey, StoredPair)>,
    /// Byte length of the intact prefix (superblock + accepted records);
    /// recovery truncates the file here.
    pub clean_len: usize,
    /// Whether anything after the intact prefix was discarded.
    pub torn: bool,
}

/// Scan the log region after a validated superblock: accept records
/// until the first structural or checksum failure, never panicking and
/// never allocating from untrusted lengths.
pub fn scan_log(bytes: &[u8]) -> Scan {
    let mut records = Vec::new();
    if bytes.len() < SUPERBLOCK_LEN {
        // Total on any input: a file shorter than the superblock has no
        // log region at all.
        return Scan {
            records,
            clean_len: bytes.len(),
            torn: false,
        };
    }
    let mut off = SUPERBLOCK_LEN;
    loop {
        if off == bytes.len() {
            return Scan {
                records,
                clean_len: off,
                torn: false,
            };
        }
        let rest = &bytes[off..];
        if rest.len() < RECORD_HEADER_LEN || rest[0] != RECORD_KIND_PAIR {
            break;
        }
        let len = u32::from_le_bytes(rest[1..5].try_into().unwrap()) as usize;
        if len != PAIR_PAYLOAD_LEN || rest.len() < RECORD_HEADER_LEN + len {
            break;
        }
        let want = u64::from_le_bytes(rest[5..13].try_into().unwrap());
        let payload = &rest[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        let mut sum = fnv1a64(0, &[rest[0]]);
        sum = fnv1a64(sum, &rest[1..5]);
        sum = fnv1a64(sum, payload);
        if sum != want {
            break;
        }
        records.push(decode_payload(payload));
        off += RECORD_HEADER_LEN + len;
    }
    Scan {
        records,
        clean_len: off,
        torn: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> (PairKey, StoredPair) {
        (
            PairKey {
                hash_a: n,
                hash_b: n.wrapping_mul(31) ^ 0xdead,
                method: (n % 3) as u8,
                kernel_version: 1,
            },
            StoredPair {
                similarity: n as f64 / 7.0,
                rmsd: if n.is_multiple_of(5) {
                    f64::NAN
                } else {
                    n as f64
                },
                aligned_len: n as u32,
                ops: n * 1000,
            },
        )
    }

    fn file_with(n: u64) -> Vec<u8> {
        let mut bytes = encode_superblock().to_vec();
        for k in 0..n {
            let (key, pair) = sample(k);
            bytes.extend_from_slice(&encode_record(&key, &pair));
        }
        bytes
    }

    #[test]
    fn superblock_roundtrips_and_rejects_flips() {
        let sb = encode_superblock();
        assert!(read_superblock(&sb).is_ok());
        for at in 0..SUPERBLOCK_LEN {
            let mut bad = sb;
            bad[at] ^= 0x40;
            assert!(read_superblock(&bad).is_err(), "flip at {at} accepted");
        }
        assert!(read_superblock(&sb[..SUPERBLOCK_LEN - 1]).is_err());
    }

    #[test]
    fn records_roundtrip_bitwise() {
        let bytes = file_with(20);
        let scan = scan_log(&bytes);
        assert!(!scan.torn);
        assert_eq!(scan.clean_len, bytes.len());
        assert_eq!(scan.records.len(), 20);
        for (k, (key, pair)) in scan.records.iter().enumerate() {
            let (want_key, want_pair) = sample(k as u64);
            assert_eq!(*key, want_key);
            assert!(pair.same_bits(&want_pair), "record {k} bits differ");
        }
    }

    #[test]
    fn torn_tail_keeps_the_intact_prefix() {
        let whole = file_with(5);
        for cut in SUPERBLOCK_LEN..whole.len() {
            let scan = scan_log(&whole[..cut]);
            let complete = (cut - SUPERBLOCK_LEN) / PAIR_RECORD_LEN;
            assert_eq!(scan.records.len(), complete, "cut at {cut}");
            // A cut at an exact record boundary is indistinguishable
            // from a shorter clean log; anything else is a torn tail.
            assert_eq!(
                scan.torn,
                !(cut - SUPERBLOCK_LEN).is_multiple_of(PAIR_RECORD_LEN)
            );
            assert_eq!(scan.clean_len, SUPERBLOCK_LEN + complete * PAIR_RECORD_LEN);
        }
    }

    #[test]
    fn corrupt_length_never_allocates_or_passes() {
        let mut bytes = file_with(1);
        bytes[SUPERBLOCK_LEN + 1..SUPERBLOCK_LEN + 5].copy_from_slice(&u32::MAX.to_le_bytes());
        let scan = scan_log(&bytes);
        assert!(scan.torn);
        assert!(scan.records.is_empty());
    }
}
