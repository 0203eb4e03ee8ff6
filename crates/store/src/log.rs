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

use std::array::from_fn;

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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64 over `bytes`, chained from `seed` (0 selects the standard
/// offset basis) — the tree's byte-wise FNV-1a body: store keys and
/// record checksums, gate fingerprints and the chaos fingerprints all
/// fold through it.
pub fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = if seed == 0 { FNV_OFFSET } else { seed };
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Multiplier of [`premix`]: MurmurHash64A's, odd and dense in set bits.
const PREMIX_MUL: u64 = 0xc6a4_a793_5bd1_e995;

/// Scramble one word before it enters the word fold: multiply, fold the
/// high half into the low half, multiply. Each of the three steps is a
/// bijection (odd multipliers; an xor-shift is its own inverse), so
/// `premix` is one too. A plain multiply maps a flip of bit 63 to a flip
/// of bit 63 whatever the word holds; the xor-shift sends that flip into
/// the low half, where the second multiply's carries make the result
/// depend on the word's value.
fn premix(w: u64) -> u64 {
    let k = w.wrapping_mul(PREMIX_MUL);
    (k ^ k >> 32).wrapping_mul(PREMIX_MUL)
}

/// FNV-1a 64 over premixed words, the serve-layer frame checksum's body:
/// from the offset basis, fold `head`, then each full little-endian `u64`
/// word of `bytes`, then the 0–7 tail bytes zero-padded as one last word;
/// each step is `h = (h ^ premix(w)) · FNV_PRIME`.
///
/// One dependent multiply per eight bytes instead of per byte: `premix`
/// reads only its word, so it runs ahead of the chain. For a fixed `h`
/// the step is a bijection of `w`, and every later step is a bijection
/// of `h`, so two inputs of one length that differ inside a single
/// aligned word never collide. Without `premix` the fold would let a
/// flip of bit 63 pass through every multiply unchanged, and a second
/// such flip in any later word (or in the stored value) would cancel it.
pub fn fnv1a64_words(head: u64, bytes: &[u8]) -> u64 {
    let fold = |h: u64, w: u64| (h ^ premix(w)).wrapping_mul(FNV_PRIME);
    let words = bytes.chunks_exact(8);
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    let h = words.fold(fold(FNV_OFFSET, head), |h, w| {
        let mut word = [0u8; 8];
        word.copy_from_slice(w);
        fold(h, u64::from_le_bytes(word))
    });
    fold(h, u64::from_le_bytes(tail))
}

/// Streams [`fnv1a64_lanes`] folds in lock-step.
const LANES: usize = 4;

/// FNV-1a 64 from seed 0 over `count` independent byte streams, four at
/// a time in lock-step: `fill(k, buf)` appends stream `k` to an empty
/// `buf`, and `out[k] == fnv1a64(0, stream k)`.
///
/// One fold is a serial chain of multiplies, so a single stream leaves
/// the multiplier waiting on the previous byte; four independent chains
/// step together and keep it busy (SWAPHI's inter-sequence model, with
/// hash streams for database sequences). A lane whose stream ends is
/// refilled with the next one, so streams of unequal length leave no
/// lane idle until they run out; an idle lane shadows a busy one and its
/// result is dropped.
pub fn fnv1a64_lanes(count: usize, mut fill: impl FnMut(usize, &mut Vec<u8>)) -> Vec<u64> {
    let mut out = vec![FNV_OFFSET; count];
    let mut bufs: [Vec<u8>; LANES] = Default::default();
    // Per lane: the stream it folds, its hash so far and its position.
    let mut stream: [Option<usize>; LANES] = [None; LANES];
    let mut h = [FNV_OFFSET; LANES];
    let mut at = [0usize; LANES];
    let mut next = 0;
    loop {
        for k in 0..LANES {
            while at[k] == bufs[k].len() {
                if let Some(done) = stream[k].take() {
                    out[done] = h[k];
                }
                if next == count {
                    break;
                }
                bufs[k].clear();
                fill(next, &mut bufs[k]);
                (stream[k], h[k], at[k]) = (Some(next), FNV_OFFSET, 0);
                next += 1;
            }
        }
        let busy = |k: &usize| stream[*k].is_some();
        let Some(lead) = (0..LANES).find(busy) else {
            return out;
        };
        let n = (0..LANES)
            .filter(busy)
            .map(|k| bufs[k].len() - at[k])
            .min()
            .unwrap_or(0);
        fold4(
            &mut h,
            from_fn(|k| {
                let k = if stream[k].is_some() { k } else { lead };
                &bufs[k][at[k]..at[k] + n]
            }),
        );
        for k in (0..LANES).filter(busy) {
            at[k] += n;
        }
    }
}

/// The lock-step body: one FNV-1a step per lane per byte position.
fn fold4(h: &mut [u64; LANES], [a, b, c, d]: [&[u8]; LANES]) {
    let [mut h0, mut h1, mut h2, mut h3] = *h;
    for (((&x0, &x1), &x2), &x3) in a.iter().zip(b).zip(c).zip(d) {
        h0 = (h0 ^ u64::from(x0)).wrapping_mul(FNV_PRIME);
        h1 = (h1 ^ u64::from(x1)).wrapping_mul(FNV_PRIME);
        h2 = (h2 ^ u64::from(x2)).wrapping_mul(FNV_PRIME);
        h3 = (h3 ^ u64::from(x3)).wrapping_mul(FNV_PRIME);
    }
    *h = [h0, h1, h2, h3];
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
    seal_records(&mut out);
    out
}

/// Append one pair record to `out` with its checksum field still zero —
/// how a slice append or a compaction builds its one image, which
/// [`seal_records`] then checksums in one lock-step pass.
pub(crate) fn encode_record_into(out: &mut Vec<u8>, key: &PairKey, pair: &StoredPair) {
    out.reserve(PAIR_RECORD_LEN);
    let len = PAIR_PAYLOAD_LEN as u32;
    out.push(RECORD_KIND_PAIR);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&[0; 8]); // the checksum, once sealed
    out.extend_from_slice(&key.hash_a.to_le_bytes());
    out.extend_from_slice(&key.hash_b.to_le_bytes());
    out.extend_from_slice(&key.kernel_version.to_le_bytes());
    out.push(key.method);
    out.extend_from_slice(&pair.similarity.to_bits().to_le_bytes());
    out.extend_from_slice(&pair.rmsd.to_bits().to_le_bytes());
    out.extend_from_slice(&pair.aligned_len.to_le_bytes());
    out.extend_from_slice(&pair.ops.to_le_bytes());
}

/// The checksums of one to four whole records: FNV-1a 64 over each
/// record's kind and length bytes, then its payload (everything but the
/// checksum field). Records share one layout, so the group steps the
/// lock-step body in place, segment by segment, with nothing copied; a
/// short group shadows its last record.
fn group_sums(group: &[[u8; PAIR_RECORD_LEN]]) -> [u64; LANES] {
    let lane = |k: usize| &group[k.min(group.len().saturating_sub(1))];
    let mut h = [FNV_OFFSET; LANES];
    fold4(&mut h, from_fn(|k| &lane(k)[..5]));
    fold4(&mut h, from_fn(|k| &lane(k)[RECORD_HEADER_LEN..]));
    h
}

/// Fill in the checksum field of every record in `records`, a run of
/// whole records from the [`encode_record_into`] of the same image,
/// four records per lock-step group.
pub(crate) fn seal_records(records: &mut [u8]) {
    let (records, _) = records.as_chunks_mut::<PAIR_RECORD_LEN>();
    for group in records.chunks_mut(LANES) {
        let sums = group_sums(group);
        for (record, sum) in group.iter_mut().zip(sums) {
            record[5..RECORD_HEADER_LEN].copy_from_slice(&sum.to_le_bytes());
        }
    }
}

/// The `N` bytes at `off`, zeros if they run past the end: a read that
/// cannot panic, for fields at constant offsets in a fixed-size record.
fn field<const N: usize>(bytes: &[u8], off: usize) -> [u8; N] {
    bytes
        .get(off..)
        .and_then(|rest| rest.first_chunk())
        .copied()
        .unwrap_or([0; N])
}

fn decode_payload(payload: &[u8]) -> (PairKey, StoredPair) {
    let u64_at = |off| u64::from_le_bytes(field(payload, off));
    let u32_at = |off| u32::from_le_bytes(field(payload, off));
    let key = PairKey {
        hash_a: u64_at(0),
        hash_b: u64_at(8),
        kernel_version: u32_at(16),
        method: field::<1>(payload, 20)[0],
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
    let mut records = Vec::with_capacity(bytes.len() / PAIR_RECORD_LEN);
    let clean_len = scan_records(bytes, |key, pair| records.push((key, pair)));
    Scan {
        records,
        clean_len,
        torn: clean_len != bytes.len(),
    }
}

/// [`scan_log`] handing each intact record to `accept` in log order
/// (how an open builds its index with no list in between); returns the
/// byte length of the intact prefix.
///
/// The framed prefix (whole records of a known kind and the pair
/// length) is verified four records per lock-step group, and records
/// are accepted up to the first whose checksum differs.
pub(crate) fn scan_records(bytes: &[u8], mut accept: impl FnMut(PairKey, StoredPair)) -> usize {
    // Total on any input: a file shorter than the superblock has no log
    // region at all.
    let log = bytes.get(SUPERBLOCK_LEN..).unwrap_or_default();
    let (whole, _) = log.as_chunks::<PAIR_RECORD_LEN>();
    let len = (PAIR_PAYLOAD_LEN as u32).to_le_bytes();
    let framed = whole
        .iter()
        .take_while(|r| r[0] == RECORD_KIND_PAIR && r[1..5] == len)
        .count();
    let mut intact = 0;
    'scan: for group in whole[..framed].chunks(LANES) {
        for (r, sum) in group.iter().zip(group_sums(group)) {
            if r[5..RECORD_HEADER_LEN] != sum.to_le_bytes() {
                break 'scan;
            }
            let (key, pair) = decode_payload(&r[RECORD_HEADER_LEN..]);
            accept(key, pair);
            intact += 1;
        }
    }
    (SUPERBLOCK_LEN + intact * PAIR_RECORD_LEN).min(bytes.len())
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

    /// One record's length and checksum, pinned: a change to what a
    /// record holds or how its checksum folds would orphan every log
    /// already on disk.
    #[test]
    fn a_pinned_record_keeps_its_bytes() {
        let key = PairKey {
            hash_a: 0x0123_4567_89ab_cdef,
            hash_b: 0xfedc_ba98_7654_3210,
            method: 1,
            kernel_version: 1,
        };
        let pair = StoredPair {
            similarity: 0.5,
            rmsd: f64::NAN,
            aligned_len: 77,
            ops: 123_456,
        };
        let rec = encode_record(&key, &pair);
        assert_eq!(rec.len(), 62);
        assert_eq!(rec[5..13], 0x0e64_121b_553c_8cb5u64.to_le_bytes());
        let mut bytes = encode_superblock().to_vec();
        bytes.extend_from_slice(&rec);
        let scan = scan_log(&bytes);
        assert_eq!(scan.records.len(), 1);
        assert_eq!(scan.records[0].0, key);
        assert!(scan.records[0].1.same_bits(&pair));
    }

    /// The word fold is `head`, the full words, then exactly one padded
    /// tail word — also when the tail is empty — at every length
    /// around the word boundaries.
    #[test]
    fn word_fold_folds_head_words_and_one_padded_tail() {
        let step = |h: u64, w: u64| (h ^ premix(w)).wrapping_mul(FNV_PRIME);
        for len in 0..=17usize {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let mut padded = bytes.clone();
            padded.resize(len / 8 * 8 + 8, 0);
            let want = padded.chunks(8).fold(step(FNV_OFFSET, 0xabcd), |h, w| {
                step(h, u64::from_le_bytes(w.try_into().unwrap()))
            });
            assert_eq!(fnv1a64_words(0xabcd, &bytes), want, "length {len}");
        }
    }

    /// `premix` is a bijection: undoing its steps in reverse order (the
    /// multiplier's inverse mod 2^64, the self-inverse xor-shift) gives
    /// the word back.
    #[test]
    fn premix_is_invertible() {
        // Newton's iteration doubles the correct low bits of an odd
        // number's inverse each round: 3 → 6 → … → 96 ≥ 64.
        let mut inv = PREMIX_MUL;
        for _ in 0..5 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(PREMIX_MUL.wrapping_mul(inv)));
        }
        assert_eq!(PREMIX_MUL.wrapping_mul(inv), 1);
        let unmix = |k: u64| {
            let y = k.wrapping_mul(inv);
            (y ^ y >> 32).wrapping_mul(inv)
        };
        let mut w = 0x0123_4567_89ab_cdefu64;
        for _ in 0..1_000 {
            assert_eq!(unmix(premix(w)), w);
            w = w.rotate_left(7) ^ w.wrapping_mul(FNV_PRIME);
        }
        for w in [0, 1, 1 << 63, u64::MAX] {
            assert_eq!(unmix(premix(w)), w);
        }
    }

    /// Every lane result is the one-stream fold of its stream, for any
    /// count of streams (whole groups of four and leftovers) and for
    /// empty, short and unequal streams, refilled mid-group.
    #[test]
    fn lanes_match_the_one_stream_fold() {
        let stream = |len: usize, salt: usize| -> Vec<u8> {
            (0..len).map(|i| (i * 31 + salt * 7 + 3) as u8).collect()
        };
        let mixed = [9, 0, 1, 8, 7, 0, 200, 9, 1];
        for count in 1..=9 {
            for len in [Some(0), Some(1), Some(7), Some(8), Some(9), None] {
                let streams: Vec<Vec<u8>> = (0..count)
                    .map(|k| stream(len.unwrap_or(mixed[k]), k))
                    .collect();
                let got = fnv1a64_lanes(count, |k, buf| buf.extend_from_slice(&streams[k]));
                let want: Vec<u64> = streams.iter().map(|s| fnv1a64(0, s)).collect();
                assert_eq!(got, want, "{count} streams of length {len:?}");
            }
        }
        assert!(fnv1a64_lanes(0, |_, _| unreachable!()).is_empty());
    }

    /// Flipping any byte of any record ends the scan exactly there, in a
    /// log of two lock-step groups of four and a one-record tail.
    #[test]
    fn a_flipped_byte_ends_the_scan_at_its_record() {
        let whole = file_with(9);
        for at in SUPERBLOCK_LEN..whole.len() {
            let mut bad = whole.clone();
            bad[at] ^= 0x01;
            let scan = scan_log(&bad);
            let record = (at - SUPERBLOCK_LEN) / PAIR_RECORD_LEN;
            assert_eq!(scan.records.len(), record, "flip at {at}");
            assert_eq!(scan.clean_len, SUPERBLOCK_LEN + record * PAIR_RECORD_LEN);
            assert!(scan.torn);
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
