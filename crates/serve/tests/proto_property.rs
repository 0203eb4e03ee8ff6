//! Property tests for the rck-serve frame codec (satellite of the
//! service-layer issue): arbitrary `JobBatch`/`ResultBatch` frames must
//! round-trip exactly, and the decoder must reject truncated or
//! oversized frames with an error — never a panic, never an
//! attacker-sized allocation. Since v3 chain tables are deltas, so the
//! sender's [`Resident`] bookkeeping is checked here too: whatever the
//! batch sequence, a receiver applying the tables in order holds every
//! chain a batch references, and is never sent one it already holds.

use proptest::prelude::*;
use rck_pdb::geometry::Vec3;
use rck_pdb::model::{AminoAcid, CaChain};
use rck_rcce::{Reader, Writer};
use rck_serve::dispatch::handshake;
use rck_serve::proto::{
    decode_frame, encode_frame, read_frame, Hello, JobBatch, QueryDone, QueryPartial, QueryReject,
    QuerySubmit, Resident, ResultBatch, Welcome, HEADER_LEN, MAX_PAYLOAD, PROTOCOL_VERSION,
};
use rck_serve::{Frame, FrameError, MemNet};
use rck_tmalign::MethodKind;
use rckalign::jobs::{
    decode_pair_payload, encode_pair_payload, get_chain, get_job, put_chain, put_job,
};
use rckalign::{PairJob, PairOutcome};
use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::sync::Arc;

/// A byte stream that hands a reader at most `chunks[k]` bytes on its
/// k-th read (then whatever is asked) — a socket whose reads rarely
/// land on a frame boundary.
struct Chunked<'a> {
    wire: &'a [u8],
    chunks: std::vec::IntoIter<usize>,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let chunk = self.chunks.next().unwrap_or(usize::MAX).max(1);
        let n = chunk.min(buf.len()).min(self.wire.len());
        buf[..n].copy_from_slice(&self.wire[..n]);
        self.wire = &self.wire[n..];
        Ok(n)
    }
}

/// Every frame `read_frame` yields from `wire` read in `chunks`, and
/// the bytes it reports consumed.
fn read_all(wire: &[u8], chunks: Vec<usize>) -> (Vec<Frame>, usize) {
    let mut stream = Chunked {
        wire,
        chunks: chunks.into_iter(),
    };
    let mut frames = Vec::new();
    let mut consumed = 0;
    loop {
        match read_frame(&mut stream) {
            Ok((frame, n)) => {
                frames.push(frame);
                consumed += n;
            }
            Err(FrameError::Closed) => return (frames, consumed),
            Err(e) => panic!("valid stream failed to decode: {e}"),
        }
    }
}

/// Read sizes that cut `len` bytes at the given (unsorted) positions.
fn chunks_at(splits: &[u64], len: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = splits
        .iter()
        .map(|s| (s % (len as u64 + 1)) as usize)
        .collect();
    cuts.push(0);
    cuts.sort_unstable();
    cuts.windows(2)
        .map(|w| w[1] - w[0])
        .filter(|&n| n > 0)
        .collect()
}

fn method_strategy() -> impl Strategy<Value = MethodKind> {
    (0u8..3).prop_map(|code| MethodKind::from_code(code).expect("valid method code"))
}

fn name_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..12)
        .prop_map(|raw| raw.into_iter().map(|b| (b'a' + (b % 26)) as char).collect())
}

/// A chain whose `seq` and `coords` lengths agree (the codec encodes one
/// shared length), with finite coordinates.
fn chain_strategy() -> impl Strategy<Value = CaChain> {
    let residue = (
        (0u8..20),
        (-999.0f64..999.0, -999.0f64..999.0, -999.0f64..999.0),
    );
    (name_strategy(), prop::collection::vec(residue, 0..40)).prop_map(|(name, residues)| {
        let seq = residues
            .iter()
            .map(|(aa, _)| AminoAcid::from_index(*aa))
            .collect();
        let coords = residues
            .iter()
            .map(|(_, (x, y, z))| Vec3::new(*x, *y, *z))
            .collect();
        CaChain { name, seq, coords }
    })
}

/// Coordinates the chain codec must carry exactly as the element-wise
/// reference does: signed zero, infinities, NaNs (quiet, signed, with a
/// payload), subnormals of both widths, and values beyond f32's range.
const EDGE_COORDS: [f64; 12] = [
    -0.0,
    0.0,
    f64::INFINITY,
    f64::NEG_INFINITY,
    f64::NAN,
    -f64::NAN,
    f64::from_bits(0x7ff4_dead_beef_0001),
    5e-324,
    1e-40,
    -1e-44,
    1e39,
    -f64::MAX,
];

/// A chain over the codec's whole input space: any residue code (codes
/// ≥ 20 decode as `Unknown`), lengths 0 and 1 as often as longer ones,
/// and coordinates drawn half from [`EDGE_COORDS`], half at random.
fn edge_chain_strategy() -> impl Strategy<Value = CaChain> {
    let coord = || {
        prop_oneof![
            (0..EDGE_COORDS.len()).prop_map(|k| EDGE_COORDS[k]),
            any::<f64>()
        ]
    };
    let residue = || (any::<u8>(), (coord(), coord(), coord()));
    let residues = prop_oneof![
        prop::collection::vec(residue(), 0..2),
        prop::collection::vec(residue(), 0..40)
    ];
    (name_strategy(), residues).prop_map(|(name, residues)| CaChain {
        name,
        seq: residues
            .iter()
            .map(|(code, _)| AminoAcid::from_index(*code))
            .collect(),
        coords: residues
            .iter()
            .map(|(_, (x, y, z))| Vec3::new(*x, *y, *z))
            .collect(),
    })
}

/// The element-wise chain encoder the slab codec replaced, kept as the
/// reference its bytes must equal: one call per residue code and per
/// coordinate, at f32 (`wide == false`) or f64.
fn reference_put_chain(w: &mut Writer, chain: &CaChain, wide: bool) {
    w.put_str(&chain.name);
    w.put_u32(chain.len() as u32);
    for aa in &chain.seq {
        w.put_u8(aa.index());
    }
    for c in &chain.coords {
        for v in [c.x, c.y, c.z] {
            if wide {
                w.put_f64(v);
            } else {
                w.put_f32(v as f32);
            }
        }
    }
}

/// The element-wise decoder matching [`reference_put_chain`].
fn reference_get_chain(r: &mut Reader, wide: bool) -> CaChain {
    let name = r.get_str().expect("name");
    let len = r.get_u32().expect("length") as usize;
    let seq = (0..len)
        .map(|_| AminoAcid::from_index(r.get_u8().expect("code")))
        .collect();
    let mut coord = || {
        if wide {
            r.get_f64().expect("f64")
        } else {
            r.get_f32().expect("f32") as f64
        }
    };
    let coords = (0..len)
        .map(|_| Vec3::new(coord(), coord(), coord()))
        .collect();
    CaChain { name, seq, coords }
}

/// Chains equal to the bit: names, residues, and every coordinate's
/// `to_bits` (so NaN payloads and signed zeros count).
fn same_bits(a: &CaChain, b: &CaChain) -> bool {
    let bits = |c: &CaChain| -> Vec<u64> {
        c.coords
            .iter()
            .flat_map(|p| [p.x.to_bits(), p.y.to_bits(), p.z.to_bits()])
            .collect()
    };
    a.name == b.name && a.seq == b.seq && bits(a) == bits(b)
}

/// The f64 slab codec against the reference: the same bytes, and a
/// decode with the reference decoder's bits.
fn check_f64_chain(chain: &CaChain) -> Result<(), String> {
    let mut slab = Writer::new();
    put_chain::<f64>(&mut slab, chain);
    let mut reference = Writer::new();
    reference_put_chain(&mut reference, chain, true);
    let bytes = slab.finish();
    if bytes != reference.finish() {
        return Err(format!("f64 bytes differ for {chain:?}"));
    }
    let want = reference_get_chain(&mut Reader::new(bytes.clone()), true);
    let mut r = Reader::new(bytes);
    let got = get_chain::<f64>(&mut r).map_err(|e| e.to_string())?;
    if !same_bits(&got, &want) || r.remaining() != 0 {
        return Err(format!("f64 decode differs: {got:?} vs {want:?}"));
    }
    Ok(())
}

/// The f32 on-mesh pair payload against the reference, the same way.
fn check_f32_payload(job: &PairJob, a: &CaChain, b: &CaChain) -> Result<(), String> {
    let bytes = encode_pair_payload(job, a, b);
    let mut reference = Writer::new();
    put_job(&mut reference, job);
    reference_put_chain(&mut reference, a, false);
    reference_put_chain(&mut reference, b, false);
    if bytes != reference.finish() {
        return Err(format!("f32 payload bytes differ for {a:?} / {b:?}"));
    }
    let mut r = Reader::new(bytes.clone());
    let _ = get_job(&mut r).map_err(|e| e.to_string())?;
    let want_a = reference_get_chain(&mut r, false);
    let want_b = reference_get_chain(&mut r, false);
    let got = decode_pair_payload(bytes).map_err(|e| e.to_string())?;
    if got.job != *job || !same_bits(&got.a, &want_a) || !same_bits(&got.b, &want_b) {
        return Err(format!("f32 payload decode differs: {got:?}"));
    }
    Ok(())
}

#[test]
fn chain_codec_carries_every_edge_value_as_the_reference_does() {
    // Every edge coordinate in every axis, and every residue code.
    let n = EDGE_COORDS.len();
    let coords = (0..n)
        .map(|k| {
            Vec3::new(
                EDGE_COORDS[k],
                EDGE_COORDS[(k + 1) % n],
                EDGE_COORDS[(k + 5) % n],
            )
        })
        .collect();
    let edges = CaChain {
        name: "edges".into(),
        seq: (0..n as u8)
            .map(|k| AminoAcid::from_index(k * 23))
            .collect(),
        coords,
    };
    let codes = CaChain {
        name: String::new(),
        seq: (0..=255).map(AminoAcid::from_index).collect(),
        coords: vec![Vec3::new(1.0, -2.5, 1e-300); 256],
    };
    let single = CaChain::from_coords("one", vec![Vec3::new(-0.0, f64::NAN, 1e39)]);
    let empty = CaChain::from_coords("", Vec::new());
    let job = PairJob {
        i: 7,
        j: u32::MAX,
        method: MethodKind::ContactMap,
    };
    for a in [&edges, &codes, &single, &empty] {
        check_f64_chain(a).unwrap();
        for b in [&edges, &codes, &single, &empty] {
            check_f32_payload(&job, a, b).unwrap();
        }
    }
}

fn job_batch_strategy() -> impl Strategy<Value = JobBatch> {
    (
        any::<u64>(),
        prop::collection::vec((any::<u32>(), chain_strategy()), 0..5),
        prop::collection::vec((any::<u32>(), any::<u32>(), method_strategy()), 0..20),
    )
        .prop_map(|(batch_id, chains, raw_jobs)| JobBatch {
            batch_id,
            chains: chains
                .into_iter()
                .map(|(ix, chain)| (ix, Arc::new(chain)))
                .collect(),
            jobs: raw_jobs
                .into_iter()
                .map(|(i, j, method)| PairJob { i, j, method })
                .collect(),
        })
}

fn result_batch_strategy() -> impl Strategy<Value = ResultBatch> {
    (
        any::<u64>(),
        prop::collection::vec(
            (
                (any::<u32>(), any::<u32>(), method_strategy()),
                (-10.0f64..10.0, 0.0f64..100.0),
                (any::<u32>(), any::<u64>()),
            ),
            0..30,
        ),
    )
        .prop_map(|(batch_id, rows)| ResultBatch {
            batch_id,
            outcomes: rows
                .into_iter()
                .map(
                    |((i, j, method), (similarity, rmsd), (aligned_len, ops))| PairOutcome {
                        i,
                        j,
                        method,
                        similarity,
                        rmsd,
                        aligned_len,
                        ops,
                    },
                )
                .collect(),
        })
}

/// Arbitrary serving-tier frames (protocol kinds 7–10), exercising every
/// variable-length field: tenant names, method lists, chains, outcome
/// slices, ranking rows and refusal reasons.
fn query_frame_strategy() -> impl Strategy<Value = Frame> {
    let submit = (
        name_strategy(),
        any::<u64>(),
        any::<u32>(),
        prop::collection::vec(method_strategy(), 0..4),
        chain_strategy(),
    )
        .prop_map(|(tenant, query_id, weight, methods, chain)| {
            Frame::QuerySubmit(QuerySubmit {
                tenant,
                query_id,
                weight,
                methods,
                chain,
            })
        });
    let partial = (
        any::<u64>(),
        any::<u32>(),
        any::<u32>(),
        result_batch_strategy(),
    )
        .prop_map(|(query_id, done, total, rb)| {
            Frame::QueryPartial(QueryPartial {
                query_id,
                done,
                total,
                outcomes: rb.outcomes,
            })
        });
    let done = (
        any::<u64>(),
        prop::collection::vec((any::<u32>(), -10.0f64..10.0), 0..40),
    )
        .prop_map(|(query_id, ranking)| Frame::QueryDone(QueryDone { query_id, ranking }));
    let reject = (any::<u64>(), name_strategy())
        .prop_map(|(query_id, reason)| Frame::QueryReject(QueryReject { query_id, reason }));
    prop_oneof![submit, partial, done, reject]
}

proptest! {
    #[test]
    fn chain_codec_equals_the_element_wise_reference_at_both_widths(
        a in edge_chain_strategy(),
        b in edge_chain_strategy(),
        (i, j, method) in (any::<u32>(), any::<u32>(), method_strategy()),
    ) {
        prop_assert_eq!(check_f64_chain(&a), Ok(()));
        prop_assert_eq!(check_f32_payload(&PairJob { i, j, method }, &a, &b), Ok(()));
    }

    #[test]
    fn job_batch_roundtrips(batch in job_batch_strategy()) {
        let frame = Frame::JobBatch(batch);
        let bytes = encode_frame(&frame);
        let (back, used) = decode_frame(&bytes).expect("well-formed frame decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn shipped_tables_cover_every_reference_and_repeat_nothing(
        pool in prop::collection::vec(chain_strategy(), 2..6),
        // One batch: jobs as (i, j) over 4 dataset slots plus slot 4, the
        // gate's shared query slot, whose content is `query` of the pool.
        batches in prop::collection::vec(
            (prop::collection::vec((0u32..5, 0u32..5), 0..6), 0usize..6),
            1..12,
        ),
    ) {
        let pool: Vec<Arc<CaChain>> = pool.into_iter().map(Arc::new).collect();
        let mut resident = Resident::default();
        // What a receiver applying every table in order holds.
        let mut peer: HashMap<u32, Arc<CaChain>> = HashMap::new();
        let mut identities_at: HashMap<u32, HashSet<*const CaChain>> = HashMap::new();
        let mut ships_of: HashMap<u32, usize> = HashMap::new();
        for (raw_jobs, query) in batches {
            let jobs: Vec<PairJob> = raw_jobs
                .into_iter()
                .map(|(i, j)| PairJob { i, j, method: MethodKind::TmAlign })
                .collect();
            let lookup = |ix: u32| {
                let slot = if ix == 4 { query } else { ix as usize };
                Some(Arc::clone(&pool[slot % pool.len()]))
            };
            for (ix, chain) in resident.delta(&jobs, lookup) {
                let held = peer.insert(ix, Arc::clone(&chain));
                prop_assert!(
                    held.is_none_or(|h| !Arc::ptr_eq(&h, &chain)),
                    "chain {ix} shipped while the peer already held it"
                );
                *ships_of.entry(ix).or_default() += 1;
            }
            for ix in rckalign::chain_indices(&jobs) {
                let want = lookup(ix).expect("every slot resolves");
                prop_assert!(
                    peer.get(&ix).is_some_and(|h| Arc::ptr_eq(h, &want)),
                    "batch references ({ix}, identity) the peer does not hold"
                );
                identities_at.entry(ix).or_default().insert(Arc::as_ptr(&want));
            }
        }
        // A slot that only ever had one identity shipped exactly once.
        for (ix, identities) in identities_at {
            if identities.len() == 1 {
                prop_assert_eq!(ships_of[&ix], 1, "stable slot {} re-shipped", ix);
            }
        }
    }

    #[test]
    fn result_batch_roundtrips(batch in result_batch_strategy()) {
        let frame = Frame::ResultBatch(batch);
        let bytes = encode_frame(&frame);
        let (back, used) = decode_frame(&bytes).expect("well-formed frame decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn query_frames_roundtrip(frame in query_frame_strategy()) {
        let bytes = encode_frame(&frame);
        let (back, used) = decode_frame(&bytes).expect("well-formed frame decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, frame);
    }

    #[test]
    fn garbled_query_frames_error_without_panicking(
        frame in query_frame_strategy(),
        flip_seed in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = encode_frame(&frame);
        let pos = (flip_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= xor;
        prop_assert!(decode_frame(&bytes).is_err(), "flip at {pos} decoded");
    }

    #[test]
    fn query_frames_decode_identically_at_any_split_points(
        frames in prop::collection::vec(query_frame_strategy(), 1..5),
        splits in prop::collection::vec(any::<u64>(), 0..8),
    ) {
        // The serving tier streams query frames over chatty connections;
        // whole-buffer and arbitrarily-chunked reads must agree exactly.
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }

        prop_assert_eq!(read_all(&wire, Vec::new()), (frames.clone(), wire.len()));
        let chunked = read_all(&wire, chunks_at(&splits, wire.len()));
        prop_assert_eq!(chunked, (frames, wire.len()));
    }

    #[test]
    fn truncated_frames_error_without_panicking(
        batch in job_batch_strategy(),
        cut_seed in any::<u64>(),
    ) {
        let bytes = encode_frame(&Frame::JobBatch(batch));
        let cut = (cut_seed % bytes.len() as u64) as usize;
        prop_assert!(
            decode_frame(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte frame decoded",
            bytes.len()
        );
    }

    #[test]
    fn garbled_payloads_error_without_panicking(
        batch in result_batch_strategy(),
        flip_seed in any::<u64>(),
        xor in 1u8..=255,
    ) {
        let mut bytes = encode_frame(&Frame::ResultBatch(batch));
        let pos = (flip_seed % bytes.len() as u64) as usize;
        bytes[pos] ^= xor;
        // Since protocol v2 every single-byte flip is caught: either a
        // structural header check or the frame checksum fires. It must
        // never decode to different data, and never panic.
        prop_assert!(decode_frame(&bytes).is_err(), "flip at {pos} decoded");
    }

    #[test]
    fn oversized_headers_are_rejected_before_allocation(
        excess in 1u64..=u32::MAX as u64 - MAX_PAYLOAD as u64,
    ) {
        // A header declaring more than MAX_PAYLOAD bytes, with no body:
        // must be rejected as Oversized, not attempted (or allocated).
        // payload_len sits at bytes 7..11 of the v2 header; the stale
        // checksum behind it is irrelevant because the size check fires
        // during header parsing, before any payload is read or hashed.
        let mut bytes = encode_frame(&Frame::Shutdown);
        let huge = (MAX_PAYLOAD as u64 + excess) as u32;
        bytes[7..11].copy_from_slice(&huge.to_le_bytes());
        prop_assert!(matches!(
            decode_frame(&bytes),
            Err(FrameError::Oversized(n)) if n == huge as usize
        ));
    }

    #[test]
    fn codec_decodes_identically_at_any_split_points(
        batches in prop::collection::vec(result_batch_strategy(), 1..4),
        splits in prop::collection::vec(any::<u64>(), 0..8),
    ) {
        // One wire image, three read disciplines — whole buffer,
        // byte-at-a-time, random split points — must all yield the same
        // frame sequence with every byte accounted for.
        let frames: Vec<Frame> = batches.into_iter().map(Frame::ResultBatch).collect();
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&encode_frame(f));
        }

        let whole = read_all(&wire, Vec::new());
        prop_assert_eq!(whole, (frames.clone(), wire.len()));
        let bytewise = read_all(&wire, vec![1; wire.len()]);
        prop_assert_eq!(bytewise, (frames.clone(), wire.len()));
        let chunked = read_all(&wire, chunks_at(&splits, wire.len()));
        prop_assert_eq!(chunked, (frames, wire.len()));
    }
}

#[test]
fn codec_rejects_oversized_header_before_the_payload_arrives() {
    // The 64 MiB cap must fire from the 19 header bytes alone — an
    // attacker must not be able to park an unbounded allocation behind
    // a huge declared length.
    let mut header = encode_frame(&Frame::Shutdown);
    header.truncate(HEADER_LEN);
    header[7..11].copy_from_slice(&(u32::MAX).to_le_bytes());
    assert!(matches!(
        read_frame(&mut &header[..]),
        Err(FrameError::Oversized(_))
    ));
}

/// A v2 peer cannot work against v3 chain tables (it would fail every
/// batch after a connection's first), so it is turned away before any
/// work is dispatched — whether it announces itself in the frame header
/// or only in its Hello.
#[test]
fn a_v2_hello_is_refused_by_the_v3_handshake() {
    let hello = |protocol_version| {
        encode_frame(&Frame::Hello(Hello {
            protocol_version,
            worker_name: "old".to_string(),
        }))
    };
    let mut v2_header = hello(2);
    v2_header[4..6].copy_from_slice(&2u16.to_le_bytes());
    for (bytes, welcomed) in [
        (v2_header, false),
        (hello(2), false),
        (hello(PROTOCOL_VERSION), true),
    ] {
        let (mut peer, mut server) = MemNet::pair();
        peer.write_all(&bytes).expect("hello written");
        let greeted = handshake(
            "[test]",
            |_| {},
            &mut server,
            || Welcome {
                worker_id: 0,
                n_chains: 0,
            },
        );
        assert_eq!(greeted.is_some(), welcomed);
    }
}

#[test]
fn empty_input_is_truncated_not_panic() {
    assert!(matches!(decode_frame(&[]), Err(FrameError::Truncated)));
    assert!(matches!(
        decode_frame(&[0u8; HEADER_LEN - 1]),
        Err(FrameError::Truncated)
    ));
}
