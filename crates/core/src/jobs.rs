//! All-vs-all job generation and the rckAlign wire formats.
//!
//! The master loads every structure, builds one job per unordered pair
//! (all-vs-all), and ships each job — **including both chains' data** — to
//! a slave. Shipping the coordinates with the job is the heart of the
//! paper's design: the single master is the only process touching storage,
//! so the NFS bottleneck of the distributed baseline disappears, at the
//! price of the on-mesh traffic this module's encodings make realistic.

use rck_pdb::geometry::Vec3;
use rck_pdb::model::{AminoAcid, CaChain};
use rck_rcce::{DecodeError, Reader, Writer};
use rck_tmalign::MethodKind;
use serde::{Deserialize, Serialize};

/// A pairwise-comparison job: compare chains `i` and `j` with `method`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PairJob {
    /// Index of the first chain in the dataset.
    pub i: u32,
    /// Index of the second chain.
    pub j: u32,
    /// Comparison method to run.
    pub method: MethodKind,
}

/// All unordered distinct pairs `(i, j)`, `i < j` — the all-vs-all task.
pub fn all_vs_all(n: usize, method: MethodKind) -> Vec<PairJob> {
    let mut jobs = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            jobs.push(PairJob {
                i: i as u32,
                j: j as u32,
                method,
            });
        }
    }
    jobs
}

/// Number of all-vs-all jobs for `n` chains.
pub fn pair_count(n: usize) -> usize {
    n * n.saturating_sub(1) / 2
}

/// Split an (already ordered) job list into dispatch batches of at most
/// `batch_size` jobs, preserving order. The unit a distribution layer —
/// the NoC farm's per-core hand-outs or `rck-serve`'s network frames —
/// actually ships.
///
/// # Panics
/// Panics if `batch_size` is zero.
pub fn batch_jobs(jobs: &[PairJob], batch_size: usize) -> Vec<Vec<PairJob>> {
    assert!(batch_size >= 1, "batch_size must be at least 1");
    jobs.chunks(batch_size).map(|c| c.to_vec()).collect()
}

/// The distinct chain indices a set of jobs touches, ascending — the
/// chain table a batched job message must carry.
pub fn chain_indices(jobs: &[PairJob]) -> Vec<u32> {
    let mut ix: Vec<u32> = jobs.iter().flat_map(|j| [j.i, j.j]).collect();
    ix.sort_unstable();
    ix.dedup();
    ix
}

/// The float type chain coordinates cross a wire as. `f32` on the
/// simulated mesh: the paper's C port ships f32, and it halves on-mesh
/// traffic. `f64` in `rck-serve` frames: the service promises results
/// bit-identical to an in-process run, so workers must see exactly the
/// bytes the master loaded.
pub trait WireCoord {
    /// Bytes one coordinate takes on the wire.
    const BYTES: usize;
    /// Write `v` little-endian into `out`, which is `BYTES` long.
    fn put(v: f64, out: &mut [u8]);
    /// Read back a coordinate from `BYTES` little-endian bytes.
    fn get(b: &[u8]) -> f64;
}

impl WireCoord for f32 {
    const BYTES: usize = 4;

    #[inline]
    fn put(v: f64, out: &mut [u8]) {
        out.copy_from_slice(&(v as f32).to_le_bytes());
    }

    #[inline]
    fn get(b: &[u8]) -> f64 {
        let mut le = [0; 4];
        le.copy_from_slice(b);
        f32::from_le_bytes(le) as f64
    }
}

impl WireCoord for f64 {
    const BYTES: usize = 8;

    #[inline]
    fn put(v: f64, out: &mut [u8]) {
        out.copy_from_slice(&v.to_le_bytes());
    }

    #[inline]
    fn get(b: &[u8]) -> f64 {
        let mut le = [0; 8];
        le.copy_from_slice(b);
        f64::from_le_bytes(le)
    }
}

/// Encode one chain with coordinates of width `C`: the name, the
/// residue count, the residue codes as one slab (1 byte a residue) and
/// the CA coordinates as one slab (3 × `C::BYTES` a residue) — what
/// rckAlign moves per comparison over the mesh (`f32`) and what a
/// `rck-serve` chain table carries (`f64`).
pub fn put_chain<C: WireCoord>(w: &mut Writer, chain: &CaChain) {
    w.put_str(&chain.name);
    w.put_u32(chain.len() as u32);
    w.put_with(chain.seq.len(), |out| {
        for (code, aa) in out.iter_mut().zip(&chain.seq) {
            *code = aa.index();
        }
    });
    w.put_with(3 * C::BYTES * chain.coords.len(), |out| {
        for (xyz, c) in out.chunks_exact_mut(3 * C::BYTES).zip(&chain.coords) {
            for (slot, v) in xyz.chunks_exact_mut(C::BYTES).zip([c.x, c.y, c.z]) {
                C::put(v, slot);
            }
        }
    });
}

/// Decode a [`put_chain`] record of the same width. A residue count the
/// remaining bytes cannot hold is refused as `"chain length"` before
/// anything of that size is allocated.
pub fn get_chain<C: WireCoord>(r: &mut Reader) -> Result<CaChain, DecodeError> {
    let name = r.get_str()?;
    let len = r.get_u32()? as usize;
    let stride = 3 * C::BYTES;
    if len.saturating_mul(1 + stride) > r.remaining() {
        return Err(DecodeError {
            what: "chain length",
        });
    }
    let seq = r.take(len, "residue codes", |codes| {
        codes.iter().copied().map(AminoAcid::from_index).collect()
    })?;
    let coords = r.take(len * stride, "coordinates", |slab| {
        let w = C::BYTES;
        slab.chunks_exact(stride)
            .map(|xyz| {
                Vec3::new(
                    C::get(&xyz[..w]),
                    C::get(&xyz[w..2 * w]),
                    C::get(&xyz[2 * w..]),
                )
            })
            .collect()
    })?;
    Ok(CaChain { name, seq, coords })
}

/// The 9-byte `(i, j, method)` job record, shared by the on-mesh
/// payloads below and the `rck-serve` frames.
#[inline]
pub fn put_job(w: &mut Writer, job: &PairJob) {
    w.put_u32(job.i).put_u32(job.j).put_u8(job.method.code());
}

/// Decode a [`put_job`] record.
#[inline]
pub fn get_job(r: &mut Reader) -> Result<PairJob, DecodeError> {
    let i = r.get_u32()?;
    let j = r.get_u32()?;
    let method = MethodKind::from_code(r.get_u8()?).ok_or(DecodeError {
        what: "method code",
    })?;
    Ok(PairJob { i, j, method })
}

/// Encode a job payload: indices, method, and both chains' data.
pub fn encode_pair_payload(job: &PairJob, a: &CaChain, b: &CaChain) -> Vec<u8> {
    let mut w = Writer::with_capacity(32 + a.wire_size() + b.wire_size());
    put_job(&mut w, job);
    put_chain::<f32>(&mut w, a);
    put_chain::<f32>(&mut w, b);
    w.finish()
}

/// A decoded job payload.
#[derive(Debug, Clone, PartialEq)]
pub struct PairPayload {
    /// The job descriptor.
    pub job: PairJob,
    /// First chain.
    pub a: CaChain,
    /// Second chain.
    pub b: CaChain,
}

/// Decode a job payload.
pub fn decode_pair_payload(data: Vec<u8>) -> Result<PairPayload, DecodeError> {
    let mut r = Reader::new(data);
    let job = get_job(&mut r)?;
    let a = get_chain::<f32>(&mut r)?;
    let b = get_chain::<f32>(&mut r)?;
    Ok(PairPayload { job, a, b })
}

/// The per-pair outcome every method reduces to on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PairOutcome {
    /// First chain index.
    pub i: u32,
    /// Second chain index.
    pub j: u32,
    /// Method that produced the outcome.
    pub method: MethodKind,
    /// Similarity in [0, 1] (TM-score normalised by the shorter chain,
    /// for TM-align).
    pub similarity: f64,
    /// RMSD over the compared region (NaN when the method defines none).
    pub rmsd: f64,
    /// Residue pairs the score is based on.
    pub aligned_len: u32,
    /// Kernel operations the comparison cost.
    pub ops: u64,
}

/// The 37-byte outcome record, shared by the slave → master result
/// payload below and the `rck-serve` frames.
#[inline]
pub fn put_outcome(w: &mut Writer, o: &PairOutcome) {
    w.put_u32(o.i)
        .put_u32(o.j)
        .put_u8(o.method.code())
        .put_f64(o.similarity)
        .put_f64(o.rmsd)
        .put_u32(o.aligned_len)
        .put_u64(o.ops);
}

/// Decode a [`put_outcome`] record.
#[inline]
pub fn get_outcome(r: &mut Reader) -> Result<PairOutcome, DecodeError> {
    Ok(PairOutcome {
        i: r.get_u32()?,
        j: r.get_u32()?,
        method: MethodKind::from_code(r.get_u8()?).ok_or(DecodeError {
            what: "method code",
        })?,
        similarity: r.get_f64()?,
        rmsd: r.get_f64()?,
        aligned_len: r.get_u32()?,
        ops: r.get_u64()?,
    })
}

/// Encode a result payload (sent slave → master).
pub fn encode_outcome(o: &PairOutcome) -> Vec<u8> {
    let mut w = Writer::with_capacity(40);
    put_outcome(&mut w, o);
    w.finish()
}

/// Decode a result payload.
pub fn decode_outcome(data: Vec<u8>) -> Result<PairOutcome, DecodeError> {
    get_outcome(&mut Reader::new(data))
}

/// A dense similarity matrix assembled from all-vs-all outcomes — what the
/// biologist actually wants back (the ranked-retrieval substrate).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimilarityMatrix {
    n: usize,
    /// Row-major `n × n`; diagonal fixed at 1.
    values: Vec<f64>,
}

impl SimilarityMatrix {
    /// Build from outcomes over `n` chains. Missing pairs stay at NaN.
    pub fn from_outcomes(n: usize, outcomes: &[PairOutcome]) -> SimilarityMatrix {
        let mut values = vec![f64::NAN; n * n];
        for k in 0..n {
            values[k * n + k] = 1.0;
        }
        let mut m = SimilarityMatrix { n, values };
        for o in outcomes {
            m.set(o.i as usize, o.j as usize, o.similarity);
        }
        m
    }

    /// Number of chains.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrix is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    fn set(&mut self, i: usize, j: usize, v: f64) {
        self.values[i * self.n + j] = v;
        self.values[j * self.n + i] = v;
    }

    /// Similarity of chains `i` and `j` (NaN if never compared).
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.values[i * self.n + j]
    }

    /// Indices of the chains most similar to `query`, best first —
    /// the ranked list the paper's introduction motivates.
    pub fn ranked_neighbours(&self, query: usize) -> Vec<(usize, f64)> {
        let mut out: Vec<(usize, f64)> = (0..self.n)
            .filter(|&k| k != query)
            .map(|k| (k, self.get(query, k)))
            .filter(|(_, v)| !v.is_nan())
            .collect();
        // NaN is filtered out above, so every pair compares.
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    /// Fraction of off-diagonal entries that have been filled.
    pub fn coverage(&self) -> f64 {
        if self.n < 2 {
            return 1.0;
        }
        let filled = self
            .values
            .iter()
            .enumerate()
            .filter(|(k, v)| !v.is_nan() && k / self.n != k % self.n)
            .count();
        filled as f64 / (self.n * self.n - self.n) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_pdb::datasets::tiny_profile;

    #[test]
    fn all_vs_all_counts() {
        assert_eq!(all_vs_all(34, MethodKind::TmAlign).len(), 561);
        assert_eq!(all_vs_all(119, MethodKind::TmAlign).len(), 7021);
        assert_eq!(pair_count(34), 561);
        assert_eq!(pair_count(0), 0);
        assert_eq!(pair_count(1), 0);
    }

    #[test]
    fn batching_covers_everything_in_order() {
        let jobs = all_vs_all(9, MethodKind::TmAlign); // 36 jobs
        let batches = batch_jobs(&jobs, 10);
        assert_eq!(batches.len(), 4);
        assert!(batches[..3].iter().all(|b| b.len() == 10));
        assert_eq!(batches[3].len(), 6);
        let flat: Vec<PairJob> = batches.into_iter().flatten().collect();
        assert_eq!(flat, jobs);
        // Oversized batch size → one batch; empty input → none.
        assert_eq!(batch_jobs(&jobs, 1000).len(), 1);
        assert!(batch_jobs(&[], 4).is_empty());
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_size_rejected() {
        let _ = batch_jobs(&[], 0);
    }

    #[test]
    fn chain_indices_are_sorted_unique() {
        let jobs = vec![
            PairJob {
                i: 3,
                j: 7,
                method: MethodKind::TmAlign,
            },
            PairJob {
                i: 0,
                j: 3,
                method: MethodKind::TmAlign,
            },
            PairJob {
                i: 7,
                j: 9,
                method: MethodKind::TmAlign,
            },
        ];
        assert_eq!(chain_indices(&jobs), vec![0, 3, 7, 9]);
        assert!(chain_indices(&[]).is_empty());
    }

    #[test]
    fn all_vs_all_pairs_are_unique_ordered() {
        let jobs = all_vs_all(10, MethodKind::TmAlign);
        for j in &jobs {
            assert!(j.i < j.j);
        }
        let mut keys: Vec<(u32, u32)> = jobs.iter().map(|j| (j.i, j.j)).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), 45);
    }

    #[test]
    fn payload_roundtrip_preserves_chains() {
        let chains = tiny_profile().generate(3);
        let job = PairJob {
            i: 0,
            j: 5,
            method: MethodKind::TmAlign,
        };
        let data = encode_pair_payload(&job, &chains[0], &chains[5]);
        let decoded = decode_pair_payload(data).unwrap();
        assert_eq!(decoded.job, job);
        assert_eq!(decoded.a.name, chains[0].name);
        assert_eq!(decoded.a.seq, chains[0].seq);
        assert_eq!(decoded.b.len(), chains[5].len());
        // Coordinates go through f32: equal to ~1e-4 Å.
        for (orig, back) in chains[0].coords.iter().zip(&decoded.a.coords) {
            assert!(orig.dist(*back) < 1e-3);
        }
    }

    #[test]
    fn payload_size_tracks_wire_size_estimate() {
        let chains = tiny_profile().generate(4);
        let job = PairJob {
            i: 0,
            j: 1,
            method: MethodKind::TmAlign,
        };
        let data = encode_pair_payload(&job, &chains[0], &chains[1]);
        let estimate = chains[0].wire_size() + chains[1].wire_size();
        assert!(
            (data.len() as i64 - estimate as i64).unsigned_abs() < 64,
            "encoded {} vs estimate {}",
            data.len(),
            estimate
        );
    }

    #[test]
    fn outcome_roundtrip() {
        let o = PairOutcome {
            i: 3,
            j: 9,
            method: MethodKind::ContactMap,
            similarity: 0.73,
            rmsd: f64::NAN,
            aligned_len: 88,
            ops: 1234567,
        };
        let back = decode_outcome(encode_outcome(&o)).unwrap();
        assert_eq!(back.i, 3);
        assert_eq!(back.j, 9);
        assert_eq!(back.method, MethodKind::ContactMap);
        assert_eq!(back.similarity, 0.73);
        assert!(back.rmsd.is_nan());
        assert_eq!(back.aligned_len, 88);
        assert_eq!(back.ops, 1234567);
    }

    #[test]
    fn corrupt_payload_is_error() {
        assert!(decode_pair_payload(vec![1, 2, 3]).is_err());
        assert!(decode_outcome(vec![]).is_err());
        // Bad method code.
        let mut w = Writer::new();
        w.put_u32(0).put_u32(1).put_u8(200);
        assert!(decode_pair_payload(w.finish()).is_err());
    }

    #[test]
    fn a_chain_length_lie_is_refused_before_reserving_it() {
        // The first chain claims u32::MAX residues and holds three: the
        // guard must refuse the count itself, not reserve for it and then
        // run out of residue bytes.
        let job = PairJob {
            i: 0,
            j: 1,
            method: MethodKind::TmAlign,
        };
        let mut w = Writer::new();
        put_job(&mut w, &job);
        w.put_str("liar").put_u32(u32::MAX).put_with(3 * 13, |_| ());
        let e = decode_pair_payload(w.finish()).unwrap_err();
        assert_eq!(e.what, "chain length");
    }

    #[test]
    fn every_truncation_of_a_pair_payload_is_an_error() {
        let chains = tiny_profile().generate(3);
        let job = PairJob {
            i: 1,
            j: 2,
            method: MethodKind::KabschRmsd,
        };
        let data = encode_pair_payload(&job, &chains[1], &chains[2]);
        for cut in 0..data.len() {
            assert!(
                decode_pair_payload(data[..cut].to_vec()).is_err(),
                "a {cut}-byte prefix of a {}-byte payload decoded",
                data.len()
            );
        }
        assert!(decode_pair_payload(data).is_ok());
    }

    #[test]
    fn similarity_matrix_ranking() {
        let outcomes = vec![
            PairOutcome {
                i: 0,
                j: 1,
                method: MethodKind::TmAlign,
                similarity: 0.9,
                rmsd: 1.0,
                aligned_len: 10,
                ops: 1,
            },
            PairOutcome {
                i: 0,
                j: 2,
                method: MethodKind::TmAlign,
                similarity: 0.3,
                rmsd: 5.0,
                aligned_len: 8,
                ops: 1,
            },
            PairOutcome {
                i: 1,
                j: 2,
                method: MethodKind::TmAlign,
                similarity: 0.5,
                rmsd: 3.0,
                aligned_len: 9,
                ops: 1,
            },
        ];
        let m = SimilarityMatrix::from_outcomes(3, &outcomes);
        assert_eq!(m.len(), 3);
        assert!((m.get(0, 1) - 0.9).abs() < 1e-12);
        assert!((m.get(1, 0) - 0.9).abs() < 1e-12);
        assert_eq!(m.get(2, 2), 1.0);
        let ranked = m.ranked_neighbours(0);
        assert_eq!(ranked[0].0, 1);
        assert_eq!(ranked[1].0, 2);
        assert!((m.coverage() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_matrix_coverage() {
        let outcomes = vec![PairOutcome {
            i: 0,
            j: 1,
            method: MethodKind::TmAlign,
            similarity: 0.5,
            rmsd: 2.0,
            aligned_len: 5,
            ops: 1,
        }];
        let m = SimilarityMatrix::from_outcomes(4, &outcomes);
        assert!((m.coverage() - 2.0 / 12.0).abs() < 1e-12);
        assert!(m.get(2, 3).is_nan());
        assert_eq!(m.ranked_neighbours(3).len(), 0);
    }
}
