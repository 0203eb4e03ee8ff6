//! The rck-serve wire protocol: versioned, length-prefixed frames.
//!
//! Framing (all integers little-endian, via the `rck-rcce` codec):
//!
//! ```text
//! +--------+---------+------+-------------+----------+=========+
//! | magic  | version | kind | payload_len | checksum | payload |
//! |  u32   |   u16   |  u8  |     u32     |   u64    |  bytes  |
//! +--------+---------+------+-------------+----------+=========+
//! ```
//!
//! The decoder rejects bad magic, unknown versions/kinds, and payload
//! lengths beyond [`MAX_PAYLOAD`] *before* allocating, and reports
//! truncation as an error rather than panicking — the frame boundary is
//! the trust boundary of the service.
//!
//! `checksum` is FNV-1a 64 over the kind byte, the payload length, and
//! the payload bytes (see [`rckalign::fnv1a64`]). Protocol version 2
//! added it so a corrupted or torn frame is *always* rejected instead of
//! decoding into a structurally-valid-but-wrong message: the chaos harness
//! ([`crate::chaos`]) injects exactly such corruption, and the service's
//! bit-identical-matrix guarantee relies on every damaged result frame
//! being refused at this boundary.
//!
//! Protocol version 3 keeps every layout and makes the chain tables of
//! [`JobBatch`] and [`TileGrant`] **deltas**: the receiver keeps an
//! index → chain table for the life of the connection and the sender
//! ([`Resident`]) ships only what it lacks. The protocol is stateless
//! *across* connections; a v2 peer is refused at the handshake.
//!
//! Chains cross in the one chain codec the simulator's on-mesh job
//! payloads use (`rckalign::jobs::{put_chain, get_chain}`), at the other
//! width: where the mesh ships f32 coordinates (halved mesh traffic
//! matters there), job batches carry **f64 coordinates**: the service
//! promises results bit-identical to an in-process
//! [`rckalign::run_all_vs_all`], so workers must see exactly the bytes
//! the master loaded.

use rck_pdb::model::CaChain;
use rck_rcce::{DecodeError, Reader, Writer};
use rck_tmalign::MethodKind;
use rckalign::jobs::{get_chain, get_job, get_outcome, put_chain, put_job, put_outcome};
use rckalign::{fnv1a64, PairJob, PairOutcome};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{Read, Write as IoWrite};
use std::sync::Arc;

/// Protocol magic: `"RCKS"`.
pub const MAGIC: u32 = 0x5243_4B53;

/// Current protocol version (2: frame checksums; 3: chain tables are
/// deltas against the connection's resident set).
pub const PROTOCOL_VERSION: u16 = 3;

/// Frame header size in bytes (magic + version + kind + payload length +
/// checksum).
pub const HEADER_LEN: usize = 4 + 2 + 1 + 4 + 8;

/// Largest accepted payload (64 MiB) — caps allocation from the wire.
pub const MAX_PAYLOAD: usize = 64 << 20;

/// Worker → master greeting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Hello {
    /// Worker's protocol version (must equal [`PROTOCOL_VERSION`]).
    pub protocol_version: u16,
    /// Human-readable worker name (shown in the stats table).
    pub worker_name: String,
}

/// Master → worker greeting reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Welcome {
    /// Id the master assigned this worker.
    pub worker_id: u32,
    /// Number of chains in the dataset being compared.
    pub n_chains: u32,
}

/// A chain table: `(dataset index, chain)` rows, sharing the chains.
pub type ChainTable = Vec<(u32, Arc<CaChain>)>;

/// Master → worker: a batch of comparison jobs plus the chains they
/// reference that this connection has not carried yet (the worker is
/// stateless across connections; data ships with the first work).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobBatch {
    /// Dispatch id — echoed back in the matching [`ResultBatch`].
    pub batch_id: u64,
    /// A row for every index the jobs use that the worker does not hold;
    /// a row for an index it holds replaces the chain.
    pub chains: ChainTable,
    /// The jobs; `i`/`j` index `chains` or an earlier table.
    pub jobs: Vec<PairJob>,
}

/// Worker → master: outcomes of one batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResultBatch {
    /// The batch these outcomes answer.
    pub batch_id: u64,
    /// One outcome per job of the batch, in any order.
    pub outcomes: Vec<PairOutcome>,
}

/// Worker → master liveness signal, sent while computing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Heartbeat {
    /// Sender's worker id.
    pub worker_id: u32,
    /// Jobs completed by this worker so far (monotonic).
    pub completed: u64,
}

/// Client → gate: submit one query chain for comparison against the
/// gate's resident database (the serving tier's unit of work).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuerySubmit {
    /// Tenant this query bills to — the unit of fairness and admission.
    pub tenant: String,
    /// Client-chosen id, echoed in every reply frame for this query.
    pub query_id: u64,
    /// Tenant scheduling weight (≥ 1); higher weights earn a larger
    /// share of the worker pool under contention.
    pub weight: u32,
    /// Comparison methods to run the query under.
    pub methods: Vec<MethodKind>,
    /// The query structure itself (exact f64 coordinates — the gate
    /// promises rankings bit-identical to an in-process run).
    pub chain: CaChain,
}

/// Gate → client: a slice of finished pair outcomes for one query,
/// streamed as worker batches complete.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryPartial {
    /// The query these outcomes belong to.
    pub query_id: u64,
    /// Jobs finished so far (monotonic, cumulative).
    pub done: u32,
    /// Total jobs this query expands to.
    pub total: u32,
    /// Newly finished outcomes since the previous partial.
    pub outcomes: Vec<PairOutcome>,
}

/// Gate → client: terminal frame of a successful query — the final
/// consensus ranking over the database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryDone {
    /// The query this ranking answers.
    pub query_id: u64,
    /// `(database index, score)` rows, best first (exact f64 scores).
    pub ranking: Vec<(u32, f64)>,
}

/// Gate → client: terminal frame of a refused query (admission control,
/// bad request, or shutdown drain).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryReject {
    /// The query being refused.
    pub query_id: u64,
    /// Human-readable refusal reason.
    pub reason: String,
}

/// Frontend → shard master: ownership of one tile of the pair matrix.
/// Like a [`JobBatch`], the grant carries the chains its jobs reference
/// that this connection has not, so a shard master never touches storage.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileGrant {
    /// Tile id in the frontend's partition — echoed in [`TileResult`].
    pub tile_id: u32,
    /// A row for every index the jobs use that the master lacks.
    pub chains: ChainTable,
    /// The tile's jobs; `i`/`j` index `chains` or an earlier grant.
    pub jobs: Vec<PairJob>,
}

/// Shard master → frontend: the completed sub-matrix of one tile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TileResult {
    /// The tile these outcomes answer.
    pub tile_id: u32,
    /// One outcome per job of the tile's grant, in any order.
    pub outcomes: Vec<PairOutcome>,
}

/// Shard master → frontend: a work-pull credit. Sent after the
/// handshake (once per prefetch slot) and after every [`TileResult`];
/// the frontend answers each credit with a [`TileGrant`] — from the
/// master's own ownership queue, or *stolen* from the tail of the
/// longest other queue once its own has drained — or an eventual
/// `Shutdown` when the whole partition is accounted for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StealRequest {
    /// Sender's master id (assigned in the Welcome).
    pub master_id: u32,
    /// Tiles this master has completed so far (monotonic).
    pub tiles_done: u32,
}

/// One protocol message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Frame {
    /// Worker greeting.
    Hello(Hello),
    /// Master greeting reply.
    Welcome(Welcome),
    /// Work (master → worker).
    JobBatch(JobBatch),
    /// Results (worker → master).
    ResultBatch(ResultBatch),
    /// Liveness (worker → master).
    Heartbeat(Heartbeat),
    /// Orderly end of session (master → worker).
    Shutdown,
    /// Query submission (client → gate).
    QuerySubmit(QuerySubmit),
    /// Streamed partial results (gate → client).
    QueryPartial(QueryPartial),
    /// Final ranking (gate → client).
    QueryDone(QueryDone),
    /// Query refusal (gate → client).
    QueryReject(QueryReject),
    /// Tile ownership (frontend → shard master).
    TileGrant(TileGrant),
    /// Tile sub-matrix (shard master → frontend).
    TileResult(TileResult),
    /// Work-pull credit (shard master → frontend).
    StealRequest(StealRequest),
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello(_) => 1,
            Frame::Welcome(_) => 2,
            Frame::JobBatch(_) => 3,
            Frame::ResultBatch(_) => 4,
            Frame::Heartbeat(_) => 5,
            Frame::Shutdown => 6,
            Frame::QuerySubmit(_) => 7,
            Frame::QueryPartial(_) => 8,
            Frame::QueryDone(_) => 9,
            Frame::QueryReject(_) => 10,
            Frame::TileGrant(_) => 11,
            Frame::TileResult(_) => 12,
            Frame::StealRequest(_) => 13,
        }
    }
}

/// Why a frame failed to decode.
#[derive(Debug)]
pub enum FrameError {
    /// Underlying transport error.
    Io(std::io::Error),
    /// The stream ended cleanly on a frame boundary (orderly close).
    Closed,
    /// The buffer or stream ends before the frame does.
    Truncated,
    /// First four bytes are not [`MAGIC`].
    BadMagic(u32),
    /// Version this implementation does not speak.
    BadVersion(u16),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(usize),
    /// Header checksum does not match the received payload.
    Checksum {
        /// Checksum declared in the header.
        want: u64,
        /// Checksum computed over the received bytes.
        got: u64,
    },
    /// Payload bytes do not decode as the declared kind.
    Payload(DecodeError),
}

impl FrameError {
    /// True for errors meaning the peer's byte stream itself is damaged
    /// (corruption, truncation, framing garbage) — as opposed to plain
    /// connection loss ([`FrameError::Io`] / [`FrameError::Closed`]).
    /// The master counts these as decode errors before dropping the
    /// connection.
    pub fn is_decode_error(&self) -> bool {
        !matches!(self, FrameError::Io(_) | FrameError::Closed)
    }
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated => write!(f, "frame truncated"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Oversized(n) => write!(f, "payload of {n} bytes exceeds limit"),
            FrameError::Checksum { want, got } => {
                write!(
                    f,
                    "frame checksum mismatch: header {want:#018x}, computed {got:#018x}"
                )
            }
            FrameError::Payload(e) => write!(f, "payload malformed: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> FrameError {
        FrameError::Io(e)
    }
}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> FrameError {
        FrameError::Payload(e)
    }
}

/// Transport errors pass through, a closed stream is `UnexpectedEof`,
/// and anything undecodable is `InvalidData`.
impl From<FrameError> for std::io::Error {
    fn from(e: FrameError) -> std::io::Error {
        match e {
            FrameError::Io(e) => e,
            FrameError::Closed => std::io::ErrorKind::UnexpectedEof.into(),
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// The shared body of kinds 3 and 11: chain table, then jobs.
fn put_work(w: &mut Writer, chains: &[(u32, Arc<CaChain>)], jobs: &[PairJob]) {
    w.put_u32(chains.len() as u32);
    for (ix, chain) in chains {
        w.put_u32(*ix);
        put_chain::<f64>(w, chain);
    }
    w.put_u32(jobs.len() as u32);
    for job in jobs {
        put_job(w, job);
    }
}

fn get_work(r: &mut Reader) -> Result<(ChainTable, Vec<PairJob>), DecodeError> {
    let n_chains = r.get_u32()? as usize;
    // Count sanity: an empty chain still takes 8 bytes on the wire, so a
    // count the payload cannot hold is corrupt.
    if n_chains.saturating_mul(8) > r.remaining() {
        return Err(DecodeError {
            what: "chain count",
        });
    }
    let chains = (0..n_chains)
        .map(|_| Ok((r.get_u32()?, Arc::new(get_chain::<f64>(r)?))))
        .collect::<Result<_, DecodeError>>()?;
    let n_jobs = r.get_u32()? as usize;
    if n_jobs.saturating_mul(9) > r.remaining() {
        return Err(DecodeError { what: "job count" });
    }
    let jobs = (0..n_jobs).map(|_| get_job(r)).collect::<Result<_, _>>()?;
    Ok((chains, jobs))
}

/// The shared tail of kinds 4, 8 and 12: a counted outcome list.
fn put_outcomes(w: &mut Writer, outcomes: &[PairOutcome]) {
    w.put_u32(outcomes.len() as u32);
    for o in outcomes {
        put_outcome(w, o);
    }
}

fn get_outcomes(r: &mut Reader) -> Result<Vec<PairOutcome>, DecodeError> {
    let n = r.get_u32()? as usize;
    // Count sanity: an outcome takes 37 bytes on the wire.
    if n.saturating_mul(37) > r.remaining() {
        return Err(DecodeError {
            what: "outcome count",
        });
    }
    (0..n).map(|_| get_outcome(r)).collect()
}

fn encode_payload(w: &mut Writer, frame: &Frame) {
    match frame {
        Frame::Hello(h) => {
            w.put_u32(h.protocol_version as u32);
            w.put_str(&h.worker_name);
        }
        Frame::Welcome(wl) => {
            w.put_u32(wl.worker_id).put_u32(wl.n_chains);
        }
        Frame::JobBatch(b) => {
            w.put_u64(b.batch_id);
            put_work(w, &b.chains, &b.jobs);
        }
        Frame::ResultBatch(b) => {
            w.put_u64(b.batch_id);
            put_outcomes(w, &b.outcomes);
        }
        Frame::Heartbeat(h) => {
            w.put_u32(h.worker_id).put_u64(h.completed);
        }
        Frame::Shutdown => {}
        Frame::QuerySubmit(q) => {
            w.put_str(&q.tenant);
            w.put_u64(q.query_id);
            w.put_u32(q.weight);
            w.put_u32(q.methods.len() as u32);
            for m in &q.methods {
                w.put_u8(m.code());
            }
            put_chain::<f64>(w, &q.chain);
        }
        Frame::QueryPartial(p) => {
            w.put_u64(p.query_id);
            w.put_u32(p.done).put_u32(p.total);
            put_outcomes(w, &p.outcomes);
        }
        Frame::QueryDone(d) => {
            w.put_u64(d.query_id);
            w.put_u32(d.ranking.len() as u32);
            for (ix, score) in &d.ranking {
                w.put_u32(*ix).put_f64(*score);
            }
        }
        Frame::QueryReject(rj) => {
            w.put_u64(rj.query_id);
            w.put_str(&rj.reason);
        }
        Frame::TileGrant(g) => {
            w.put_u32(g.tile_id);
            put_work(w, &g.chains, &g.jobs);
        }
        Frame::TileResult(t) => {
            w.put_u32(t.tile_id);
            put_outcomes(w, &t.outcomes);
        }
        Frame::StealRequest(s) => {
            w.put_u32(s.master_id).put_u32(s.tiles_done);
        }
    }
}

fn decode_payload(kind: u8, payload: Vec<u8>) -> Result<Frame, FrameError> {
    let mut r = Reader::new(payload);
    let frame = match kind {
        1 => Frame::Hello(Hello {
            protocol_version: r.get_u32()? as u16,
            worker_name: r.get_str()?,
        }),
        2 => Frame::Welcome(Welcome {
            worker_id: r.get_u32()?,
            n_chains: r.get_u32()?,
        }),
        3 => {
            let batch_id = r.get_u64()?;
            let (chains, jobs) = get_work(&mut r)?;
            Frame::JobBatch(JobBatch {
                batch_id,
                chains,
                jobs,
            })
        }
        4 => {
            let batch_id = r.get_u64()?;
            let outcomes = get_outcomes(&mut r)?;
            Frame::ResultBatch(ResultBatch { batch_id, outcomes })
        }
        5 => Frame::Heartbeat(Heartbeat {
            worker_id: r.get_u32()?,
            completed: r.get_u64()?,
        }),
        6 => Frame::Shutdown,
        7 => {
            let tenant = r.get_str()?;
            let query_id = r.get_u64()?;
            let weight = r.get_u32()?;
            let n_methods = r.get_u32()? as usize;
            // Count sanity: one byte per method code.
            if n_methods > r.remaining() {
                return Err(DecodeError {
                    what: "method count",
                }
                .into());
            }
            let mut methods = Vec::with_capacity(n_methods);
            for _ in 0..n_methods {
                methods.push(MethodKind::from_code(r.get_u8()?).ok_or(DecodeError {
                    what: "method code",
                })?);
            }
            let chain = get_chain::<f64>(&mut r)?;
            Frame::QuerySubmit(QuerySubmit {
                tenant,
                query_id,
                weight,
                methods,
                chain,
            })
        }
        8 => {
            let query_id = r.get_u64()?;
            let done = r.get_u32()?;
            let total = r.get_u32()?;
            let outcomes = get_outcomes(&mut r)?;
            Frame::QueryPartial(QueryPartial {
                query_id,
                done,
                total,
                outcomes,
            })
        }
        9 => {
            let query_id = r.get_u64()?;
            let n = r.get_u32()? as usize;
            // Each ranking row is 12 payload bytes (u32 index + f64 score).
            if n.saturating_mul(12) > r.remaining() {
                return Err(DecodeError {
                    what: "ranking count",
                }
                .into());
            }
            let mut ranking = Vec::with_capacity(n);
            for _ in 0..n {
                let ix = r.get_u32()?;
                let score = r.get_f64()?;
                ranking.push((ix, score));
            }
            Frame::QueryDone(QueryDone { query_id, ranking })
        }
        10 => Frame::QueryReject(QueryReject {
            query_id: r.get_u64()?,
            reason: r.get_str()?,
        }),
        11 => {
            let tile_id = r.get_u32()?;
            let (chains, jobs) = get_work(&mut r)?;
            Frame::TileGrant(TileGrant {
                tile_id,
                chains,
                jobs,
            })
        }
        12 => {
            let tile_id = r.get_u32()?;
            let outcomes = get_outcomes(&mut r)?;
            Frame::TileResult(TileResult { tile_id, outcomes })
        }
        13 => Frame::StealRequest(StealRequest {
            master_id: r.get_u32()?,
            tiles_done: r.get_u32()?,
        }),
        k => return Err(FrameError::BadKind(k)),
    };
    Ok(frame)
}

/// The checksum stored in a frame header: FNV-1a 64 (the store's one
/// body, byte at a time) over the kind byte, the payload length, and the
/// payload bytes.
fn frame_checksum(kind: u8, payload: &[u8]) -> u64 {
    let h = fnv1a64(0, &[kind]);
    let h = fnv1a64(h, &(payload.len() as u32).to_le_bytes());
    fnv1a64(h, payload)
}

/// Parsed fixed-size header fields (after magic/version validation).
struct Header {
    kind: u8,
    payload_len: usize,
    checksum: u64,
}

fn parse_header(header: &[u8; HEADER_LEN]) -> Result<Header, FrameError> {
    // rck-lint: allow(panic) — infallible: constant-width slices of a fixed-size array
    let magic = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes"));
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    // rck-lint: allow(panic) — infallible: constant-width slice
    let version = u16::from_le_bytes(header[4..6].try_into().expect("2 bytes"));
    if version != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let kind = header[6];
    if !(1..=13).contains(&kind) {
        return Err(FrameError::BadKind(kind));
    }
    // rck-lint: allow(panic) — infallible: constant-width slice
    let payload_len = u32::from_le_bytes(header[7..11].try_into().expect("4 bytes")) as usize;
    if payload_len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(payload_len));
    }
    // rck-lint: allow(panic) — infallible: constant-width slice
    let checksum = u64::from_le_bytes(header[11..19].try_into().expect("8 bytes"));
    Ok(Header {
        kind,
        payload_len,
        checksum,
    })
}

/// Verify the checksum, then decode: the frame and its size on the wire.
fn open_payload(h: &Header, payload: Vec<u8>) -> Result<(Frame, usize), FrameError> {
    let got = frame_checksum(h.kind, &payload);
    if got != h.checksum {
        return Err(FrameError::Checksum {
            want: h.checksum,
            got,
        });
    }
    Ok((decode_payload(h.kind, payload)?, HEADER_LEN + h.payload_len))
}

/// Encode one frame into bytes: the payload goes straight behind the
/// header, whose length and checksum fields are patched in after it.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let [v0, v1] = PROTOCOL_VERSION.to_le_bytes();
    let mut w = Writer::new();
    w.put_u32(MAGIC).put_u8(v0).put_u8(v1).put_u8(frame.kind());
    w.put_u32(0).put_u64(0);
    encode_payload(&mut w, frame);
    let mut out = w.finish();
    let payload_len = out.len() - HEADER_LEN;
    assert!(payload_len <= MAX_PAYLOAD, "frame payload exceeds limit");
    let checksum = frame_checksum(frame.kind(), &out[HEADER_LEN..]);
    out[7..11].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[11..HEADER_LEN].copy_from_slice(&checksum.to_le_bytes());
    out
}

/// Decode one frame from the start of `buf`; returns the frame and how
/// many bytes it consumed. Never panics on malformed input.
pub fn decode_frame(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
    if buf.len() < HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    // rck-lint: allow(panic) — infallible: length checked against HEADER_LEN above
    let header = parse_header(buf[..HEADER_LEN].try_into().expect("header bytes"))?;
    if buf.len() < HEADER_LEN + header.payload_len {
        return Err(FrameError::Truncated);
    }
    let payload = buf[HEADER_LEN..HEADER_LEN + header.payload_len].to_vec();
    open_payload(&header, payload)
}

/// Write one frame to a stream; returns bytes written.
pub fn write_frame(w: &mut impl IoWrite, frame: &Frame) -> std::io::Result<usize> {
    let bytes = encode_frame(frame);
    w.write_all(&bytes)?;
    w.flush()?;
    Ok(bytes.len())
}

/// Read one frame from a stream; returns the frame and bytes consumed.
///
/// An EOF *on* a frame boundary is [`FrameError::Closed`] (the peer hung
/// up cleanly); an EOF *inside* a frame is [`FrameError::Truncated`] (a
/// short read — the frame was torn). The distinction matters to the
/// master's accounting: only the latter is a decode error.
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, usize), FrameError> {
    let mut header = [0u8; HEADER_LEN];
    let mut got = 0usize;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    let header = parse_header(&header)?;
    let mut payload = vec![0u8; header.payload_len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e)
        }
    })?;
    open_payload(&header, payload)
}

/// Whether `outcomes` answers exactly the dispatched `jobs` — same
/// multiset of `(i, j, method)`, nothing missing, nothing extra. Guards
/// both result assembly (an alien `(i, j)` would corrupt or panic
/// [`rckalign::SimilarityMatrix::from_outcomes`]) and termination (an
/// unanswered job silently removed from flight would never complete).
/// Shared by the batch master and the gate's worker pool, which face the
/// same byzantine-result hazard.
pub fn answers_exactly(jobs: &[PairJob], outcomes: &[PairOutcome]) -> bool {
    if jobs.len() != outcomes.len() {
        return false;
    }
    let mut want: Vec<(u32, u32, u8)> = jobs.iter().map(|j| (j.i, j.j, j.method.code())).collect();
    let mut got: Vec<(u32, u32, u8)> = outcomes
        .iter()
        .map(|o| (o.i, o.j, o.method.code()))
        .collect();
    want.sort_unstable();
    got.sort_unstable();
    want == got
}

/// What the peer on one connection holds, as its sender knows it: index
/// → the chain last written there. Identity is the allocation
/// ([`Arc::ptr_eq`]; holding the `Arc` keeps its address from being
/// reused), not the index — the gate reuses one virtual index for every
/// query's chain, so a slot whose content changed is shipped again.
///
/// The view equals the peer's table because the stream is in order, the
/// receiver ends the session on any undecodable frame or unknown chain,
/// and the sender ends the connection on any batch it gives up on.
#[derive(Debug, Default)]
pub struct Resident(HashMap<u32, Arc<CaChain>>);

impl Resident {
    /// The chain table to send ahead of `jobs`, ascending: every
    /// referenced chain the peer lacks, which it holds from here on. An
    /// index `lookup` cannot resolve is left out; the receiver's own
    /// cross-check then fails the session.
    pub fn delta(
        &mut self,
        jobs: &[PairJob],
        lookup: impl Fn(u32) -> Option<Arc<CaChain>>,
    ) -> ChainTable {
        let mut table = Vec::new();
        for ix in rckalign::chain_indices(jobs) {
            let Some(chain) = lookup(ix) else { continue };
            let held = self.0.get(&ix).is_some_and(|c| Arc::ptr_eq(c, &chain));
            if !held {
                self.0.insert(ix, Arc::clone(&chain));
                table.push((ix, chain));
            }
        }
        table
    }
}

/// Every chain `jobs` reference, copied out of `dataset`.
fn first_contact_table(jobs: &[PairJob], dataset: &[CaChain]) -> ChainTable {
    Resident::default().delta(jobs, |ix| Some(Arc::new(dataset[ix as usize].clone())))
}

/// Build the self-contained first-contact [`JobBatch`] for a set of jobs.
pub fn build_job_batch(batch_id: u64, jobs: Vec<PairJob>, dataset: &[CaChain]) -> JobBatch {
    JobBatch {
        batch_id,
        chains: first_contact_table(&jobs, dataset),
        jobs,
    }
}

/// Build the self-contained first-contact [`TileGrant`] for a tile's job
/// set (the shard frontend's analogue of [`build_job_batch`]).
pub fn build_tile_grant(tile_id: u32, jobs: Vec<PairJob>, dataset: &[CaChain]) -> TileGrant {
    TileGrant {
        tile_id,
        chains: first_contact_table(&jobs, dataset),
        jobs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_pdb::datasets::tiny_profile;
    use std::collections::{BTreeMap, BTreeSet};

    fn sample_batch() -> JobBatch {
        let chains = tiny_profile().generate(7);
        let jobs = vec![
            PairJob {
                i: 0,
                j: 3,
                method: MethodKind::TmAlign,
            },
            PairJob {
                i: 3,
                j: 5,
                method: MethodKind::TmAlign,
            },
        ];
        build_job_batch(11, jobs, &chains)
    }

    fn outcome(i: u32, j: u32) -> PairOutcome {
        PairOutcome {
            i,
            j,
            method: MethodKind::TmAlign,
            similarity: 0.5,
            rmsd: 2.0,
            aligned_len: 20,
            ops: 999,
        }
    }

    /// One frame of every variant.
    fn samples() -> Vec<Frame> {
        let chains = tiny_profile().generate(7);
        vec![
            Frame::Hello(Hello {
                protocol_version: PROTOCOL_VERSION,
                worker_name: "w0".into(),
            }),
            Frame::Welcome(Welcome {
                worker_id: 4,
                n_chains: 34,
            }),
            Frame::JobBatch(sample_batch()),
            Frame::ResultBatch(ResultBatch {
                batch_id: 11,
                outcomes: vec![outcome(0, 3)],
            }),
            Frame::Heartbeat(Heartbeat {
                worker_id: 4,
                completed: 17,
            }),
            Frame::Shutdown,
            Frame::QuerySubmit(QuerySubmit {
                tenant: "lab-a".into(),
                query_id: 42,
                weight: 3,
                methods: vec![MethodKind::TmAlign],
                chain: chains[0].clone(),
            }),
            Frame::QueryPartial(QueryPartial {
                query_id: 42,
                done: 1,
                total: 7,
                outcomes: vec![outcome(1, 7)],
            }),
            Frame::QueryDone(QueryDone {
                query_id: 42,
                ranking: vec![(3, 0.875)],
            }),
            Frame::QueryReject(QueryReject {
                query_id: 43,
                reason: "draining".into(),
            }),
            Frame::TileGrant(build_tile_grant(5, sample_batch().jobs, &chains)),
            Frame::TileResult(TileResult {
                tile_id: 5,
                outcomes: vec![outcome(0, 4)],
            }),
            Frame::StealRequest(StealRequest {
                master_id: 2,
                tiles_done: 9,
            }),
        ]
    }

    /// The variant's name in DESIGN.md §6. The match has no `_` arm: a
    /// new variant does not compile until it is named here, and the wire
    /// block fails until `samples` holds one of it.
    fn variant(frame: &Frame) -> &'static str {
        match frame {
            Frame::Hello(_) => "Hello",
            Frame::Welcome(_) => "Welcome",
            Frame::JobBatch(_) => "JobBatch",
            Frame::ResultBatch(_) => "ResultBatch",
            Frame::Heartbeat(_) => "Heartbeat",
            Frame::Shutdown => "Shutdown",
            Frame::QuerySubmit(_) => "QuerySubmit",
            Frame::QueryPartial(_) => "QueryPartial",
            Frame::QueryDone(_) => "QueryDone",
            Frame::QueryReject(_) => "QueryReject",
            Frame::TileGrant(_) => "TileGrant",
            Frame::TileResult(_) => "TileResult",
            Frame::StealRequest(_) => "StealRequest",
        }
    }

    /// A `Shutdown` header with its kind and length fields replaced.
    fn header_with(kind: u8, payload_len: usize) -> [u8; HEADER_LEN] {
        let mut header = [0u8; HEADER_LEN];
        header.copy_from_slice(&encode_frame(&Frame::Shutdown)[..HEADER_LEN]);
        header[6] = kind;
        header[7..11].copy_from_slice(&(payload_len as u32).to_le_bytes());
        header
    }

    const WIRE_BEGIN: &str = "<!-- generated: serve::proto wire -->";
    const GENERATED_END: &str = "<!-- /generated -->";

    /// DESIGN.md §6's wire block as the samples encode it: every header
    /// field is read back out of the bytes at the offset the table gives
    /// it. A kind row keeps the `direction | payload` prose `design`
    /// gives that kind; only its first two cells come from the code.
    /// `Err` holds the block to paste.
    fn check_wire_block(design: &str) -> Result<(), String> {
        let block = design
            .split_once(&format!("{WIRE_BEGIN}\n"))
            .and_then(|(_, rest)| rest.find(GENERATED_END).map(|end| &rest[..end]));
        let mut prose = BTreeMap::new();
        for line in block.unwrap_or_default().lines() {
            let cells: Vec<&str> = line.splitn(4, '|').collect();
            if let [_, kind, _, rest] = cells[..] {
                if let Ok(kind) = kind.trim().parse::<u8>() {
                    prose.insert(kind, rest);
                }
            }
        }

        // (magic bytes, version, payload offset): one value for every frame.
        let mut headers = BTreeSet::new();
        let mut kinds = BTreeMap::new();
        for frame in samples() {
            let bytes = encode_frame(&frame);
            let kind = bytes[6];
            let payload_len = u32::from_le_bytes(bytes[7..11].try_into().unwrap()) as usize;
            let at = bytes.len() - payload_len;
            let checksum = u64::from_le_bytes(bytes[11..19].try_into().unwrap());
            assert_eq!(
                checksum,
                frame_checksum(kind, &bytes[at..]),
                "checksum at 11"
            );
            headers.insert((
                bytes[0..4].to_vec(),
                u16::from_le_bytes([bytes[4], bytes[5]]),
                at,
            ));
            assert_eq!(
                kinds.insert(kind, variant(&frame)),
                None,
                "kind {kind} twice"
            );
        }
        let [(magic, version, offset)] = &Vec::from_iter(headers)[..] else {
            panic!("frames disagree on magic, version or header length");
        };
        let cap = MAX_PAYLOAD;
        assert!(parse_header(&header_with(6, cap)).is_ok());
        assert!(matches!(
            parse_header(&header_with(6, cap + 1)),
            Err(FrameError::Oversized(_))
        ));
        assert_eq!(cap % (1 << 20), 0, "the cap is whole MiB");

        let value = u32::from_le_bytes(magic[..].try_into().unwrap());
        let ascii = String::from_utf8_lossy(magic);
        let mut want = format!(
            "Every frame is a {offset}-byte header followed by a payload:\n\n```\n\
             offset  size  field\n\
             0       4     MAGIC      = 0x{:04X}_{:04X}  (bytes \"{ascii}\" on the wire)\n\
             4       2     version    = PROTOCOL_VERSION ({version}), little-endian\n\
             6       1     kind       (see table)\n\
             7       4     payload length, little-endian, \u{2264} MAX_PAYLOAD ({} MiB)\n\
             11      8     checksum   = FNV-1a 64 over kind \u{2016} payload length \u{2016} payload\n\
             {offset:<8}\u{2026}     payload    (rcce byte-codec encoded)\n```\n\n\
             | kind | frame | direction | payload |\n|---:|---|---|---|\n",
            value >> 16,
            value & 0xFFFF,
            cap >> 20
        );
        for (kind, name) in &kinds {
            let rest = prose.get(kind).copied().unwrap_or(" | |");
            want.push_str(&format!("| {kind} | `{name}` |{rest}\n"));
        }
        if block == Some(want.as_str()) {
            return Ok(());
        }
        Err(format!(
            "DESIGN.md \u{a7}6's wire block is not what serve::proto encodes; \
             replace the block between the markers with:\n\n{WIRE_BEGIN}\n{want}{GENERATED_END}\n"
        ))
    }

    fn design() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md");
        std::fs::read_to_string(path).expect("read DESIGN.md")
    }

    #[test]
    fn design_wire_block_is_what_the_frames_encode() {
        if let Err(paste) = check_wire_block(&design()) {
            panic!("{paste}");
        }
    }

    #[test]
    fn wire_block_drift_fails_the_comparison() {
        let design = design();
        for (from, to) in [
            ("a 19-byte header", "a 23-byte header"),
            ("| 6 | `Shutdown` |", "| 6 | `Goodbye` |"),
        ] {
            let drifted = design.replacen(from, to, 1);
            assert_ne!(drifted, design, "DESIGN.md says `{from}`");
            assert!(check_wire_block(&drifted).is_err(), "`{to}` went unnoticed");
        }
    }

    #[test]
    fn parse_header_accepts_exactly_the_kinds_frames_encode_to() {
        let encoded: Vec<u8> = samples().iter().map(|f| encode_frame(f)[6]).collect();
        for kind in 0..=255u8 {
            assert_eq!(
                parse_header(&header_with(kind, 0)).is_ok(),
                encoded.contains(&kind),
                "kind {kind}"
            );
        }
    }

    #[test]
    fn frame_roundtrips() {
        for f in samples() {
            let bytes = encode_frame(&f);
            let (back, used) = decode_frame(&bytes).expect("decodes");
            assert_eq!(used, bytes.len());
            assert_eq!(back, f);
        }
    }

    #[test]
    fn query_frames_roundtrip() {
        let chains = tiny_profile().generate(7);
        let frames = vec![
            Frame::QuerySubmit(QuerySubmit {
                tenant: "lab-a".into(),
                query_id: 42,
                weight: 3,
                methods: vec![MethodKind::TmAlign, MethodKind::KabschRmsd],
                chain: chains[0].clone(),
            }),
            Frame::QueryPartial(QueryPartial {
                query_id: 42,
                done: 2,
                total: 7,
                outcomes: vec![PairOutcome {
                    i: 1,
                    j: 7,
                    method: MethodKind::TmAlign,
                    similarity: 0.625,
                    rmsd: 3.5,
                    aligned_len: 18,
                    ops: 1234,
                }],
            }),
            Frame::QueryDone(QueryDone {
                query_id: 42,
                ranking: vec![(3, 0.875), (0, 0.25)],
            }),
            Frame::QueryReject(QueryReject {
                query_id: 43,
                reason: "tenant lab-a over inflight cap".into(),
            }),
        ];
        for f in frames {
            let bytes = encode_frame(&f);
            let (back, used) = decode_frame(&bytes).expect("decodes");
            assert_eq!(used, bytes.len());
            assert_eq!(back, f);
        }
    }

    #[test]
    fn tile_frames_roundtrip() {
        let chains = tiny_profile().generate(7);
        let jobs = rckalign::tile_partition(chains.len(), 3)[1].jobs(MethodKind::TmAlign);
        let grant = build_tile_grant(5, jobs.clone(), &chains);
        assert_eq!(
            grant.chains.len(),
            rckalign::chain_indices(&jobs).len(),
            "grant carries exactly the chains its jobs reference"
        );
        let frames = vec![
            Frame::TileGrant(grant),
            Frame::TileResult(TileResult {
                tile_id: 5,
                outcomes: vec![PairOutcome {
                    i: 0,
                    j: 4,
                    method: MethodKind::TmAlign,
                    similarity: 0.375,
                    rmsd: 1.25,
                    aligned_len: 31,
                    ops: 4242,
                }],
            }),
            Frame::StealRequest(StealRequest {
                master_id: 2,
                tiles_done: 9,
            }),
        ];
        for f in frames {
            let bytes = encode_frame(&f);
            let (back, used) = decode_frame(&bytes).expect("decodes");
            assert_eq!(used, bytes.len());
            assert_eq!(back, f);
        }
    }

    #[test]
    fn tile_grant_count_lies_are_rejected_before_allocation() {
        let chains = tiny_profile().generate(7);
        let grant = build_tile_grant(1, rckalign::all_vs_all(3, MethodKind::TmAlign), &chains);
        let good = encode_frame(&Frame::TileGrant(grant));
        // Chain count sits right after tile_id (u32).
        let count_off = HEADER_LEN + 4;
        let mut lied = good.clone();
        lied[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let payload = lied[HEADER_LEN..].to_vec();
        lied[11..19].copy_from_slice(&frame_checksum(11, &payload).to_le_bytes());
        match decode_frame(&lied) {
            Err(FrameError::Payload(e)) => assert_eq!(e.what, "chain count"),
            other => panic!("count lie decoded: {other:?}"),
        }
    }

    #[test]
    fn query_done_scores_roundtrip_bit_exactly() {
        // The gate's fidelity claim rides on exact f64 scores: the ranking
        // a client reassembles must equal the in-process one to the bit.
        let scores = [0.1f64 + 0.2, f64::MIN_POSITIVE, 1.0 / 3.0, -0.0];
        let frame = Frame::QueryDone(QueryDone {
            query_id: 9,
            ranking: scores
                .iter()
                .enumerate()
                .map(|(i, &s)| (i as u32, s))
                .collect(),
        });
        let (back, _) = decode_frame(&encode_frame(&frame)).unwrap();
        let Frame::QueryDone(back) = back else {
            panic!("wrong frame kind");
        };
        for (&sent, (_, got)) in scores.iter().zip(&back.ranking) {
            assert_eq!(sent.to_bits(), got.to_bits());
        }
    }

    #[test]
    fn query_frame_count_lies_are_rejected_before_allocation() {
        // Inflate the declared method/outcome/ranking counts far past
        // what the payload holds: the count-sanity guards must fire (and
        // the checksum needs recomputing for the lie to even be reached).
        let submit = encode_frame(&Frame::QuerySubmit(QuerySubmit {
            tenant: "t".into(),
            query_id: 1,
            weight: 1,
            methods: vec![MethodKind::TmAlign],
            chain: tiny_profile().generate(7)[0].clone(),
        }));
        // tenant "t" = 4(len)+1(byte), query_id 8, weight 4 → count at 17.
        let count_off = HEADER_LEN + 4 + 1 + 8 + 4;
        let mut lied = submit.clone();
        lied[count_off..count_off + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let payload = lied[HEADER_LEN..].to_vec();
        lied[11..19].copy_from_slice(&frame_checksum(7, &payload).to_le_bytes());
        match decode_frame(&lied) {
            Err(FrameError::Payload(e)) => assert_eq!(e.what, "method count"),
            other => panic!("count lie decoded: {other:?}"),
        }
    }

    #[test]
    fn answers_exactly_rejects_alien_missing_and_extra_outcomes() {
        let method = MethodKind::TmAlign;
        let jobs = vec![
            PairJob { i: 0, j: 1, method },
            PairJob { i: 0, j: 2, method },
        ];
        let outcome = |i: u32, j: u32| PairOutcome {
            i,
            j,
            method,
            similarity: 0.5,
            rmsd: 1.0,
            aligned_len: 5,
            ops: 10,
        };
        // Exact answer, any order: accepted.
        assert!(answers_exactly(&jobs, &[outcome(0, 2), outcome(0, 1)]));
        // Alien pair swapped in: rejected.
        assert!(!answers_exactly(&jobs, &[outcome(0, 1), outcome(5, 6)]));
        // Short answer: rejected.
        assert!(!answers_exactly(&jobs, &[outcome(0, 1)]));
        // Padded answer: rejected.
        assert!(!answers_exactly(
            &jobs,
            &[outcome(0, 1), outcome(0, 2), outcome(0, 2)]
        ));
    }

    #[test]
    fn chain_coordinates_roundtrip_exactly() {
        let b = sample_batch();
        let bytes = encode_frame(&Frame::JobBatch(b.clone()));
        let (back, _) = decode_frame(&bytes).unwrap();
        let Frame::JobBatch(back) = back else {
            panic!("wrong frame kind");
        };
        for ((ix_a, ca), (ix_b, cb)) in b.chains.iter().zip(&back.chains) {
            assert_eq!(ix_a, ix_b);
            // Bit-exact f64 roundtrip — the service's core fidelity claim.
            for (p, q) in ca.coords.iter().zip(&cb.coords) {
                assert_eq!(p.x.to_bits(), q.x.to_bits());
                assert_eq!(p.y.to_bits(), q.y.to_bits());
                assert_eq!(p.z.to_bits(), q.z.to_bits());
            }
        }
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let bytes = encode_frame(&Frame::JobBatch(sample_batch()));
        for cut in 0..bytes.len() {
            assert!(
                decode_frame(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn bad_magic_version_kind_oversize_rejected() {
        let good = encode_frame(&Frame::Shutdown);
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_frame(&bad), Err(FrameError::BadMagic(_))));
        let mut bad = good.clone();
        bad[4] = 0xEE;
        assert!(matches!(decode_frame(&bad), Err(FrameError::BadVersion(_))));
        let mut bad = good.clone();
        bad[6] = 99;
        assert!(matches!(decode_frame(&bad), Err(FrameError::BadKind(99))));
        let mut bad = good;
        bad[7..11].copy_from_slice(&(u32::MAX).to_le_bytes());
        assert!(matches!(decode_frame(&bad), Err(FrameError::Oversized(_))));
    }

    #[test]
    fn corrupted_payload_byte_fails_the_checksum() {
        let bytes = encode_frame(&Frame::ResultBatch(ResultBatch {
            batch_id: 3,
            outcomes: vec![PairOutcome {
                i: 0,
                j: 1,
                method: MethodKind::TmAlign,
                similarity: 0.75,
                rmsd: 1.5,
                aligned_len: 12,
                ops: 77,
            }],
        }));
        // Flip every payload byte in turn: the checksum must catch each
        // one — a corrupted similarity f64 would otherwise decode as a
        // structurally valid (wrong) result.
        for ix in HEADER_LEN..bytes.len() {
            let mut bad = bytes.clone();
            bad[ix] ^= 0x40;
            assert!(
                matches!(decode_frame(&bad), Err(FrameError::Checksum { .. })),
                "payload corruption at byte {ix} not caught"
            );
        }
        // And the checksum field itself is covered too.
        let mut bad = bytes.clone();
        bad[11] ^= 0x01;
        assert!(matches!(
            decode_frame(&bad),
            Err(FrameError::Checksum { .. })
        ));
    }

    #[test]
    fn stream_eof_is_closed_on_boundary_truncated_inside() {
        let bytes = encode_frame(&Frame::Shutdown);
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut empty), Err(FrameError::Closed)));
        let mut torn = std::io::Cursor::new(bytes[..HEADER_LEN - 3].to_vec());
        assert!(matches!(read_frame(&mut torn), Err(FrameError::Truncated)));
    }

    #[test]
    fn stream_io_roundtrip() {
        let mut buf = Vec::new();
        let sent = Frame::Heartbeat(Heartbeat {
            worker_id: 1,
            completed: 2,
        });
        let n = write_frame(&mut buf, &sent).unwrap();
        assert_eq!(n, buf.len());
        let mut cursor = std::io::Cursor::new(buf);
        let (got, used) = read_frame(&mut cursor).unwrap();
        assert_eq!(got, sent);
        assert_eq!(used, n);
    }
}
