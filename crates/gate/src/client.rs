//! A blocking gate client: handshake, submit, collect streamed results.
//!
//! Shared by the integration tests, the chaos harness, the benchmark and
//! the `rck_loadgen` load generator so they all reassemble streams the same
//! way. The client is transport-agnostic ([`rck_serve::Conn`]): tests
//! hand it an in-memory connection, the loadgen a TCP one.

use rck_serve::proto::{self, Frame, QueryDone, QueryPartial, QueryReject, QuerySubmit};
use rck_serve::transport::{Conn, TcpConn};
use rckalign::PairOutcome;
use std::io;
use std::net::SocketAddr;

/// One frame of progress on a submitted query.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryEvent {
    /// Newly finished outcomes (cumulative progress in `done`/`total`).
    Partial(QueryPartial),
    /// Terminal: the final ranking.
    Done(QueryDone),
    /// Terminal: the query was refused.
    Reject(QueryReject),
    /// The gate ended the session (drain or stop).
    Ended,
}

/// Everything a finished query streamed, reassembled.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// Every outcome received across the partial stream, in arrival
    /// order. For an accepted query this is exactly one outcome per
    /// expanded pair job.
    pub outcomes: Vec<PairOutcome>,
    /// The final ranking, if the query completed.
    pub ranking: Option<Vec<(u32, f64)>>,
    /// The refusal reason, if the query was rejected.
    pub rejected: Option<String>,
    /// Partial frames received (after any gate-side merging).
    pub partials: usize,
}

impl QueryOutcome {
    /// Whether the query ended with a ranking.
    pub fn completed(&self) -> bool {
        self.ranking.is_some()
    }
}

/// A connected, handshaken client session on the gate's query plane.
pub struct GateClient {
    conn: Box<dyn Conn>,
    session_id: u32,
    n_chains: u32,
}

impl GateClient {
    /// Handshake over an established connection (any transport).
    pub fn connect(mut conn: Box<dyn Conn>, name: &str) -> io::Result<GateClient> {
        let (welcome, _, _) = rck_serve::dispatch::hello(&mut conn, name)?;
        Ok(GateClient {
            conn,
            session_id: welcome.worker_id,
            n_chains: welcome.n_chains,
        })
    }

    /// Dial a gate's query plane over TCP and handshake.
    pub fn dial(addr: SocketAddr, name: &str) -> io::Result<GateClient> {
        GateClient::connect(Box::new(TcpConn::connect(addr)?), name)
    }

    /// The session id the gate assigned.
    pub fn session_id(&self) -> u32 {
        self.session_id
    }

    /// Size of the gate's resident database (the length of a full
    /// ranking).
    pub fn n_chains(&self) -> u32 {
        self.n_chains
    }

    /// Send one submission without waiting for results (pipelined use;
    /// match replies to submissions by `query_id`).
    pub fn submit(&mut self, submit: QuerySubmit) -> io::Result<()> {
        proto::write_frame(&mut self.conn, &Frame::QuerySubmit(submit))?;
        Ok(())
    }

    /// Read the next event from the gate.
    pub fn next_event(&mut self) -> io::Result<QueryEvent> {
        match proto::read_frame(&mut self.conn) {
            Ok((Frame::QueryPartial(p), _)) => Ok(QueryEvent::Partial(p)),
            Ok((Frame::QueryDone(d), _)) => Ok(QueryEvent::Done(d)),
            Ok((Frame::QueryReject(r), _)) => Ok(QueryEvent::Reject(r)),
            Ok((Frame::Shutdown, _)) => Ok(QueryEvent::Ended),
            Ok(other) => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected frame from gate: {other:?}"),
            )),
            Err(proto::FrameError::Closed) => Ok(QueryEvent::Ended),
            Err(e) => Err(e.into()),
        }
    }

    /// Submit one query and block until its terminal frame, reassembling
    /// the partial stream along the way. Intended for one-outstanding-
    /// query-per-connection use (the loadgen's open-loop tenants); for
    /// pipelining, drive [`GateClient::submit`] / [`GateClient::next_event`]
    /// directly.
    pub fn run_query(&mut self, submit: QuerySubmit) -> io::Result<QueryOutcome> {
        let query_id = submit.query_id;
        self.submit(submit)?;
        let mut out = QueryOutcome {
            outcomes: Vec::new(),
            ranking: None,
            rejected: None,
            partials: 0,
        };
        loop {
            match self.next_event()? {
                QueryEvent::Partial(p) if p.query_id == query_id => {
                    out.partials += 1;
                    out.outcomes.extend(p.outcomes);
                }
                QueryEvent::Done(d) if d.query_id == query_id => {
                    out.ranking = Some(d.ranking);
                    return Ok(out);
                }
                QueryEvent::Reject(r) if r.query_id == query_id => {
                    out.rejected = Some(r.reason);
                    return Ok(out);
                }
                QueryEvent::Ended => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "session ended before the query's terminal frame",
                    ));
                }
                // A frame for a different query id on this session —
                // out of scope for the one-query-at-a-time helper.
                _ => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "interleaved reply for a different query",
                    ));
                }
            }
        }
    }

    /// Orderly goodbye: tell the gate this session is done and close.
    pub fn finish(mut self) -> io::Result<()> {
        proto::write_frame(&mut self.conn, &Frame::Shutdown)?;
        self.conn.shutdown();
        Ok(())
    }
}
