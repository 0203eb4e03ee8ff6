//! Client sessions on the gate's query plane.
//!
//! Each accepted connection gets a reader loop (this module) and a
//! dedicated writer thread draining a per-session `Outbox`. The outbox
//! is the fault-isolation boundary *and* the backpressure valve:
//!
//! * every frame bound for a client goes through its own outbox, so a
//!   client whose connection is slow, faulted or gone affects exactly
//!   one session — the pool pushes to other subscribers untouched;
//! * consecutive `QueryPartial`s for the same query **merge** while
//!   they wait: a slow reader receives fewer, fatter partials carrying
//!   the identical cumulative outcome set, instead of growing an
//!   unbounded frame queue. `done`/`total` are monotonic either way, so
//!   reassembly on the client is unaffected.
//!
//! A session that disconnects mid-query is unsubscribed from every run
//! it was attached to; the computation itself keeps running (another
//! coalesced subscriber may still want the answer, and finishing is how
//! the backlog drains).

use crate::{submit_query, GateShared};
use rck_serve::dispatch::{self, WorkSource};
use rck_serve::proto::{self, Frame, Welcome};
use rck_serve::transport::Conn;
use rck_serve::MutexExt;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// One client stream attached to a query run: frames for `query_id`
/// (the id the *client* chose) are pushed to `outbox`.
pub(crate) struct Subscriber {
    pub(crate) query_id: u64,
    pub(crate) outbox: Arc<Outbox>,
}

/// A session's outgoing frame queue, drained by its writer thread.
pub(crate) struct Outbox {
    queue: Mutex<VecDeque<Frame>>,
    ready: Condvar,
    closed: AtomicBool,
}

impl Outbox {
    pub(crate) fn new() -> Arc<Outbox> {
        Arc::new(Outbox {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            closed: AtomicBool::new(false),
        })
    }

    /// Enqueue a frame for the writer. Consecutive partials for the
    /// same query merge in place — the backpressure valve described in
    /// the module docs. Frames pushed after [`Outbox::close`] are
    /// dropped (the session is gone; nobody is listening).
    pub(crate) fn push(&self, frame: Frame) {
        if self.closed.load(Ordering::SeqCst) {
            return;
        }
        let mut queue = self.queue.lock_recover();
        if let (Some(Frame::QueryPartial(last)), Frame::QueryPartial(next)) =
            (queue.back_mut(), &frame)
        {
            if last.query_id == next.query_id {
                last.outcomes.extend(next.outcomes.iter().copied());
                last.done = last.done.max(next.done);
                drop(queue);
                self.ready.notify_one();
                return;
            }
        }
        queue.push_back(frame);
        drop(queue);
        self.ready.notify_one();
    }

    /// Stop the writer once it has drained what is already queued.
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }

    /// Pop the next frame, blocking until one arrives or the outbox is
    /// closed *and* empty.
    fn pop(&self) -> Option<Frame> {
        let mut queue = self.queue.lock_recover();
        loop {
            if let Some(frame) = queue.pop_front() {
                return Some(frame);
            }
            if self.closed.load(Ordering::SeqCst) {
                return None;
            }
            queue = self
                .ready
                .wait(queue)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Snapshot-and-clear the queue — unit tests inspect what the
    /// runtime enqueued without spinning up a writer.
    #[cfg(test)]
    pub(crate) fn drain_for_tests(&self) -> Vec<Frame> {
        self.queue.lock_recover().drain(..).collect()
    }
}

/// Serve one client connection: handshake, then submissions in, streamed
/// results out, until the client sends Shutdown or the connection ends.
pub(crate) fn serve_client(shared: &GateShared, mut conn: Box<dyn Conn>) {
    // The welcome's `worker_id` field carries the session id, one of the
    // dispatcher's connection ids; `n_chains` tells the client how large
    // the resident database is (and therefore how long a full ranking
    // is).
    let welcome = || Welcome {
        worker_id: shared.state.lock_recover().dispatch.mint(),
        n_chains: shared.db.len() as u32,
    };
    // A client that never speaks must not pin this thread (and with it
    // `Gate::run`'s final join) forever: until greeted the dispatcher
    // does not hold the connection, so an abort cannot close it.
    let _ = conn.set_read_timeout(Some(shared.cfg.heartbeat_timeout.saturating_mul(2)));
    let greeted = dispatch::handshake(GateShared::TAG, |e| shared.observe(e), &mut conn, welcome);
    let Some((welcome, _)) = greeted else {
        conn.shutdown();
        return;
    };
    let session_id = welcome.worker_id;
    // Established sessions have no per-client deadline.
    let _ = conn.set_read_timeout(None);
    shared.stats.sessions.inc();
    let outbox = Outbox::new();
    let writer = match conn.try_clone() {
        Ok(write_half) => {
            let outbox = Arc::clone(&outbox);
            Some(std::thread::spawn(move || run_writer(&outbox, write_half)))
        }
        Err(_) => None,
    };
    if let Ok(clone) = conn.try_clone() {
        let mut state = shared.state.lock_recover();
        state.dispatch.hold(session_id, clone);
        state.outboxes.insert(session_id, Arc::clone(&outbox));
    }

    loop {
        match proto::read_frame(&mut conn) {
            Ok((Frame::QuerySubmit(q), _)) => submit_query(shared, q, &outbox),
            // A courteous keepalive; the gate has no per-client deadline.
            Ok((Frame::Heartbeat(_), _)) => {}
            // Orderly end of session (client-initiated, or echoed back
            // from a gate drain).
            Ok((Frame::Shutdown, _)) => break,
            // A client speaking worker/server frames is out of protocol.
            Ok(_) => break,
            Err(e) => {
                if e.is_decode_error() {
                    shared.stats.decode_errors.inc();
                    eprintln!("[rck-gate] session {session_id}: decode error: {e}");
                }
                break;
            }
        }
    }

    // Fault isolation: this session's outbox leaves every run it was
    // subscribed to; runs keep computing for their other subscribers.
    {
        let mut state = shared.state.lock_recover();
        for run in state.runs.values_mut() {
            run.subscribers.retain(|s| !Arc::ptr_eq(&s.outbox, &outbox));
        }
        state.dispatch.release(session_id);
        state.outboxes.remove(&session_id);
    }
    outbox.close();
    if let Some(writer) = writer {
        let _ = writer.join();
    }
    conn.shutdown();
}

/// Writer thread: drain the outbox onto the connection until the outbox
/// closes (drained) or the connection dies. Closing the connection on
/// exit unblocks the session's reader.
fn run_writer(outbox: &Outbox, mut conn: Box<dyn Conn>) {
    while let Some(frame) = outbox.pop() {
        if proto::write_frame(&mut conn, &frame).is_err() {
            // The client is gone; stop accepting frames so the pool
            // stops paying to enqueue them.
            outbox.close();
            break;
        }
    }
    conn.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rck_serve::proto::QueryPartial;
    use rckalign::PairOutcome;

    fn partial(query_id: u64, done: u32, i: u32) -> Frame {
        Frame::QueryPartial(QueryPartial {
            query_id,
            done,
            total: 10,
            outcomes: vec![PairOutcome {
                i,
                j: 9,
                method: rck_tmalign::MethodKind::TmAlign,
                similarity: 0.5,
                rmsd: 1.0,
                aligned_len: 4,
                ops: 7,
            }],
        })
    }

    #[test]
    fn consecutive_partials_for_one_query_merge() {
        let outbox = Outbox::new();
        outbox.push(partial(1, 1, 0));
        outbox.push(partial(1, 2, 1));
        outbox.push(partial(2, 1, 2));
        let frames = outbox.drain_for_tests();
        assert_eq!(frames.len(), 2, "same-query partials did not merge");
        let Frame::QueryPartial(first) = &frames[0] else {
            panic!("wrong kind");
        };
        assert_eq!(first.done, 2);
        assert_eq!(first.outcomes.len(), 2);
        let Frame::QueryPartial(second) = &frames[1] else {
            panic!("wrong kind");
        };
        assert_eq!(second.query_id, 2);
    }

    #[test]
    fn closed_outbox_drops_pushes_and_unblocks_pop() {
        let outbox = Outbox::new();
        outbox.push(partial(1, 1, 0));
        outbox.close();
        outbox.push(partial(1, 2, 1));
        assert!(outbox.pop().is_some(), "queued frame still drains");
        assert!(outbox.pop().is_none(), "closed+empty pop must end");
    }
}
