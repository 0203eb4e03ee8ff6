//! The transport seam: the byte-stream surface the serve layer runs on.
//!
//! The master and worker never touch `TcpStream` directly any more —
//! they speak to a [`Conn`] (a bidirectional byte stream that can be
//! cloned for a second writer thread and shut down from another thread)
//! accepted from a [`Listener`]. Two implementations ship:
//!
//! * **TCP** ([`TcpConn`] / [`TcpChannelListener`]) — the production
//!   path, a thin wrapper over `std::net`;
//! * **in-memory** ([`MemNet`]) — a deterministic loopback network of
//!   chunk-preserving pipes, used by the chaos harness
//!   ([`crate::chaos`]) to inject seeded frame drops, duplication,
//!   reordering, truncation and byte corruption *underneath* an
//!   unmodified master and worker.
//!
//! The in-memory pipes preserve write-chunk boundaries: a reader sees at
//! most one written chunk per `read`, so split-write faults exercise the
//! exact short-read handling real sockets demand.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::chaos::WriteChaos;
use crate::sync::MutexExt;

/// A bidirectional byte stream between a master and one worker.
///
/// Beyond `Read`/`Write`, a connection must support the three operations
/// the fault-tolerant master relies on: cloning a handle for a second
/// thread (the worker's heartbeat writer, the master's shutdown stash),
/// shutting the stream down from *another* thread so a blocked read
/// returns, and a read timeout so a silent peer cannot pin a handler
/// thread forever.
pub trait Conn: Read + Write + Send {
    /// Clone a handle to the same underlying stream.
    fn try_clone(&self) -> io::Result<Box<dyn Conn>>;

    /// Tear the stream down in both directions. Pending and future reads
    /// on every clone (and on the peer) unblock with EOF or an error.
    fn shutdown(&self);

    /// Bound how long a `read` may block. `None` blocks forever. Shared
    /// across clones, like `TcpStream::set_read_timeout`.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

/// The accepting side of a transport.
pub trait Listener: Send {
    /// Accept one pending connection without blocking; `Ok(None)` when
    /// none is waiting.
    fn poll_accept(&self) -> io::Result<Option<Box<dyn Conn>>>;

    /// The socket address, for transports that have one.
    fn local_addr(&self) -> Option<SocketAddr>;
}

// ---------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------

/// [`Conn`] over a real TCP socket.
#[derive(Debug)]
pub struct TcpConn(pub TcpStream);

impl TcpConn {
    /// Connect to `addr` (nodelay, like the historical worker path).
    pub fn connect(addr: SocketAddr) -> io::Result<TcpConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(TcpConn(stream))
    }
}

impl Read for TcpConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

impl Write for TcpConn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.0.flush()
    }
}

impl Conn for TcpConn {
    fn try_clone(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(TcpConn(self.0.try_clone()?)))
    }

    fn shutdown(&self) {
        let _ = self.0.shutdown(std::net::Shutdown::Both);
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        self.0.set_read_timeout(timeout)
    }
}

/// [`Listener`] over a bound TCP socket (named to avoid clashing with
/// `std::net::TcpListener`).
#[derive(Debug)]
pub struct TcpChannelListener {
    inner: TcpListener,
    addr: SocketAddr,
}

impl TcpChannelListener {
    /// Bind `addr` (port 0 picks a free port) in non-blocking mode.
    pub fn bind(addr: SocketAddr) -> io::Result<TcpChannelListener> {
        let inner = TcpListener::bind(addr)?;
        inner.set_nonblocking(true)?;
        let addr = inner.local_addr()?;
        Ok(TcpChannelListener { inner, addr })
    }
}

impl Listener for TcpChannelListener {
    fn poll_accept(&self) -> io::Result<Option<Box<dyn Conn>>> {
        match self.inner.accept() {
            Ok((stream, _peer)) => {
                stream.set_nonblocking(false)?;
                Ok(Some(Box::new(TcpConn(stream))))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        Some(self.addr)
    }
}

// ---------------------------------------------------------------------
// In-memory transport
// ---------------------------------------------------------------------

/// One direction of an in-memory connection: a queue of write chunks.
#[derive(Debug, Default)]
struct PipeState {
    chunks: VecDeque<Vec<u8>>,
    /// Bytes of the front chunk already read: a frame is read as header
    /// then payload, and a cursor lets neither step move bytes.
    front_read: usize,
    closed: bool,
}

#[derive(Debug, Default)]
struct Pipe {
    state: Mutex<PipeState>,
    readable: Condvar,
}

impl crate::chaos::PipeSink for Pipe {
    fn push_chunk(&self, chunk: Vec<u8>) -> io::Result<()> {
        self.push(chunk)
    }
}

impl Pipe {
    fn push(&self, chunk: Vec<u8>) -> io::Result<()> {
        let mut s = self.state.lock_recover();
        if s.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "pipe closed"));
        }
        s.chunks.push_back(chunk);
        self.readable.notify_all();
        Ok(())
    }

    /// Blocking read of up to `buf.len()` bytes from the *front chunk
    /// only* — chunk boundaries are preserved so split-write faults
    /// produce genuine short reads on the receiving side.
    fn read(&self, buf: &mut [u8], timeout: Option<Duration>) -> io::Result<usize> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut s = self.state.lock_recover();
        loop {
            let at = s.front_read;
            if let Some(front) = s.chunks.front() {
                let n = (front.len() - at).min(buf.len());
                buf[..n].copy_from_slice(&front[at..at + n]);
                if at + n == front.len() {
                    s.chunks.pop_front();
                    s.front_read = 0;
                } else {
                    s.front_read = at + n;
                }
                return Ok(n);
            }
            if s.closed {
                return Ok(0); // EOF
            }
            match deadline {
                None => {
                    s = self
                        .readable
                        .wait(s)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        return Err(io::Error::new(
                            io::ErrorKind::TimedOut,
                            "in-memory read timed out",
                        ));
                    }
                    let (guard, _) = self
                        .readable
                        .wait_timeout(s, d - now)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                    s = guard;
                }
            }
        }
    }

    fn close(&self) {
        let mut s = self.state.lock_recover();
        s.closed = true;
        self.readable.notify_all();
    }
}

/// The state shared by every clone of one in-memory endpoint. Dropping
/// the last clone closes both directions, mirroring a socket close.
#[derive(Debug)]
struct Endpoint {
    /// Direction this endpoint writes to.
    tx: Arc<Pipe>,
    /// Direction this endpoint reads from.
    rx: Arc<Pipe>,
    read_timeout: Mutex<Option<Duration>>,
    /// Fault injection applied to this endpoint's writes, if any.
    chaos: Option<Arc<WriteChaos>>,
}

impl Endpoint {
    fn close_both(&self) {
        self.tx.close();
        self.rx.close();
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.close_both();
    }
}

/// [`Conn`] over an in-memory pipe pair. Created via [`MemNet`].
#[derive(Debug, Clone)]
pub struct MemConn {
    ep: Arc<Endpoint>,
}

impl MemConn {
    /// A connected `(client, server)` pair; each side's writes go
    /// through its fault plan, if it has one.
    fn pair(
        client_chaos: Option<Arc<WriteChaos>>,
        server_chaos: Option<Arc<WriteChaos>>,
    ) -> (MemConn, MemConn) {
        let (c2s, s2c) = (Arc::new(Pipe::default()), Arc::new(Pipe::default()));
        let end = |tx: &Arc<Pipe>, rx: &Arc<Pipe>, chaos| MemConn {
            ep: Arc::new(Endpoint {
                tx: Arc::clone(tx),
                rx: Arc::clone(rx),
                read_timeout: Mutex::new(None),
                chaos,
            }),
        };
        (end(&c2s, &s2c, client_chaos), end(&s2c, &c2s, server_chaos))
    }
}

impl Read for MemConn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let timeout = *self.ep.read_timeout.lock_recover();
        self.ep.rx.read(buf, timeout)
    }
}

impl Write for MemConn {
    /// Writes are chunk-granular: the whole buffer lands as one pipe
    /// chunk (or is transformed by the endpoint's fault plan). The serve
    /// layer writes exactly one encoded frame per `write_all`, so the
    /// fault plan sees frame boundaries.
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match &self.ep.chaos {
            None => self.ep.tx.push(buf.to_vec())?,
            Some(chaos) => chaos.write_frame(self.ep.tx.as_ref(), buf)?,
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Conn for MemConn {
    fn try_clone(&self) -> io::Result<Box<dyn Conn>> {
        Ok(Box::new(self.clone()))
    }

    fn shutdown(&self) {
        self.ep.close_both();
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        *self.ep.read_timeout.lock_recover() = timeout;
        Ok(())
    }
}

#[derive(Debug, Default)]
struct MemNetState {
    pending: VecDeque<MemConn>,
    listener_open: bool,
}

/// An in-memory loopback network: one listener side, any number of
/// connectors. The deterministic substrate of the chaos harness.
///
/// ```
/// use rck_serve::transport::MemNet;
/// use std::io::{Read, Write};
///
/// let net = MemNet::new();
/// let listener = net.listener();
/// let mut client = net.connect().unwrap();
/// client.write_all(b"ping").unwrap();
/// let mut server = listener.poll_accept().unwrap().expect("pending conn");
/// let mut buf = [0u8; 4];
/// server.read_exact(&mut buf).unwrap();
/// assert_eq!(&buf, b"ping");
/// ```
#[derive(Debug, Clone)]
pub struct MemNet {
    state: Arc<Mutex<MemNetState>>,
}

impl Default for MemNet {
    fn default() -> MemNet {
        MemNet::new()
    }
}

impl MemNet {
    /// A fresh network with an open (not yet constructed) listener side.
    pub fn new() -> MemNet {
        MemNet {
            state: Arc::new(Mutex::new(MemNetState {
                pending: VecDeque::new(),
                listener_open: true,
            })),
        }
    }

    /// The accepting side. Dropping it closes the network: pending and
    /// future connects fail, like connecting to a dead master.
    pub fn listener(&self) -> Box<dyn Listener> {
        Box::new(MemListener {
            state: Arc::clone(&self.state),
        })
    }

    /// Connect a fault-free endpoint pair.
    pub fn connect(&self) -> io::Result<Box<dyn Conn>> {
        self.connect_chaotic(None, None)
    }

    /// Connect with fault injection: `client_chaos` transforms frames
    /// the client (worker) writes, `server_chaos` transforms frames the
    /// accepted (master) side writes. `None` means that direction is
    /// clean.
    pub fn connect_chaotic(
        &self,
        client_chaos: Option<Arc<WriteChaos>>,
        server_chaos: Option<Arc<WriteChaos>>,
    ) -> io::Result<Box<dyn Conn>> {
        let (client, server) = MemConn::pair(client_chaos, server_chaos);
        let mut state = self.state.lock_recover();
        if !state.listener_open {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "in-memory listener closed",
            ));
        }
        state.pending.push_back(server);
        Ok(Box::new(client))
    }

    /// A connected endpoint pair that bypasses the listener queue:
    /// `(client, server)`, both fault-free. The gate tests use this to
    /// hand the server half straight to a session handler without an
    /// accept loop in between.
    pub fn pair() -> (Box<dyn Conn>, Box<dyn Conn>) {
        let (client, server) = MemConn::pair(None, None);
        (Box::new(client), Box::new(server))
    }
}

struct MemListener {
    state: Arc<Mutex<MemNetState>>,
}

impl Listener for MemListener {
    fn poll_accept(&self) -> io::Result<Option<Box<dyn Conn>>> {
        let mut state = self.state.lock_recover();
        Ok(state
            .pending
            .pop_front()
            .map(|c| Box::new(c) as Box<dyn Conn>))
    }

    fn local_addr(&self) -> Option<SocketAddr> {
        None
    }
}

impl Drop for MemListener {
    fn drop(&mut self) {
        let mut state = self.state.lock_recover();
        state.listener_open = false;
        // Connections queued but never accepted: closing their endpoints
        // unblocks clients waiting on a handshake that will never come.
        state.pending.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_pipe_preserves_chunk_boundaries() {
        let net = MemNet::new();
        let listener = net.listener();
        let mut client = net.connect().unwrap();
        client.write_all(b"abc").unwrap();
        client.write_all(b"defgh").unwrap();
        let mut server = listener.poll_accept().unwrap().expect("pending");
        let mut buf = [0u8; 64];
        // First read returns only the first chunk even with room for more.
        assert_eq!(server.read(&mut buf).unwrap(), 3);
        assert_eq!(&buf[..3], b"abc");
        assert_eq!(server.read(&mut buf).unwrap(), 5);
        assert_eq!(&buf[..5], b"defgh");
    }

    #[test]
    fn a_chunk_read_in_pieces_arrives_whole_and_in_order() {
        let (mut client, mut server) = MemNet::pair();
        client.write_all(b"header|payload").unwrap();
        client.write_all(b"next").unwrap();
        let mut buf = [0u8; 7];
        assert_eq!(server.read(&mut buf).unwrap(), 7);
        assert_eq!(&buf, b"header|");
        // The rest of the chunk, never spilling into the next one.
        let mut rest = [0u8; 64];
        assert_eq!(server.read(&mut rest).unwrap(), 7);
        assert_eq!(&rest[..7], b"payload");
        assert_eq!(server.read(&mut rest).unwrap(), 4);
        assert_eq!(&rest[..4], b"next");
    }

    #[test]
    fn shutdown_unblocks_a_pending_read() {
        let net = MemNet::new();
        let listener = net.listener();
        let client = net.connect().unwrap();
        let mut server = listener.poll_accept().unwrap().expect("pending");
        let closer = client.try_clone().unwrap();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            closer.shutdown();
        });
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 0, "EOF after shutdown");
        t.join().unwrap();
        drop(client);
    }

    #[test]
    fn read_timeout_fires() {
        let net = MemNet::new();
        let listener = net.listener();
        let _client = net.connect().unwrap();
        let mut server = listener.poll_accept().unwrap().expect("pending");
        server
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut buf = [0u8; 8];
        let err = server.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }

    #[test]
    fn pair_is_a_connected_duplex_stream() {
        let (mut client, mut server) = MemNet::pair();
        client.write_all(b"ping").unwrap();
        server.write_all(b"pong").unwrap();
        let mut buf = [0u8; 4];
        server.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        client.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"pong");
        drop(client);
        assert_eq!(server.read(&mut buf).unwrap(), 0, "EOF after peer drop");
    }

    #[test]
    fn dropping_the_listener_refuses_new_connects() {
        let net = MemNet::new();
        let listener = net.listener();
        drop(listener);
        assert!(net.connect().is_err());
    }

    #[test]
    fn dropping_last_clone_closes_the_peer() {
        let net = MemNet::new();
        let listener = net.listener();
        let client = net.connect().unwrap();
        let clone = client.try_clone().unwrap();
        let mut server = listener.poll_accept().unwrap().expect("pending");
        drop(client);
        // A live clone keeps the stream open...
        server
            .set_read_timeout(Some(Duration::from_millis(10)))
            .unwrap();
        let mut buf = [0u8; 1];
        assert_eq!(
            server.read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::TimedOut
        );
        // ...dropping the last one is EOF.
        drop(clone);
        assert_eq!(server.read(&mut buf).unwrap(), 0);
    }
}
