//! TCP transport: the same submission path as the in-process client,
//! behind length-prefixed frames on a socket.
//!
//! One connection = one reader thread (decodes [`Request`] frames,
//! submits) + one writer thread (encodes [`Response`]s from the
//! connection's channel). A connection supplies its own logical queue ids
//! in `Submit`, so one socket can multiplex several FIFO streams; the
//! usual shape is one queue per connection. Corrupt frames (bad magic,
//! checksum mismatch, unknown tags, trailing bytes) close the connection
//! — after a failed integrity check there is no trustworthy way to
//! resynchronise a byte stream.

use crate::protocol::{decode_frame, encode_frame, Request, Response, WireError};
use crate::server::Server;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A listening TCP front end for a [`Server`]. Dropping it (or calling
/// [`TcpFront::stop`]) stops accepting; established connections drain.
pub struct TcpFront {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl TcpFront {
    /// Binds `addr` (use port 0 for an ephemeral test port) and starts
    /// accepting connections that submit into `server`.
    pub fn spawn(server: &Server, addr: &str) -> std::io::Result<TcpFront> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let inner = server.inner();
        let stop = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("orinoco-accept".into())
            .spawn(move || {
                let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    match accept(&listener) {
                        Ok(stream) => {
                            let inner = Arc::clone(&inner);
                            let h = std::thread::Builder::new()
                                .name("orinoco-conn".into())
                                .spawn(move || serve_connection(stream, &inner))
                                .expect("spawn connection thread");
                            conns.push(h);
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => {
                            std::thread::sleep(std::time::Duration::from_millis(2));
                        }
                        Err(_) => break,
                    }
                }
                for h in conns {
                    let _ = h.join();
                }
            })
            .expect("spawn accept thread");
        Ok(TcpFront { addr: local, shutdown, accept_thread: Some(accept_thread) })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting and joins the accept loop (open connections finish
    /// their current requests first).
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

impl Drop for TcpFront {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Accepts one connection with Nagle's algorithm off.
///
/// A job answers with two small frames, `Accepted` then `Done`. With
/// Nagle on, the second waits for the first to be acknowledged, and the
/// client delays that ACK, so every job would take at least the delayed-ACK
/// timeout (about 40 ms on Linux). [`TcpClient::connect`] turns it off on
/// the client's end for the same reason.
fn accept(listener: &TcpListener) -> std::io::Result<TcpStream> {
    let (stream, _) = listener.accept()?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// Reads exactly one frame payload from `stream` (blocking).
/// `Ok(None)` = clean EOF at a frame boundary.
fn read_frame(stream: &mut TcpStream) -> std::io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 12];
    let mut got = 0;
    while got < header.len() {
        match stream.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
            Ok(n) => got += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if header[..4] != crate::protocol::FRAME_MAGIC {
        return Err(std::io::Error::new(ErrorKind::InvalidData, WireError::BadMagic.to_string()));
    }
    let len = u64::from_le_bytes(header[4..12].try_into().expect("8 bytes"));
    if len > crate::protocol::MAX_FRAME_LEN as u64 {
        return Err(std::io::Error::new(
            ErrorKind::InvalidData,
            WireError::Oversize(len).to_string(),
        ));
    }
    // Re-assemble the full frame so `decode_frame` performs the checksum
    // verification — one integrity path, no transport-specific variant.
    let mut frame = vec![0u8; 20 + len as usize];
    frame[..12].copy_from_slice(&header);
    stream.read_exact(&mut frame[12..])?;
    match decode_frame(&frame) {
        Ok((payload, _)) => Ok(Some(payload.to_vec())),
        Err(e) => Err(std::io::Error::new(ErrorKind::InvalidData, e.to_string())),
    }
}

/// Writes one framed payload.
fn write_frame(stream: &mut TcpStream, payload: &[u8]) -> std::io::Result<()> {
    stream.write_all(&encode_frame(payload))
}

/// Runs one connection to completion: reader loop on this thread, writer
/// loop on a helper thread fed by the same channel the job system sends
/// responses into.
fn serve_connection(stream: TcpStream, inner: &Arc<crate::server::ServerInner>) {
    let (tx, rx) = std::sync::mpsc::channel::<Response>();
    let writer_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = std::thread::Builder::new()
        .name("orinoco-conn-writer".into())
        .spawn(move || {
            let mut stream = writer_stream;
            while let Ok(resp) = rx.recv() {
                if write_frame(&mut stream, &resp.encode()).is_err() {
                    break;
                }
            }
        })
        .expect("spawn writer thread");

    let mut stream = stream;
    // Clean EOF, a malformed frame, or a corrupt payload all end the
    // connection the same way: stop reading and let the writer drain.
    while let Ok(Some(payload)) = read_frame(&mut stream) {
        let request = match Request::decode(&payload) {
            Ok(r) => r,
            Err(_) => break,
        };
        match request {
            Request::Ping => {
                let _ = tx.send(Response::Pong);
            }
            Request::Submit { queue, spec } => {
                inner.submit_on(queue, spec, &tx);
            }
            Request::Bye => break,
        }
    }
    // Reader done: hang up the writer once in-flight jobs finish sending.
    drop(tx);
    let _ = writer.join();
}

/// A minimal blocking TCP client for tests and the smoke binary: sends
/// requests, receives framed responses, over one socket.
pub struct TcpClient {
    stream: TcpStream,
}

impl TcpClient {
    /// Connects to a [`TcpFront`], with Nagle's algorithm off: a
    /// `Submit` goes out at once, not behind an earlier unacknowledged one.
    pub fn connect(addr: SocketAddr) -> std::io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(TcpClient { stream })
    }

    /// Sends one request.
    pub fn send(&mut self, req: &Request) -> std::io::Result<()> {
        write_frame(&mut self.stream, &req.encode())
    }

    /// Receives one response (blocking). `Ok(None)` = server hung up.
    pub fn recv(&mut self) -> std::io::Result<Option<Response>> {
        let Some(payload) = read_frame(&mut self.stream)? else {
            return Ok(None);
        };
        Response::decode(&payload)
            .map(Some)
            .map_err(|e| std::io::Error::new(ErrorKind::InvalidData, e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_ends_turn_nagle_off() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpClient::connect(listener.local_addr().expect("addr")).expect("connect");
        let served = accept(&listener).expect("accept");
        assert!(client.stream.nodelay().expect("client option"), "client end keeps Nagle on");
        assert!(served.nodelay().expect("server option"), "server end keeps Nagle on");
    }
}
