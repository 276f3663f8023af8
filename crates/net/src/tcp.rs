//! TCP transport: length-delimited frames over per-peer connections,
//! with reconnect.
//!
//! Streams carry frames back to back; the fixed header's `len` field
//! delimits them, and each connection keeps a reassembly buffer for
//! frames split across reads.  Connections are opened lazily on first
//! send and announced with a [`WireMsg::Hello`] preamble, so the
//! accepting side learns the peer id from the first frame's header
//! (reconnecting peers replace their old connection).  A failed write
//! drops the connection and retries once over a fresh one — counted in
//! [`TransportStats::reconnects`]; a frame that still cannot be written
//! is counted as loss.  A corrupt stream (header that fails to decode)
//! cannot be resynchronised and closes the connection.

use crate::frame::{FrameHeader, HEADER_LEN, MAX_FRAME_LEN};
use crate::transport::{PeerId, Transport, TransportError};
use crate::wire::WireMsg;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};
use voronet_sim::TransportStats;

/// How long a single frame write may retry on a full send buffer before
/// the connection is considered dead.
const WRITE_DEADLINE: Duration = Duration::from_secs(2);

#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Reassembly buffer for frames split across reads.
    rbuf: Vec<u8>,
}

impl Conn {
    fn new(stream: TcpStream) -> Result<Self, TransportError> {
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn {
            stream,
            rbuf: Vec::new(),
        })
    }

    /// Reads whatever the socket has; `Ok(false)` when the connection is
    /// closed or broken.
    fn pump_read(&mut self) -> bool {
        let mut tmp = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => return false,
                Ok(n) => self.rbuf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return true,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
    }

    /// Pops the next complete frame from the reassembly buffer.
    /// `Err(())` marks an unrecoverable corrupt stream.
    fn next_frame(&mut self) -> Result<Option<Vec<u8>>, ()> {
        if self.rbuf.len() < HEADER_LEN {
            return Ok(None);
        }
        let header = FrameHeader::decode(&self.rbuf).map_err(|_| ())?;
        let total = HEADER_LEN + header.len as usize;
        if self.rbuf.len() < total {
            return Ok(None);
        }
        let frame = self.rbuf[..total].to_vec();
        self.rbuf.drain(..total);
        Ok(Some(frame))
    }

    /// Writes one whole frame, retrying short writes and full buffers
    /// until [`WRITE_DEADLINE`]; `false` when the connection is dead.
    fn write_frame(&mut self, frame: &[u8]) -> bool {
        let start = Instant::now();
        let mut written = 0;
        while written < frame.len() {
            match self.stream.write(&frame[written..]) {
                Ok(0) => return false,
                Ok(n) => written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if start.elapsed() > WRITE_DEADLINE {
                        return false;
                    }
                    std::thread::sleep(Duration::from_micros(100));
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => return false,
            }
        }
        true
    }
}

/// A [`Transport`] over per-peer TCP connections.
#[derive(Debug)]
pub struct TcpTransport {
    listener: TcpListener,
    peer: PeerId,
    peers: HashMap<PeerId, SocketAddr>,
    /// Established, identified connections.
    conns: HashMap<PeerId, Conn>,
    /// Accepted inbound connections whose first frame has not arrived
    /// yet (the peer is unknown until it does).
    pending: Vec<Conn>,
    /// Peers we have connected out to before (connections beyond the
    /// first are reconnects).
    ever_connected: HashSet<PeerId>,
    inbox: VecDeque<(PeerId, Vec<u8>)>,
    stats: TransportStats,
}

impl TcpTransport {
    /// Binds a listener on `addr` (e.g. `"127.0.0.1:7200"`) as `peer`.
    pub fn bind(peer: PeerId, addr: &str) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr).map_err(|e| match e.kind() {
            ErrorKind::InvalidInput => TransportError::BadAddress(addr.to_string()),
            _ => TransportError::Io(e),
        })?;
        listener.set_nonblocking(true)?;
        Ok(TcpTransport {
            listener,
            peer,
            peers: HashMap::new(),
            conns: HashMap::new(),
            pending: Vec::new(),
            ever_connected: HashSet::new(),
            inbox: VecDeque::new(),
            stats: TransportStats::new(),
        })
    }

    /// The local listener address (useful when bound to port 0).
    pub fn local_addr(&self) -> Result<SocketAddr, TransportError> {
        Ok(self.listener.local_addr()?)
    }

    /// Opens a fresh connection to `to` and sends the Hello preamble.
    fn connect(&mut self, to: PeerId) -> Result<Conn, TransportError> {
        let addr = *self.peers.get(&to).ok_or(TransportError::UnknownPeer(to))?;
        if !self.ever_connected.insert(to) {
            self.stats.reconnects += 1;
        }
        let stream = TcpStream::connect(addr)?;
        let mut conn = Conn::new(stream)?;
        let mut hello = Vec::new();
        WireMsg::Hello
            .encode(self.peer, to, &mut hello)
            .expect("hello is tiny");
        if !conn.write_frame(&hello) {
            return Err(TransportError::Io(std::io::Error::new(
                ErrorKind::BrokenPipe,
                "hello preamble failed",
            )));
        }
        Ok(conn)
    }

    /// Accepts inbound connections and pumps every connection's read
    /// side, moving complete frames into the inbox.
    fn pump(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if let Ok(conn) = Conn::new(stream) {
                        self.pending.push(conn);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }

        // Identify pending connections by their first frame's header.
        let mut identified = Vec::new();
        let mut keep = Vec::new();
        for mut conn in std::mem::take(&mut self.pending) {
            let alive = conn.pump_read();
            match conn.next_frame() {
                Ok(Some(frame)) => {
                    let header = FrameHeader::decode(&frame).expect("validated by next_frame");
                    identified.push((header.from, header.kind, frame, conn));
                }
                Ok(None) => {
                    if alive {
                        keep.push(conn);
                    }
                }
                Err(()) => {
                    self.stats.decode_errors += 1;
                }
            }
        }
        self.pending = keep;
        for (from, kind, frame, conn) in identified {
            // A reconnecting peer replaces its old connection.
            self.conns.insert(from, conn);
            if kind != WireMsg::Hello.kind() {
                self.stats.frames_delivered += 1;
                self.inbox.push_back((from, frame));
            }
        }

        // Pump established connections.
        let mut dead = Vec::new();
        for (&peer, conn) in self.conns.iter_mut() {
            let alive = conn.pump_read();
            loop {
                match conn.next_frame() {
                    Ok(Some(frame)) => {
                        let header = FrameHeader::decode(&frame).expect("validated");
                        if header.kind != WireMsg::Hello.kind() {
                            self.stats.frames_delivered += 1;
                            self.inbox.push_back((header.from, frame));
                        }
                    }
                    Ok(None) => break,
                    Err(()) => {
                        self.stats.decode_errors += 1;
                        dead.push(peer);
                        break;
                    }
                }
            }
            if !alive {
                dead.push(peer);
            }
        }
        for peer in dead {
            self.conns.remove(&peer);
        }
    }
}

impl Transport for TcpTransport {
    fn local_peer(&self) -> PeerId {
        self.peer
    }

    fn register(&mut self, peer: PeerId, addr: &str) -> Result<(), TransportError> {
        let addr: SocketAddr = addr
            .parse()
            .map_err(|_| TransportError::BadAddress(addr.to_string()))?;
        self.peers.insert(peer, addr);
        Ok(())
    }

    fn send(&mut self, to: PeerId, frame: &[u8]) -> Result<(), TransportError> {
        if frame.len() > MAX_FRAME_LEN {
            self.stats.oversized += 1;
            return Err(TransportError::Oversized { len: frame.len() });
        }
        if !self.peers.contains_key(&to) {
            return Err(TransportError::UnknownPeer(to));
        }
        self.stats.frames_sent += 1;
        if !self.conns.contains_key(&to) {
            match self.connect(to) {
                Ok(conn) => {
                    self.conns.insert(to, conn);
                }
                Err(TransportError::Io(_)) => {
                    self.stats.dropped_loss += 1;
                    return Ok(());
                }
                Err(e) => return Err(e),
            }
        }
        let wrote = self
            .conns
            .get_mut(&to)
            .map(|c| c.write_frame(frame))
            .unwrap_or(false);
        if wrote {
            return Ok(());
        }
        // The connection died under us: reconnect once and retry.
        self.conns.remove(&to);
        match self.connect(to) {
            Ok(mut conn) => {
                let wrote = conn.write_frame(frame);
                self.conns.insert(to, conn);
                if !wrote {
                    self.stats.dropped_loss += 1;
                }
            }
            Err(TransportError::Io(_)) => {
                self.stats.dropped_loss += 1;
            }
            Err(e) => return Err(e),
        }
        Ok(())
    }

    fn poll(&mut self) -> Result<(), TransportError> {
        self.pump();
        if self.inbox.is_empty() {
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    fn recv_into(&mut self, buf: &mut Vec<u8>) -> Result<Option<PeerId>, TransportError> {
        if self.inbox.is_empty() {
            self.pump();
        }
        match self.inbox.pop_front() {
            Some((from, frame)) => {
                buf.clear();
                buf.extend_from_slice(&frame);
                Ok(Some(from))
            }
            None => Ok(None),
        }
    }

    fn stats(&self) -> TransportStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recv_one(t: &mut TcpTransport, deadline: Duration) -> Option<(PeerId, Vec<u8>)> {
        let start = Instant::now();
        let mut buf = Vec::new();
        while start.elapsed() < deadline {
            if let Some(from) = t.recv_into(&mut buf).unwrap() {
                return Some((from, buf));
            }
            t.poll().unwrap();
        }
        None
    }

    #[test]
    fn frames_cross_the_loopback_with_reassembly() {
        let mut a = TcpTransport::bind(1, "127.0.0.1:0").unwrap();
        let mut b = TcpTransport::bind(2, "127.0.0.1:0").unwrap();
        a.register(2, &b.local_addr().unwrap().to_string()).unwrap();
        b.register(1, &a.local_addr().unwrap().to_string()).unwrap();

        // Several frames back to back on one connection, including a big
        // one that will span multiple reads.
        let mut frames = Vec::new();
        for tag in 0..3u64 {
            let mut scratch = Vec::new();
            let ids: Vec<u64> = (0..2_000).map(|i| i * (tag + 1)).collect();
            let list = crate::wire::IdList::build(&mut scratch, &ids);
            let mut frame = Vec::new();
            WireMsg::AnswerMatches {
                token: tag,
                hops: 1,
                visited: 5,
                matches: list,
            }
            .encode(1, 2, &mut frame)
            .unwrap();
            frames.push(frame);
        }
        for f in &frames {
            a.send(2, f).unwrap();
        }
        for expected in &frames {
            let (from, got) = recv_one(&mut b, Duration::from_secs(5)).expect("frame arrives");
            assert_eq!(from, 1);
            assert_eq!(&got, expected);
        }
        assert_eq!(a.stats().frames_sent, 3);
        assert_eq!(a.stats().reconnects, 0);
        assert_eq!(b.stats().frames_delivered, 3);
    }

    #[test]
    fn replies_flow_back_over_a_second_connection() {
        let mut a = TcpTransport::bind(1, "127.0.0.1:0").unwrap();
        let mut b = TcpTransport::bind(2, "127.0.0.1:0").unwrap();
        a.register(2, &b.local_addr().unwrap().to_string()).unwrap();
        b.register(1, &a.local_addr().unwrap().to_string()).unwrap();

        let mut ping = Vec::new();
        WireMsg::Ping { reply: false }
            .encode(1, 2, &mut ping)
            .unwrap();
        a.send(2, &ping).unwrap();
        let (from, _) = recv_one(&mut b, Duration::from_secs(5)).unwrap();
        assert_eq!(from, 1);

        let mut pong = Vec::new();
        WireMsg::Ping { reply: true }
            .encode(2, 1, &mut pong)
            .unwrap();
        b.send(1, &pong).unwrap();
        let (from, got) = recv_one(&mut a, Duration::from_secs(5)).unwrap();
        assert_eq!(from, 2);
        let (_, msg) = WireMsg::decode(&got).unwrap();
        assert_eq!(msg, WireMsg::Ping { reply: true });
    }

    #[test]
    fn a_restarted_peer_triggers_reconnect() {
        let mut a = TcpTransport::bind(1, "127.0.0.1:0").unwrap();
        let b = TcpTransport::bind(2, "127.0.0.1:0").unwrap();
        let b_addr = b.local_addr().unwrap().to_string();
        a.register(2, &b_addr).unwrap();

        let mut frame = Vec::new();
        WireMsg::Ping { reply: false }
            .encode(1, 2, &mut frame)
            .unwrap();
        a.send(2, &frame).unwrap();
        drop(b); // peer goes away; the established connection dies

        let mut b2 = TcpTransport::bind(2, &b_addr).expect("rebind the same port");
        b2.register(1, &a.local_addr().unwrap().to_string())
            .unwrap();
        // Keep sending until a frame makes it across the new connection;
        // the first writes may land in the dead socket's buffer.
        let start = Instant::now();
        loop {
            a.send(2, &frame).unwrap();
            if let Some((from, _)) = recv_one(&mut b2, Duration::from_millis(100)) {
                assert_eq!(from, 1);
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "no frame after restart; stats {:?}",
                a.stats()
            );
        }
        assert!(a.stats().reconnects >= 1, "{:?}", a.stats());
    }

    #[test]
    fn write_failure_reconnects_once_then_counts_loss() {
        let mut a = TcpTransport::bind(1, "127.0.0.1:0").unwrap();
        let mut b = TcpTransport::bind(2, "127.0.0.1:0").unwrap();
        a.register(2, &b.local_addr().unwrap().to_string()).unwrap();

        let mut frame = Vec::new();
        WireMsg::Ping { reply: false }
            .encode(1, 2, &mut frame)
            .unwrap();
        a.send(2, &frame).unwrap();
        assert!(recv_one(&mut b, Duration::from_secs(5)).is_some());
        assert_eq!(a.stats().reconnects, 0);
        drop(b); // the peer dies for good: nothing listens there any more

        // Until the kernel reports the dead connection, writes may still
        // land in the socket buffer; once it does, each send must attempt
        // exactly one reconnect (refused) and count the frame as loss —
        // never surface an error, never retry beyond that one reconnect.
        let start = Instant::now();
        let mut sends = 1u64;
        while a.stats().dropped_loss == 0 {
            assert!(
                start.elapsed() < Duration::from_secs(10),
                "the dead connection never failed a write: {:?}",
                a.stats()
            );
            a.send(2, &frame).unwrap();
            sends += 1;
            std::thread::sleep(Duration::from_millis(10));
        }
        let stats = a.stats();
        assert!(stats.dropped_loss >= 1, "{stats:?}");
        assert!(stats.reconnects >= 1, "{stats:?}");
        assert!(
            stats.reconnects <= sends,
            "more than one reconnect per failed send: {stats:?}"
        );
        assert_eq!(stats.frames_sent, sends);
    }
}
