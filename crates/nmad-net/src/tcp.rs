//! Real TCP driver — event-driven, massive-fanout capable.
//!
//! The paper's prototype includes a TCP/Ethernet transfer module (§4);
//! this is ours, over genuine non-blocking sockets. Frames are
//! length-prefixed; the source node is implied by the socket. All
//! operations are non-blocking.
//!
//! The data path costs one readiness wait per engine pump:
//!
//! * `post_send` copies the length prefix and the caller's gather list
//!   into the connection's output queue and writes at once as much as
//!   the kernel takes; the pump flushes the rest when the socket turns
//!   writable, and `post_send` itself never waits;
//! * [`Driver::pump`] waits once and reads each ready socket into one
//!   receive scratch buffer per driver, copying every complete frame
//!   out of it exactly once and keeping only a partial tail per
//!   connection; a short read ends the socket's turn (it is drained);
//! * `poll_recv` pumps only when no pump ran since its queue last ran
//!   dry, so the engine's `pump` → `poll_recv`… cycle waits once, while
//!   a caller that only polls still makes progress; `test_send` pumps
//!   only for a send whose bytes are still queued.
//!
//! Unlike the first-generation driver (which linearly scanned every
//! connection on every pump), this one is built for **thousands of
//! concurrent sockets per endpoint**:
//!
//! * a readiness poller ([`crate::poller`]: epoll on Linux, `poll(2)`
//!   fallback) makes each pump O(ready sockets), not O(held sockets);
//! * per-connection state lives in a generation-checked slab
//!   ([`EndpointTable`]) — O(1) accept, lookup and teardown, tokens
//!   double as poller keys, and a late event for a torn-down socket
//!   dies on the generation check instead of aliasing a reused slot;
//! * each connection walks an explicit state machine
//!   (accept → handshake → established → draining → closed) with
//!   non-blocking handshakes under a deadline, partial-write
//!   resumption, and interest re-registration only on edge
//!   transitions;
//! * **backpressure**: a socket whose parsed-frame backlog exceeds the
//!   receive budget — or the whole endpoint, when the engine signals
//!   that its optimization window / completion board saturated
//!   ([`Driver::set_rx_backpressure`]) — simply stops being read until
//!   the backlog drains. TCP's own flow control then pushes back on
//!   the sender.
//!
//! A connection that misbehaves (handshake timeout, malformed frame,
//! socket error) is torn down and counted in [`EndpointStats`]; it
//! never poisons the other connections — a wedged peer costs exactly
//! one endpoint, which is what "serve many users" requires.

use crate::backoff::{Backoff, BackoffPolicy};
use crate::driver::{Capabilities, Driver, NetError, NetResult, RxFrame, SendHandle};
use crate::endpoint::{EndpointStats, EndpointTable, Token};
use crate::poller::{Event, Interest, Poller};
use bytes::Bytes;
use nmad_sim::{FxHashMap, NodeId};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Frame length prefix width.
const LEN_PREFIX: usize = 4;
/// Largest frame we accept from the wire (corrupt-stream guard).
const MAX_FRAME: usize = 256 << 20;
/// Receive scratch per driver: the most one `read` takes in.
const RX_SCRATCH: usize = 64 * 1024;
/// Poller key reserved for the listening socket.
const LISTEN_KEY: usize = usize::MAX;
/// Default receive backlog (parsed frames queued towards the engine)
/// above which a socket's reads pause. Generous: eager frames are
/// small; the cap exists so one firehose peer cannot buffer unbounded
/// memory while the engine is busy.
const DEFAULT_RX_BACKLOG_CAP: usize = 4096;
/// Handshakes must complete within this of the accept.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// Where a connection is in its life cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ConnState {
    /// Accepted; reading the peer's 4-byte node-id handshake.
    Handshaking,
    /// Identified and exchanging frames.
    Established,
    /// Peer EOF seen with output still buffered: flush, then close.
    Draining,
}

/// One connection's flat state. Kept lean — 10k of these should sit
/// hot in cache.
struct Endpoint {
    stream: TcpStream,
    state: ConnState,
    /// Peer node, once the handshake identified it.
    peer: Option<NodeId>,
    /// Interest currently registered with the poller; re-registered
    /// only when the desired set differs (edge transitions).
    interest: Interest,
    /// Outgoing bytes not yet accepted by the kernel.
    out: VecDeque<u8>,
    /// Cumulative bytes enqueued / flushed towards this peer.
    enqueued: u64,
    flushed: u64,
    /// The head of a frame split across reads (prefix included).
    in_buf: Vec<u8>,
    /// Handshake bytes collected so far.
    hs_have: u8,
    hs_buf: [u8; LEN_PREFIX],
    /// Handshake deadline (only meaningful while `Handshaking`).
    hs_deadline: Instant,
    /// Reads paused: local backlog cap or engine backpressure.
    read_paused: bool,
}

impl Endpoint {
    fn new(stream: TcpStream, state: ConnState, peer: Option<NodeId>) -> NetResult<Endpoint> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        Ok(Endpoint {
            stream,
            state,
            peer,
            interest: Interest::NONE,
            out: VecDeque::new(),
            enqueued: 0,
            flushed: 0,
            in_buf: Vec::new(),
            hs_have: 0,
            hs_buf: [0; LEN_PREFIX],
            hs_deadline: Instant::now() + HANDSHAKE_TIMEOUT, // BLOCKING-OK: one clock read per accepted connection, not per frame
            read_paused: false,
        })
    }

    /// The interest this endpoint should be registered with right now.
    fn desired_interest(&self, engine_paused: bool) -> Interest {
        let readable = match self.state {
            ConnState::Handshaking => true,
            ConnState::Established => !self.read_paused && !engine_paused,
            ConnState::Draining => false,
        };
        Interest {
            readable,
            writable: !self.out.is_empty(),
        }
    }
}

/// A [`Driver`] endpoint over real TCP sockets: a fixed full mesh
/// (HPC style, [`TcpDriver::full_mesh`]), a loopback pair
/// ([`TcpDriver::pair`]), or a fan-in server accepting thousands of
/// identified clients under churn ([`TcpDriver::server`]).
pub struct TcpDriver {
    node: NodeId,
    caps: Capabilities,
    poller: Poller,
    table: EndpointTable<Endpoint>,
    /// Dense node → token map (`RxFrame::src` and `post_send` both
    /// speak node ids).
    by_node: Vec<Option<Token>>,
    listener: Option<TcpListener>,
    /// Tokens currently handshaking (transient, small): the only
    /// endpoints whose deadlines the pump must sweep.
    handshaking: Vec<Token>,
    /// Tokens paused by the local backlog cap, resumed as the engine
    /// drains `rx_ready`.
    paused: Vec<Token>,
    rx_ready: VecDeque<RxFrame>,
    rx_backlog_cap: usize,
    /// Engine-signalled backpressure (window/board saturation).
    engine_paused: bool,
    /// Endpoints with non-empty `out` — O(1) `tx_idle`.
    tx_busy: usize,
    /// Sends with bytes still in `out`, by handle: (peer index, the
    /// `flushed` watermark that completes them). A send the kernel
    /// took whole never enters.
    pending: FxHashMap<SendHandle, (usize, u64)>,
    next_handle: u64,
    stats: EndpointStats,
    /// Readiness scratch, reused across pumps.
    events: Vec<Event>,
    /// Receive scratch shared by every socket: zeroed on the first
    /// read rather than at set-up, then reused.
    rx_scratch: Vec<u8>,
    /// A pump ran since `poll_recv` last found `rx_ready` empty, so
    /// the queue already holds what that wait reported.
    rx_fresh: bool,
}

fn tcp_caps() -> Capabilities {
    Capabilities {
        name: "tcp".to_string(),
        latency_ns: 30_000,
        bandwidth_bps: 1_000_000_000,
        // We stage into a userspace buffer anyway, so gather is
        // effectively unlimited (writev semantics).
        gather_max_segs: usize::MAX,
        rdv_threshold: 64 * 1024,
        supports_rdma: false,
        mtu: MAX_FRAME,
    }
}

/// Accept/mesh-setup poll timeout: short enough to keep checking
/// deadlines, long enough not to spin.
const SETUP_POLL: Duration = Duration::from_millis(10);
/// Connect-retry schedule: 1 ms doubling to 50 ms (the peer's listener
/// may not be up yet; later attempts wait longer).
const CONNECT_BACKOFF: BackoffPolicy = BackoffPolicy::new(1_000_000, 50_000_000);

impl TcpDriver {
    fn empty(node: NodeId, capacity: usize, listener: Option<TcpListener>) -> NetResult<TcpDriver> {
        let mut poller = Poller::new()?;
        if let Some(l) = &listener {
            l.set_nonblocking(true)?;
            poller.add(l, LISTEN_KEY, Interest::READABLE)?;
        }
        Ok(TcpDriver {
            node,
            caps: tcp_caps(),
            poller,
            table: EndpointTable::new(),
            by_node: (0..capacity).map(|_| None).collect(),
            listener,
            handshaking: Vec::new(),
            paused: Vec::new(),
            rx_ready: VecDeque::new(),
            rx_backlog_cap: DEFAULT_RX_BACKLOG_CAP,
            engine_paused: false,
            tx_busy: 0,
            pending: FxHashMap::default(),
            next_handle: 0,
            stats: EndpointStats::default(),
            events: Vec::new(),
            rx_scratch: Vec::new(),
            rx_fresh: false,
        })
    }

    /// Registers `ep` with the poller under a fresh token and applies
    /// its desired interest.
    fn adopt(&mut self, ep: Endpoint) -> NetResult<Token> {
        let desired = ep.desired_interest(self.engine_paused);
        let token = self.table.insert(ep);
        let ep = self.table.get_mut(token).expect("just inserted"); // PANIC-OK: slot filled by the insert on the line above
        ep.interest = desired;
        self.poller.add(&ep.stream, token.key(), desired)?;
        Ok(token)
    }

    /// Establishes a full mesh between `addrs.len()` nodes; this process
    /// is node `me` and must be able to bind `addrs[me]`.
    ///
    /// Lower-numbered nodes accept connections from higher-numbered
    /// ones; a 4-byte node-id handshake identifies each peer. Outbound
    /// dials retry on the shared [`BackoffPolicy`] schedule and inbound
    /// handshakes stay non-blocking under a per-connection deadline, so
    /// a stalled peer delays only itself, for up to `timeout`.
    pub fn full_mesh(me: NodeId, addrs: &[SocketAddr], timeout: Duration) -> NetResult<Self> {
        let n = addrs.len();
        assert!(me.index() < n, "node id out of range");
        let listener = TcpListener::bind(addrs[me.index()])?;
        let mut driver = TcpDriver::empty(me, n, Some(listener))?;
        let deadline = Instant::now() + timeout;

        // Outbound dials to every lower-numbered node, each on its own
        // backoff schedule.
        struct Dial {
            peer: usize,
            backoff: Backoff,
            next_attempt: Instant,
        }
        let mut dials: Vec<Dial> = (0..me.index())
            .map(|peer| Dial {
                peer,
                backoff: Backoff::new(CONNECT_BACKOFF),
                next_attempt: Instant::now(),
            })
            .collect();

        let expected = n - 1;
        let established = |d: &TcpDriver| {
            d.by_node
                .iter()
                .enumerate()
                .filter(|&(i, t)| i != me.index() && t.is_some())
                .count()
        };
        while established(&driver) < expected {
            if Instant::now() > deadline {
                return Err(NetError::Io(std::io::Error::new(
                    ErrorKind::TimedOut,
                    "peers did not connect in time",
                )));
            }
            // Dials whose backoff elapsed get one bounded attempt.
            let now = Instant::now();
            let mut i = 0;
            while i < dials.len() {
                if now < dials[i].next_attempt {
                    i += 1;
                    continue;
                }
                let peer = dials[i].peer;
                match TcpStream::connect_timeout(
                    &addrs[peer],
                    SETUP_POLL.max(Duration::from_millis(50)),
                ) {
                    Ok(mut stream) => {
                        // 4 bytes always fit a fresh socket buffer.
                        stream.write_all(&(me.0).to_le_bytes())?;
                        let ep = Endpoint::new(
                            stream,
                            ConnState::Established,
                            Some(NodeId(peer as u32)),
                        )?;
                        let token = driver.adopt(ep)?;
                        driver.by_node[peer] = Some(token);
                        dials.swap_remove(i);
                    }
                    Err(_) => {
                        dials[i].next_attempt = now + Duration::from_nanos(dials[i].backoff.step());
                        i += 1;
                    }
                }
            }
            // Accepts + inbound handshakes progress through the normal
            // event loop; a short real timeout replaces sleep loops.
            driver.pump_with_timeout(Some(SETUP_POLL))?;
        }
        Ok(driver)
    }

    /// Builds a connected pair on loopback (test/example convenience).
    pub fn pair() -> NetResult<(TcpDriver, TcpDriver)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let a_stream = TcpStream::connect(addr)?;
        let (b_stream, _) = listener.accept()?;
        let mk = |node: usize, stream: TcpStream| -> NetResult<TcpDriver> {
            let mut d = TcpDriver::empty(NodeId(node as u32), 2, None)?;
            let other = 1 - node;
            let ep = Endpoint::new(stream, ConnState::Established, Some(NodeId(other as u32)))?;
            let token = d.adopt(ep)?;
            d.by_node[other] = Some(token);
            Ok(d)
        };
        Ok((mk(0, a_stream)?, mk(1, b_stream)?))
    }

    /// A fan-in server endpoint: binds `addr` and accepts up to
    /// `capacity - 1` concurrent clients, each identifying itself with
    /// the 4-byte node-id handshake (ids `0..capacity`, distinct from
    /// `me` and from each other; an id frees on teardown and may be
    /// reused by a reconnect). Built for churn: accepts, handshakes
    /// and teardowns all happen inside [`Driver::pump`].
    pub fn server(me: NodeId, addr: SocketAddr, capacity: usize) -> NetResult<TcpDriver> {
        assert!(me.index() < capacity, "node id out of range");
        let listener = TcpListener::bind(addr)?;
        TcpDriver::empty(me, capacity, Some(listener))
    }

    /// The listening address, when this endpoint has a listener.
    pub fn local_addr(&self) -> Option<SocketAddr> {
        self.listener.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// Fully-established connections right now.
    pub fn connected_peers(&self) -> usize {
        self.by_node.iter().flatten().count()
    }

    /// Endpoint-layer counters (also via [`Driver::endpoint_stats`]).
    pub fn stats(&self) -> EndpointStats {
        let mut s = self.stats;
        let p = self.poller.stats();
        s.readiness_wakeups = p.wakeups;
        s.sockets_polled = p.events;
        s
    }

    /// Readiness backend in use (`"epoll"` / `"poll"`).
    pub fn backend_name(&self) -> &'static str {
        self.poller.backend_name()
    }

    /// Caps the parsed-frame receive backlog; sockets pause (stop
    /// being read) above it and resume as the engine drains.
    pub fn set_rx_backlog_cap(&mut self, cap: usize) {
        self.rx_backlog_cap = cap.max(1);
    }

    // --- event loop -------------------------------------------------

    // HOT-PATH: driver pump
    fn pump_with_timeout(&mut self, timeout: Option<Duration>) -> NetResult<()> {
        self.sweep_handshake_deadlines();
        let mut events = std::mem::take(&mut self.events);
        events.clear();
        let res = self
            .poller
            .wait(&mut events, timeout.or(Some(Duration::ZERO))); // BLOCKING-OK: zero timeout when busy; idle waits are the contract of pump_with_timeout
        match res {
            Ok(_) => {}
            Err(e) => {
                self.events = events;
                return Err(e.into());
            }
        }
        for ev in &events {
            if ev.key == LISTEN_KEY {
                self.accept_ready()?;
                continue;
            }
            let token = Token::from_key(ev.key);
            // Stale tokens (events raced a teardown) fail the
            // generation check inside and are dropped.
            let progressed = self.service(token, ev.readable, ev.writable)?;
            if !progressed {
                self.stats.spurious_wakeups += 1;
            }
        }
        self.events = events;
        self.rx_fresh = true;
        Ok(())
    }

    /// Accepts every pending connection (edge-complete: the listener
    /// is level-triggered, but draining it fully keeps accept latency
    /// off the next pump).
    fn accept_ready(&mut self) -> NetResult<()> {
        loop {
            let listener = self
                .listener
                .as_ref()
                .expect("listen event without listener"); // PANIC-OK: token registered as the listener at bind
            match listener.accept() {
                Ok((stream, _)) => {
                    let ep = Endpoint::new(stream, ConnState::Handshaking, None)?;
                    let token = self.adopt(ep)?;
                    self.handshaking.push(token);
                    // The id may already sit in the socket buffer;
                    // greedy completion saves a pump.
                    self.drive_handshake(token)?;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                // Transient per-connection accept failures (aborted
                // handshakes, fd pressure) must not kill the server.
                Err(_) => {
                    self.stats.handshake_failures += 1;
                    return Ok(());
                }
            }
        }
    }

    /// One socket's readiness: dispatch on its state machine. Returns
    /// whether anything moved (spurious-wakeup accounting).
    fn service(&mut self, token: Token, readable: bool, writable: bool) -> NetResult<bool> {
        let Some(ep) = self.table.get(token) else {
            return Ok(true); // stale event after teardown: not spurious, just late
        };
        let mut progressed = false;
        match ep.state {
            ConnState::Handshaking => {
                if readable {
                    progressed = self.drive_handshake(token)?;
                }
            }
            ConnState::Established | ConnState::Draining => {
                if writable {
                    progressed |= self.flush(token)?;
                }
                if readable && self.table.get(token).is_some() {
                    progressed |= self.read_ready(token)?;
                }
                self.update_interest(token)?;
            }
        }
        Ok(progressed)
    }

    /// Advances a handshake: reads id bytes, validates, establishes.
    fn drive_handshake(&mut self, token: Token) -> NetResult<bool> {
        let Some(ep) = self.table.get_mut(token) else {
            return Ok(false);
        };
        let mut progressed = false;
        while (ep.hs_have as usize) < LEN_PREFIX {
            match ep.stream.read(&mut ep.hs_buf[ep.hs_have as usize..]) {
                Ok(0) => {
                    self.fail_handshake(token);
                    return Ok(true);
                }
                Ok(k) => {
                    ep.hs_have += k as u8;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(progressed),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.fail_handshake(token);
                    return Ok(true);
                }
            }
        }
        let peer = u32::from_le_bytes(ep.hs_buf) as usize;
        if peer >= self.by_node.len() || peer == self.node.index() || self.by_node[peer].is_some() {
            self.fail_handshake(token);
            return Ok(true);
        }
        let ep = self.table.get_mut(token).expect("checked live above"); // PANIC-OK: liveness checked at entry
        ep.state = ConnState::Established;
        ep.peer = Some(NodeId(peer as u32));
        self.by_node[peer] = Some(token);
        self.stats.accepts += 1;
        self.handshaking.retain(|&t| t != token);
        self.update_interest(token)?;
        Ok(true)
    }

    fn fail_handshake(&mut self, token: Token) {
        self.stats.handshake_failures += 1;
        self.handshaking.retain(|&t| t != token);
        if let Some(ep) = self.table.remove(token) {
            let _ = self.poller.delete(&ep.stream);
        }
    }

    /// Expires handshakes past their deadline. O(handshaking), which
    /// is transiently small — never O(established).
    fn sweep_handshake_deadlines(&mut self) {
        if self.handshaking.is_empty() {
            return;
        }
        let now = Instant::now(); // BLOCKING-OK: one clock read per pump for the deadline sweep
        let expired: Vec<Token> = self
            .handshaking
            .iter()
            .copied()
            .filter(|&t| self.table.get(t).is_some_and(|ep| now > ep.hs_deadline))
            .collect();
        for token in expired {
            self.fail_handshake(token);
        }
    }

    /// Flushes buffered output; resumes partial writes exactly where
    /// the kernel stopped accepting. Returns whether bytes moved.
    fn flush(&mut self, token: Token) -> NetResult<bool> {
        let Some(ep) = self.table.get_mut(token) else {
            return Ok(false);
        };
        let was_busy = !ep.out.is_empty();
        let mut progressed = false;
        while !ep.out.is_empty() {
            let (front, _) = ep.out.as_slices();
            match ep.stream.write(front) {
                Ok(0) => {
                    self.teardown(token);
                    return Ok(true);
                }
                Ok(k) => {
                    ep.out.drain(..k);
                    ep.flushed += k as u64;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.teardown(token);
                    return Ok(true);
                }
            }
        }
        if was_busy && ep.out.is_empty() {
            self.tx_busy -= 1;
            if ep.state == ConnState::Draining {
                self.teardown(token);
            }
        }
        Ok(progressed)
    }

    /// True once every byte of send `handle` reached the kernel (a
    /// send the kernel took whole was never pending); drops its record.
    fn send_flushed(&mut self, handle: SendHandle) -> NetResult<bool> {
        let Some(&(idx, target)) = self.pending.get(&handle) else {
            return Ok(true);
        };
        let token = self
            .by_node
            .get(idx)
            .copied()
            .flatten()
            .ok_or(NetError::Closed)?;
        if self.table.get(token).ok_or(NetError::Closed)?.flushed < target {
            return Ok(false);
        }
        self.pending.remove(&handle);
        Ok(true)
    }

    /// Drains readable bytes and parses complete frames, pausing at
    /// the backlog cap. Returns whether anything moved.
    fn read_ready(&mut self, token: Token) -> NetResult<bool> {
        let Some(ep) = self.table.get_mut(token) else {
            return Ok(false);
        };
        if ep.read_paused || self.engine_paused || ep.state != ConnState::Established {
            return Ok(false);
        }
        let peer = ep.peer.expect("established endpoints are identified"); // PANIC-OK: established endpoints always carry a peer id
        if self.rx_scratch.is_empty() {
            self.rx_scratch = vec![0; RX_SCRATCH];
        }
        let mut progressed = false;
        let mut eof = false;
        let mut drained = false;
        loop {
            // Checked before the short-read exit too: the frames just
            // parsed may have filled the backlog.
            if self.rx_ready.len() >= self.rx_backlog_cap {
                ep.read_paused = true;
                self.stats.backpressure_stalls += 1;
                self.paused.push(token);
                break;
            }
            if drained {
                break;
            }
            match ep.stream.read(&mut self.rx_scratch) {
                Ok(0) => {
                    eof = true;
                    progressed = true;
                    break;
                }
                Ok(k) => {
                    progressed = true;
                    // A short read emptied the socket; another would
                    // only report `WouldBlock`.
                    drained = k < self.rx_scratch.len();
                    let fresh = &self.rx_scratch[..k];
                    if parse_frames(&mut ep.in_buf, fresh, peer, &mut self.rx_ready).is_err() {
                        // Malformed stream: this peer dies, the
                        // endpoint lives on.
                        self.teardown(token);
                        return Ok(true);
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.teardown(token);
                    return Ok(true);
                }
            }
        }
        if eof {
            let ep = self.table.get_mut(token).expect("live: no teardown above"); // PANIC-OK: no teardown between lookup and use
            if ep.out.is_empty() {
                self.teardown(token);
            } else {
                // Half-close: the peer stopped sending but may still
                // read; finish flushing, then close.
                ep.state = ConnState::Draining;
            }
        }
        Ok(progressed)
    }

    /// Re-registers interest iff the desired set changed (the edge-
    /// transition contract: no per-pump kernel chatter).
    fn update_interest(&mut self, token: Token) -> NetResult<()> {
        let engine_paused = self.engine_paused;
        let Some(ep) = self.table.get_mut(token) else {
            return Ok(());
        };
        let desired = ep.desired_interest(engine_paused);
        if desired != ep.interest {
            ep.interest = desired;
            self.poller.modify(&ep.stream, token.key(), desired)?;
        }
        Ok(())
    }

    /// Closes a connection and frees its slot (the node id may be
    /// reused by a reconnect).
    fn teardown(&mut self, token: Token) {
        let Some(ep) = self.table.remove(token) else {
            return;
        };
        let _ = self.poller.delete(&ep.stream);
        if !ep.out.is_empty() {
            self.tx_busy -= 1;
        }
        if let Some(peer) = ep.peer {
            if self.by_node.get(peer.index()).copied().flatten() == Some(token) {
                self.by_node[peer.index()] = None;
            }
            // Sends fully handed to the kernel before the close
            // completed from our side; a receiver that read them and
            // hung up must not fail the sender's completion harvest.
            // Unflushed residue keeps its handle and surfaces Closed.
            self.pending
                .retain(|_, &mut (idx, target)| idx != peer.index() || target > ep.flushed);
            self.stats.teardowns += 1;
        } else {
            self.stats.handshake_failures += 1;
        }
        self.handshaking.retain(|&t| t != token);
        self.paused.retain(|&t| t != token);
    }

    /// Resumes sockets paused on the backlog cap once the engine
    /// drained below half of it (hysteresis: no pause/resume flapping
    /// at the boundary).
    fn maybe_resume_reads(&mut self) -> NetResult<()> {
        if self.paused.is_empty() || self.rx_ready.len() > self.rx_backlog_cap / 2 {
            return Ok(());
        }
        let paused = std::mem::take(&mut self.paused);
        for token in paused {
            if let Some(ep) = self.table.get_mut(token) {
                ep.read_paused = false;
            }
            self.update_interest(token)?;
        }
        Ok(())
    }
}

/// The payload length a frame's prefix announces, if `buf` holds the
/// whole prefix. Errors above the protocol maximum.
fn frame_len(buf: &[u8]) -> Result<Option<usize>, ()> {
    let Some(prefix) = buf.first_chunk::<LEN_PREFIX>() else {
        return Ok(None);
    };
    let len = u32::from_le_bytes(*prefix) as usize;
    if len > MAX_FRAME {
        return Err(());
    }
    Ok(Some(len))
}

/// Parses `data`, bytes just read from `src`'s socket, into frames on
/// `rx_ready`. The frame whose head an earlier read left in `in_buf`
/// completes first and becomes its own payload (a slice past the
/// prefix, no further copy); each whole frame inside `data` is copied
/// out once; a trailing partial frame stays in `in_buf`. Errors on a
/// length above the protocol maximum.
fn parse_frames(
    in_buf: &mut Vec<u8>,
    mut data: &[u8],
    src: NodeId,
    rx_ready: &mut VecDeque<RxFrame>,
) -> Result<(), ()> {
    if !in_buf.is_empty() {
        // Complete the prefix (a read may split even those 4 bytes)...
        let (head, rest) = data.split_at(LEN_PREFIX.saturating_sub(in_buf.len()).min(data.len()));
        in_buf.extend_from_slice(head);
        data = rest;
        let Some(len) = frame_len(in_buf)? else {
            return Ok(());
        };
        // ...then the body.
        let (head, rest) = data.split_at((LEN_PREFIX + len - in_buf.len()).min(data.len()));
        in_buf.extend_from_slice(head);
        data = rest;
        if in_buf.len() < LEN_PREFIX + len {
            return Ok(());
        }
        let frame = Bytes::from(std::mem::take(in_buf));
        rx_ready.push_back(RxFrame {
            src,
            payload: frame.slice(LEN_PREFIX..),
        });
    }
    while let Some(len) = frame_len(data)? {
        let Some(body) = data.get(LEN_PREFIX..LEN_PREFIX + len) else {
            break;
        };
        rx_ready.push_back(RxFrame {
            src,
            payload: Bytes::copy_from_slice(body),
        });
        data = &data[LEN_PREFIX + len..];
    }
    in_buf.extend_from_slice(data);
    Ok(())
}

impl Driver for TcpDriver {
    fn caps(&self) -> &Capabilities {
        &self.caps
    }

    fn local_node(&self) -> NodeId {
        self.node
    }

    fn post_send(&mut self, dst: NodeId, iov: &[&[u8]]) -> NetResult<SendHandle> {
        let idx = dst.index();
        let token = self
            .by_node
            .get(idx)
            .copied()
            .flatten()
            .ok_or(NetError::Closed)?;
        let ep = self.table.get_mut(token).ok_or(NetError::Closed)?;
        if ep.state != ConnState::Established {
            return Err(NetError::Closed);
        }
        let len: usize = iov.iter().map(|s| s.len()).sum();
        let Some(prefix) = u32::try_from(len).ok().filter(|_| len <= MAX_FRAME) else {
            return Err(NetError::FrameTooLarge {
                len,
                mtu: MAX_FRAME,
            });
        };
        if ep.out.is_empty() {
            self.tx_busy += 1;
        }
        ep.out.extend(prefix.to_le_bytes());
        for seg in iov {
            ep.out.extend(*seg);
        }
        ep.enqueued += (LEN_PREFIX + len) as u64;
        let target = ep.enqueued;
        let handle = SendHandle(self.next_handle);
        self.next_handle += 1;
        // Immediate flush attempt (latency), then interest for the
        // residue. Only a send with bytes left over is recorded; one
        // whose connection the flush tore down surfaces `Closed`.
        self.flush(token)?;
        if self.table.get(token).is_none_or(|ep| ep.flushed < target) {
            self.pending.insert(handle, (idx, target));
        }
        self.update_interest(token)?;
        Ok(handle)
    }

    fn test_send(&mut self, handle: SendHandle) -> NetResult<bool> {
        // Pump only for a send that still has bytes queued.
        if self.send_flushed(handle)? {
            return Ok(true);
        }
        self.pump()?;
        self.send_flushed(handle)
    }

    fn poll_recv(&mut self) -> NetResult<Option<RxFrame>> {
        if self.rx_ready.is_empty() {
            // Right after a pump the queue is current; otherwise look
            // for new bytes.
            if !self.rx_fresh {
                self.pump()?;
            }
            self.rx_fresh = false;
        }
        let f = self.rx_ready.pop_front();
        self.maybe_resume_reads()?;
        Ok(f)
    }

    fn tx_idle(&self) -> bool {
        self.tx_busy == 0
    }

    // HOT-PATH: endpoint pump
    fn pump(&mut self) -> NetResult<()> {
        self.pump_with_timeout(Some(Duration::ZERO))
    }

    fn endpoint_stats(&self) -> EndpointStats {
        self.stats()
    }

    fn set_rx_backpressure(&mut self, paused: bool) {
        if paused == self.engine_paused {
            return;
        }
        self.engine_paused = paused;
        if paused {
            self.stats.backpressure_stalls += 1;
        }
        // One interest edge per established endpoint, per transition —
        // not per pump.
        for token in self.table.tokens() {
            let _ = self.update_interest(token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn recv_blocking(d: &mut TcpDriver) -> RxFrame {
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut backoff = Backoff::new(BackoffPolicy::new(50_000, 1_000_000));
        loop {
            if let Some(f) = d.poll_recv().unwrap() {
                return f;
            }
            assert!(Instant::now() < deadline, "timed out waiting for frame");
            backoff.sleep();
        }
    }

    #[test]
    fn pair_exchanges_frames_both_ways() {
        let (mut a, mut b) = TcpDriver::pair().unwrap();
        a.post_send(NodeId(1), &[b"from a, ", b"gathered"]).unwrap();
        b.post_send(NodeId(0), &[b"from b"]).unwrap();
        assert_eq!(recv_blocking(&mut b).payload, b"from a, gathered");
        let f = recv_blocking(&mut a);
        assert_eq!(f.payload, b"from b");
        assert_eq!(f.src, NodeId(1));
    }

    #[test]
    fn large_frame_survives_fragmentation() {
        let (mut a, mut b) = TcpDriver::pair().unwrap();
        let big: Vec<u8> = (0..3_000_000u32).map(|i| (i % 251) as u8).collect();
        let h = a.post_send(NodeId(1), &[&big]).unwrap();
        // Drain on both sides concurrently with completion testing.
        let mut got = None;
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.is_none() {
            assert!(Instant::now() < deadline);
            let _ = a.test_send(h).unwrap();
            got = b.poll_recv().unwrap();
        }
        assert_eq!(got.unwrap().payload, big);
        // Eventually the send tests complete.
        while !a.test_send(h).unwrap() {
            std::thread::yield_now();
        }
    }

    #[test]
    fn engine_cycle_makes_one_poller_wait() {
        // The engine's per-rail cycle: pump, poll_recv until None, then
        // test_send on a frame the kernel took whole. Only the pump
        // may wait; the rest reads what that wait reported.
        let (mut a, mut b) = TcpDriver::pair().unwrap();
        a.post_send(NodeId(1), &[b"head, ", b"body"]).unwrap();
        let h = b.post_send(NodeId(0), &[b"reply"]).unwrap();
        assert!(b.tx_idle(), "a small frame goes to the kernel whole");
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut got = None;
        while got.is_none() {
            assert!(Instant::now() < deadline, "frame never arrived");
            let polls = b.poller.stats().polls;
            b.pump().unwrap();
            while let Some(f) = b.poll_recv().unwrap() {
                got = Some(f);
            }
            assert!(b.test_send(h).unwrap());
            assert_eq!(b.poller.stats().polls - polls, 1, "one cycle, one wait");
        }
        assert_eq!(got.unwrap().payload, b"head, body");
    }

    #[test]
    fn residue_flushes_in_order_before_tx_idle() {
        // Larger than the socket buffers of a peer that has not read
        // yet: the kernel takes a prefix, the rest queues.
        let (mut a, mut b) = TcpDriver::pair().unwrap();
        let big: Vec<u8> = (0..4u32 << 20).map(|i| (i % 251) as u8).collect();
        let (head, tail) = big.split_at(1000);
        let h_big = a.post_send(NodeId(1), &[head, tail]).unwrap();
        assert!(!a.tx_idle(), "the kernel cannot take 4 MiB at once");
        assert!(
            !a.test_send(h_big).unwrap(),
            "queued bytes keep the send open"
        );
        let h_small = a.post_send(NodeId(1), &[b"after"]).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut frames = Vec::new();
        while frames.len() < 2 || !a.tx_idle() {
            assert!(Instant::now() < deadline, "residue never flushed");
            a.pump().unwrap();
            if a.tx_idle() {
                assert!(a.test_send(h_big).unwrap() && a.test_send(h_small).unwrap());
            }
            frames.extend(b.poll_recv().unwrap());
        }
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].payload, big);
        assert_eq!(frames[1].payload, b"after");
    }

    #[test]
    fn gather_list_longer_than_iov_max_arrives_intact() {
        // 2500 segments of 0..7 bytes, empty slices included: more
        // than the 1024 (`IOV_MAX`) one `writev` takes.
        let (mut a, mut b) = TcpDriver::pair().unwrap();
        let segs: Vec<Vec<u8>> = (0..2500u32)
            .map(|i| (0..i % 7).map(|j| (i + j) as u8).collect())
            .collect();
        let iov: Vec<&[u8]> = segs.iter().map(Vec::as_slice).collect();
        let h = a.post_send(NodeId(1), &iov).unwrap();
        assert_eq!(recv_blocking(&mut b).payload, segs.concat());
        assert!(a.test_send(h).unwrap());
    }

    #[test]
    fn flushed_send_completes_after_peer_reads_and_hangs_up() {
        // A receiver that consumes everything and closes must not turn
        // the sender's completion harvest into a Closed error: the
        // bytes left our kernel before the teardown.
        let (mut a, mut b) = TcpDriver::pair().unwrap();
        let h = a.post_send(NodeId(1), &[b"parting words"]).unwrap();
        assert_eq!(recv_blocking(&mut b).payload, b"parting words");
        drop(b);
        let deadline = Instant::now() + Duration::from_secs(5);
        while a.connected_peers() > 0 {
            assert!(Instant::now() < deadline, "EOF teardown never observed");
            a.pump().unwrap();
        }
        assert!(a.test_send(h).unwrap(), "flushed send must complete");
        // But a send the peer never drained does surface the failure.
        assert!(matches!(
            a.post_send(NodeId(1), &[b"too late"]),
            Err(NetError::Closed)
        ));
    }

    #[test]
    fn many_small_frames_preserve_order() {
        let (mut a, mut b) = TcpDriver::pair().unwrap();
        for i in 0..100u32 {
            a.post_send(NodeId(1), &[&i.to_le_bytes()]).unwrap();
        }
        for i in 0..100u32 {
            let f = recv_blocking(&mut b);
            assert_eq!(
                u32::from_le_bytes(f.payload.as_slice().try_into().unwrap()),
                i
            );
        }
    }

    #[test]
    fn full_mesh_three_nodes() {
        let base: Vec<SocketAddr> = {
            // Reserve three distinct loopback ports.
            let ls: Vec<TcpListener> = (0..3)
                .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
                .collect();
            ls.iter().map(|l| l.local_addr().unwrap()).collect()
            // listeners dropped here; small race window acceptable in test
        };
        let mk = |i: u32| {
            let addrs = base.clone();
            std::thread::spawn(move || {
                TcpDriver::full_mesh(NodeId(i), &addrs, Duration::from_secs(10)).unwrap()
            })
        };
        let handles: Vec<_> = (0..3).map(mk).collect();
        let mut drivers: Vec<TcpDriver> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        // Node 2 sends to node 0 and 1.
        drivers[2].post_send(NodeId(0), &[b"to zero"]).unwrap();
        drivers[2].post_send(NodeId(1), &[b"to one"]).unwrap();
        assert_eq!(recv_blocking(&mut drivers[0]).payload, b"to zero");
        assert_eq!(recv_blocking(&mut drivers[1]).payload, b"to one");
    }

    /// Drives `server.pump` until `cond` holds or the deadline passes.
    fn pump_until(server: &mut TcpDriver, mut cond: impl FnMut(&TcpDriver) -> bool) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while !cond(server) {
            assert!(Instant::now() < deadline, "server condition timed out");
            server
                .pump_with_timeout(Some(Duration::from_millis(2)))
                .unwrap();
        }
    }

    fn client(addr: SocketAddr, id: u32) -> TcpStream {
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&id.to_le_bytes()).unwrap();
        s
    }

    #[test]
    fn server_accepts_identified_clients_and_frees_ids_on_teardown() {
        let mut server = TcpDriver::server(NodeId(0), "127.0.0.1:0".parse().unwrap(), 64).unwrap();
        let addr = server.local_addr().unwrap();
        let c1 = client(addr, 1);
        let c2 = client(addr, 2);
        pump_until(&mut server, |s| s.connected_peers() == 2);
        assert_eq!(server.stats().accepts, 2);

        // Client 2 hangs up; its id frees and a reconnect reuses it.
        drop(c2);
        pump_until(&mut server, |s| s.connected_peers() == 1);
        assert_eq!(server.stats().teardowns, 1);
        let _c2b = client(addr, 2);
        pump_until(&mut server, |s| s.connected_peers() == 2);
        assert_eq!(server.stats().accepts, 3);
        drop(c1);
    }

    #[test]
    fn bad_handshakes_are_counted_not_fatal() {
        let mut server = TcpDriver::server(NodeId(0), "127.0.0.1:0".parse().unwrap(), 4).unwrap();
        let addr = server.local_addr().unwrap();
        // Out-of-range id.
        let _bad = client(addr, 99);
        // Server's own id.
        let _own = client(addr, 0);
        let _good = client(addr, 2);
        pump_until(&mut server, |s| s.connected_peers() == 1);
        pump_until(&mut server, |s| s.stats().handshake_failures == 2);
        assert_eq!(server.stats().accepts, 1);
    }

    #[test]
    fn half_open_peer_cannot_stall_other_peers() {
        // Regression for the blocking-handshake wedge: a client that
        // connects and never sends its id must not delay frames
        // between the server and well-behaved clients.
        let mut server = TcpDriver::server(NodeId(0), "127.0.0.1:0".parse().unwrap(), 8).unwrap();
        let addr = server.local_addr().unwrap();
        let _stalled = TcpStream::connect(addr).unwrap(); // no handshake, ever
        let mut good = client(addr, 3);
        pump_until(&mut server, |s| s.connected_peers() == 1);

        // Frames still flow both ways past the half-open socket.
        good.write_all(&4u32.to_le_bytes()).unwrap();
        good.write_all(b"ping").unwrap();
        let f = {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                if let Some(f) = server.poll_recv().unwrap() {
                    break f;
                }
                assert!(Instant::now() < deadline);
            }
        };
        assert_eq!(f.src, NodeId(3));
        assert_eq!(f.payload, b"ping");
        server.post_send(NodeId(3), &[b"pong"]).unwrap();
        good.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = [0u8; 8];
        let mut got = 0;
        while got < 8 {
            server.pump().unwrap();
            match good.read(&mut buf[got..]) {
                Ok(0) => panic!("server closed the good client"),
                Ok(k) => got += k,
                Err(e) if e.kind() == ErrorKind::WouldBlock => {}
                Err(e) => panic!("{e}"),
            }
        }
        assert_eq!(&buf[..4], &4u32.to_le_bytes());
        assert_eq!(&buf[4..8], b"pong");
        // The stalled socket is still just handshaking — one endpoint
        // wedged, everything else live.
        assert_eq!(server.stats().accepts, 1);
    }

    #[test]
    fn backlog_cap_pauses_and_resumes_reads() {
        let (mut a, mut b) = TcpDriver::pair().unwrap();
        b.set_rx_backlog_cap(4);
        for i in 0..32u32 {
            a.post_send(NodeId(1), &[&i.to_le_bytes()]).unwrap();
        }
        // Drain everything; the cap forces pause/resume cycles along
        // the way and order must survive them.
        for i in 0..32u32 {
            let f = recv_blocking(&mut b);
            assert_eq!(
                u32::from_le_bytes(f.payload.as_slice().try_into().unwrap()),
                i
            );
        }
        assert!(
            b.stats().backpressure_stalls > 0,
            "cap of 4 must trip on 32 frames"
        );
    }

    #[test]
    fn engine_backpressure_parks_and_unparks_reading() {
        let (mut a, mut b) = TcpDriver::pair().unwrap();
        b.set_rx_backpressure(true);
        a.post_send(NodeId(1), &[b"held"]).unwrap();
        // Paused: repeated pumps deliver nothing.
        for _ in 0..20 {
            assert!(b.poll_recv().unwrap().is_none());
            std::thread::sleep(Duration::from_millis(1));
        }
        b.set_rx_backpressure(false);
        assert_eq!(recv_blocking(&mut b).payload, b"held");
        assert!(b.stats().backpressure_stalls >= 1);
    }

    #[test]
    fn stats_expose_o_ready_pump_cost() {
        let mut server = TcpDriver::server(NodeId(0), "127.0.0.1:0".parse().unwrap(), 128).unwrap();
        let addr = server.local_addr().unwrap();
        let clients: Vec<TcpStream> = (1..=64).map(|i| client(addr, i)).collect();
        pump_until(&mut server, |s| s.connected_peers() == 64);
        let before = server.stats();
        // Idle pumps over 64 established sockets poll nothing.
        for _ in 0..50 {
            server.pump().unwrap();
        }
        let after = server.stats();
        assert_eq!(
            after.sockets_polled, before.sockets_polled,
            "idle pumps must not touch idle sockets"
        );
        drop(clients);
    }
}
