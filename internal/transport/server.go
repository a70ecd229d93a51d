package transport

import (
	"bufio"
	"crypto/tls"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"dcert/internal/chash"
	"dcert/internal/network"
)

// Server exposes a hub's topics over TCP, read-only: every hub delivery
// matching a remote subscription is pushed out as a message frame, and no
// remote peer can publish onto the hub. The server additionally routes
// request/response RPCs to registered handlers (queries, certificate
// catch-up, deployment info), celestia-style: one route table, one method
// string per route.
//
// Fault injection therefore applies at the transport seam for free: a
// FaultPlan installed on the hub perturbs remote deliveries exactly as it
// perturbs in-process ones, because both leave the hub's publish path.

// Server errors.
var (
	// ErrServerClosed is returned for operations on a closed server.
	ErrServerClosed = errors.New("transport: server closed")
	// ErrUnknownMethod is reported to callers of an unregistered RPC route.
	ErrUnknownMethod = errors.New("transport: unknown RPC method")
)

// Handler answers one RPC call. The returned bytes are the response body; a
// non-nil error is reported to the remote caller as a remote error string.
// The transport writes the body to the socket as it is, without copying it
// first, and never modifies it, so a handler may return bytes it keeps and
// shares between calls (a memo of encoded answers).
type Handler func(body []byte) ([]byte, error)

// ServerConfig tunes a wire server.
type ServerConfig struct {
	// Addr is the TCP listen address (e.g. "127.0.0.1:0").
	Addr string
	// TLS, when non-nil, wraps the listener so every connection handshakes
	// TLS before the protocol handshake. Nil serves plaintext.
	TLS *tls.Config
	// QueueDepth bounds each connection's outbound frame queue (default
	// 1024). Topic messages that would overflow it are dropped for that
	// connection (slow consumer), mirroring the in-process bus's bounded
	// subscriber queues; control frames (acks, RPC responses) instead apply
	// backpressure up to WriteTimeout.
	QueueDepth int
	// WriteTimeout bounds one frame write plus control-frame queueing
	// (default 10s). A connection that cannot accept control traffic within
	// it is terminated.
	WriteTimeout time.Duration
	// HandshakeTimeout bounds the protocol handshake (default 5s).
	HandshakeTimeout time.Duration
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 1024
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	return c
}

// ServerStats counts a server's activity.
type ServerStats struct {
	// Accepted is the number of connections accepted over the lifetime.
	Accepted uint64
	// ActiveConns is the number of currently live connections.
	ActiveConns int
	// ActiveSubs is the number of currently live remote subscriptions.
	ActiveSubs int
	// MessagesSent counts topic message frames pushed to subscribers.
	MessagesSent uint64
	// SlowDrops counts topic messages dropped because a connection's
	// outbound queue was full — the wire's slow-consumer accounting.
	SlowDrops uint64
	// Requests counts RPC calls served.
	Requests uint64
}

// Server is a wire endpoint over a hub.
type Server struct {
	hub network.Subscriber
	cfg ServerConfig
	ln  net.Listener

	mu       sync.Mutex
	handlers map[string]Handler
	conns    map[*serverConn]struct{}
	closed   bool
	wg       sync.WaitGroup

	accepted  atomic.Uint64
	sent      atomic.Uint64
	slowDrops atomic.Uint64
	requests  atomic.Uint64
	subCount  atomic.Int64
}

// Serve starts a wire server over the hub. The returned server is live:
// connections are accepted until Close.
func Serve(hub network.Subscriber, cfg ServerConfig) (*Server, error) {
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", cfg.Addr, err)
	}
	if cfg.TLS != nil {
		ln = tls.NewListener(ln, cfg.TLS)
	}
	s := &Server{
		hub:      hub,
		cfg:      cfg,
		ln:       ln,
		handlers: make(map[string]Handler),
		conns:    make(map[*serverConn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string {
	return s.ln.Addr().String()
}

// Handle mounts an RPC route. Routes may be added while serving; replacing
// an existing route swaps the handler atomically.
func (s *Server) Handle(method string, h Handler) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.handlers[method] = h
}

// handler looks up an RPC route.
func (s *Server) handler(method string) (Handler, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	h, ok := s.handlers[method]
	return h, ok
}

// Stats snapshots the server's counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	active := len(s.conns)
	s.mu.Unlock()
	return ServerStats{
		Accepted:     s.accepted.Load(),
		ActiveConns:  active,
		ActiveSubs:   int(s.subCount.Load()),
		MessagesSent: s.sent.Load(),
		SlowDrops:    s.slowDrops.Load(),
		Requests:     s.requests.Load(),
	}
}

// Close stops accepting, terminates every connection, and waits for all
// serving goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conns := make([]*serverConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.accepted.Add(1)
		c := &serverConn{
			srv:   s,
			conn:  conn,
			r:     bufio.NewReaderSize(conn, readBufferSize),
			w:     newFrameWriter(conn),
			sendq: make(chan outFrame, s.cfg.QueueDepth),
			done:  make(chan struct{}),
			subs:  make(map[uint64]*network.Subscription),
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go c.serve()
	}
}

// serverConn is one accepted connection: a reader goroutine dispatching
// inbound frames, a writer goroutine draining the bounded outbound queue,
// and one forwarder goroutine per remote subscription.
type serverConn struct {
	srv   *Server
	conn  net.Conn
	r     *bufio.Reader // read by the handshake, then the reader goroutine
	w     *frameWriter  // written by the handshake, then the writer goroutine
	name  string        // remote identity from the handshake
	sendq chan outFrame
	done  chan struct{}

	closeOnce sync.Once
	mu        sync.Mutex
	subs      map[uint64]*network.Subscription
	fwdWG     sync.WaitGroup
}

// close terminates the connection and detaches its subscriptions. Safe to
// call from any goroutine, any number of times.
func (c *serverConn) close() {
	c.closeOnce.Do(func() {
		close(c.done)
		c.conn.Close()
		c.mu.Lock()
		subs := make([]*network.Subscription, 0, len(c.subs))
		for _, sub := range c.subs {
			subs = append(subs, sub)
		}
		c.subs = make(map[uint64]*network.Subscription)
		c.mu.Unlock()
		for _, sub := range subs {
			sub.Cancel()
			c.srv.subCount.Add(-1)
		}
		c.srv.mu.Lock()
		delete(c.srv.conns, c)
		c.srv.mu.Unlock()
	})
}

func (c *serverConn) serve() {
	defer c.srv.wg.Done()
	defer c.close()

	if err := c.handshake(); err != nil {
		return
	}
	c.srv.wg.Add(1)
	go c.writeLoop()

	for {
		body, err := chash.ReadFrame(c.r, MaxFrameSize)
		if err != nil {
			return
		}
		if err := c.dispatch(body); err != nil {
			return
		}
	}
}

// handshake validates the client hello and answers with a welcome.
func (c *serverConn) handshake() error {
	deadline := time.Now().Add(c.srv.cfg.HandshakeTimeout)
	c.conn.SetDeadline(deadline)
	defer c.conn.SetDeadline(time.Time{})

	body, err := chash.ReadFrame(c.r, MaxFrameSize)
	if err != nil {
		return err
	}
	kind, d, err := splitKind(body)
	if err != nil {
		return err
	}
	if kind != kindHello {
		return fmt.Errorf("%w: first frame kind %d", ErrBadHandshake, kind)
	}
	hello, err := decodeHello(d)
	if err != nil {
		return err
	}
	if hello.version != ProtocolVersion {
		// Best effort: the peer learns why it was rejected only if the
		// write lands; either way the connection ends here.
		c.w.write((&responseMsg{errMsg: fmt.Sprintf("protocol version %d not supported (want %d)", hello.version, ProtocolVersion)}).encode(), nil)
		return fmt.Errorf("%w: client speaks %d, server %d", ErrVersionMismatch, hello.version, ProtocolVersion)
	}
	c.name = hello.name
	return c.w.write((&welcomeMsg{version: ProtocolVersion}).encode(), nil)
}

// dispatch handles one inbound frame. A returned error is terminal for the
// connection (malformed frames mean a faulty or hostile peer); so is an
// unknown kind, the retired publish kind 6 among them.
func (c *serverConn) dispatch(body []byte) error {
	kind, d, err := splitKind(body)
	if err != nil {
		return err
	}
	switch kind {
	case kindSubscribe:
		m, err := decodeSubscribe(d)
		if err != nil {
			return err
		}
		c.subscribe(m)
		return nil
	case kindUnsubscribe:
		m, err := decodeUnsubscribe(d)
		if err != nil {
			return err
		}
		c.mu.Lock()
		sub := c.subs[m.id]
		delete(c.subs, m.id)
		c.mu.Unlock()
		if sub != nil {
			sub.Cancel()
			c.srv.subCount.Add(-1)
		}
		return nil
	case kindRequest:
		m, err := decodeRequest(d)
		if err != nil {
			return err
		}
		// Serve the call off the read loop so a slow handler (a big query)
		// never stalls the subscription stream sharing the connection.
		c.srv.wg.Add(1)
		go c.serveRequest(m)
		return nil
	default:
		return fmt.Errorf("%w: %d", ErrUnknownKind, kind)
	}
}

// subscribe attaches a hub subscription and streams its deliveries to the
// peer. The ack frame is enqueued after the hub registration, so once the
// client observes it, subsequent hub publishes are guaranteed to reach this
// subscription.
func (c *serverConn) subscribe(m *subscribeMsg) {
	sub := c.srv.hub.Subscribe(m.topic, int(m.depth))
	c.mu.Lock()
	if old := c.subs[m.id]; old != nil {
		// Duplicate id: replace, releasing the old hub registration.
		old.Cancel()
		c.srv.subCount.Add(-1)
	}
	c.subs[m.id] = sub
	c.mu.Unlock()
	c.srv.subCount.Add(1)
	c.fwdWG.Add(1)
	go c.forward(m.id, sub)
	c.enqueueControl(outFrame{head: (&subscribedMsg{id: m.id}).encode()})
}

// forward streams one subscription's hub deliveries to the peer until the
// subscription is cancelled or the connection dies.
func (c *serverConn) forward(subID uint64, sub *network.Subscription) {
	defer c.fwdWG.Done()
	for m := range sub.C {
		payload, err := encodePayload(m.Payload)
		if err != nil {
			// In-process payload the wire cannot carry — skip it; remote
			// peers only understand the canonical topic vocabulary.
			continue
		}
		frame := (&messageMsg{subID: subID, topic: m.Topic, from: m.From, payload: payload}).encode()
		select {
		case c.sendq <- outFrame{head: frame}:
			c.srv.sent.Add(1)
		default:
			c.srv.slowDrops.Add(1) // slow consumer: drop, as the hub would
		}
	}
}

// serveRequest runs one RPC call and enqueues its response: the message
// head, with the handler's body queued behind it uncopied.
func (c *serverConn) serveRequest(m *requestMsg) {
	defer c.srv.wg.Done()
	c.srv.requests.Add(1)
	resp := &responseMsg{id: m.id}
	if h, ok := c.srv.handler(m.method); ok {
		body, err := h(m.body)
		if err != nil {
			resp.errMsg = err.Error()
		} else {
			resp.body = body
		}
	} else {
		resp.errMsg = fmt.Sprintf("%v: %q", ErrUnknownMethod, m.method)
	}
	c.enqueueControl(outFrame{head: resp.encodeHead(), body: resp.body})
}

// outFrame is one queued frame: its body is head ‖ body, written without
// joining them first (frameWriter.write).
type outFrame struct {
	head, body []byte
}

// enqueueControl queues a frame the protocol must not drop (acks, RPC
// responses). It applies backpressure up to WriteTimeout; a peer that
// cannot absorb control traffic in that window is terminated. A queue with
// room takes the frame at once, without arming the timer.
func (c *serverConn) enqueueControl(frame outFrame) {
	select {
	case c.sendq <- frame:
		return
	default:
	}
	t := time.NewTimer(c.srv.cfg.WriteTimeout)
	defer t.Stop()
	select {
	case c.sendq <- frame:
	case <-c.done:
	case <-t.C:
		c.close()
	}
}

// writeLoop drains the outbound queue onto the socket.
func (c *serverConn) writeLoop() {
	defer c.srv.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case frame := <-c.sendq:
			c.conn.SetWriteDeadline(time.Now().Add(c.srv.cfg.WriteTimeout))
			if err := c.w.write(frame.head, frame.body); err != nil {
				c.close()
				return
			}
		}
	}
}
