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

// Client is one read-only wire connection, a network.Subscriber: Subscribe
// registers a remote subscription and returns the same
// *network.Subscription the in-process bus hands out (fed by the reader as
// message frames arrive), and Request runs a correlated RPC call. A
// certificate follower therefore runs unchanged whether it subscribes to the
// in-process fabric or a socket. A client never publishes: the topics carry
// only what the node itself publishes on its hub.

// Client errors.
var (
	// ErrClientClosed is returned for operations on a closed client.
	ErrClientClosed = errors.New("transport: client closed")
	// ErrRequestTimeout is returned when an RPC gets no answer in time.
	ErrRequestTimeout = errors.New("transport: request timed out")
	// ErrRemote wraps an error string reported by the server for an RPC.
	ErrRemote = errors.New("transport: remote error")
)

// ClientConfig tunes a wire client.
type ClientConfig struct {
	// Name identifies this client to the server (diagnostics only).
	Name string
	// TLS, when non-nil, dials a TLS connection. Nil dials plaintext.
	TLS *tls.Config
	// DialTimeout bounds connection establishment plus the protocol
	// handshake (default 5s).
	DialTimeout time.Duration
	// SubscribeTimeout bounds the wait for a subscription ack (default 5s).
	SubscribeTimeout time.Duration
	// RequestTimeout bounds one RPC round trip (default 10s).
	RequestTimeout time.Duration
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.Name == "" {
		c.Name = "dcert-client"
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 5 * time.Second
	}
	if c.SubscribeTimeout <= 0 {
		c.SubscribeTimeout = 5 * time.Second
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	return c
}

// ClientStats counts a client's activity.
type ClientStats struct {
	// Delivered counts messages handed to subscription queues.
	Delivered uint64
	// Dropped counts messages dropped because a subscription's queue was
	// full (slow consumer) or already cancelled.
	Dropped uint64
}

// Client is a wire connection to a transport Server.
type Client struct {
	cfg  ClientConfig
	conn net.Conn
	r    *bufio.Reader // read by Dial's handshake, then readLoop

	// wmu serializes frame writes.
	wmu sync.Mutex
	w   *frameWriter

	mu      sync.Mutex
	subs    map[uint64]*network.Subscription
	subAcks map[uint64]chan struct{}
	pending map[uint64]chan *responseMsg
	nextSub uint64
	nextReq uint64
	closed  bool
	err     error // terminal connection error, set once

	done      chan struct{}
	closeOnce sync.Once
	readerWG  sync.WaitGroup

	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// Dial connects to a transport Server and completes the handshake.
func Dial(addr string, cfg ClientConfig) (*Client, error) {
	cfg = cfg.withDefaults()
	var conn net.Conn
	var err error
	if cfg.TLS != nil {
		d := &net.Dialer{Timeout: cfg.DialTimeout}
		conn, err = tls.DialWithDialer(d, "tcp", addr, cfg.TLS)
	} else {
		conn, err = net.DialTimeout("tcp", addr, cfg.DialTimeout)
	}
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}

	r, w := bufio.NewReaderSize(conn, readBufferSize), newFrameWriter(conn)
	conn.SetDeadline(time.Now().Add(cfg.DialTimeout))
	if err := w.write((&helloMsg{version: ProtocolVersion, name: cfg.Name}).encode(), nil); err != nil {
		conn.Close()
		return nil, err
	}
	body, err := chash.ReadFrame(r, MaxFrameSize)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("%w: %v", ErrBadHandshake, err)
	}
	kind, d, err := splitKind(body)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if kind == kindResponse {
		// The server rejects mismatched versions with an error response.
		if resp, derr := decodeResponse(d); derr == nil && resp.errMsg != "" {
			conn.Close()
			return nil, fmt.Errorf("%w: %s", ErrVersionMismatch, resp.errMsg)
		}
		conn.Close()
		return nil, ErrBadHandshake
	}
	if kind != kindWelcome {
		conn.Close()
		return nil, fmt.Errorf("%w: first frame kind %d", ErrBadHandshake, kind)
	}
	welcome, err := decodeWelcome(d)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if welcome.version != ProtocolVersion {
		conn.Close()
		return nil, fmt.Errorf("%w: server speaks %d, client %d", ErrVersionMismatch, welcome.version, ProtocolVersion)
	}
	conn.SetDeadline(time.Time{})

	c := &Client{
		cfg:     cfg,
		conn:    conn,
		r:       r,
		w:       w,
		subs:    make(map[uint64]*network.Subscription),
		subAcks: make(map[uint64]chan struct{}),
		pending: make(map[uint64]chan *responseMsg),
		done:    make(chan struct{}),
	}
	c.readerWG.Add(1)
	go c.readLoop()
	return c, nil
}

// Stats snapshots the client's delivery counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{Delivered: c.delivered.Load(), Dropped: c.dropped.Load()}
}

// Subscribe registers a remote subscription and blocks until the server
// acknowledges it, so a publish the node makes on its hub after Subscribe
// returns reaches the new subscription, matching the in-process bus's
// happens-before edge. On a dead connection or
// ack timeout the returned subscription is already cancelled (its channel is
// closed), which is how the bus API signals a terminal fabric to consumers.
func (c *Client) Subscribe(topic string, depth int) *network.Subscription {
	c.mu.Lock()
	c.nextSub++
	id := c.nextSub
	ack := make(chan struct{})
	sub := network.NewDetachedSubscription(topic, depth, func() { c.unsubscribe(id) })
	if c.closed {
		c.mu.Unlock()
		sub.Cancel()
		return sub
	}
	c.subs[id] = sub
	c.subAcks[id] = ack
	c.mu.Unlock()

	if err := c.send((&subscribeMsg{id: id, topic: topic, depth: uint32(depth)}).encode()); err != nil {
		c.dropSub(id)
		sub.Cancel()
		return sub
	}
	t := time.NewTimer(c.cfg.SubscribeTimeout)
	defer t.Stop()
	select {
	case <-ack:
	case <-c.done:
		sub.Cancel()
	case <-t.C:
		c.dropSub(id)
		sub.Cancel()
	}
	return sub
}

// Request runs one RPC round trip against the server's route table. The
// returned body aliases the response's frame, which nothing else holds.
func (c *Client) Request(method string, body []byte) ([]byte, error) {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}
	c.nextReq++
	id := c.nextReq
	ch := make(chan *responseMsg, 1)
	c.pending[id] = ch
	c.mu.Unlock()

	if err := c.send((&requestMsg{id: id, method: method, body: body}).encode()); err != nil {
		c.dropPending(id)
		return nil, err
	}
	t := time.NewTimer(c.cfg.RequestTimeout)
	defer t.Stop()
	select {
	case resp := <-ch:
		if resp.errMsg != "" {
			return nil, fmt.Errorf("%w: %s", ErrRemote, resp.errMsg)
		}
		return resp.body, nil
	case <-c.done:
		c.dropPending(id)
		c.mu.Lock()
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	case <-t.C:
		c.dropPending(id)
		return nil, fmt.Errorf("%w: %s", ErrRequestTimeout, method)
	}
}

// Close tears the connection down: all subscriptions' channels close and all
// in-flight requests fail.
func (c *Client) Close() error {
	c.shutdown(ErrClientClosed)
	c.readerWG.Wait()
	return nil
}

// send writes one frame under the write lock.
func (c *Client) send(frame []byte) error {
	c.mu.Lock()
	if c.closed {
		err := c.err
		c.mu.Unlock()
		if err == nil {
			err = ErrClientClosed
		}
		return err
	}
	c.mu.Unlock()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if err := c.w.write(frame, nil); err != nil {
		c.shutdown(err)
		return err
	}
	return nil
}

// unsubscribe is the Cancel hook for this client's subscriptions: it drops
// the local registration and tells the server, fire-and-forget (the server
// also reaps on disconnect).
func (c *Client) unsubscribe(id uint64) {
	c.mu.Lock()
	_, known := c.subs[id]
	delete(c.subs, id)
	delete(c.subAcks, id)
	closed := c.closed
	c.mu.Unlock()
	if !known || closed {
		return
	}
	c.wmu.Lock()
	c.w.write((&unsubscribeMsg{id: id}).encode(), nil)
	c.wmu.Unlock()
}

// dropSub removes a subscription registration without the Cancel hook.
func (c *Client) dropSub(id uint64) {
	c.mu.Lock()
	delete(c.subs, id)
	delete(c.subAcks, id)
	c.mu.Unlock()
}

// dropPending removes an RPC registration.
func (c *Client) dropPending(id uint64) {
	c.mu.Lock()
	delete(c.pending, id)
	c.mu.Unlock()
}

// readLoop demultiplexes inbound frames: topic deliveries to subscription
// queues, acks to blocked Subscribe calls, responses to blocked Requests.
func (c *Client) readLoop() {
	defer c.readerWG.Done()
	for {
		body, err := chash.ReadFrame(c.r, MaxFrameSize)
		if err != nil {
			c.shutdown(err)
			return
		}
		if err := c.handleFrame(body); err != nil {
			c.shutdown(err)
			return
		}
	}
}

// handleFrame processes one inbound frame; an error is terminal.
func (c *Client) handleFrame(body []byte) error {
	kind, d, err := splitKind(body)
	if err != nil {
		return err
	}
	switch kind {
	case kindMessage:
		m, err := decodeMessage(d)
		if err != nil {
			return err
		}
		payload, err := decodePayload(m.payload)
		if err != nil {
			return err
		}
		c.mu.Lock()
		sub := c.subs[m.subID]
		c.mu.Unlock()
		if sub == nil {
			return nil // raced with an unsubscribe; the server reaps soon
		}
		if sub.Deliver(network.Message{Topic: m.topic, From: m.from, Payload: payload}) {
			c.delivered.Add(1)
		} else {
			c.dropped.Add(1)
		}
		return nil
	case kindSubscribed:
		m, err := decodeSubscribed(d)
		if err != nil {
			return err
		}
		c.mu.Lock()
		ack := c.subAcks[m.id]
		delete(c.subAcks, m.id)
		c.mu.Unlock()
		if ack != nil {
			close(ack)
		}
		return nil
	case kindResponse:
		m, err := decodeResponse(d)
		if err != nil {
			return err
		}
		c.mu.Lock()
		ch := c.pending[m.id]
		delete(c.pending, m.id)
		c.mu.Unlock()
		if ch != nil {
			ch <- m
		}
		return nil
	default:
		return fmt.Errorf("%w: %d", ErrUnknownKind, kind)
	}
}

// shutdown marks the client terminal: the connection closes, every
// subscription's channel closes (so followers and requesters unblock and
// exit), and pending RPCs fail. Idempotent.
func (c *Client) shutdown(cause error) {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.err = cause
		subs := make([]*network.Subscription, 0, len(c.subs))
		for _, sub := range c.subs {
			subs = append(subs, sub)
		}
		c.subs = make(map[uint64]*network.Subscription)
		for _, ack := range c.subAcks {
			close(ack)
		}
		c.subAcks = make(map[uint64]chan struct{})
		c.pending = make(map[uint64]chan *responseMsg)
		c.mu.Unlock()
		close(c.done)
		c.conn.Close()
		for _, sub := range subs {
			sub.Cancel()
		}
	})
}
