package query

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dcert/internal/chash"
	"dcert/internal/network"
)

// Network query service: the SP serves the §5.3 query protocol over the
// simulated fabric using the canonical wire formats, so superlight clients
// interact with it exactly as they would over a real transport — send a
// request, receive serialized results, verify them locally against certified
// roots.

// Service errors.
var (
	// ErrTimeout is returned when a networked query receives no response
	// within the attempt budget.
	ErrTimeout = errors.New("query: request timed out")
	// ErrRemote is returned when the SP reports a failure.
	ErrRemote = errors.New("query: remote error")
	// ErrRequesterClosed is returned by requests pending (or issued) after
	// Close; unlike ErrTimeout it reports a local, permanent condition.
	ErrRequesterClosed = errors.New("query: requester closed")
)

// Network topics for the query protocol.
const (
	// TopicQueries carries requests to the SP.
	TopicQueries = "queries"
	// TopicResults carries responses back to clients.
	TopicResults = "query-results"
)

// Request kinds.
const (
	reqHistorical byte = 1
	reqKeyword    byte = 2
	reqState      byte = 3
	reqBatchState byte = 4
)

// MaxBatchKeys bounds the key count of one batch request.
const MaxBatchKeys = 1024

// Request is a serializable query request.
type Request struct {
	// ID correlates the response.
	ID uint64
	// Kind selects the query type.
	Kind byte
	// Index names the authenticated index (historical/keyword queries).
	Index string
	// Key is the state or account key.
	Key string
	// Lo and Hi bound historical windows.
	Lo, Hi uint64
	// Keywords are the conjuncts of a keyword query.
	Keywords []string
	// Keys are the state keys of a batch query (reqBatchState only; the
	// field is encoded only for that kind, so every pre-batch request kind
	// keeps its exact historical byte encoding).
	Keys []string
}

// Marshal serializes the request.
func (r *Request) Marshal() []byte {
	e := chash.NewEncoder(128)
	e.PutUint64(r.ID)
	e.PutByte(r.Kind)
	e.PutString(r.Index)
	e.PutString(r.Key)
	e.PutUint64(r.Lo)
	e.PutUint64(r.Hi)
	e.PutUint32(uint32(len(r.Keywords)))
	for _, kw := range r.Keywords {
		e.PutString(kw)
	}
	if r.Kind == reqBatchState {
		e.PutUint32(uint32(len(r.Keys)))
		for _, k := range r.Keys {
			e.PutString(k)
		}
	}
	return e.Bytes()
}

// UnmarshalRequest parses a request.
func UnmarshalRequest(raw []byte) (*Request, error) {
	d := chash.NewDecoder(raw)
	var r Request
	var err error
	if r.ID, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("query: unmarshal request: %w", err)
	}
	if r.Kind, err = d.Byte(); err != nil {
		return nil, fmt.Errorf("query: unmarshal request: %w", err)
	}
	if r.Index, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("query: unmarshal request: %w", err)
	}
	if r.Key, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("query: unmarshal request: %w", err)
	}
	if r.Lo, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("query: unmarshal request: %w", err)
	}
	if r.Hi, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("query: unmarshal request: %w", err)
	}
	n, err := d.Uint32()
	if err != nil {
		return nil, fmt.Errorf("query: unmarshal request: %w", err)
	}
	if n > 64 {
		return nil, fmt.Errorf("query: unmarshal request: %d keywords", n)
	}
	for i := uint32(0); i < n; i++ {
		kw, err := d.ReadString()
		if err != nil {
			return nil, fmt.Errorf("query: unmarshal request: %w", err)
		}
		r.Keywords = append(r.Keywords, kw)
	}
	if r.Kind == reqBatchState {
		k, err := d.Uint32()
		if err != nil {
			return nil, fmt.Errorf("query: unmarshal request: %w", err)
		}
		if k > MaxBatchKeys {
			return nil, fmt.Errorf("query: unmarshal request: %d batch keys", k)
		}
		for i := uint32(0); i < k; i++ {
			key, err := d.ReadString()
			if err != nil {
				return nil, fmt.Errorf("query: unmarshal request: %w", err)
			}
			r.Keys = append(r.Keys, key)
		}
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("query: unmarshal request: %w", err)
	}
	return &r, nil
}

// AffinityKey returns the request's routing key: requests about the same
// data map to the same key, so a consistent-hash router sends them to the
// same replica (warm cache, stable load split). The request ID and window
// bounds are deliberately excluded — they vary per attempt without changing
// which replica should answer. A batch request routes as one unit (its
// merged multiproof must come from a single replica's snapshot).
func (r *Request) AffinityKey() string {
	switch r.Kind {
	case reqState:
		return "s\x00" + r.Key
	case reqHistorical:
		return "h\x00" + r.Index + "\x00" + r.Key
	case reqKeyword:
		return "k\x00" + r.Index + "\x00" + strings.Join(r.Keywords, "\x00")
	case reqBatchState:
		return "b\x00" + strings.Join(r.Keys, "\x00")
	default:
		return r.Index + "\x00" + r.Key
	}
}

// SemanticKey returns the request's identity for response caching: two
// requests with the same semantic key ask the same question and may share a
// cached answer. Unlike the raw encoding it excludes the per-attempt request
// ID, so resends and concurrent identical queries from different clients
// collapse onto one computation.
func (r *Request) SemanticKey() string {
	c := *r
	c.ID = 0
	return string(c.Marshal())
}

// Response is a serializable query response.
type Response struct {
	// ID echoes the request.
	ID uint64
	// Err carries a remote failure description ("" on success).
	Err string
	// Body is the serialized result (kind-specific wire format).
	Body []byte
}

// Marshal serializes the response.
func (r *Response) Marshal() []byte {
	e := chash.NewEncoder(64 + len(r.Body))
	e.PutUint64(r.ID)
	e.PutString(r.Err)
	e.PutBytes(r.Body)
	return e.Bytes()
}

// WithResponseID returns a copy of a marshaled response answering request
// id. The ID is the encoding's first 8 bytes, so a cached canonical answer
// (ID 0) serves any request for one allocation, without being decoded.
func WithResponseID(raw []byte, id uint64) []byte {
	out := slices.Clone(raw)
	binary.BigEndian.PutUint64(out, id)
	return out
}

// UnmarshalResponse parses a response.
func UnmarshalResponse(raw []byte) (*Response, error) {
	d := chash.NewDecoder(raw)
	var r Response
	var err error
	if r.ID, err = d.Uint64(); err != nil {
		return nil, fmt.Errorf("query: unmarshal response: %w", err)
	}
	if r.Err, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("query: unmarshal response: %w", err)
	}
	if r.Body, err = d.ReadBytes(); err != nil {
		return nil, fmt.Errorf("query: unmarshal response: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("query: unmarshal response: %w", err)
	}
	return &r, nil
}

// Server runs a ServiceProvider behind the network's query topic.
//
// The server is idempotent under duplicated delivery: responses are cached
// keyed by the exact request bytes, so a request replayed by the network (or
// a client resend with the same ID) republishes the original response
// instead of recomputing or double-delivering a fresh one. The cache is a
// byte-bounded singleflight LRU (ResponseCache).
type Server struct {
	sp     *ServiceProvider
	net    network.Bus
	sub    *network.Subscription
	done   chan struct{}
	wg     sync.WaitGroup
	rcache *ResponseCache

	mu       sync.Mutex
	met      serverObs
	computed uint64
	replayed uint64
}

// Serve starts answering requests until Stop is called.
func Serve(sp *ServiceProvider, net network.Bus) *Server {
	s := &Server{
		sp:     sp,
		net:    net,
		sub:    net.Subscribe(TopicQueries, 64),
		done:   make(chan struct{}),
		rcache: NewResponseCache(DefaultCacheBytes),
	}
	s.wg.Add(1)
	go s.loop()
	return s
}

// Stats reports how many requests were computed fresh and how many were
// answered from the idempotent-response cache (hit or collapsed onto an
// in-flight computation).
func (s *Server) Stats() (computed, replayed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.computed, s.replayed
}

// Cache exposes the server's response cache (for instrumentation and
// inspection).
func (s *Server) Cache() *ResponseCache {
	return s.rcache
}

// Stop shuts the server down and waits for the serving goroutine.
func (s *Server) Stop() {
	s.sub.Cancel()
	close(s.done)
	s.wg.Wait()
}

func (s *Server) loop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case m, ok := <-s.sub.C:
			if !ok {
				return
			}
			raw, isBytes := m.Payload.([]byte)
			if !isBytes {
				continue
			}
			req, err := UnmarshalRequest(raw)
			if err != nil {
				continue // malformed request: nothing to respond to
			}
			respRaw, outcome := s.rcache.Do(string(raw), func() []byte {
				return s.handle(req).Marshal()
			})
			s.mu.Lock()
			if outcome == CacheComputed {
				s.computed++
				s.met.computed.Inc()
			} else {
				s.replayed++
				s.met.replayed.Inc()
			}
			s.mu.Unlock()
			// Publish errors only mean the fabric shut down.
			if err := s.net.Publish(TopicResults, "sp", respRaw); err != nil {
				return
			}
		}
	}
}

// handle executes one request against the local SP.
func (s *Server) handle(req *Request) *Response {
	return Execute(s.sp, req)
}

// Execute answers one parsed request against an SP. It is shared by the
// topic-based Server and the wire transport's request/response path.
func Execute(sp *ServiceProvider, req *Request) *Response {
	resp := &Response{ID: req.ID}
	switch req.Kind {
	case reqHistorical:
		res, err := sp.HistoricalQuery(req.Index, req.Key, req.Lo, req.Hi)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		resp.Body = res.Marshal()
	case reqKeyword:
		res, err := sp.KeywordQuery(req.Index, req.Keywords)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		resp.Body = res.Marshal()
	case reqState:
		res, err := sp.StateQuery(req.Key)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		resp.Body = res.Marshal()
	case reqBatchState:
		res, err := sp.BatchStateQuery(req.Keys)
		if err != nil {
			resp.Err = err.Error()
			return resp
		}
		resp.Body = res.Marshal()
	default:
		resp.Err = fmt.Sprintf("unknown request kind %d", req.Kind)
	}
	return resp
}

// HandleRaw answers one serialized request against an SP, returning the
// serialized response — the entry point a transport RPC route mounts. A
// malformed request yields a serialized error response rather than silence,
// since the RPC path (unlike gossip) always owes its caller an answer.
func HandleRaw(sp *ServiceProvider, raw []byte) []byte {
	req, err := UnmarshalRequest(raw)
	if err != nil {
		return (&Response{Err: err.Error()}).Marshal()
	}
	return Execute(sp, req).Marshal()
}

// RPC-facing request constructors: the wire transport's request/response
// path carries the same serialized Request/Response pair as the topic
// protocol, so a remote client builds requests with these and parses the
// answer with UnmarshalResponse plus the kind-specific result parser.

// NewStateRequest builds a direct state-read request.
func NewStateRequest(key string) *Request {
	return &Request{Kind: reqState, Key: key}
}

// NewHistoricalRequest builds a historical range-query request.
func NewHistoricalRequest(index, key string, lo, hi uint64) *Request {
	return &Request{Kind: reqHistorical, Index: index, Key: key, Lo: lo, Hi: hi}
}

// NewKeywordRequest builds a conjunctive keyword-query request.
func NewKeywordRequest(index string, keywords []string) *Request {
	return &Request{Kind: reqKeyword, Index: index, Keywords: keywords}
}

// NewBatchStateRequest builds a multi-key state-read request answered by one
// merged multiproof.
func NewBatchStateRequest(keys []string) *Request {
	return &Request{Kind: reqBatchState, Keys: keys}
}

// RetryPolicy bounds and paces the Requester's attempts. Each attempt gets
// a fresh request ID, so a response to a late earlier attempt is simply
// dropped and the SP's idempotent cache absorbs network-level duplicates.
type RetryPolicy struct {
	// MaxAttempts is the total attempt budget (minimum 1).
	MaxAttempts int
	// BaseBackoff is the sleep after the first failed attempt; it doubles
	// per attempt up to MaxBackoff.
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 = uncapped).
	MaxBackoff time.Duration
	// JitterSeed makes the ±50% backoff jitter reproducible (same seed,
	// same schedule).
	JitterSeed int64
}

// DefaultRetryPolicy retries twice after the first timeout with fast,
// seeded-jitter backoff — suited to the simulated fabric's time scales.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3, BaseBackoff: 5 * time.Millisecond, MaxBackoff: 50 * time.Millisecond}
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts < 1 {
		p.MaxAttempts = 1
	}
	return p
}

// backoff returns the pause before retry attempt+1 (attempt counts from 0):
// BaseBackoff·2^attempt, capped, with deterministic ±50% jitter.
func (r *Requester) backoff(attempt int) time.Duration {
	d := r.policy.BaseBackoff << uint(attempt)
	if r.policy.MaxBackoff > 0 && d > r.policy.MaxBackoff {
		d = r.policy.MaxBackoff
	}
	if d <= 0 {
		return 0
	}
	r.mu.Lock()
	j := r.jitter.Int63n(int64(d))
	r.mu.Unlock()
	return d/2 + time.Duration(j)/2
}

// Requester issues queries over the network and awaits responses, retrying
// timed-out attempts with exponential backoff + jitter within a bounded
// attempt budget.
//
// Requester is safe for concurrent use.
type Requester struct {
	net     network.Bus
	sub     *network.Subscription
	nextID  atomic.Uint64
	timeout time.Duration
	policy  RetryPolicy
	met     requesterObs
	done    chan struct{}

	mu      sync.Mutex
	jitter  *rand.Rand
	pending map[uint64]chan *Response
	closed  bool
}

// NewRequester creates a query client over the fabric with the default
// retry policy and the given per-attempt timeout.
func NewRequester(net network.Bus, timeout time.Duration) *Requester {
	return NewRequesterWithPolicy(net, timeout, DefaultRetryPolicy())
}

// NewRequesterWithPolicy creates a query client with an explicit retry
// policy (MaxAttempts: 1 restores single-shot behavior).
func NewRequesterWithPolicy(net network.Bus, timeout time.Duration, policy RetryPolicy) *Requester {
	r := &Requester{
		net:     net,
		sub:     net.Subscribe(TopicResults, 64),
		timeout: timeout,
		policy:  policy.withDefaults(),
		done:    make(chan struct{}),
		jitter:  rand.New(rand.NewSource(policy.JitterSeed)),
		pending: make(map[uint64]chan *Response),
	}
	go r.dispatch()
	return r
}

// Close stops the requester. Requests still in flight fail immediately with
// ErrRequesterClosed instead of running out their timeouts.
func (r *Requester) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.pending = make(map[uint64]chan *Response)
	r.mu.Unlock()
	close(r.done)
	r.sub.Cancel()
}

func (r *Requester) dispatch() {
	for m := range r.sub.C {
		raw, ok := m.Payload.([]byte)
		if !ok {
			continue
		}
		resp, err := UnmarshalResponse(raw)
		if err != nil {
			continue
		}
		r.mu.Lock()
		ch, ok := r.pending[resp.ID]
		if ok {
			delete(r.pending, resp.ID)
		}
		r.mu.Unlock()
		if ok {
			ch <- resp
		}
	}
}

// attempt sends the request once under a fresh ID and waits one timeout.
func (r *Requester) attempt(req *Request) (*Response, error) {
	req.ID = r.nextID.Add(1)
	ch := make(chan *Response, 1)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrRequesterClosed
	}
	r.pending[req.ID] = ch
	r.mu.Unlock()

	if err := r.net.Publish(TopicQueries, "client", req.Marshal()); err != nil {
		return nil, err
	}
	timer := time.NewTimer(r.timeout)
	defer timer.Stop()
	select {
	case resp := <-ch:
		if resp.Err != "" {
			return nil, fmt.Errorf("%w: %s", ErrRemote, resp.Err)
		}
		return resp, nil
	case <-r.done:
		return nil, ErrRequesterClosed
	case <-timer.C:
		r.mu.Lock()
		delete(r.pending, req.ID)
		r.mu.Unlock()
		return nil, ErrTimeout
	}
}

// roundTrip runs the retry loop: timeouts are retried with backoff within
// the attempt budget; remote errors, fabric shutdown, and Close are final.
func (r *Requester) roundTrip(req *Request) (*Response, error) {
	r.met.requests.Inc()
	start := time.Now()
	var err error
	for i := 0; i < r.policy.MaxAttempts; i++ {
		if i > 0 {
			r.met.retries.Inc()
			pause := time.NewTimer(r.backoff(i - 1))
			select {
			case <-pause.C:
			case <-r.done:
				pause.Stop()
				return nil, ErrRequesterClosed
			}
		}
		var resp *Response
		resp, err = r.attempt(req)
		if err == nil {
			r.met.rttSec.Observe(time.Since(start).Seconds())
			return resp, nil
		}
		if !errors.Is(err, ErrTimeout) {
			r.met.failures.Inc()
			return nil, err
		}
		r.met.timeouts.Inc()
	}
	r.met.failures.Inc()
	return nil, fmt.Errorf("%w (after %d attempts)", ErrTimeout, r.policy.MaxAttempts)
}

// Historical runs a remote historical query.
func (r *Requester) Historical(index, key string, lo, hi uint64) (*HistoricalResult, error) {
	resp, err := r.roundTrip(&Request{Kind: reqHistorical, Index: index, Key: key, Lo: lo, Hi: hi})
	if err != nil {
		return nil, err
	}
	return UnmarshalHistoricalResult(resp.Body)
}

// Keyword runs a remote conjunctive keyword query.
func (r *Requester) Keyword(index string, keywords []string) (*KeywordResult, error) {
	resp, err := r.roundTrip(&Request{Kind: reqKeyword, Index: index, Keywords: keywords})
	if err != nil {
		return nil, err
	}
	return UnmarshalKeywordResult(resp.Body)
}

// State runs a remote direct state read.
func (r *Requester) State(key string) (*StateResult, error) {
	resp, err := r.roundTrip(&Request{Kind: reqState, Key: key})
	if err != nil {
		return nil, err
	}
	return UnmarshalStateResult(resp.Body)
}

// BatchState runs a remote multi-key state read: one round trip, one merged
// multiproof covering every key.
func (r *Requester) BatchState(keys []string) (*BatchStateResult, error) {
	resp, err := r.roundTrip(&Request{Kind: reqBatchState, Keys: keys})
	if err != nil {
		return nil, err
	}
	return UnmarshalBatchStateResult(resp.Body)
}
