package query

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"dcert/internal/chash"
)

// The query protocol (§5.3): a client sends the SP one serialized Request
// and gets back one serialized Response whose body is a result plus its
// proof, which the client verifies locally against certified roots. The
// transport's RPC route carries the pair; HandleRaw is the SP's end of it.

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
	n, err := d.Count(64, 4)
	if err != nil {
		return nil, fmt.Errorf("query: unmarshal request keywords: %w", err)
	}
	for range n {
		kw, err := d.ReadString()
		if err != nil {
			return nil, fmt.Errorf("query: unmarshal request: %w", err)
		}
		r.Keywords = append(r.Keywords, kw)
	}
	if r.Kind == reqBatchState {
		k, err := d.Count(MaxBatchKeys, 4)
		if err != nil {
			return nil, fmt.Errorf("query: unmarshal request batch keys: %w", err)
		}
		for range k {
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
// bounds are deliberately excluded — they vary per request without changing
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
// cached answer. Unlike the raw encoding it excludes the per-request ID,
// so resends and concurrent identical queries from different clients
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

// Execute answers one parsed request against an SP: HandleRaw's core, and
// what a fleet shard computes on a cache miss.
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
// malformed request yields a serialized error response rather than silence:
// every RPC is owed an answer.
func HandleRaw(sp *ServiceProvider, raw []byte) []byte {
	req, err := UnmarshalRequest(raw)
	if err != nil {
		return (&Response{Err: err.Error()}).Marshal()
	}
	return Execute(sp, req).Marshal()
}

// Request constructors: a remote client builds requests with these and
// parses the answer with UnmarshalResponse plus the kind-specific result
// parser.

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
