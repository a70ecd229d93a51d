package dcert

import (
	"fmt"
	"math"
	"sync"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/core"
	"dcert/internal/network"
	"dcert/internal/query"
	"dcert/internal/transport"
)

// The wire plane: a deployment can expose its fabric and services over real
// sockets (internal/transport), so the node and its clients run as separate
// OS processes. The wire is read-only: a remote peer subscribes and calls,
// and only the node publishes. It carries two shapes of traffic:
//
//   - the certificate stream (TopicCerts), server to client — a remote
//     WireClient subscribes as the in-process fabric does, so CertFollower
//     runs over it unchanged, and a stalled follower pulls the tip segment
//     on WireRouteCertSegment;
//   - an RPC route table: node identity (trust anchors), the latest
//     certificate bundle, raw blocks, certified segments, the whole
//     interlink bootstrap in one response, and queries — every query is one
//     request and one response on WireRouteQuery.

// Bus is the in-process fabric's topic API (see internal/network.Bus); a
// WireClient offers its read side, Subscribe.
type Bus = network.Bus

// Wire transport types (package internal/transport).
type (
	// WireServer serves a deployment's fabric and RPC routes over TCP.
	WireServer = transport.Server
	// WireServerConfig tunes a wire server (address, TLS, queue depths).
	WireServerConfig = transport.ServerConfig
	// WireClient is a remote, read-only connection to a WireServer: it
	// subscribes to topics and calls RPC routes.
	WireClient = transport.Client
	// WireClientConfig tunes a wire client (identity, TLS, timeouts).
	WireClientConfig = transport.ClientConfig
	// WireServerStats counts a wire server's activity.
	WireServerStats = transport.ServerStats
)

// ErrRemote marks an error the remote node reported for an RPC — an
// authoritative refusal (unknown index, malformed request), not a transport
// failure. Test with errors.Is.
var ErrRemote = transport.ErrRemote

// Wire RPC routes served by ServeWire.
const (
	// WireRouteInfo returns the node's trust anchors (authority key, enclave
	// measurement, consensus parameters).
	WireRouteInfo = "dcert/info"
	// WireRouteCertLatest returns the deployment's newest certificate as a
	// cert bundle, or nothing when that certificate covers more than one
	// block (WireRouteCertSegment serves it).
	WireRouteCertLatest = "dcert/cert-latest"
	// WireRouteBlock returns one raw block by height.
	WireRouteBlock = "dcert/block"
	// WireRouteQuery answers one serialized query request.
	WireRouteQuery = "dcert/query"
	// WireRouteCertSegment returns the certified segment covering a height
	// (tipHeight = the newest segment).
	WireRouteCertSegment = "dcert/cert-segment"
	// WireRouteBootstrap returns the tip segment and every interlink hop
	// down to an anchor height, in walk order: the whole sublinear bootstrap
	// in one round trip (core.Issuer.BootstrapPath).
	WireRouteBootstrap = "dcert/bootstrap"
)

// tipHeight requests the best block on WireRouteBlock.
const tipHeight = math.MaxUint64

// NodeInfo is a node's self-description served on WireRouteInfo: everything
// a superlight client needs to start validating. The demo commands accept
// these anchors from the node itself (trust-on-first-use); a production
// client pins the authority key and measurement out of band, exactly as the
// paper's clients pin the IAS key.
type NodeInfo struct {
	// AuthorityKey is the attestation authority's public key.
	AuthorityKey *chash.PublicKey
	// Measurement is the CI's enclave program measurement.
	Measurement Hash
	// Params are the chain's consensus parameters.
	Params ConsensusParams
}

// encodeNodeInfo renders a NodeInfo for the wire.
func encodeNodeInfo(info *NodeInfo) []byte {
	der := info.AuthorityKey.Marshal()
	e := chash.NewEncoder(64 + len(der))
	e.PutBytes(der)
	e.PutHash(info.Measurement)
	e.PutUint32(info.Params.Difficulty)
	return e.Bytes()
}

// decodeNodeInfo parses a WireRouteInfo response.
func decodeNodeInfo(raw []byte) (*NodeInfo, error) {
	d := chash.NewDecoder(raw)
	der, err := d.ReadBytes()
	if err != nil {
		return nil, fmt.Errorf("dcert: node info: %w", err)
	}
	var info NodeInfo
	if info.AuthorityKey, err = chash.ParsePublicKey(der); err != nil {
		return nil, fmt.Errorf("dcert: node info: %w", err)
	}
	if info.Measurement, err = d.ReadHash(); err != nil {
		return nil, fmt.Errorf("dcert: node info: %w", err)
	}
	if info.Params.Difficulty, err = d.Uint32(); err != nil {
		return nil, fmt.Errorf("dcert: node info: %w", err)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("dcert: node info: %w", err)
	}
	return &info, nil
}

// encodeBootstrapPath renders a WireRouteBootstrap response: a count, then
// each segment's canonical bytes, length-prefixed. The path is sized first
// and encoded in place, into one buffer of exactly its length.
func encodeBootstrapPath(path []*SegmentCert) []byte {
	size := 4
	for _, seg := range path {
		size += 4 + seg.EncodedSize()
	}
	e := chash.NewEncoder(size)
	e.PutUint32(uint32(len(path)))
	for _, seg := range path {
		e.PutUint32(uint32(seg.EncodedSize()))
		seg.Encode(e)
	}
	return e.Bytes()
}

// bootstrapMemoAnchors bounds the bootstrap memo: the anchors it keeps an
// encoded path for at one tip segment.
const bootstrapMemoAnchors = 16

// bootstrapMemo answers WireRouteBootstrap from encoded paths. A path is a
// function of the tip segment and the anchor, and fresh clients pinning the
// same anchor (genesis, a checkpoint) ask for the same bytes until the next
// segment lands, so each path is encoded once per tip and repeats are served
// from the memo. The memo belongs to one tip: the first request that sees a
// newer tip drops it. An empty path (no segment yet, or a tip block still
// being certified) is never stored.
type bootstrapMemo struct {
	mu    sync.Mutex
	tip   *SegmentCert
	paths map[uint64][]byte // by anchor height, at most bootstrapMemoAnchors
}

// path returns the encoded bootstrap path from the deployment's tip down to
// anchor: the walk from the tip segment over the segments of the issuer
// that certified it (Deployment.tipSegment, Issuer.BootstrapPath), so a
// killed primary freezes no anchor's path.
func (m *bootstrapMemo) path(d *Deployment, anchor uint64) []byte {
	landed := d.tipSegment()
	tip := landed.seg
	if tip == nil {
		return encodeBootstrapPath(nil)
	}
	m.mu.Lock()
	if m.tip != tip && (m.tip == nil || tip.End() >= m.tip.End()) {
		m.tip, m.paths = tip, make(map[uint64][]byte)
	}
	raw, ok := m.paths[anchor]
	if m.tip != tip {
		ok = false // this request read an older tip than the memo's
	}
	m.mu.Unlock()
	if ok {
		return raw
	}
	raw = encodeBootstrapPath(landed.issuer.BootstrapPath(tip, anchor))
	m.mu.Lock()
	if m.tip == tip {
		if len(m.paths) >= bootstrapMemoAnchors {
			for a := range m.paths {
				delete(m.paths, a) // make room: any one anchor goes
				break
			}
		}
		m.paths[anchor] = raw
	}
	m.mu.Unlock()
	return raw
}

// decodeBootstrapPath parses an untrusted WireRouteBootstrap response.
func decodeBootstrapPath(raw []byte) ([]*SegmentCert, error) {
	d := chash.NewDecoder(raw)
	n, err := d.Count(core.MaxBootstrapPath, 4)
	if err != nil {
		return nil, fmt.Errorf("dcert: bootstrap path: %w", err)
	}
	path := make([]*SegmentCert, 0, n)
	for i := range n {
		segRaw, err := d.ReadBytes()
		if err != nil {
			return nil, fmt.Errorf("dcert: bootstrap path segment %d: %w", i, err)
		}
		seg, err := core.UnmarshalSegmentCert(segRaw)
		if err != nil {
			return nil, fmt.Errorf("dcert: bootstrap path segment %d: %w", i, err)
		}
		path = append(path, seg)
	}
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("dcert: bootstrap path: %w", err)
	}
	return path, nil
}

// encodeHeightRequest renders a request body that is one height.
func encodeHeightRequest(height uint64) []byte {
	e := chash.NewEncoder(8)
	e.PutUint64(height)
	return e.Bytes()
}

// decodeHeightRequest parses a request body that is one height.
func decodeHeightRequest(body []byte) (uint64, error) {
	dec := chash.NewDecoder(body)
	height, err := dec.Uint64()
	if err != nil {
		return 0, err
	}
	return height, dec.Finish()
}

// ServeWire exposes the deployment over TCP: remote subscriptions read the
// deployment's fabric (so fault plans and instrumentation apply to socket
// traffic), and the standard RPC routes are mounted. The deployment keeps
// running in-process exactly as before; the wire is an additional door.
func (d *Deployment) ServeWire(cfg WireServerConfig) (*WireServer, error) {
	srv, err := transport.Serve(d.net, cfg)
	if err != nil {
		return nil, fmt.Errorf("dcert: serve wire: %w", err)
	}
	srv.Handle(WireRouteInfo, func([]byte) ([]byte, error) {
		return encodeNodeInfo(&NodeInfo{
			AuthorityKey: d.authority.PublicKey(),
			Measurement:  d.Issuer().Measurement(),
			Params:       d.params,
		}), nil
	})
	srv.Handle(WireRouteCertLatest, func([]byte) ([]byte, error) {
		seg := d.tipSegment().seg
		if seg == nil || len(seg.Headers) != 1 {
			return nil, nil // empty body = no single-block tip certificate
		}
		return (&CertBundle{Header: seg.Headers[0], Cert: seg.Cert}).Marshal(), nil
	})
	srv.Handle(WireRouteBlock, func(body []byte) ([]byte, error) {
		height, err := decodeHeightRequest(body)
		if err != nil {
			return nil, fmt.Errorf("block request: %w", err)
		}
		store := d.miner.Store()
		if height == tipHeight {
			height = store.BestHeight()
		}
		blk, err := store.AtHeight(height)
		if err != nil {
			return nil, err
		}
		return blk.Marshal(), nil
	})
	srv.Handle(WireRouteCertSegment, func(body []byte) ([]byte, error) {
		height, err := decodeHeightRequest(body)
		if err != nil {
			return nil, fmt.Errorf("segment request: %w", err)
		}
		tip := d.tipSegment()
		seg := tip.seg
		if height != tipHeight && seg != nil {
			seg = tip.issuer.SegmentCovering(height)
		}
		if seg == nil {
			return nil, nil // empty body = no segment covering that height
		}
		return seg.Marshal(), nil
	})
	memo := new(bootstrapMemo)
	srv.Handle(WireRouteBootstrap, func(body []byte) ([]byte, error) {
		anchor, err := decodeHeightRequest(body)
		if err != nil {
			return nil, fmt.Errorf("bootstrap request: %w", err)
		}
		return memo.path(d, anchor), nil
	})
	srv.Handle(WireRouteQuery, func(body []byte) ([]byte, error) {
		// With a fleet started, wire queries route through the
		// consistent-hash front door; otherwise the single SP answers.
		if f := d.fleet.Load(); f != nil {
			return f.HandleRaw(body), nil
		}
		d.serveMu.RLock()
		defer d.serveMu.RUnlock()
		return query.HandleRaw(d.sp, body), nil
	})
	return srv, nil
}

// DialWire connects to a node's wire endpoint.
func DialWire(addr string, cfg WireClientConfig) (*WireClient, error) {
	return transport.Dial(addr, cfg)
}

// RequestNodeInfo fetches a remote node's trust anchors.
func RequestNodeInfo(c *WireClient) (*NodeInfo, error) {
	raw, err := c.Request(WireRouteInfo, nil)
	if err != nil {
		return nil, err
	}
	return decodeNodeInfo(raw)
}

// NewRemoteSuperlightClient builds a superlight client from a remote node's
// self-reported trust anchors (trust-on-first-use; pin anchors out of band
// for adversarial settings and construct the client directly).
func NewRemoteSuperlightClient(c *WireClient) (*SuperlightClient, error) {
	info, err := RequestNodeInfo(c)
	if err != nil {
		return nil, err
	}
	return core.NewSuperlightClient(info.AuthorityKey, info.Measurement, info.Params), nil
}

// RequestLatestBundle fetches the node's newest certificate bundle (nil
// before the first certification, or when the newest certificate covers a
// multi-block segment).
func RequestLatestBundle(c *WireClient) (*CertBundle, error) {
	raw, err := c.Request(WireRouteCertLatest, nil)
	if err != nil || len(raw) == 0 {
		return nil, err
	}
	return core.UnmarshalCertBundle(raw)
}

// RequestBlock fetches one raw block by height.
func RequestBlock(c *WireClient, height uint64) (*Block, error) {
	raw, err := c.Request(WireRouteBlock, encodeHeightRequest(height))
	if err != nil {
		return nil, err
	}
	return chain.UnmarshalBlock(raw)
}

// RequestTipBlock fetches the node's best block.
func RequestTipBlock(c *WireClient) (*Block, error) {
	return RequestBlock(c, tipHeight)
}

// RequestSegment fetches the certified segment covering a height (nil when
// the node holds none for it).
func RequestSegment(c *WireClient, height uint64) (*SegmentCert, error) {
	raw, err := c.Request(WireRouteCertSegment, encodeHeightRequest(height))
	if err != nil {
		return nil, err
	}
	if len(raw) == 0 {
		return nil, nil
	}
	return core.UnmarshalSegmentCert(raw)
}

// RequestTipSegment fetches the node's newest certified segment.
func RequestTipSegment(c *WireClient) (*SegmentCert, error) {
	return RequestSegment(c, tipHeight)
}

// BootstrapSublinearOver brings a superlight client current over the wire in
// one round trip: the node runs the interlink walk down to the anchor and
// returns the tip segment with every hop (WireRouteBootstrap), and the
// client re-verifies each hop offline (see core.BootstrapFromPath). From the
// genesis anchor the response is the tip segment alone. A response that
// drops, reorders or pads a hop is refused before the tip is adopted. It
// returns the number of segments fetched, tip included.
func BootstrapSublinearOver(c *WireClient, client *SuperlightClient, anchorHeight uint64, anchorHash Hash) (int, error) {
	raw, err := c.Request(WireRouteBootstrap, encodeHeightRequest(anchorHeight))
	if err != nil {
		return 0, err
	}
	path, err := decodeBootstrapPath(raw)
	if err != nil {
		return 0, err
	}
	hops, err := client.BootstrapFromPath(path, anchorHeight, anchorHash)
	return hops + 1, err
}

// RequestQuery runs one verifiable query over the wire's RPC path and
// returns the serialized response (use the query result parsers plus the
// Verify* helpers against a certified header).
func RequestQuery(c *WireClient, req *QueryRequest) (*QueryResponse, error) {
	raw, err := c.Request(WireRouteQuery, req.Marshal())
	if err != nil {
		return nil, err
	}
	resp, err := query.UnmarshalResponse(raw)
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("dcert: %w: %s", ErrRemote, resp.Err)
	}
	return resp, nil
}

// FollowCertsOver puts a remote client on a node's live certificate stream.
// A stalled follower pulls the node's tip segment (RequestTipSegment) over
// the same connection; one unanswered pull holds the follower, and its Stop,
// for up to the client's RequestTimeout.
func FollowCertsOver(c *WireClient, client *SuperlightClient, cfg FollowerConfig) *CertFollower {
	return core.FollowCerts(client, c, func() (*SegmentCert, error) { return RequestTipSegment(c) }, cfg)
}

// Serialized query protocol types (package internal/query), carried by the
// wire's RPC query route.
type (
	// QueryRequest is a serializable query.
	QueryRequest = query.Request
	// QueryResponse is a serialized query answer.
	QueryResponse = query.Response
)

// NewRemoteStateRequest builds a direct state-read query.
func NewRemoteStateRequest(key string) *QueryRequest {
	return query.NewStateRequest(key)
}

// NewRemoteHistoricalRequest builds a historical range query.
func NewRemoteHistoricalRequest(index, key string, lo, hi uint64) *QueryRequest {
	return query.NewHistoricalRequest(index, key, lo, hi)
}

// NewRemoteKeywordRequest builds a conjunctive keyword query.
func NewRemoteKeywordRequest(index string, keywords []string) *QueryRequest {
	return query.NewKeywordRequest(index, keywords)
}

// NewRemoteBatchStateRequest builds a multi-key state read answered by one
// merged multiproof.
func NewRemoteBatchStateRequest(keys []string) *QueryRequest {
	return query.NewBatchStateRequest(keys)
}

// ParseStateResult parses a state-read response body for VerifyState.
func ParseStateResult(resp *QueryResponse) (*StateResult, error) {
	return query.UnmarshalStateResult(resp.Body)
}

// ParseHistoricalResult parses a historical response body for
// VerifyHistorical.
func ParseHistoricalResult(resp *QueryResponse) (*HistoricalResult, error) {
	return query.UnmarshalHistoricalResult(resp.Body)
}

// ParseKeywordResult parses a keyword response body for VerifyKeyword.
func ParseKeywordResult(resp *QueryResponse) (*KeywordResult, error) {
	return query.UnmarshalKeywordResult(resp.Body)
}

// ParseBatchStateResult parses a multi-key state-read response body for
// VerifyBatchState.
func ParseBatchStateResult(resp *QueryResponse) (*BatchStateResult, error) {
	return query.UnmarshalBatchStateResult(resp.Body)
}
