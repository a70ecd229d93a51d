package main

// sut.go is the adapter between the benchmark and the system under test. It
// is the only file that names entry points of the root dcert package, so a
// change that renames or merges them (ROADMAP items 2 and 3) edits this file
// and nothing else of the benchmark.

import (
	"fmt"
	"time"

	"dcert"
	"dcert/internal/network"
	"dcert/internal/node"
	"dcert/internal/storage"
)

// Index names registered on the query workloads' deployments.
const (
	histIndex = "hist"
	kwIndex   = "kw"
)

// fsyncInterval is the storage flush policy of every server the benchmark
// starts: group commit, one fsync per interval.
const fsyncInterval = 50 * time.Millisecond

// fleetReplicas is the size of the serving fleet behind the query route.
const fleetReplicas = 2

// chainSpec is how a server builds its chain before it serves.
type chainSpec struct {
	// KeySpace and Contracts bound the state keys the KVStore workload
	// writes: ct/KV-<contract>/kv/user-key-<n>.
	KeySpace, Contracts int
	// Blocks of Txs transactions are mined during set-up.
	Blocks, Txs int
	// SegmentK > 0 certifies set-up blocks K at a time (one Ecall each).
	SegmentK int
	// Indexed registers the historical and keyword indexes and certifies
	// hierarchically (block certificate plus one certificate per index).
	Indexed bool
	// Pipelined certifies through the certification pipeline (2 workers,
	// K=1); certificates then arrive on the certificate topic.
	Pipelined bool
	// StreamTxs is the block size of blocks mined after set-up.
	StreamTxs int
}

// server is one deployment with everything the benchmark turns on: durable
// storage, SGX cost model, a one-issuer certification plane, a two-replica
// serving fleet and the TCP wire.
type server struct {
	spec  chainSpec
	dep   *dcert.Deployment
	plane *dcert.CertPlane
	wire  *dcert.WireServer
}

// openServer builds the deployment and mines the set-up chain.
func openServer(spec chainSpec, seed int64, dataDir string) (*server, error) {
	dep, err := dcert.OpenDeployment(dcert.Config{
		Workload:    dcert.KVStore,
		Contracts:   spec.Contracts,
		Accounts:    16,
		EnclaveCost: dcert.DefaultEnclaveCostModel(),
		Seed:        seed,
		KeySpace:    spec.KeySpace,
		Storage:     &dcert.StorageConfig{Dir: dataDir, FsyncInterval: fsyncInterval},
	})
	if err != nil {
		return nil, err
	}
	s := &server{spec: spec, dep: dep}
	if spec.Indexed {
		if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) { return dcert.NewHistoricalIndex(histIndex, "ct/") }); err != nil {
			return nil, err
		}
		if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) { return dcert.NewKeywordIndex(kwIndex) }); err != nil {
			return nil, err
		}
	}
	if s.plane, err = dep.StartCertPlane(1); err != nil {
		return nil, err
	}
	if _, err := dep.StartFleet(fleetReplicas); err != nil {
		return nil, err
	}
	if spec.Pipelined {
		if err := s.plane.StartPipelines(dcert.PipelineConfig{Workers: 2}); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// serve opens the wire on a loopback port.
func (s *server) serve() (addr string, err error) {
	if s.wire, err = s.dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0"}); err != nil {
		return "", err
	}
	return s.wire.Addr(), nil
}

// handle mounts one harness route beside the standard ones.
func (s *server) handle(route string, h func(body []byte) ([]byte, error)) {
	s.wire.Handle(route, h)
}

// mineStream mines one block into the certification pipeline and returns
// once the pipeline has admitted it; the certificate follows on TopicCerts.
func (s *server) mineStream() (height uint64, err error) {
	blk, err := s.plane.MineAndBroadcastPipelined(s.spec.StreamTxs)
	if err != nil {
		return 0, err
	}
	return blk.Header.Height, nil
}

// certifiedHeight is the height of the newest block certificate.
func (s *server) certifiedHeight() uint64 {
	if b := s.dep.Issuer().LatestBundle(); b != nil {
		return b.Header.Height
	}
	return 0
}

// mineSegment mines and certifies one K-block segment.
func (s *server) mineSegment() error {
	_, _, err := s.dep.MineAndCertifySegment(s.spec.SegmentK, s.spec.Txs)
	return err
}

// indexAnchor is one index's certified root at a block.
type indexAnchor struct {
	Name string
	Root dcert.Hash
	Cert *dcert.Certificate
}

// mineIndexed mines one hierarchically certified block of n transactions and
// returns what a client needs to adopt it.
func (s *server) mineIndexed(n int) (*dcert.CertBundle, []indexAnchor, error) {
	names := []string{histIndex, kwIndex}
	blk, cert, idxCerts, err := s.dep.MineAndCertifyHierarchical(n, names)
	if err != nil {
		return nil, nil, err
	}
	anchors := make([]indexAnchor, len(names))
	for i, name := range names {
		ix, err := s.dep.SP().Index(name)
		if err != nil {
			return nil, nil, err
		}
		root, err := ix.Root()
		if err != nil {
			return nil, nil, err
		}
		anchors[i] = indexAnchor{Name: name, Root: root, Cert: idxCerts[i]}
	}
	return &dcert.CertBundle{Header: &blk.Header, Cert: cert}, anchors, nil
}

// blockAt reads one block of the chain.
func (s *server) blockAt(height uint64) (*dcert.Block, error) {
	return s.dep.Miner().Store().AtHeight(height)
}

// height is the chain's best height.
func (s *server) height() uint64 {
	return s.dep.Miner().Store().BestHeight()
}

// serverCounters are the public Stats() of the layers inside the server.
type serverCounters struct {
	Ecalls, EnclaveBytesIn                                 uint64
	CacheHits, CacheMisses, CacheCollapsed, CacheEvictions uint64
	WireRequests, WireSlowDrops                            uint64
}

func (s *server) counters() serverCounters {
	var c serverCounters
	es := s.dep.Issuer().Enclave().Stats()
	c.Ecalls, c.EnclaveBytesIn = es.Ecalls, es.BytesIn
	if f := s.dep.Fleet(); f != nil {
		for i := 0; i < f.Size(); i++ {
			r, err := f.Replica(fmt.Sprintf("sp-%d", i))
			if err != nil {
				continue
			}
			h, m, col, ev := r.Cache().Stats()
			c.CacheHits += h
			c.CacheMisses += m
			c.CacheCollapsed += col
			c.CacheEvictions += ev
		}
	}
	ws := s.wire.Stats()
	c.WireRequests, c.WireSlowDrops = ws.Requests, ws.SlowDrops
	return c
}

// close drains the pipeline, stops the wire and closes storage.
func (s *server) close() error {
	var first error
	if s.spec.Pipelined {
		first = s.plane.DrainPipelines()
	}
	s.plane.Stop()
	if s.wire != nil {
		if err := s.wire.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := s.dep.Close(); err != nil && first == nil {
		first = err
	}
	return first
}

// ---- client side ----

// conn is one TCP connection from the driver to the server.
type conn = dcert.WireClient

func dial(addr, name string) (*conn, error) {
	return dcert.DialWire(addr, dcert.WireClientConfig{Name: name})
}

// lightClient is the superlight client the driver verifies with.
type lightClient = dcert.SuperlightClient

// header is a block header.
type header = dcert.Header

// newLightClient builds a client from the node's self-reported anchors
// (trust on first use, as dcert-query does).
func newLightClient(c *conn) (*lightClient, error) {
	return dcert.NewRemoteSuperlightClient(c)
}

// nodeInfoRTT is one round trip of the smallest standard route.
func nodeInfoRTT(c *conn) error {
	_, err := dcert.RequestNodeInfo(c)
	return err
}

// certBundle and segmentCert are what the certificate topic carries.
type (
	certBundle  = dcert.CertBundle
	segmentCert = dcert.SegmentCert
)

// topicCerts is the topic certificates are published on.
const topicCerts = dcert.TopicCerts

// subscribeCerts opens the certificate stream. The depth covers every block
// a run can mine, so the benchmark never drops a certificate itself.
func subscribeCerts(c *conn) *network.Subscription {
	return c.Subscribe(topicCerts, 8192)
}

// latestBundle pulls the node's newest certificate bundle.
func latestBundle(c *conn) (*certBundle, error) {
	return dcert.RequestLatestBundle(c)
}

// genesisHash fetches the hash of block 0, the bootstrap anchor a client
// pins out of band.
func genesisHash(c *conn) (dcert.Hash, error) {
	blk, err := dcert.RequestBlock(c, 0)
	if err != nil {
		return dcert.Hash{}, err
	}
	return blk.Hash(), nil
}

// bootstrap brings a fresh client from the genesis anchor to the certified
// tip over the interlink and returns the number of segments fetched.
func bootstrap(c *conn, cl *lightClient, genesis dcert.Hash) (fetches int, err error) {
	return dcert.BootstrapSublinearOver(c, cl, 0, genesis)
}

// bootstrapSized is bootstrap, also adding up the bytes of every segment
// fetched; handed a tamper function, it corrupts the tip segment first.
func bootstrapSized(c *conn, cl *lightClient, genesis dcert.Hash, tamper func(*segmentCert)) (fetches, bytes int, err error) {
	tip, err := dcert.RequestTipSegment(c)
	if err != nil {
		return 0, 0, err
	}
	if tip == nil {
		return 1, 0, fmt.Errorf("node has no certified segment")
	}
	if tamper != nil {
		tamper(tip)
	}
	bytes = tip.EncodedSize()
	fetches, err = cl.BootstrapSublinear(func(h uint64) (*segmentCert, error) {
		seg, err := dcert.RequestSegment(c, h)
		if err != nil {
			return nil, err
		}
		if seg == nil {
			return nil, fmt.Errorf("no segment covering height %d", h)
		}
		bytes += seg.EncodedSize()
		return seg, nil
	}, tip, 0, genesis)
	return fetches + 1, bytes, err
}

// modelFetches is the fetch count the interlink schedule predicts.
func modelFetches(chainLen uint64, k int) int {
	return dcert.ModelBootstrapFetches(chainLen, k)
}

// queryRequest is one serialisable query.
type queryRequest = dcert.QueryRequest

func stateRequest(key string) *queryRequest { return dcert.NewRemoteStateRequest(key) }
func histRequest(key string, lo, hi uint64) *queryRequest {
	return dcert.NewRemoteHistoricalRequest(histIndex, key, lo, hi)
}
func keywordRequest(a, b string) *queryRequest {
	return dcert.NewRemoteKeywordRequest(kwIndex, []string{a, b})
}

// fetchQuery sends a query and returns the result body, unverified.
func fetchQuery(c *conn, req *queryRequest) ([]byte, error) {
	resp, err := dcert.RequestQuery(c, req)
	if err != nil {
		return nil, err
	}
	return resp.Body, nil
}

// Parsed results, still unverified.
func parseState(body []byte) (*dcert.StateResult, error) {
	return dcert.ParseStateResult(&dcert.QueryResponse{Body: body})
}
func parseHist(body []byte) (*dcert.HistoricalResult, error) {
	return dcert.ParseHistoricalResult(&dcert.QueryResponse{Body: body})
}
func parseKeyword(body []byte) (*dcert.KeywordResult, error) {
	return dcert.ParseKeywordResult(&dcert.QueryResponse{Body: body})
}

func verifyState(hdr *dcert.Header, r *dcert.StateResult) error { return dcert.VerifyState(hdr, r) }
func verifyHist(root dcert.Hash, r *dcert.HistoricalResult) error {
	return dcert.VerifyHistorical(root, r)
}
func verifyKeyword(root dcert.Hash, r *dcert.KeywordResult) error {
	return dcert.VerifyKeyword(root, r)
}

// ---- layer probes ----

// layerSet is a deployment taken apart into its layers, for layers.go to
// time each from outside. Everything here is the deployment's own object or
// method; the benchmark adds nothing to them.
type layerSet struct {
	genTxs    func(n int) ([]*dcert.Transaction, error)
	miner     *node.Miner
	issuer    *dcert.Issuer
	addIssuer func() (*dcert.Issuer, error)
	indexJobs func(blk *dcert.Block, names []string) ([]*dcert.IndexJob, error)
	sp        *dcert.ServiceProvider
	fleet     *dcert.QueryFleet
	engine    *storage.Engine
	hub       dcert.Bus
	newClient func() *lightClient
	serveWire func() (*dcert.WireServer, error)
	close     func() error
}

// openLayers builds a deployment for the layer probes: the same
// configuration as a server of the workload (dataDir "" keeps it in memory),
// with the indexes when indexed is set, and no chain yet.
func openLayers(spec chainSpec, seed int64, dataDir string, indexed bool) (*layerSet, error) {
	cfg := dcert.Config{
		Workload:    dcert.KVStore,
		Contracts:   spec.Contracts,
		Accounts:    16,
		EnclaveCost: dcert.DefaultEnclaveCostModel(),
		Seed:        seed,
		KeySpace:    spec.KeySpace,
	}
	if dataDir != "" {
		cfg.Storage = &dcert.StorageConfig{Dir: dataDir, FsyncInterval: fsyncInterval}
	}
	dep, err := dcert.OpenDeployment(cfg)
	if err != nil {
		return nil, err
	}
	if indexed {
		if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) { return dcert.NewHistoricalIndex(histIndex, "ct/") }); err != nil {
			return nil, err
		}
		if _, err := dep.AddIndex(func() (*dcert.AuthIndex, error) { return dcert.NewKeywordIndex(kwIndex) }); err != nil {
			return nil, err
		}
	}
	f, err := dep.StartFleet(fleetReplicas)
	if err != nil {
		return nil, err
	}
	return &layerSet{
		genTxs:    dep.GenerateBlockTxs,
		miner:     dep.Miner(),
		issuer:    dep.Issuer(),
		addIssuer: dep.AddIssuer,
		indexJobs: dep.PrepareIndexJobs,
		sp:        dep.SP(),
		fleet:     f,
		engine:    dep.Engine(),
		hub:       dep.Net(),
		newClient: dep.NewSuperlightClient,
		serveWire: func() (*dcert.WireServer, error) {
			return dep.ServeWire(dcert.WireServerConfig{Addr: "127.0.0.1:0"})
		},
		close: dep.Close,
	}, nil
}

// newPipeline starts a certification pipeline with the servers' settings.
func newPipeline(ci *dcert.Issuer) (*dcert.Pipeline, error) {
	return dcert.NewPipeline(ci, dcert.PipelineConfig{Workers: 2})
}
