package dcert

import (
	"fmt"
	"sync/atomic"

	"dcert/internal/attest"
	"dcert/internal/consensus"
	"dcert/internal/core"
	"dcert/internal/network"
	"dcert/internal/node"
	"dcert/internal/obs"
	"dcert/internal/query"
	"dcert/internal/query/fleet"
	"dcert/internal/statedb"
	"dcert/internal/storage"
	"dcert/internal/vm"
	"dcert/internal/workload"
)

// Config parameterizes a simulated DCert deployment. The zero value is a
// usable KVStore deployment with light proof-of-work and no simulated
// enclave overhead.
type Config struct {
	// Workload selects the Blockbench workload (default KVStore).
	Workload Workload
	// Contracts is the number of deployed contract instances (default 500,
	// the paper's setting; tests often use fewer).
	Contracts int
	// Accounts is the sender-account pool size (default 64).
	Accounts int
	// Difficulty is the PoW difficulty in leading zero bits (default 8).
	Difficulty uint32
	// EnclaveCost configures the simulated SGX overheads (zero = none).
	EnclaveCost EnclaveCostModel
	// Seed makes the transaction stream reproducible.
	Seed int64
	// KeySpace bounds distinct user keys/accounts touched (default 100000).
	KeySpace int
	// CPUSortSize is the CPUHeavy per-tx sort size (default 1024).
	CPUSortSize int
	// IOOpsPerTx is the IOHeavy keys-per-tx count (default 16).
	IOOpsPerTx int
	// StateBackend selects the state commitment structure: statedb.BackendMPT
	// (default) or statedb.BackendSMT (the paper's Fig. 4 binary tree).
	StateBackend statedb.BackendKind
	// Storage, when non-nil, attaches a crash-safe data directory: every
	// mined block, certificate, and state write set is journaled, and
	// OpenDeployment/ResumeDeployment recover the deployment from disk
	// after a crash. Nil keeps everything in memory (tests, benchmarks).
	Storage *StorageConfig
}

func (c Config) withDefaults() Config {
	if c.Workload == 0 {
		c.Workload = KVStore
	}
	if c.Contracts == 0 {
		c.Contracts = workload.DefaultContracts
	}
	if c.Accounts == 0 {
		c.Accounts = 64
	}
	if c.Difficulty == 0 {
		c.Difficulty = 8
	}
	return c
}

// Deployment is a complete simulated DCert network: an attestation
// authority, a miner, an SGX-enabled certificate issuer, a query service
// provider, and a pub/sub fabric connecting them — the system model of
// Fig. 2.
type Deployment struct {
	cfg       Config
	authority *attest.Authority
	miner     *node.Miner
	issuer    atomic.Pointer[core.Issuer] // the primary; Restart("ci0") swaps it
	sp        *query.ServiceProvider
	net       *network.Network
	gen       *workload.Generator
	params    consensus.Params

	// Sharded serving plane, empty until StartFleet. Atomic because the
	// wire transport's RPC goroutines consult it per request.
	fleet          atomic.Pointer[fleet.Fleet]
	indexFactories []func() (*AuthIndex, error)

	// tipSeg is the newest certificate (by End) any issuer has landed, with
	// that issuer; see tipSegment.
	tipSeg atomic.Pointer[landedSeg]

	// Instrumentation plane, nil until EnableObservability.
	reg       *obs.Registry
	tracer    *obs.Tracer
	logger    *obs.Logger
	mineSteps map[string]*obs.Histogram // dcert_mine_step_seconds by step

	// Durability plane, nil unless Config.Storage is set: the crash-safe
	// engine the miner journals each proposal into (mine).
	engine *storage.Engine
}

// newRegistry builds a contract registry for the deployment's workload.
func (c Config) newRegistry() (*vm.Registry, error) {
	reg := vm.NewRegistry()
	if err := workload.Register(reg, c.Workload, c.Contracts); err != nil {
		return nil, err
	}
	return reg, nil
}

// newGenerator builds the deployment's transaction generator over a fresh
// sender-account pool.
func (c Config) newGenerator() (*workload.Generator, error) {
	accounts, err := workload.NewAccounts(c.Accounts)
	if err != nil {
		return nil, fmt.Errorf("dcert: accounts: %w", err)
	}
	gen, err := workload.NewGenerator(workload.Config{
		Kind:        c.Workload,
		Contracts:   c.Contracts,
		Seed:        c.Seed,
		KeySpace:    c.KeySpace,
		CPUSortSize: c.CPUSortSize,
		IOOpsPerTx:  c.IOOpsPerTx,
	}, accounts)
	if err != nil {
		return nil, fmt.Errorf("dcert: generator: %w", err)
	}
	return gen, nil
}

// newFullNode builds an independent full-node replica for the deployment's
// genesis and workload.
func (c Config) newFullNode(params consensus.Params) (*node.FullNode, error) {
	reg, err := c.newRegistry()
	if err != nil {
		return nil, err
	}
	genesis, db, err := node.BuildGenesis(node.GenesisConfig{Time: 1, Consensus: params, Backend: c.StateBackend})
	if err != nil {
		return nil, err
	}
	return node.NewFullNode(genesis, db, reg, params)
}

// NewDeployment assembles a deployment per the config. With Config.Storage
// set, the data directory must be empty or absent — resuming an existing one
// is OpenDeployment / ResumeDeployment's job.
func NewDeployment(cfg Config) (*Deployment, error) {
	cfg = cfg.withDefaults()
	params := consensus.Params{Difficulty: cfg.Difficulty}

	var authority *attest.Authority
	var err error
	if cfg.Storage != nil {
		if storage.HasData(cfg.Storage.FS, cfg.Storage.Dir) {
			return nil, fmt.Errorf("dcert: data directory %s already holds a chain; use OpenDeployment or ResumeDeployment", cfg.Storage.Dir)
		}
		// The trust anchor must be reconstructible after a restart, so
		// durable deployments derive it from the config seed.
		authority, err = durableAuthority(cfg)
	} else {
		authority, err = attest.NewAuthority()
	}
	if err != nil {
		return nil, fmt.Errorf("dcert: deployment: %w", err)
	}
	platform, err := authority.NewPlatform()
	if err != nil {
		return nil, fmt.Errorf("dcert: deployment: %w", err)
	}

	minerNode, err := cfg.newFullNode(params)
	if err != nil {
		return nil, fmt.Errorf("dcert: miner node: %w", err)
	}
	ciNode, err := cfg.newFullNode(params)
	if err != nil {
		return nil, fmt.Errorf("dcert: CI node: %w", err)
	}
	spNode, err := cfg.newFullNode(params)
	if err != nil {
		return nil, fmt.Errorf("dcert: SP node: %w", err)
	}

	issuer, err := core.NewIssuer(ciNode, authority, platform, cfg.EnclaveCost)
	if err != nil {
		return nil, fmt.Errorf("dcert: issuer: %w", err)
	}

	gen, err := cfg.newGenerator()
	if err != nil {
		return nil, err
	}

	d := &Deployment{
		cfg:       cfg,
		authority: authority,
		miner:     node.NewMiner(minerNode),
		sp:        query.NewServiceProvider(spNode),
		net:       network.New(),
		gen:       gen,
		params:    params,
	}
	d.issuer.Store(issuer)
	if cfg.Storage != nil {
		engine, err := storage.OpenEngine(cfg.Storage.Dir, cfg.Storage.engineOptions())
		if err != nil {
			return nil, fmt.Errorf("dcert: storage: %w", err)
		}
		if err := engine.Bootstrap(minerNode.Store().Best()); err != nil {
			engine.Close()
			return nil, fmt.Errorf("dcert: storage bootstrap: %w", err)
		}
		d.engine = engine
		for _, n := range []*node.FullNode{minerNode, ciNode, spNode} {
			d.readBodiesFromDisk(n)
		}
	}
	return d, nil
}

// readBodiesFromDisk makes a durable deployment's engine the body source of
// a node's store: the store keeps only its recent block bodies in memory
// and reads older ones back from the chain log, which holds every block the
// miner has journaled. In-memory deployments have no log, so their nodes
// keep every body.
func (d *Deployment) readBodiesFromDisk(n *node.FullNode) {
	if d.engine != nil {
		n.Store().SetBodySource(d.engine)
	}
}

// Authority returns the attestation authority (clients pin its public key).
func (d *Deployment) Authority() *attest.Authority {
	return d.authority
}

// Issuer returns the certificate issuer.
func (d *Deployment) Issuer() *Issuer {
	return d.issuer.Load()
}

// SP returns the query service provider.
func (d *Deployment) SP() *ServiceProvider {
	return d.sp
}

// Miner returns the block proposer.
func (d *Deployment) Miner() *node.Miner {
	return d.miner
}

// Net returns the simulated network fabric.
func (d *Deployment) Net() *network.Network {
	return d.net
}

// Params returns the consensus parameters.
func (d *Deployment) Params() ConsensusParams {
	return d.params
}

// NewSuperlightClient creates a client pinned to this deployment's
// attestation authority and CI enclave measurement.
func (d *Deployment) NewSuperlightClient() *SuperlightClient {
	return core.NewSuperlightClient(d.authority.PublicKey(), d.Issuer().Measurement(), d.params)
}

// NewLightClient creates a traditional light client pinned to the genesis —
// the Fig. 7 baseline.
func (d *Deployment) NewLightClient() *LightClient {
	return NewTraditionalLightClient(d.miner.Store().Genesis(), d.params)
}

// GenerateBlockTxs produces one block's worth of signed workload
// transactions.
func (d *Deployment) GenerateBlockTxs(n int) ([]*Transaction, error) {
	return d.gen.Block(n)
}

// certTarget is one issuer the mining routine certifies on, under the fabric
// identity its certificates publish as.
type certTarget struct {
	name   string
	issuer *core.Issuer
	// pipe, when set, takes the blocks by Submit instead of the issuer
	// certifying them inline; the certificate then lands from the pipeline's
	// result consumer (CertPlane.startSlotPipeline).
	pipe *core.Pipeline
}

// primary is the deployment's own issuer as a certification target.
func (d *Deployment) primary() []certTarget {
	return []certTarget{{name: "ci", issuer: d.Issuer()}}
}

// mine is the one way a block enters the deployment. It mines `blocks`
// consecutive blocks of n transactions and takes them through the ordered
// steps every public entry point shares:
//
//	gen → propose → journal      per block; the miner journals inside its
//	                              proposal, before the block becomes its tip
//	submit                        certify inline on every target (one segment
//	                              Ecall for the run; Alg. 5 over one block
//	                              with indexNames), or Submit to its pipeline
//	serve                         per block: SP + fleet feed
//	certificate lands             per inline target: TopicCerts + journal
//
// Journal comes before submit because the engine refuses a certificate for a
// block it has never seen, and a pipeline may land one at any time after
// Submit. Submit comes before serve so that pipeline verification overlaps the
// SP feed. It returns the blocks and, from the first inline target, the
// covering segment certificate and the index certificates (nil under
// pipelines and with no target at all: the blocks are still mined, journaled
// uncertified and served).
func (d *Deployment) mine(blocks, n int, indexNames []string, targets []certTarget) ([]*Block, *SegmentCert, []*Certificate, error) {
	clk := d.newMineClock()
	// Uncertified: the certificate follows through persistCert.
	journal := func(blk *Block, writes map[string][]byte) error {
		clk.step("journal")
		if d.engine == nil {
			return nil
		}
		return d.engine.ApplyBlock(blk, nil, writes)
	}
	blks := make([]*Block, 0, blocks)
	var writes map[string][]byte // the first block's, for its index jobs
	for i := 0; i < blocks; i++ {
		clk.step("gen")
		txs, err := d.gen.Block(n)
		if err != nil {
			return nil, nil, nil, err
		}
		clk.step("propose")
		blk, w, err := d.miner.ProposeWithWrites(txs, journal)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("dcert: propose: %w", err)
		}
		if i == 0 {
			writes = w
		}
		blks = append(blks, blk)
	}

	clk.step("submit")
	var jobs []*IndexJob
	if len(indexNames) > 0 {
		var err error
		if jobs, err = d.indexJobs(blks[0], writes, indexNames); err != nil {
			return nil, nil, nil, err
		}
	}
	var idxCerts []*Certificate
	segs := make([]*SegmentCert, len(targets)) // nil under a pipeline
	for i, t := range targets {
		var err error
		switch {
		case t.pipe != nil:
			for _, blk := range blks {
				if err = t.pipe.Submit(blk); err != nil {
					return nil, nil, nil, fmt.Errorf("dcert: %s submit: %w", t.name, err)
				}
			}
		case len(jobs) > 0:
			_, idxCerts, _, err = t.issuer.ProcessBlockHierarchical(blks[0], jobs)
			segs[i] = t.issuer.LatestSegment()
		default:
			segs[i], _, err = t.issuer.ProcessSegment(blks)
		}
		if err != nil {
			return nil, nil, nil, fmt.Errorf("dcert: %s certify: %w", t.name, err)
		}
	}

	clk.step("serve")
	for _, blk := range blks {
		if err := d.feedServing(blk); err != nil {
			return nil, nil, nil, fmt.Errorf("dcert: SP: %w", err)
		}
	}
	clk.stop()

	var first *SegmentCert
	for i, seg := range segs {
		if seg == nil {
			continue
		}
		if err := d.certLanded(targets[i].name, targets[i].issuer, seg); err != nil {
			return nil, nil, nil, err
		}
		if first == nil {
			first = seg
		}
	}
	return blks, first, idxCerts, nil
}

// landedSeg is a certified segment with the issuer that certified it: the
// issuer whose segment history serves the heights below it.
type landedSeg struct {
	seg    *SegmentCert
	issuer *core.Issuer
}

// tipSegment is the newest certificate the deployment serves, with its
// issuer: the newest any issuer has landed, or the primary's own when that
// is newer (a resumed deployment's recovered tip, blocks certified through
// Issuer() directly). The in-process pull (FollowCerts) and every wire
// route that reads certificates — the tip, a segment by height, a bootstrap
// path from any anchor — read it, so a killed primary freezes none of them.
// Its seg is nil before the first certificate.
func (d *Deployment) tipSegment() landedSeg {
	var tip landedSeg
	if landed := d.tipSeg.Load(); landed != nil {
		tip = *landed
	}
	primary := d.Issuer()
	if own := primary.LatestSegment(); own != nil && (tip.seg == nil || own.End() > tip.seg.End()) {
		return landedSeg{seg: own, issuer: primary}
	}
	return tip
}

// certLanded is the mining routine's last step, run wherever a certificate
// becomes available — inline after the blocks are served, or in a
// pipeline's result consumer: record it, with the issuer that certified it,
// as the tip certificate if it is the newest yet, publish it on TopicCerts
// (a CertBundle for one block, the SegmentCert for more) under the issuer's
// name and journal it once.
func (d *Deployment) certLanded(name string, issuer *core.Issuer, seg *SegmentCert) error {
	landed := &landedSeg{seg: seg, issuer: issuer}
	for cur := d.tipSeg.Load(); cur == nil || cur.seg.End() < seg.End(); cur = d.tipSeg.Load() {
		if d.tipSeg.CompareAndSwap(cur, landed) {
			break
		}
	}
	var payload any = seg
	if len(seg.Headers) == 1 {
		payload = &CertBundle{Header: seg.Headers[0], Cert: seg.Cert}
	}
	err := d.net.Publish(TopicCerts, name, payload)
	if perr := d.persistCert(seg); perr != nil && err == nil {
		err = perr
	}
	return err
}

// MineAndCertify generates a block of n transactions, mines it, runs the CI
// certification (Alg. 1), feeds the SP, and publishes its CertBundle on the
// network. It returns the block and its certificate.
func (d *Deployment) MineAndCertify(n int) (*Block, *Certificate, error) {
	blks, seg, _, err := d.mine(1, n, nil, d.primary())
	if err != nil {
		return nil, nil, err
	}
	return blks[0], seg.Cert, nil
}

// MineAndCertifySegment mines `blocks` consecutive blocks of n transactions
// each and certifies them with ONE segment Ecall (core.Issuer.ProcessSegment)
// — the amortized counterpart of calling MineAndCertify in a loop. Every
// block feeds the SP; the segment certificate publishes once on TopicCerts
// and journals once, against the last block.
func (d *Deployment) MineAndCertifySegment(blocks, n int) ([]*Block, *SegmentCert, error) {
	if blocks < 1 {
		return nil, nil, fmt.Errorf("dcert: segment needs at least 1 block, got %d", blocks)
	}
	blks, seg, _, err := d.mine(blocks, n, nil, d.primary())
	return blks, seg, err
}

// AddIndex registers a two-level authenticated index with both the SP (real
// maintenance) and the CI's trusted program (certification logic). Call it
// before mining the blocks the index should cover.
func (d *Deployment) AddIndex(mk func() (*AuthIndex, error)) (*AuthIndex, error) {
	spIdx, err := mk()
	if err != nil {
		return nil, err
	}
	ciIdx, err := mk()
	if err != nil {
		return nil, err
	}
	if err := d.sp.AddIndex(spIdx); err != nil {
		return nil, err
	}
	if err := d.Issuer().Program().RegisterUpdater(ciIdx); err != nil {
		return nil, err
	}
	// Record the factory so StartFleet can equip the fleet's snapshot with
	// its own copy of the index.
	d.indexFactories = append(d.indexFactories, mk)
	return spIdx, nil
}

// MineAndCertifyHierarchical is MineAndCertify for deployments with
// authenticated indexes: the CI runs the hierarchical scheme (Alg. 5),
// producing the block certificate plus one index certificate per registered
// index (jobs prepared from the SP's replicas).
func (d *Deployment) MineAndCertifyHierarchical(n int, indexNames []string) (*Block, *Certificate, []*Certificate, error) {
	blks, seg, idxCerts, err := d.mine(1, n, indexNames, d.primary())
	if err != nil {
		return nil, nil, nil, err
	}
	return blks[0], seg.Cert, idxCerts, nil
}

// PrepareIndexJobs builds the per-index certification inputs from the SP's
// pre-block index state, validating blk against the SP for its write set.
func (d *Deployment) PrepareIndexJobs(blk *Block, indexNames []string) ([]*IndexJob, error) {
	writes, err := d.sp.Node().ValidateBlock(blk)
	if err != nil {
		return nil, fmt.Errorf("dcert: validate for index jobs: %w", err)
	}
	return d.indexJobs(blk, writes, indexNames)
}

// indexJobs is PrepareIndexJobs for a block whose write set is known.
func (d *Deployment) indexJobs(blk *Block, writes map[string][]byte, indexNames []string) ([]*IndexJob, error) {
	jobs := make([]*IndexJob, 0, len(indexNames))
	for _, name := range indexNames {
		ix, err := d.sp.Index(name)
		if err != nil {
			return nil, err
		}
		prevRoot, err := ix.Root()
		if err != nil {
			return nil, err
		}
		witness, err := ix.UpdateWitness(blk, writes)
		if err != nil {
			return nil, err
		}
		newRoot, err := ix.Replay(prevRoot, witness, blk, writes)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, &IndexJob{Updater: name, NewRoot: newRoot, Witness: witness})
	}
	return jobs, nil
}

// NewTraditionalLightClient creates the linear-cost baseline client.
func NewTraditionalLightClient(genesis Hash, params ConsensusParams) *LightClient {
	return newLightClient(genesis, params)
}

// AddIssuer provisions an additional certificate issuer on the same chain
// and attestation authority — the multi-CI setting of §4.3, where a
// superlight client may switch certification services and must check the new
// CI's attestation report once. The new CI runs the same trusted program
// (same measurement) in its own enclave with its own sealed key, and builds
// its own recursive certificate chain from genesis.
//
// Feed it blocks with Issuer.ProcessBlock; MineAndCertify only drives the
// deployment's primary issuer.
func (d *Deployment) AddIssuer() (*Issuer, error) {
	platform, err := d.authority.NewPlatform()
	if err != nil {
		return nil, fmt.Errorf("dcert: add issuer: %w", err)
	}
	n, err := d.cfg.newFullNode(d.params)
	if err != nil {
		return nil, fmt.Errorf("dcert: add issuer node: %w", err)
	}
	d.readBodiesFromDisk(n)
	issuer, err := core.NewIssuer(n, d.authority, platform, d.cfg.EnclaveCost)
	if err != nil {
		return nil, fmt.Errorf("dcert: add issuer: %w", err)
	}
	return issuer, nil
}
