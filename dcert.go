// Package dcert is the public API of the DCert decentralized certification
// framework (Ji, Xu, Zhang, Xu — ACM/IFIP Middleware 2022): secure,
// efficient, and versatile blockchain light clients backed by trusted
// hardware.
//
// DCert lets a superlight client validate an entire blockchain — and run
// rich verifiable queries over its history — while storing only the latest
// block header and one certificate (~3 KB), with constant validation time.
// An SGX-enabled full node (the certificate issuer, CI) recursively
// certifies every block inside an enclave: the enclave verifies the previous
// block's certificate, replays the new block's state transition against
// Merkle proofs, and signs the new header with an enclave-sealed key whose
// public half is bound to the enclave measurement by a remote-attestation
// report.
//
// # Package layout
//
// This package re-exports the user-facing types from the internal packages
// and adds a Deployment helper that assembles a complete simulated DCert
// network (miner, CI with enclave, service provider, attestation authority):
//
//   - Issuer (CI), SuperlightClient, Certificate — the certification core;
//   - ServiceProvider, TwoLevel indexes, query proofs — verifiable queries;
//   - LightClient — the traditional baseline;
//   - Deployment — one-call setup for examples, tests, and benchmarks.
//
// # Quick start
//
//	dep, err := dcert.NewDeployment(dcert.Config{Workload: dcert.KVStore})
//	...
//	client := dep.NewSuperlightClient()
//	blk, cert, err := dep.MineAndCertify(200) // 200-tx block
//	err = client.ValidateChain(&blk.Header, cert)
//
// See examples/ for complete programs, and DESIGN.md for the system
// inventory and the mapping to the paper's algorithms and figures.
package dcert

import (
	"dcert/internal/attest"
	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/consensus"
	"dcert/internal/core"
	"dcert/internal/enclave"
	"dcert/internal/lightclient"
	"dcert/internal/mbtree"
	"dcert/internal/network"
	"dcert/internal/query"
	"dcert/internal/statedb"
	"dcert/internal/workload"
)

// Core certification types (package internal/core).
type (
	// Certificate is the DCert certificate ⟨pk_enc, rep, dig, sig⟩.
	Certificate = core.Certificate
	// Issuer is the SGX-enabled certificate issuer (CI).
	Issuer = core.Issuer
	// SuperlightClient validates the chain at constant cost (Alg. 3).
	SuperlightClient = core.SuperlightClient
	// IndexJob is the CI-side input for certifying one index over one block.
	IndexJob = core.IndexJob
	// IndexUpdater is the trusted index-update logic interface.
	IndexUpdater = core.IndexUpdater
	// CostBreakdown decomposes certificate-construction time (Fig. 8).
	CostBreakdown = core.CostBreakdown
	// Pipeline is the pipelined certification engine over one issuer.
	Pipeline = core.Pipeline
	// PipelineConfig tunes a certification pipeline.
	PipelineConfig = core.PipelineConfig
	// PipelineResult is one block's outcome from a pipeline.
	PipelineResult = core.PipelineResult
	// PipelineStats reports per-stage busy time and wall clock.
	PipelineStats = core.PipelineStats
	// SegmentCert is a certified K-block segment with its interlink.
	SegmentCert = core.SegmentCert
	// SegmentPolicy tunes the pipeline's adaptive segment batching
	// (PipelineConfig.Segment).
	SegmentPolicy = core.SegmentPolicy
	// SegmentFetcher retrieves the certified segment covering a height for
	// BootstrapSublinear.
	SegmentFetcher = core.SegmentFetcher
)

// SegmentDigest returns the certified digest of a header run (for one header
// it equals BlockDigest — the K=1 byte identity).
func SegmentDigest(headers []*Header) Hash {
	return core.SegmentDigest(headers)
}

// ModelBootstrapFetches predicts the bootstrap's fetch count beyond the tip
// from the genesis anchor for a chain certified in fixed-size segments: 0 at
// every chain length, as the measurement binds genesis.
func ModelBootstrapFetches(chainLen uint64, segBlocks int) int {
	return core.ModelBootstrapFetches(chainLen, segBlocks)
}

// NewPipeline starts a certification pipeline on an issuer.
func NewPipeline(ci *Issuer, cfg PipelineConfig) (*Pipeline, error) {
	return core.NewPipeline(ci, cfg)
}

// Chain substrate types (package internal/chain).
type (
	// Block is a blockchain block.
	Block = chain.Block
	// Header is a block header (Fig. 1).
	Header = chain.Header
	// Transaction is a signed contract invocation.
	Transaction = chain.Transaction
	// Address is an account address.
	Address = chain.Address
)

// Verifiable-query types (package internal/query).
type (
	// ServiceProvider maintains authenticated indexes and answers queries.
	ServiceProvider = query.ServiceProvider
	// AuthIndex is the two-level authenticated index of Fig. 5.
	AuthIndex = query.TwoLevel
	// HistoricalResult is a historical range-query answer with proof.
	HistoricalResult = query.HistoricalResult
	// KeywordResult is a conjunctive keyword-query answer with proofs.
	KeywordResult = query.KeywordResult
	// RangeProof is a two-level range-query integrity proof.
	RangeProof = query.RangeProof
	// Entry is a versioned index entry.
	Entry = mbtree.Entry
	// Posting is one keyword-index hit.
	Posting = query.Posting
)

// Trusted-hardware simulation types.
type (
	// EnclaveCostModel parameterizes the simulated SGX overheads.
	EnclaveCostModel = enclave.CostModel
	// AttestationAuthority simulates the Intel Attestation Service.
	AttestationAuthority = attest.Authority
	// AttestationReport is an IAS attestation report.
	AttestationReport = attest.Report
)

// LightClient is the traditional light client baseline (linear cost).
type LightClient = lightclient.Client

// Hash is the digest type used throughout DCert.
type Hash = chash.Hash

// Workload identifies a Blockbench benchmark workload.
type Workload = workload.Kind

// Blockbench workloads (the paper's evaluation suite).
const (
	// DoNothing is the DN micro-benchmark.
	DoNothing = workload.DoNothing
	// CPUHeavy is the CPU micro-benchmark.
	CPUHeavy = workload.CPUHeavy
	// IOHeavy is the IO micro-benchmark.
	IOHeavy = workload.IOHeavy
	// KVStore is the KV macro-benchmark.
	KVStore = workload.KVStore
	// SmallBank is the SB macro-benchmark.
	SmallBank = workload.SmallBank
)

// DefaultEnclaveCostModel returns SGX overheads calibrated to published
// measurements (used by the paper-reproduction benchmarks).
func DefaultEnclaveCostModel() EnclaveCostModel {
	return enclave.DefaultCostModel()
}

// NewHistoricalIndex builds a historical-account index over state keys with
// the given prefix (Fig. 5, left).
func NewHistoricalIndex(name, prefix string) (*AuthIndex, error) {
	return query.NewHistoricalIndex(name, prefix)
}

// NewKeywordIndex builds an inverted keyword index over transactions
// (Fig. 5, right).
func NewKeywordIndex(name string) (*AuthIndex, error) {
	return query.NewKeywordIndex(name)
}

// VerifyHistorical validates a historical query result against a certified
// index root (client side).
func VerifyHistorical(indexRoot Hash, res *HistoricalResult) error {
	return query.VerifyHistorical(indexRoot, res)
}

// VerifyKeyword validates a conjunctive keyword query result against a
// certified index root (client side).
func VerifyKeyword(indexRoot Hash, res *KeywordResult) error {
	return query.VerifyKeyword(indexRoot, res)
}

// TopicCerts is the fabric's one topic: the certificate stream (a
// CertBundle per certified block, a SegmentCert per multi-block segment).
const TopicCerts = network.TopicCerts

// Fault injection (package internal/network): deterministic adversarial
// delivery for chaos testing — install a plan with Deployment.Net().SetFaults.
type (
	// FaultPlan is a seeded set of delivery-perturbation rules.
	FaultPlan = network.FaultPlan
	// FaultRule perturbs messages matching a topic/publisher pattern.
	FaultRule = network.FaultRule
)

// ConsensusParams configures the substrate's proof-of-work.
type ConsensusParams = consensus.Params

// newLightClient constructs the baseline light client (indirection keeps the
// lightclient package out of the deployment file's imports).
func newLightClient(genesis Hash, params ConsensusParams) *LightClient {
	return lightclient.New(genesis, params)
}

// BlockDigest returns the certified digest of a block header (dig = H(hdr)).
func BlockDigest(hdr *Header) Hash {
	return core.BlockDigest(hdr)
}

// IndexDigest returns the certified digest of an index certificate
// (dig = H(hdr ‖ indexRoot)).
func IndexDigest(hdr *Header, indexRoot Hash) Hash {
	return core.IndexDigest(hdr, indexRoot)
}

// Aggregation queries (extension per §5.1: any authenticated query type).
type (
	// AggregateOp selects an aggregation operator.
	AggregateOp = query.AggregateOp
	// AggregateResult is a verified aggregation answer.
	AggregateResult = query.AggregateResult
)

// Aggregation operators.
const (
	// AggCount counts versions in the window.
	AggCount = query.AggCount
	// AggSum sums uint64-encoded values.
	AggSum = query.AggSum
	// AggMin takes the minimum value.
	AggMin = query.AggMin
	// AggMax takes the maximum value.
	AggMax = query.AggMax
)

// VerifyAggregate validates an aggregation result against a certified index
// root (client side).
func VerifyAggregate(indexRoot Hash, res *AggregateResult) error {
	return query.VerifyAggregate(indexRoot, res)
}

// Direct verifiable reads against a certified header (§1: light clients
// verify specific transaction/state data retrieved from full nodes).
type (
	// StateResult is a proven state read.
	StateResult = query.StateResult
	// TxResult is a proven transaction inclusion.
	TxResult = query.TxResult
	// BatchStateResult is a proven multi-key state read: one merged
	// multiproof covers every key.
	BatchStateResult = query.BatchStateResult
)

// VerifyState validates a direct state read against a certified header's
// state root.
func VerifyState(hdr *Header, res *StateResult) error {
	return query.VerifyState(hdr, res)
}

// VerifyBatchState validates a multi-key state read against a certified
// header's state root: every key replays through the one merged witness.
func VerifyBatchState(hdr *Header, res *BatchStateResult) error {
	return query.VerifyBatchState(hdr, res)
}

// VerifyTx validates a transaction-inclusion claim against a certified
// header's transaction root.
func VerifyTx(hdr *Header, res *TxResult) error {
	return query.VerifyTx(hdr, res)
}

// State commitment backends (Config.StateBackend).
const (
	// StateBackendMPT is the Merkle Patricia Trie state (default).
	StateBackendMPT = statedb.BackendMPT
	// StateBackendSMT is the Fig. 4 sparse-Merkle-tree state.
	StateBackendSMT = statedb.BackendSMT
)
