package dcert

import (
	"encoding/binary"
	"fmt"
	"time"

	"dcert/internal/attest"
	"dcert/internal/consensus"
	"dcert/internal/core"
	"dcert/internal/network"
	"dcert/internal/node"
	"dcert/internal/query"
	"dcert/internal/storage"
	"dcert/internal/storage/vfs"
	"dcert/internal/workload"
)

// The durability plane: a deployment configured with Storage journals every
// mined block, certificate, and state write set through the crash-safe
// engine in internal/storage. Killing the process (or pulling the plug —
// chaos plans inject disk faults under the vfs seam) and reopening the same
// data directory resumes the deployment at its certified tip: the miner, CI
// and SP rebuild from disk, and a fresh enclave resumes the certificate
// recursion from the tip certificate on the chain log, exactly as §4.3's
// re-certification argument requires — without re-signing any height at or
// below that tip.

// StorageConfig attaches a durable data directory to a deployment.
type StorageConfig struct {
	// Dir is the data directory (created if missing).
	Dir string
	// FsyncInterval batches log fsyncs (group commit). Zero syncs every
	// append: each block is durable before mining continues.
	FsyncInterval time.Duration
	// SegmentBytes rotates chain-log segments (default 64 MiB).
	SegmentBytes int64
	// SnapshotEvery writes a state snapshot every N certified blocks
	// (default 4096).
	SnapshotEvery uint64
	// FS overrides the file system — the disk fault-injection seam. Nil
	// means the real OS.
	FS vfs.FS
}

func (s *StorageConfig) engineOptions() storage.Options {
	return storage.Options{
		FS:            s.FS,
		FsyncInterval: s.FsyncInterval,
		SegmentBytes:  s.SegmentBytes,
		SnapshotEvery: s.SnapshotEvery,
	}
}

// storageSeed derives the deterministic trust-anchor seed for a durable
// deployment: the same Config must rebuild the same attestation authority
// after a restart, or persisted certificates could never re-verify.
func storageSeed(cfg Config) []byte {
	seed := make([]byte, 8)
	binary.BigEndian.PutUint64(seed, uint64(cfg.Seed))
	return append([]byte("dcert/storage/"), seed...)
}

// durableAuthority builds the attestation authority for a durable
// deployment (deterministic from the config seed).
func durableAuthority(cfg Config) (*attest.Authority, error) {
	return attest.NewAuthorityFromSeed(storageSeed(cfg))
}

// OpenDeployment creates a deployment on an empty data directory, or
// resumes one from disk when the directory already holds a chain. This is
// what dcert-node uses for kill/restart cycles.
func OpenDeployment(cfg Config) (*Deployment, error) {
	if cfg.Storage != nil && storage.HasData(cfg.Storage.FS, cfg.Storage.Dir) {
		return ResumeDeployment(cfg)
	}
	return NewDeployment(cfg)
}

// ResumeDeployment reopens a durable deployment from its data directory:
// recovery truncates any torn log tail, reconstructs the certified prefix,
// rebuilds the miner, CI and SP at the recovered tip (fast-path from the
// state snapshot+WAL image, transaction replay when that image does not
// reproduce the tip header's state root), and resumes the certificate issuer
// from the chain log's tip certificate.
func ResumeDeployment(cfg Config) (*Deployment, error) {
	cfg = cfg.withDefaults()
	if cfg.Storage == nil {
		return nil, fmt.Errorf("dcert: resume needs Config.Storage")
	}
	params := consensus.Params{Difficulty: cfg.Difficulty}

	authority, err := durableAuthority(cfg)
	if err != nil {
		return nil, fmt.Errorf("dcert: resume: %w", err)
	}
	platform, err := authority.NewPlatform()
	if err != nil {
		return nil, fmt.Errorf("dcert: resume: %w", err)
	}

	engine, err := storage.OpenEngine(cfg.Storage.Dir, cfg.Storage.engineOptions())
	if err != nil {
		return nil, fmt.Errorf("dcert: resume: %w", err)
	}
	fail := func(e error) (*Deployment, error) {
		engine.Close()
		return nil, e
	}

	// The genesis is deterministic from the config; recovery verifies the
	// data directory actually belongs to it.
	scratch, err := cfg.newFullNode(params)
	if err != nil {
		return fail(fmt.Errorf("dcert: resume genesis: %w", err))
	}
	genesis := scratch.Store().Best()
	if err := engine.Bootstrap(genesis); err != nil {
		return fail(fmt.Errorf("dcert: resume: %w", err))
	}

	resumeNode := func(restore bool) (*node.FullNode, error) {
		reg, err := cfg.newRegistry()
		if err != nil {
			return nil, err
		}
		return engine.ResumeNode(storage.ResumeConfig{
			Backend:  cfg.StateBackend,
			Registry: reg,
			Params:   params,
			Restore:  restore,
		})
	}
	// The miner, which journals from here on, resumes first with Restore on:
	// if the state image did not survive, its replay re-journals every write
	// set.
	minerNode, err := resumeNode(true)
	if err != nil {
		return fail(fmt.Errorf("dcert: resume miner: %w", err))
	}
	ciNode, err := resumeNode(false)
	if err != nil {
		return fail(fmt.Errorf("dcert: resume CI node: %w", err))
	}
	spNode, err := resumeNode(false)
	if err != nil {
		return fail(fmt.Errorf("dcert: resume SP node: %w", err))
	}

	// A fresh enclave (fresh sealed key, same measurement) adopts the tip
	// certificate on the chain log: certificate verification is
	// measurement-based, so the recursion continues across the restart
	// without double-signing any certified height. Recovery keeps only a
	// certified prefix, so the tip has a certificate unless it is genesis.
	tipCert, _ := engine.CertFor(ciNode.Tip().Hash())
	issuer, err := core.ResumeIssuer(ciNode, authority, platform, cfg.EnclaveCost, tipCert)
	if err != nil {
		return fail(fmt.Errorf("dcert: resume issuer: %w", err))
	}

	accounts, err := workload.NewAccounts(cfg.Accounts)
	if err != nil {
		return fail(fmt.Errorf("dcert: accounts: %w", err))
	}
	gen, err := workload.NewGenerator(workload.Config{
		Kind:        cfg.Workload,
		Contracts:   cfg.Contracts,
		Seed:        cfg.Seed,
		KeySpace:    cfg.KeySpace,
		CPUSortSize: cfg.CPUSortSize,
		IOOpsPerTx:  cfg.IOOpsPerTx,
	}, accounts)
	if err != nil {
		return fail(fmt.Errorf("dcert: generator: %w", err))
	}

	return &Deployment{
		cfg:       cfg,
		authority: authority,
		miner:     node.NewMiner(minerNode),
		issuer:    issuer,
		sp:        query.NewServiceProvider(spNode),
		net:       network.New(),
		gen:       gen,
		params:    params,
		engine:    engine,
	}, nil
}

// StorageRecovery reports what the durability engine reconstructed at open
// (nil for in-memory deployments).
func (d *Deployment) StorageRecovery() *storage.Recovery {
	if d.engine == nil {
		return nil
	}
	return d.engine.Recovery()
}

// Engine exposes the durability engine (nil for in-memory deployments).
func (d *Deployment) Engine() *storage.Engine {
	return d.engine
}

// Close releases the deployment's durable resources: the engine syncs,
// snapshots, and closes, so the next open takes the fast path. In-memory
// deployments close trivially.
func (d *Deployment) Close() error {
	if d.engine == nil {
		return nil
	}
	err := d.engine.Close()
	d.engine = nil
	return err
}

// persistCert journals the certificate of an already journaled block (the
// mining routine's last step, issuer catch-up).
func (d *Deployment) persistCert(blockHash Hash, cert *Certificate) error {
	if d.engine == nil {
		return nil
	}
	return d.engine.ApplyCert(blockHash, cert)
}
