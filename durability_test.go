package dcert

import (
	"errors"
	"testing"

	"dcert/internal/chain"
	"dcert/internal/statedb"
	"dcert/internal/storage/vfs"
)

// durableTestConfig is testConfig on a data directory.
func durableTestConfig(dir string, fs vfs.FS) Config {
	cfg := testConfig(KVStore)
	cfg.Storage = &StorageConfig{Dir: dir, FS: fs}
	return cfg
}

func newDurableTestDeployment(t *testing.T, fs vfs.FS) *Deployment {
	t.Helper()
	dep, err := NewDeployment(durableTestConfig(t.TempDir(), fs))
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	t.Cleanup(func() { dep.Close() })
	return dep
}

// journalPosition is where the miner and the journal stand; the two heights
// must never differ.
type journalPosition struct {
	minerTip, minerRoot Hash
	engineTip           uint64
}

func journalPositionOf(t *testing.T, d *Deployment) journalPosition {
	t.Helper()
	root, err := d.miner.State().Root()
	if err != nil {
		t.Fatalf("miner Root: %v", err)
	}
	if mh, eh := d.miner.Tip().Header.Height, d.engine.TipHeight(); mh != eh {
		t.Fatalf("miner at height %d, journal at %d", mh, eh)
	}
	return journalPosition{d.miner.Tip().Hash(), root, d.engine.TipHeight()}
}

// TestDurableDeploymentStateTries counts the state tries a durable deployment
// with a fleet builds: one per party of the system model — miner, CI, SP —
// and the fleet's snapshot. Resuming builds one more, the throwaway node that
// derives the genesis the data directory is checked against.
func TestDurableDeploymentStateTries(t *testing.T) {
	cfg := durableTestConfig(t.TempDir(), nil)
	before := statedb.Instances()
	dep, err := NewDeployment(cfg)
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	if _, err := dep.StartFleet(2); err != nil {
		t.Fatalf("StartFleet: %v", err)
	}
	if got := statedb.Instances() - before; got != 4 {
		t.Fatalf("durable deployment + fleet built %d state tries, want 4 (miner, CI, SP, fleet snapshot)", got)
	}
	for i := 0; i < 3; i++ {
		if _, _, err := dep.MineAndCertify(4); err != nil {
			t.Fatalf("MineAndCertify: %v", err)
		}
	}
	if err := dep.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	before = statedb.Instances()
	resumed, err := ResumeDeployment(cfg)
	if err != nil {
		t.Fatalf("ResumeDeployment: %v", err)
	}
	defer resumed.Close()
	if rec := resumed.StorageRecovery(); rec.State == nil || rec.StateHeight != 3 {
		t.Fatalf("a clean close left no state image at height 3 (height %d): resume replayed", rec.StateHeight)
	}
	if _, err := resumed.StartFleet(2); err != nil {
		t.Fatalf("StartFleet: %v", err)
	}
	if got := statedb.Instances() - before; got != 5 {
		t.Fatalf("resumed deployment + fleet built %d state tries, want 5 (genesis check, miner, CI, SP, fleet snapshot)", got)
	}
}

// TestMiningPathSignaturePasses counts — not times — the signature
// verifications one block of N transactions costs on a durable deployment,
// on the sequential, the pipelined and the hierarchical path.
func TestMiningPathSignaturePasses(t *testing.T) {
	const n = 10
	// Per transaction: the miner's proposal 1, the CI's untrusted host 1, the
	// enclave 1, and the SP's ValidateBlock 2 (ExecuteBlock, then a
	// non-preverified ReplayBlock — ROADMAP item 1.3 takes this to 4). The
	// miner journals its own proposal: 0. The hierarchical path's index jobs
	// take the miner's write set too: 0 (they ran one more ValidateBlock, 2,
	// for 7 in all).
	const passes = 5

	t.Run("sequential", func(t *testing.T) {
		dep := newDurableTestDeployment(t, nil)
		before := chain.SigVerifications()
		if _, _, err := dep.MineAndCertify(n); err != nil {
			t.Fatalf("MineAndCertify: %v", err)
		}
		if got := chain.SigVerifications() - before; got != passes*n {
			t.Fatalf("%d signature verifications for %d txs, want %d (%d passes)", got, n, passes*n, passes)
		}
	})

	t.Run("pipelined", func(t *testing.T) {
		dep := newDurableTestDeployment(t, nil)
		plane, err := dep.StartCertPlane(1)
		if err != nil {
			t.Fatalf("StartCertPlane: %v", err)
		}
		defer plane.Stop()
		if err := plane.StartPipelines(PipelineConfig{Workers: 2}); err != nil {
			t.Fatalf("StartPipelines: %v", err)
		}
		before := chain.SigVerifications()
		blk, err := plane.MineAndBroadcastPipelined(n)
		if err != nil {
			t.Fatalf("MineAndBroadcastPipelined: %v", err)
		}
		if err := plane.DrainPipelines(); err != nil {
			t.Fatalf("DrainPipelines: %v", err)
		}
		if got := chain.SigVerifications() - before; got != passes*n {
			t.Fatalf("%d signature verifications for %d txs, want %d (%d passes)", got, n, passes*n, passes)
		}
		if _, ok := dep.engine.CertFor(blk.Hash()); !ok {
			t.Fatal("the pipelined block's certificate never reached the journal")
		}
	})

	t.Run("hierarchical", func(t *testing.T) {
		dep := newDurableTestDeployment(t, nil)
		if _, err := dep.AddIndex(func() (*AuthIndex, error) { return NewHistoricalIndex("hist", "ct/") }); err != nil {
			t.Fatalf("AddIndex: %v", err)
		}
		before := chain.SigVerifications()
		if _, _, _, err := dep.MineAndCertifyHierarchical(n, []string{"hist"}); err != nil {
			t.Fatalf("MineAndCertifyHierarchical: %v", err)
		}
		if got := chain.SigVerifications() - before; got != passes*n {
			t.Fatalf("%d signature verifications for %d txs, want %d (%d passes)", got, n, passes*n, passes)
		}
	})
}

// TestFailedJournalAppendRevertsMiner fails, in turn, every disk write
// mining one block performs. The block frame and the state record are written
// by the miner's journal hook, inside its proposal: their failure takes the
// miner back, so miner and journal stay where they were. The certificate
// frame is journaled when the certificate lands, after the proposal: its
// failure finds miner and journal one block on, together.
func TestFailedJournalAppendRevertsMiner(t *testing.T) {
	const healthy = 2 // blocks journaled before the fault

	// A fault-free run over the same seed counts the writes: those in
	// (first, last] belong to block healthy+1.
	probe := vfs.NewFault(vfs.OS{}, vfs.FaultPlan{})
	dep := newDurableTestDeployment(t, probe)
	var first, last uint64
	for i := 0; i <= healthy; i++ {
		first = probe.Stats().Writes
		if _, _, err := dep.MineAndCertify(4); err != nil {
			t.Fatalf("probe MineAndCertify: %v", err)
		}
		last = probe.Stats().Writes
	}
	// One more proposal with the journal hook alone counts the proposal's own
	// writes; the rest of (first, last] land the certificate.
	txs, err := dep.GenerateBlockTxs(4)
	if err != nil {
		t.Fatalf("GenerateBlockTxs: %v", err)
	}
	proposal := probe.Stats().Writes
	journal := func(blk *Block, writes map[string][]byte) error { return dep.engine.ApplyBlock(blk, nil, writes) }
	if _, _, err := dep.miner.ProposeWithWrites(txs, journal); err != nil {
		t.Fatalf("probe ProposeWithWrites: %v", err)
	}
	proposal = probe.Stats().Writes - proposal
	if proposal == 0 || proposal >= last-first {
		t.Fatalf("the proposal performed %d of the block's %d writes, want some but not all", proposal, last-first)
	}
	t.Logf("mining block %d is writes %d..%d, the first %d inside the proposal", healthy+1, first+1, last, proposal)

	for op := first + 1; op <= last; op++ {
		dir := t.TempDir()
		faulty := vfs.NewFault(vfs.OS{}, vfs.FaultPlan{FailWriteOp: op})
		dep, err := NewDeployment(durableTestConfig(dir, faulty))
		if err != nil {
			t.Fatalf("write %d: NewDeployment: %v", op, err)
		}
		for i := 0; i < healthy; i++ {
			if _, _, err := dep.MineAndCertify(4); err != nil {
				t.Fatalf("write %d: healthy block %d: %v", op, i+1, err)
			}
		}
		start := journalPositionOf(t, dep)
		if _, _, err := dep.MineAndCertify(4); !errors.Is(err, vfs.ErrInjected) {
			t.Fatalf("write %d: got %v, want the injected disk fault", op, err)
		}
		want := start
		if op > first+proposal {
			mined := dep.miner.Store().Best()
			want = journalPosition{mined.Hash(), mined.Header.StateRoot, healthy + 1}
		}
		if got := journalPositionOf(t, dep); got != want {
			t.Fatalf("write %d: after the failed append miner and journal stand at %+v, want %+v (from %+v)", op, got, want, start)
		}
		// The process dies here (no Close); the directory must reopen to a
		// gapless certified prefix and keep certifying.
		if err := faulty.PowerCut(); err != nil {
			t.Fatalf("write %d: PowerCut: %v", op, err)
		}
		resumed, err := OpenDeployment(durableTestConfig(dir, nil))
		if err != nil {
			t.Fatalf("write %d: reopen: %v", op, err)
		}
		rec := resumed.StorageRecovery()
		if tip := rec.TipHeight(); tip < healthy || tip > healthy+1 {
			t.Fatalf("write %d: recovered tip %d, want %d or %d", op, tip, healthy, healthy+1)
		}
		for h, blk := range rec.Blocks {
			if blk.Header.Height != uint64(h) {
				t.Fatalf("write %d: recovered chain has a gap at %d", op, h)
			}
		}
		client := resumed.NewSuperlightClient()
		blk, cert, err := resumed.MineAndCertify(4)
		if err != nil {
			t.Fatalf("write %d: mine after reopen: %v", op, err)
		}
		if err := client.ValidateChain(&blk.Header, cert); err != nil {
			t.Fatalf("write %d: certificate after reopen rejected: %v", op, err)
		}
		if err := resumed.Close(); err != nil {
			t.Fatalf("write %d: Close: %v", op, err)
		}
	}
}
