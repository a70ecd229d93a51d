package dcert

import (
	"errors"
	"strings"
	"testing"

	"dcert/internal/chain"
	"dcert/internal/node"
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

// journalPosition is where the persistence replica and the journal stand;
// the two heights must never differ.
type journalPosition struct {
	replicaTip, replicaRoot Hash
	engineTip               uint64
}

func journalPositionOf(t *testing.T, d *Deployment) journalPosition {
	t.Helper()
	root, err := d.persist.State().Root()
	if err != nil {
		t.Fatalf("persist Root: %v", err)
	}
	if rh, eh := d.persist.Tip().Header.Height, d.engine.TipHeight(); rh != eh {
		t.Fatalf("persistence replica at height %d, journal at %d", rh, eh)
	}
	return journalPosition{d.persist.Tip().Hash(), root, d.engine.TipHeight()}
}

// TestMiningPathSignaturePasses counts — not times — the signature
// verifications one block of N transactions costs on a durable deployment,
// on the sequential and on the pipelined path.
func TestMiningPathSignaturePasses(t *testing.T) {
	const n = 10
	// Per transaction: the miner's proposal 1, the CI's untrusted host 1, the
	// enclave 1, and the SP's ValidateBlock 2 (ExecuteBlock, then a
	// non-preverified ReplayBlock — ROADMAP item 3, ingest follow-up 1, which
	// takes this to 4). The journal replica adopts the miner's write set: 0.
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
}

// TestPersistBlockRefusesWrongWriteSets hands persistBlock write sets that
// are not the block's: each is refused with replica and journal unmoved, and
// the honest one is then accepted.
func TestPersistBlockRefusesWrongWriteSets(t *testing.T) {
	dep := newDurableTestDeployment(t, nil)
	mine := func() (*Block, map[string][]byte) {
		t.Helper()
		txs, err := dep.GenerateBlockTxs(6)
		if err != nil {
			t.Fatalf("GenerateBlockTxs: %v", err)
		}
		blk, writes, err := dep.miner.ProposeWithWrites(txs)
		if err != nil {
			t.Fatalf("ProposeWithWrites: %v", err)
		}
		return blk, writes
	}
	blk1, writes1 := mine()
	if err := dep.persistBlock(blk1, writes1); err != nil {
		t.Fatalf("persistBlock height 1: %v", err)
	}
	blk2, writes2 := mine()

	// An account nonce changes in every block that carries a transaction of
	// the account, so altering or dropping its write always changes the root.
	victim := ""
	for k := range writes2 {
		if strings.HasPrefix(k, "sys/nonce/") && (victim == "" || k < victim) {
			victim = k
		}
	}
	if victim == "" {
		t.Fatal("block 2 bumps no nonce")
	}
	tampered := make(map[string][]byte, len(writes2))
	incomplete := make(map[string][]byte, len(writes2))
	for k, v := range writes2 {
		tampered[k] = v
		if k != victim {
			incomplete[k] = v
		}
	}
	tampered[victim] = append([]byte{0xff}, writes2[victim]...)

	start := journalPositionOf(t, dep)
	for name, writes := range map[string]map[string][]byte{
		"tampered":     tampered,
		"incomplete":   incomplete,
		"wrong height": writes1,
	} {
		if err := dep.persistBlock(blk2, writes); !errors.Is(err, node.ErrStateMismatch) {
			t.Fatalf("%s write set: got %v, want ErrStateMismatch", name, err)
		}
		if got := journalPositionOf(t, dep); got != start {
			t.Fatalf("%s write set moved the replica or the journal: %+v → %+v", name, start, got)
		}
	}
	// A block that does not extend the replica's tip is refused whatever it
	// comes with.
	if err := dep.persistBlock(blk1, writes1); !errors.Is(err, node.ErrNotNextBlock) {
		t.Fatalf("re-persisting height 1: got %v, want ErrNotNextBlock", err)
	}

	if err := dep.persistBlock(blk2, writes2); err != nil {
		t.Fatalf("honest write set refused: %v", err)
	}
	if got := journalPositionOf(t, dep); got.engineTip != 2 || got.replicaRoot != blk2.Header.StateRoot {
		t.Fatalf("after the honest write set: %+v, want height 2 at the header's root", got)
	}
}

// TestFailedJournalAppendRevertsReplica fails, in turn, every disk write
// mining one block performs. The replica used to commit and link the block
// before the engine appended it, so a failed append left it one height ahead
// of the journal for good; now the append runs inside the adoption and its
// failure takes the replica back. The certificate frame is journaled when the
// certificate lands, after the adoption: its failure finds replica and
// journal one block on, together.
func TestFailedJournalAppendRevertsReplica(t *testing.T) {
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
	// One more block through the journal step alone counts the adoption's own
	// writes; the rest of (first, last] land the certificate.
	txs, err := dep.GenerateBlockTxs(4)
	if err != nil {
		t.Fatalf("GenerateBlockTxs: %v", err)
	}
	blk, writes, err := dep.miner.ProposeWithWrites(txs)
	if err != nil {
		t.Fatalf("ProposeWithWrites: %v", err)
	}
	adoption := probe.Stats().Writes
	if err := dep.persistBlock(blk, writes); err != nil {
		t.Fatalf("probe persistBlock: %v", err)
	}
	adoption = probe.Stats().Writes - adoption
	if adoption == 0 || adoption >= last-first {
		t.Fatalf("adoption performed %d of the block's %d writes, want some but not all", adoption, last-first)
	}
	t.Logf("mining block %d is writes %d..%d, the first %d inside the adoption", healthy+1, first+1, last, adoption)

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
		if op > first+adoption {
			mined := dep.miner.Store().Best()
			want = journalPosition{mined.Hash(), mined.Header.StateRoot, healthy + 1}
		}
		if got := journalPositionOf(t, dep); got != want {
			t.Fatalf("write %d: after the failed append replica and journal stand at %+v, want %+v (from %+v)", op, got, want, start)
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
