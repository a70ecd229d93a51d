package dcert

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"dcert/internal/chain"
)

// A durable node keeps block bodies in memory for the last chain.BodyWindow
// heights only; older bodies are read back from the engine's chain log and
// checked on the way. These tests pin both halves: the old bodies really
// leave the heap, and every reader of an old body still gets it, checked.

// pastWindow is how many blocks a test mines to push block 1 out of every
// store's body window.
const pastWindow = chain.BodyWindow + 16

// mineBlocks mines n blocks of txs transactions through MineAndCertify.
func mineBlocks(t *testing.T, d *Deployment, n, txs int) []*Block {
	t.Helper()
	var out []*Block
	for i := 0; i < n; i++ {
		blk, _, err := d.MineAndCertify(txs)
		if err != nil {
			t.Fatalf("MineAndCertify: %v", err)
		}
		out = append(out, blk)
	}
	return out
}

// TestDurableNodeFreesOldBodies: once block 1 is pastWindow blocks deep,
// nothing in a durable deployment — four node stores, the issuer's segment
// history, the fleet, the pipelines — keeps its transactions alive.
func TestDurableNodeFreesOldBodies(t *testing.T) {
	dep := newDurableTestDeployment(t, nil)
	plane, err := dep.StartCertPlane(1)
	if err != nil {
		t.Fatalf("StartCertPlane: %v", err)
	}
	defer plane.Stop()
	if _, err := dep.StartFleet(2); err != nil {
		t.Fatalf("StartFleet: %v", err)
	}
	if err := plane.StartPipelines(PipelineConfig{Workers: 2}); err != nil {
		t.Fatalf("StartPipelines: %v", err)
	}
	freed := make(chan struct{})
	func() {
		blk, err := plane.MineAndBroadcastPipelined(4)
		if err != nil {
			t.Fatalf("block 1: %v", err)
		}
		runtime.SetFinalizer(blk.Txs[0], func(*Transaction) { close(freed) })
	}()
	for i := 0; i < pastWindow; i++ {
		if _, err := plane.MineAndBroadcastPipelined(4); err != nil {
			t.Fatalf("block %d: %v", i+2, err)
		}
	}
	if err := plane.DrainPipelines(); err != nil {
		t.Fatalf("DrainPipelines: %v", err)
	}
	deadline := time.After(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			// The body is gone from the heap but not from the node.
			if _, err := dep.SP().TxQuery(mustHashAt(t, dep, 1), 0); err != nil {
				t.Fatalf("TxQuery on a freed body: %v", err)
			}
			return
		case <-deadline:
			t.Fatalf("block 1's transactions are still reachable %d blocks later", pastWindow)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestInMemoryNodeKeepsBodies: without a chain log there is nowhere to read
// a body back from, so an in-memory deployment keeps every one.
func TestInMemoryNodeKeepsBodies(t *testing.T) {
	dep := newTestDeployment(t, KVStore)
	blks := mineBlocks(t, dep, pastWindow+1, 3)
	res, err := dep.SP().TxQuery(blks[0].Hash(), 2)
	if err != nil {
		t.Fatalf("TxQuery on block 1: %v", err)
	}
	if err := VerifyTx(&blks[0].Header, res); err != nil {
		t.Fatalf("VerifyTx: %v", err)
	}
}

func mustHashAt(t *testing.T, d *Deployment, height uint64) Hash {
	t.Helper()
	h, err := d.SP().Node().Store().HashAt(height)
	if err != nil {
		t.Fatalf("HashAt(%d): %v", height, err)
	}
	return h
}

// TestDurableReadBackServesOldBodies drives every reader of an old body on
// a durable deployment pastWindow blocks deep: a proven transaction read, the
// wire block route, an issuer's catch-up after a crash, and a cold restart
// that replays the chain from disk.
func TestDurableReadBackServesOldBodies(t *testing.T) {
	dir := t.TempDir()
	dep, err := NewDeployment(durableTestConfig(dir, nil))
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	defer func() { dep.Close() }()
	blks := mineBlocks(t, dep, pastWindow, 3)
	first := blks[0]

	res, err := dep.SP().TxQuery(first.Hash(), 1)
	if err != nil {
		t.Fatalf("TxQuery on block 1: %v", err)
	}
	if err := VerifyTx(&first.Header, res); err != nil {
		t.Fatalf("VerifyTx: %v", err)
	}

	srv, err := dep.ServeWire(WireServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	defer srv.Close()
	wc, err := DialWire(srv.Addr(), WireClientConfig{Name: "reader"})
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	defer wc.Close()
	got, err := RequestBlock(wc, 1)
	if err != nil {
		t.Fatalf("RequestBlock(1): %v", err)
	}
	if !bytes.Equal(got.Marshal(), first.Marshal()) {
		t.Fatal("wire block route served another block at height 1")
	}

	// An issuer down for more than a window catches up from the log.
	plane, err := dep.StartCertPlane(2)
	if err != nil {
		t.Fatalf("StartCertPlane: %v", err)
	}
	defer plane.Stop()
	if err := plane.Kill("ci1"); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	for i := 0; i < chain.BodyWindow+4; i++ {
		if _, err := plane.MineAndBroadcast(2); err != nil {
			t.Fatalf("MineAndBroadcast: %v", err)
		}
	}
	if err := plane.Restart("ci1"); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	ci1, err := plane.Issuer("ci1")
	if err != nil {
		t.Fatalf("Issuer(ci1): %v", err)
	}
	tip := dep.Miner().Tip()
	seg := ci1.LatestSegment()
	if seg == nil || seg.End() != tip.Header.Height {
		t.Fatal("restarted issuer did not certify up to the tip")
	}
	if err := dep.NewSuperlightClient().ValidateSegment(seg); err != nil {
		t.Fatalf("restarted issuer's segment: %v", err)
	}
	plane.Stop()
	srv.Close()
	if err := dep.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Without a state image the restart replays every block from the log.
	if err := os.RemoveAll(filepath.Join(dir, "state")); err != nil {
		t.Fatalf("drop state image: %v", err)
	}
	dep, err = OpenDeployment(durableTestConfig(dir, nil))
	if err != nil {
		t.Fatalf("OpenDeployment: %v", err)
	}
	if rec := dep.StorageRecovery(); rec.State != nil || rec.TipHeight() != tip.Header.Height {
		t.Fatalf("reopen: tip %d, image %v; want a replay to %d", rec.TipHeight(), rec.State != nil, tip.Header.Height)
	}
	if dep.SP().Node().Tip().Hash() != tip.Hash() {
		t.Fatal("replayed SP stands at another tip")
	}
	res, err = dep.SP().TxQuery(first.Hash(), 0)
	if err != nil {
		t.Fatalf("TxQuery after replay: %v", err)
	}
	if err := VerifyTx(&first.Header, res); err != nil {
		t.Fatalf("VerifyTx after replay: %v", err)
	}
	blk, cert, err := dep.MineAndCertify(2)
	if err != nil {
		t.Fatalf("MineAndCertify after replay: %v", err)
	}
	if err := dep.NewSuperlightClient().ValidateChain(&blk.Header, cert); err != nil {
		t.Fatalf("certificate after replay: %v", err)
	}
}

// TestDurableReadBackRefusesRewrittenFrame rewrites block 2's frame on disk
// with one transaction changed and a valid CRC. The header still hashes
// right, so only the tx-root check can catch it: every reader must refuse
// the block rather than serve it.
func TestDurableReadBackRefusesRewrittenFrame(t *testing.T) {
	dir := t.TempDir()
	dep, err := NewDeployment(durableTestConfig(dir, nil))
	if err != nil {
		t.Fatalf("NewDeployment: %v", err)
	}
	defer dep.Close()
	blks := mineBlocks(t, dep, pastWindow, 3)
	if err := dep.Engine().Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	target := blks[1]
	rewriteBlockFrame(t, filepath.Join(dir, "chain"), target)

	if _, err := dep.SP().TxQuery(target.Hash(), 0); err == nil {
		t.Fatal("TxQuery served a block whose frame was rewritten")
	}
	if _, err := dep.Engine().BlockAt(target.Header.Height); err == nil {
		t.Fatal("BlockAt served a block whose frame was rewritten")
	}
	srv, err := dep.ServeWire(WireServerConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatalf("ServeWire: %v", err)
	}
	defer srv.Close()
	wc, err := DialWire(srv.Addr(), WireClientConfig{Name: "reader"})
	if err != nil {
		t.Fatalf("DialWire: %v", err)
	}
	defer wc.Close()
	if _, err := RequestBlock(wc, target.Header.Height); err == nil {
		t.Fatal("wire block route served a block whose frame was rewritten")
	}
	// Its neighbours are untouched.
	if _, err := RequestBlock(wc, target.Header.Height+1); err != nil {
		t.Fatalf("RequestBlock(%d): %v", target.Header.Height+1, err)
	}
}

// rewriteBlockFrame finds blk's frame in the chain log's segments, changes
// the last byte of its first transaction (a signature byte, so the frame
// still decodes) and rewrites the frame's CRC to match.
func rewriteBlockFrame(t *testing.T, chainDir string, blk *Block) {
	t.Helper()
	payload := blk.Marshal()
	tx := blk.Txs[0].Marshal()
	segs, err := filepath.Glob(filepath.Join(chainDir, "*.seg"))
	if err != nil {
		t.Fatalf("Glob: %v", err)
	}
	for _, seg := range segs {
		raw, err := os.ReadFile(seg)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		at := bytes.Index(raw, payload)
		if at < 0 {
			continue
		}
		// Frame: [4B length][4B CRC32C][1B tag][payload].
		body := raw[at-1 : at+len(payload)]
		raw[at+bytes.Index(payload, tx)+len(tx)-1] ^= 0xFF
		crc := crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))
		binary.BigEndian.PutUint32(raw[at-5:at-1], crc)
		if err := os.WriteFile(seg, raw, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
		return
	}
	t.Fatalf("block %d not found in the chain log", blk.Header.Height)
}

// TestDurableTxQueryDuringMining reads old bodies back from the log while
// the miner appends to it (run it under -race).
func TestDurableTxQueryDuringMining(t *testing.T) {
	dep := newDurableTestDeployment(t, nil)
	blks := mineBlocks(t, dep, pastWindow, 2)
	stop := make(chan struct{})
	errs := make(chan error, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				blk := blks[i%len(blks)]
				res, err := dep.SP().TxQuery(blk.Hash(), i%2)
				if err == nil {
					err = VerifyTx(&blk.Header, res)
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	mineBlocks(t, dep, 16, 2)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent TxQuery: %v", err)
	}
}
