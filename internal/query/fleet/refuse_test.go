package fleet

import (
	"bytes"
	"errors"
	"testing"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/consensus"
	"dcert/internal/node"
	"dcert/internal/query"
	"dcert/internal/statedb"
)

// siteView is what a refused block must leave byte-identical at a site: the
// tip, the state root, the index root and one historical proof (the last two
// only where the site keeps indexes).
type siteView struct {
	tip, root, index chash.Hash
	hist             []byte
}

func viewOfSite(t *testing.T, n *node.FullNode, sp *query.ServiceProvider, key string) siteView {
	t.Helper()
	root, err := n.State().Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	v := siteView{tip: n.Tip().Hash(), root: root}
	if sp == nil {
		return v
	}
	ix, err := sp.Index("hist")
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	if v.index, err = ix.Root(); err != nil {
		t.Fatalf("index Root: %v", err)
	}
	resp := query.Execute(sp, query.NewHistoricalRequest("hist", key, 0, 1<<40))
	if resp.Err != "" {
		t.Fatalf("historical query: %s", resp.Err)
	}
	v.hist = resp.Body
	return v
}

func (v siteView) equal(o siteView) bool {
	return v.tip == o.tip && v.root == o.root && v.index == o.index && bytes.Equal(v.hist, o.hist)
}

// TestBadBlocksRefusedAtEverySite is the adversary suite's check of the three
// places that validate a block and adopt it — a full node, an SP and the
// fleet — now that the state root is checked by the commit instead of a
// witness replay. A flipped signature byte, a wrong state root (re-sealed, so
// the PoW holds), a dropped transaction and a wrong height are each refused
// with their typed error and leave tip, state root, index root and a
// historical proof byte-identical. The honest block then goes in at each
// site for exactly one signature verification per transaction, as does the
// dry-run ValidateBlock.
func TestBadBlocksRefusedAtEverySite(t *testing.T) {
	params := consensus.Params{Difficulty: 2}
	r := newFleetRig(t, 2)
	full := mkNode(t, 2, params)
	for i := 0; i < 4; i++ {
		blk, _ := r.mine(t, 12)
		if err := r.fleet.ProcessBlock(blk); err != nil {
			t.Fatalf("fleet.ProcessBlock: %v", err)
		}
		if err := full.ProcessBlock(blk); err != nil {
			t.Fatalf("node.ProcessBlock: %v", err)
		}
	}
	key := writtenKey(t, r.fleet)

	const n = 12
	batch, err := r.gen.Block(n)
	if err != nil {
		t.Fatalf("gen.Block: %v", err)
	}
	honest, err := r.miner.Propose(batch)
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	reseal := func(b *chain.Block) *chain.Block {
		if err := consensus.Seal(params, &b.Header); err != nil {
			t.Fatalf("Seal: %v", err)
		}
		return b
	}
	flipped := *honest
	flipped.Txs = append([]*chain.Transaction(nil), honest.Txs...)
	tx := *honest.Txs[3]
	tx.Signature = append([]byte(nil), tx.Signature...)
	tx.Signature[4] ^= 0xff
	flipped.Txs[3] = &tx
	if flipped.Header.TxRoot, err = chain.ComputeTxRoot(flipped.Txs); err != nil {
		t.Fatalf("ComputeTxRoot: %v", err)
	}
	wrongRoot, dropped, wrongHeight := *honest, *honest, *honest
	wrongRoot.Header.StateRoot[0] ^= 1
	dropped.Txs = honest.Txs[:n-1]
	wrongHeight.Header.Height++
	bad := []struct {
		name string
		blk  *chain.Block
		want error
	}{
		{"flipped signature", reseal(&flipped), statedb.ErrTxInvalid},
		{"wrong state root", reseal(&wrongRoot), node.ErrStateMismatch},
		{"dropped transaction", &dropped, chain.ErrBadBlock},
		{"wrong height", reseal(&wrongHeight), node.ErrNotNextBlock},
	}

	snapshotView := func() siteView {
		ep := r.fleet.snap.acquire()
		defer ep.release()
		return viewOfSite(t, ep.sp.Node(), ep.sp, key)
	}
	sites := []struct {
		name    string
		process func(*chain.Block) error
		view    func() siteView
	}{
		{"node", full.ProcessBlock, func() siteView { return viewOfSite(t, full, nil, key) }},
		{"sp", r.ref.ProcessBlock, func() siteView { return viewOfSite(t, r.ref.Node(), r.ref, key) }},
		{"fleet", r.fleet.ProcessBlock, snapshotView},
	}

	before := chain.SigVerifications()
	if _, err := full.ValidateBlock(honest); err != nil {
		t.Fatalf("ValidateBlock: %v", err)
	}
	if got := chain.SigVerifications() - before; got != n {
		t.Fatalf("ValidateBlock verified %d signatures for %d txs, want %d", got, n, n)
	}
	for _, site := range sites {
		want := site.view()
		for _, b := range bad {
			err := site.process(b.blk)
			if !errors.Is(err, b.want) {
				t.Fatalf("%s, %s: got %v, want %v", site.name, b.name, err, b.want)
			}
			if !site.view().equal(want) {
				t.Fatalf("%s, %s: the refused block moved the tip, a root or a proof", site.name, b.name)
			}
		}
		before := chain.SigVerifications()
		if err := site.process(honest); err != nil {
			t.Fatalf("%s: honest block after the refusals: %v", site.name, err)
		}
		if got := chain.SigVerifications() - before; got != n {
			t.Fatalf("%s verified %d signatures for %d txs, want %d", site.name, got, n, n)
		}
		if v := site.view(); v.tip != honest.Hash() || v.root != honest.Header.StateRoot {
			t.Fatalf("%s: not at the honest block after adopting it", site.name)
		}
	}
}
