package fleet

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"dcert/internal/chain"
	"dcert/internal/consensus"
	"dcert/internal/node"
	"dcert/internal/query"
	"dcert/internal/vm"
	"dcert/internal/workload"
)

// frig wires a miner and an N-shard fleet over the same genesis.
type frig struct {
	miner *node.Miner
	fleet *Fleet
	gen   *workload.Generator
	// ref stands in for the deployment's primary SP: it executes and adopts
	// every mined block, which yields the write set AdoptBlock takes.
	ref *query.ServiceProvider
}

func mkNode(t *testing.T, contracts int, params consensus.Params) *node.FullNode {
	t.Helper()
	reg := vm.NewRegistry()
	if err := workload.Register(reg, workload.KVStore, contracts); err != nil {
		t.Fatalf("Register: %v", err)
	}
	genesis, db, err := node.BuildGenesis(node.GenesisConfig{Time: 1, Consensus: params})
	if err != nil {
		t.Fatalf("BuildGenesis: %v", err)
	}
	n, err := node.NewFullNode(genesis, db, reg, params)
	if err != nil {
		t.Fatalf("NewFullNode: %v", err)
	}
	return n
}

// newSP builds an SP at genesis with the historical index "hist".
func newSP(t *testing.T, contracts int, params consensus.Params) *query.ServiceProvider {
	t.Helper()
	sp := query.NewServiceProvider(mkNode(t, contracts, params))
	ix, err := query.NewHistoricalIndex("hist", "ct/")
	if err != nil {
		t.Fatalf("NewHistoricalIndex: %v", err)
	}
	if err := sp.AddIndex(ix); err != nil {
		t.Fatalf("AddIndex: %v", err)
	}
	return sp
}

func newFleetRig(t *testing.T, replicas int) *frig {
	t.Helper()
	accounts, err := workload.NewAccounts(5)
	if err != nil {
		t.Fatalf("NewAccounts: %v", err)
	}
	cfg := workload.Config{Kind: workload.KVStore, Contracts: 2, Seed: 3, KeySpace: 20, CPUSortSize: 16, IOOpsPerTx: 2}
	params := consensus.Params{Difficulty: 2}
	gen, err := workload.NewGenerator(cfg, accounts)
	if err != nil {
		t.Fatalf("NewGenerator: %v", err)
	}
	f, err := New(newSP(t, cfg.Contracts, params))
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	for i := 0; i < replicas; i++ {
		if _, err := f.Add(fmt.Sprintf("sp-%d", i), 1<<20); err != nil {
			t.Fatalf("fleet.Add: %v", err)
		}
	}
	return &frig{
		miner: node.NewMiner(mkNode(t, cfg.Contracts, params)),
		fleet: f,
		gen:   gen,
		ref:   newSP(t, cfg.Contracts, params),
	}
}

// mine proposes one block and runs it through the reference SP, returning
// the block with its validated write set.
func (r *frig) mine(t *testing.T, txs int) (*chain.Block, map[string][]byte) {
	t.Helper()
	batch, err := r.gen.Block(txs)
	if err != nil {
		t.Fatalf("gen.Block: %v", err)
	}
	blk, err := r.miner.Propose(batch)
	if err != nil {
		t.Fatalf("Propose: %v", err)
	}
	writes, err := r.ref.ExecuteBlock(blk)
	if err != nil {
		t.Fatalf("ref.ExecuteBlock: %v", err)
	}
	if err := r.ref.AdoptBlock(blk, writes); err != nil {
		t.Fatalf("ref.AdoptBlock: %v", err)
	}
	return blk, writes
}

// advance mines n blocks and feeds them to the fleet.
func (r *frig) advance(t *testing.T, n, txs int) {
	t.Helper()
	for i := 0; i < n; i++ {
		blk, _ := r.mine(t, txs)
		if err := r.fleet.ProcessBlock(blk); err != nil {
			t.Fatalf("fleet.ProcessBlock: %v", err)
		}
	}
}

// writtenKey probes the KV key space for a key present in state.
func writtenKey(t *testing.T, f *Fleet) string {
	t.Helper()
	rep, err := f.Replica("sp-0")
	if err != nil {
		t.Fatalf("Replica: %v", err)
	}
	for i := 0; i < 100; i++ {
		probe := "ct/" + workload.ContractName(workload.KVStore, 0) + "/kv/user-key-" + fmt.Sprintf("%d", i)
		resp := execute(rep, query.NewStateRequest(probe))
		if resp.Err != "" {
			t.Fatalf("Execute: %s", resp.Err)
		}
		res, err := query.UnmarshalStateResult(resp.Body)
		if err != nil {
			t.Fatalf("UnmarshalStateResult: %v", err)
		}
		if res.Value != nil {
			return probe
		}
	}
	t.Skip("no written key found")
	return ""
}

// handle answers req through the fleet's serving entry point, HandleRaw,
// and parses the response.
func handle(f *Fleet, req *query.Request) *query.Response {
	return parse(f.HandleRaw(req.Marshal()))
}

// execute answers req on one shard and parses the response.
func execute(rep *Replica, req *query.Request) *query.Response {
	return parse(rep.ExecuteRaw(req))
}

func parse(raw []byte) *query.Response {
	resp, err := query.UnmarshalResponse(raw)
	if err != nil {
		return &query.Response{Err: "unparseable response: " + err.Error()}
	}
	return resp
}

func TestFleetServesVerifiedQueries(t *testing.T) {
	r := newFleetRig(t, 4)
	r.advance(t, 5, 12)
	key := writtenKey(t, r.fleet)

	// Every replica serves the same certified tip.
	tip := mustTip(t, r.fleet, "sp-0")
	for i := 1; i < 4; i++ {
		other := mustTip(t, r.fleet, fmt.Sprintf("sp-%d", i))
		if other.StateRoot != tip.StateRoot {
			t.Fatalf("replica sp-%d diverged from sp-0", i)
		}
	}

	// Single-key via the fleet front door.
	resp := handle(r.fleet, query.NewStateRequest(key))
	if resp.Err != "" {
		t.Fatalf("handle: %s", resp.Err)
	}
	sr, err := query.UnmarshalStateResult(resp.Body)
	if err != nil {
		t.Fatalf("UnmarshalStateResult: %v", err)
	}
	if err := query.VerifyState(tip, sr); err != nil {
		t.Fatalf("VerifyState: %v", err)
	}

	// Batch via the fleet front door: one replica, one merged proof.
	resp = handle(r.fleet, query.NewBatchStateRequest([]string{key, "never-written"}))
	if resp.Err != "" {
		t.Fatalf("handle(batch): %s", resp.Err)
	}
	br, err := query.UnmarshalBatchStateResult(resp.Body)
	if err != nil {
		t.Fatalf("UnmarshalBatchStateResult: %v", err)
	}
	if err := query.VerifyBatchState(tip, br); err != nil {
		t.Fatalf("VerifyBatchState: %v", err)
	}

	// Historical query routes and verifies too.
	resp = handle(r.fleet, query.NewHistoricalRequest("hist", key, 0, 100))
	if resp.Err != "" {
		t.Fatalf("handle(historical): %s", resp.Err)
	}
	if _, err := query.UnmarshalHistoricalResult(resp.Body); err != nil {
		t.Fatalf("UnmarshalHistoricalResult: %v", err)
	}
}

func mustTip(t *testing.T, f *Fleet, name string) *chain.Header {
	t.Helper()
	rep, err := f.Replica(name)
	if err != nil {
		t.Fatalf("Replica: %v", err)
	}
	return rep.Tip()
}

func TestFleetAffinityPinsKeysToReplicas(t *testing.T) {
	r := newFleetRig(t, 4)
	r.advance(t, 3, 10)
	key := writtenKey(t, r.fleet)

	req := query.NewStateRequest(key)
	owner, err := r.fleet.Router().Route(req.AffinityKey())
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	// Baseline stats (the key probe above already touched sp-0's cache).
	baseHits := map[string]uint64{}
	baseMisses := map[string]uint64{}
	for _, name := range r.fleet.Router().Members() {
		rep, err := r.fleet.Replica(name)
		if err != nil {
			t.Fatalf("Replica: %v", err)
		}
		h, m, _, _ := rep.Cache().Stats()
		baseHits[name], baseMisses[name] = h, m
	}
	// Repeated queries for the same key hit only the owner's cache.
	for i := 0; i < 10; i++ {
		if resp := handle(r.fleet, query.NewStateRequest(key)); resp.Err != "" {
			t.Fatalf("handle: %s", resp.Err)
		}
	}
	for _, name := range r.fleet.Router().Members() {
		rep, err := r.fleet.Replica(name)
		if err != nil {
			t.Fatalf("Replica: %v", err)
		}
		h, m, _, _ := rep.Cache().Stats()
		dh, dm := h-baseHits[name], m-baseMisses[name]
		if name == owner {
			if dm > 1 || dh+dm != 10 {
				t.Fatalf("owner cache delta: %d misses, %d hits; want ≤1, 10 total", dm, dh)
			}
		} else if dh+dm != 0 {
			t.Fatalf("non-owner %s touched: %d hits, %d misses", name, dh, dm)
		}
	}
}

// The RCU snapshot discipline: queries hammer the fleet from many
// goroutines while blocks land. Run with -race. Every response must verify
// against one of the certified headers observed during the run.
func TestFleetQueriesConcurrentWithBlockIngest(t *testing.T) {
	r := newFleetRig(t, 2)
	r.advance(t, 2, 10)
	key := writtenKey(t, r.fleet)

	var hmu sync.Mutex
	headers := []*chain.Header{mustTip(t, r.fleet, "sp-0"), mustTip(t, r.fleet, "sp-1")}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp := handle(r.fleet, query.NewStateRequest(key))
				if resp.Err != "" {
					t.Errorf("handle: %s", resp.Err)
					return
				}
				sr, err := query.UnmarshalStateResult(resp.Body)
				if err != nil {
					t.Errorf("UnmarshalStateResult: %v", err)
					return
				}
				hmu.Lock()
				hs := append([]*chain.Header(nil), headers...)
				hmu.Unlock()
				ok := false
				for _, h := range hs {
					if query.VerifyState(h, sr) == nil {
						ok = true
						break
					}
				}
				if !ok {
					t.Error("response verified against no observed header")
					return
				}
			}
		}()
	}

	for i := 0; i < 6; i++ {
		blk, _ := r.mine(t, 10)
		// Record the header before ingest: readers parked on the epoch swap
		// serve the new height before ProcessBlock returns.
		hmu.Lock()
		headers = append(headers, &blk.Header)
		hmu.Unlock()
		if err := r.fleet.ProcessBlock(blk); err != nil {
			t.Fatalf("ProcessBlock: %v", err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestFleetRemoveRedistributes(t *testing.T) {
	r := newFleetRig(t, 3)
	r.advance(t, 3, 10)
	key := writtenKey(t, r.fleet)

	r.fleet.Remove("sp-1")
	if r.fleet.Size() != 2 {
		t.Fatalf("Size = %d after remove", r.fleet.Size())
	}
	resp := handle(r.fleet, query.NewStateRequest(key))
	if resp.Err != "" {
		t.Fatalf("Handle after remove: %s", resp.Err)
	}
	owner, err := r.fleet.Router().Route(query.NewStateRequest(key).AffinityKey())
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if owner == "sp-1" {
		t.Fatal("removed replica still owns keys")
	}
}

// TestCacheHitServesCachedBytes: a cache hit is the cached canonical answer
// with the request's ID written over its zero ID — byte-identical to
// decoding, re-stamping and re-encoding it, and one allocation beyond the
// cache key, the size of the response.
func TestCacheHitServesCachedBytes(t *testing.T) {
	r := newFleetRig(t, 2)
	r.advance(t, 3, 5)
	rep, err := r.fleet.Replica("sp-0")
	if err != nil {
		t.Fatalf("Replica: %v", err)
	}
	req := query.NewStateRequest(writtenKey(t, r.fleet))
	req.ID = 0xDC
	first := rep.ExecuteRaw(req) // a miss fills the cache
	canon, ok := rep.Cache().Get(req.SemanticKey())
	if !ok {
		t.Fatal("the answer was not cached")
	}
	resp, err := query.UnmarshalResponse(canon)
	if err != nil || resp.ID != 0 {
		t.Fatalf("cached answer: id %v, %v; want the canonical zero ID", resp, err)
	}
	resp.ID = req.ID
	want := resp.Marshal()
	if !bytes.Equal(first, want) {
		t.Fatal("the miss answer differs from the re-encoded canonical one")
	}
	if hit := rep.ExecuteRaw(req); !bytes.Equal(hit, want) || &hit[0] == &canon[0] {
		t.Fatal("a hit must be a stamped copy of the cached answer")
	}
	if raw := r.fleet.HandleRaw(req.Marshal()); !bytes.Equal(raw, want) {
		t.Fatal("HandleRaw and ExecuteRaw answer differently")
	}

	keyAllocs := testing.AllocsPerRun(100, func() { _ = req.SemanticKey() })
	hitAllocs := testing.AllocsPerRun(100, func() { _ = rep.ExecuteRaw(req) })
	if hitAllocs != keyAllocs+1 {
		t.Fatalf("a hit made %.1f allocations, want the key's %.1f plus one", hitAllocs, keyAllocs)
	}
	const runs = 100
	measure := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	keyBytes := measure(func() { _ = req.SemanticKey() })
	hitBytes := measure(func() { _ = rep.ExecuteRaw(req) })
	if extra := hitBytes - keyBytes; extra < uint64(len(want)) || extra > uint64(len(want))*5/4+64 {
		t.Fatalf("a hit allocated %d bytes beyond its key for a %d-byte answer", extra, len(want))
	}
}
