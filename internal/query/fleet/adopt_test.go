package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"dcert/internal/chain"
	"dcert/internal/chash"
	"dcert/internal/node"
	"dcert/internal/obs"
	"dcert/internal/query"
	"dcert/internal/workload"
)

// kvKeys is the whole key space the rig's workload can write (present or
// not: absent keys are answered with verifiable non-membership proofs).
func kvKeys() []string {
	var keys []string
	for c := 0; c < 2; c++ {
		for i := 0; i < 20; i++ {
			keys = append(keys, fmt.Sprintf("ct/%s/kv/user-key-%d", workload.ContractName(workload.KVStore, c), i))
		}
	}
	return keys
}

// shardView is what one shard serves for a key, with the cache out of the
// way so the bytes come from the snapshot itself.
type shardView struct {
	tip         chain.Header
	state, hist []byte
}

func viewOf(t *testing.T, rep *Replica, key string) shardView {
	t.Helper()
	rep.Cache().Reset()
	v := shardView{tip: *rep.Tip()}
	for _, q := range []struct {
		req *query.Request
		dst *[]byte
	}{
		{query.NewStateRequest(key), &v.state},
		{query.NewHistoricalRequest("hist", key, 0, 1<<40), &v.hist},
	} {
		resp := execute(rep, q.req)
		if resp.Err != "" {
			t.Fatalf("%s: Execute: %s", rep.Name(), resp.Err)
		}
		*q.dst = resp.Body
	}
	return v
}

func (v shardView) equal(o shardView) bool {
	return v.tip == o.tip && bytes.Equal(v.state, o.state) && bytes.Equal(v.hist, o.hist)
}

// A write set that does not reproduce the header's state root, one the
// commit chokes on half-way, and a block that does not extend the tip must
// each leave the snapshot untouched: same tip, byte-identical state and
// historical proofs, on every shard.
func TestFleetAdoptionAllOrNothing(t *testing.T) {
	r := newFleetRig(t, 3)
	r.advance(t, 4, 12)
	key := writtenKey(t, r.fleet)
	shards := r.fleet.Router().Members()
	views := func() map[string]shardView {
		out := make(map[string]shardView)
		for _, name := range shards {
			rep, err := r.fleet.Replica(name)
			if err != nil {
				t.Fatalf("Replica: %v", err)
			}
			out[name] = viewOf(t, rep, key)
		}
		return out
	}
	before := views()

	next, writes := r.mine(t, 12)
	skipped, skippedWrites := r.mine(t, 12)

	tampered := make(map[string][]byte, len(writes))
	emptied := make(map[string][]byte, len(writes))
	for k, v := range writes {
		tampered[k], emptied[k] = v, v
	}
	var victim string
	for k := range writes {
		if victim == "" || k < victim {
			victim = k
		}
	}
	tampered[victim] = append([]byte("x"), writes[victim]...)
	emptied[victim] = nil

	for _, tc := range []struct {
		name   string
		blk    *chain.Block
		writes map[string][]byte
		want   error
	}{
		{"root mismatch", next, tampered, node.ErrStateMismatch},
		{"missing write", next, map[string][]byte{}, node.ErrStateMismatch},
		{"commit fails part-way", next, emptied, nil},
		{"bad linkage", skipped, skippedWrites, node.ErrNotNextBlock},
	} {
		err := r.fleet.AdoptBlock(tc.blk, tc.writes)
		if err == nil {
			t.Fatalf("%s: adopted", tc.name)
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		for name, got := range views() {
			if !got.equal(before[name]) {
				t.Fatalf("%s: shard %s serves a different snapshot after the failed adoption", tc.name, name)
			}
		}
	}

	// The snapshot is not wedged: the honest write sets still go in.
	if err := r.fleet.AdoptBlock(next, writes); err != nil {
		t.Fatalf("AdoptBlock after failures: %v", err)
	}
	if err := r.fleet.AdoptBlock(skipped, skippedWrites); err != nil {
		t.Fatalf("AdoptBlock after failures: %v", err)
	}
	for name, v := range views() {
		if v.tip != skipped.Header {
			t.Fatalf("shard %s tip at height %d, want %d", name, v.tip.Height, skipped.Header.Height)
		}
		sr, err := query.UnmarshalStateResult(v.state)
		if err != nil {
			t.Fatalf("UnmarshalStateResult: %v", err)
		}
		if err := query.VerifyState(&skipped.Header, sr); err != nil {
			t.Fatalf("shard %s: VerifyState: %v", name, err)
		}
	}
}

// certified is what a client would hold per height: the header and the
// index root the CI certified with it.
type certified struct {
	hdr  chain.Header
	hist chash.Hash
}

// chainView is the test's record of every height the fleet may serve at.
type chainView struct {
	mu      sync.Mutex
	heights []certified
}

func (c *chainView) add(t *testing.T, ref *query.ServiceProvider) {
	t.Helper()
	ix, err := ref.Index("hist")
	if err != nil {
		t.Fatalf("Index: %v", err)
	}
	root, err := ix.Root()
	if err != nil {
		t.Fatalf("Root: %v", err)
	}
	c.mu.Lock()
	c.heights = append(c.heights, certified{hdr: ref.Node().Tip().Header, hist: root})
	c.mu.Unlock()
}

// verify finds the one height the whole response proves at, newest first;
// a response mixing two heights proves at none.
func (c *chainView) verify(req *query.Request, resp *query.Response) (uint64, error) {
	if resp.Err != "" {
		return 0, errors.New(resp.Err)
	}
	var check func(certified) error
	switch {
	case len(req.Keys) > 0:
		res, err := query.UnmarshalBatchStateResult(resp.Body)
		if err != nil {
			return 0, err
		}
		check = func(at certified) error { return query.VerifyBatchState(&at.hdr, res) }
	case req.Index != "":
		res, err := query.UnmarshalHistoricalResult(resp.Body)
		if err != nil {
			return 0, err
		}
		check = func(at certified) error { return query.VerifyHistorical(at.hist, res) }
	default:
		res, err := query.UnmarshalStateResult(resp.Body)
		if err != nil {
			return 0, err
		}
		check = func(at certified) error { return query.VerifyState(&at.hdr, res) }
	}
	c.mu.Lock()
	heights := c.heights
	c.mu.Unlock()
	for i := len(heights) - 1; i >= 0; i-- {
		if check(heights[i]) == nil {
			return heights[i].hdr.Height, nil
		}
	}
	return 0, errors.New("response proves at no known height")
}

// Run with -race. Eight goroutines hammer HandleRaw with state, batch and
// historical requests over the whole key space (every shard owns part of
// it) while 200 blocks are adopted. Every response must prove, as a whole,
// at one height; a request issued after AdoptBlock returned must prove at
// the new height on every shard (no cache survives the epoch swap); and
// tearing everything down must leave no goroutine behind.
func TestFleetAdoptUnderLoad(t *testing.T) {
	blocks := 200
	if testing.Short() {
		blocks = 40
	}
	goroutines := runtime.NumGoroutine()

	r := newFleetRig(t, 4)
	view := &chainView{}
	view.add(t, r.ref)
	keys := kvKeys()
	var reqs []*query.Request
	for i, k := range keys {
		reqs = append(reqs,
			query.NewStateRequest(k),
			query.NewBatchStateRequest([]string{k, keys[(i+7)%len(keys)]}),
			query.NewHistoricalRequest("hist", k, 0, 1<<40))
	}
	// One state request per shard, for the freshness probe. The workload's
	// own keys differ in a digit or two and land on few shards, so the
	// probes are drawn from never-written keys until every shard owns one.
	probe := make(map[string]*query.Request)
	for i := 0; len(probe) < r.fleet.Size(); i++ {
		if i == 10000 {
			t.Fatalf("probe keys reach %d of %d shards", len(probe), r.fleet.Size())
		}
		req := query.NewStateRequest(fmt.Sprintf("probe-%d", i))
		owner, err := r.fleet.Router().Route(req.AffinityKey())
		if err != nil {
			t.Fatalf("Route: %v", err)
		}
		if probe[owner] == nil {
			probe[owner] = req
			reqs = append(reqs, req)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i += 3 {
				select {
				case <-stop:
					return
				default:
				}
				req := reqs[i%len(reqs)]
				resp, err := query.UnmarshalResponse(r.fleet.HandleRaw(req.Marshal()))
				if err != nil {
					t.Errorf("UnmarshalResponse: %v", err)
					return
				}
				if _, err := view.verify(req, resp); err != nil {
					t.Errorf("kind %d key %q: %v", req.Kind, req.Key, err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < blocks; i++ {
		blk, writes := r.mine(t, 4)
		view.add(t, r.ref) // before the swap: parked readers serve it at once
		if err := r.fleet.AdoptBlock(blk, writes); err != nil {
			t.Fatalf("AdoptBlock %d: %v", blk.Header.Height, err)
		}
		for owner, req := range probe {
			at, err := view.verify(req, handle(r.fleet, req))
			if err != nil {
				t.Fatalf("probe on %s: %v", owner, err)
			}
			if at != blk.Header.Height {
				t.Fatalf("shard %s answered at height %d after height %d was adopted", owner, at, blk.Header.Height)
			}
		}
	}
	close(stop)
	wg.Wait()

	// Quiet now: warm every shard, swap once more, and every cache is empty.
	for _, req := range reqs {
		handle(r.fleet, req)
	}
	shards := r.fleet.Router().Members()
	for _, name := range shards {
		rep, _ := r.fleet.Replica(name)
		if rep.Cache().Len() == 0 {
			t.Fatalf("shard %s took no traffic", name)
		}
	}
	blk, writes := r.mine(t, 4)
	if err := r.fleet.AdoptBlock(blk, writes); err != nil {
		t.Fatalf("AdoptBlock: %v", err)
	}
	for _, name := range shards {
		rep, _ := r.fleet.Replica(name)
		if n := rep.Cache().Len(); n != 0 {
			t.Fatalf("shard %s keeps %d cached responses across the epoch swap", name, n)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before, %d after teardown", goroutines, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// The serving plane's cost per block does not depend on the shard count:
// one validation (none when the write set is handed over) and one apply per
// index, counted by the snapshot SP's own instruments; and shards come and
// go without touching the chain.
func TestFleetIngestIndependentOfShardCount(t *testing.T) {
	for _, shards := range []int{1, 8} {
		r := newFleetRig(t, shards)
		reg := obs.NewRegistry()
		r.fleet.Instrument(reg)
		validated := reg.Counter("dcert_sp_blocks_validated_total", "", obs.L("sp", "fleet"))
		applied := reg.Counter("dcert_sp_index_applies_total", "", obs.L("sp", "fleet"))
		ingests := reg.Histogram("dcert_fleet_ingest_seconds", "", nil)
		drains := reg.Histogram("dcert_fleet_epoch_drain_seconds", "", nil)
		height := reg.Gauge("dcert_fleet_snapshot_height", "")
		expect := func(when string, v, a, n uint64) {
			t.Helper()
			if validated.Value() != v || applied.Value() != a || ingests.Count() != n || drains.Count() != n || height.Value() != int64(n) {
				t.Fatalf("%d shards, %s: validated %d applied %d ingests %d drains %d height %d; want %d %d %d %d %d",
					shards, when, validated.Value(), applied.Value(), ingests.Count(), drains.Count(), height.Value(), v, a, n, n, n)
			}
		}

		r.advance(t, 5, 6) // ProcessBlock: the fleet validates
		expect("after ProcessBlock", 5, 5, 5)
		for i := 0; i < 3; i++ { // AdoptBlock: the reference SP validated
			blk, writes := r.mine(t, 6)
			if err := r.fleet.AdoptBlock(blk, writes); err != nil {
				t.Fatalf("AdoptBlock: %v", err)
			}
		}
		expect("after AdoptBlock", 5, 8, 8)

		// A shard added now serves the tip at once, instrumented, without a
		// catch-up; removing one costs nothing either.
		late, err := r.fleet.Add("late", 1<<20)
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
		tip := r.ref.Node().Tip().Header
		if *late.Tip() != tip {
			t.Fatalf("late shard at height %d, want %d", late.Tip().Height, tip.Height)
		}
		resp := execute(late, query.NewStateRequest(kvKeys()[0]))
		if resp.Err != "" {
			t.Fatalf("late shard: %s", resp.Err)
		}
		sr, err := query.UnmarshalStateResult(resp.Body)
		if err != nil {
			t.Fatalf("UnmarshalStateResult: %v", err)
		}
		if err := query.VerifyState(&tip, sr); err != nil {
			t.Fatalf("late shard: VerifyState: %v", err)
		}
		if got := reg.Counter("dcert_fleet_requests_total", "", obs.L("replica", "late")).Value(); got != 1 {
			t.Fatalf("late shard served %d requests by its counter, want 1", got)
		}
		r.fleet.Remove("late")
		expect("after Add/Remove", 5, 8, 8)
	}
}
