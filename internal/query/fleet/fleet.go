package fleet

import (
	"fmt"
	"sync"
	"time"

	"dcert/internal/chain"
	"dcert/internal/obs"
	"dcert/internal/query"
)

// Fleet is the sharded serving plane of one process: a rendezvous router in
// front of N cache shards, all reading ONE epoch-guarded, sealed SP
// snapshot. The write path costs one block ingest whatever N is — one
// validation (or none, when the caller hands over an already validated
// write set), one state commit, one index apply, one epoch swap that resets
// every shard's cache — while the read path splits by key affinity so each
// shard serves a stable slice of the key space from a warm cache.
//
// Shards of one process need no state of their own: the SP is untrusted in
// the first place (clients verify every answer against CI-certified roots),
// so N byte-identical replicas bought no assurance a single one lacks.
//
// Fleet is safe for concurrent use on the read path (HandleRaw);
// ProcessBlock/AdoptBlock and membership changes must be serialized by the
// caller, as with a single SP.
type Fleet struct {
	router *Router
	snap   *snapshot

	mu       sync.RWMutex
	replicas map[string]*Replica
	reg      *obs.Registry
	met      fleetObs
}

// New creates a fleet without shards over sp. The SP must not be used
// directly afterwards — all access goes through the fleet.
func New(sp *query.ServiceProvider) (*Fleet, error) {
	snap, err := newSnapshot(sp)
	if err != nil {
		return nil, err
	}
	return &Fleet{
		router:   NewRouter(),
		snap:     snap,
		replicas: make(map[string]*Replica),
	}, nil
}

// Add creates a shard with a response cache of cacheBytes and registers it
// with the router; it serves the snapshot's current height at once.
func (f *Fleet) Add(name string, cacheBytes int) (*Replica, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.replicas[name]; ok {
		return nil, fmt.Errorf("fleet: replica %q already added", name)
	}
	r := &Replica{name: name, snap: f.snap, cache: query.NewResponseCache(cacheBytes)}
	if f.reg != nil {
		r.instrument(f.reg)
	}
	f.replicas[name] = r
	f.router.Add(name)
	return r, nil
}

// Remove detaches a shard; its ~1/N of the key space redistributes over
// the remaining members.
func (f *Fleet) Remove(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.replicas, name)
	f.router.Remove(name)
}

// Size reports the shard count.
func (f *Fleet) Size() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return len(f.replicas)
}

// Replica returns a shard by name.
func (f *Fleet) Replica(name string) (*Replica, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	r, ok := f.replicas[name]
	if !ok {
		return nil, fmt.Errorf("fleet: unknown replica %q", name)
	}
	return r, nil
}

// Router exposes the fleet's consistent-hash router.
func (f *Fleet) Router() *Router {
	return f.router
}

// ProcessBlock validates the block in full against the snapshot and adopts
// it. The execution (consensus proof, tx root, every signature once) runs as
// one more reader of the sealed snapshot, so queries are held up only for
// the adoption, whose post-commit root check completes the validation.
func (f *Fleet) ProcessBlock(blk *chain.Block) error {
	t0 := time.Now()
	ep := f.snap.acquire()
	writes, err := ep.sp.ExecuteBlock(blk)
	ep.release()
	if err != nil {
		return err
	}
	return f.adopt(blk, writes, t0)
}

// AdoptBlock advances the snapshot by a block another SP of the same chain
// has just validated, given that validation's write set: linkage check,
// commit, post-commit root == header state root, index apply, seal — no
// second signature or execution pass (see query.ServiceProvider.AdoptBlock
// for why that is enough). A block or write set that fails a check leaves
// the snapshot, and every shard's cache, exactly as they were.
func (f *Fleet) AdoptBlock(blk *chain.Block, writes map[string][]byte) error {
	return f.adopt(blk, writes, time.Now())
}

func (f *Fleet) adopt(blk *chain.Block, writes map[string][]byte, t0 time.Time) error {
	drain, err := f.snap.advance(blk, writes, f.resetCaches)
	f.met.drainSec.ObserveDuration(drain)
	if err != nil {
		return fmt.Errorf("fleet: height %d: %w", blk.Header.Height, err)
	}
	f.met.height.Set(int64(blk.Header.Height))
	f.met.ingestSec.ObserveDuration(time.Since(t0))
	return nil
}

// resetCaches flushes every shard's cache: cached responses prove against
// the pre-block roots, and the new height must never replay a stale proof.
func (f *Fleet) resetCaches() {
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, r := range f.replicas {
		r.cache.Reset()
	}
}

// route picks the shard owning a request's affinity key.
func (f *Fleet) route(req *query.Request) (*Replica, error) {
	name, err := f.router.Route(req.AffinityKey())
	if err != nil {
		return nil, err
	}
	return f.Replica(name)
}

// HandleRaw answers one serialized request — the entry point a transport
// RPC route mounts. Safe for concurrent calls (the wire transport runs each
// RPC in its own goroutine).
func (f *Fleet) HandleRaw(raw []byte) []byte {
	req, err := query.UnmarshalRequest(raw)
	if err != nil {
		return (&query.Response{Err: err.Error()}).Marshal()
	}
	r, err := f.route(req)
	if err != nil {
		return (&query.Response{ID: req.ID, Err: err.Error()}).Marshal()
	}
	return r.ExecuteRaw(req)
}

// fleetObs bundles the write-path instruments of the one snapshot.
type fleetObs struct {
	ingestSec *obs.Histogram
	drainSec  *obs.Histogram
	height    *obs.Gauge
}

// Instrument attaches the fleet to a metrics registry: the snapshot's
// ingest instruments, its SP's work counters (sp="fleet"), and every shard
// — those added later included.
func (f *Fleet) Instrument(reg *obs.Registry) {
	ep := f.snap.acquire()
	ep.sp.Instrument(reg, "fleet")
	height := ep.sp.Node().Tip().Header.Height
	ep.release()

	f.mu.Lock()
	defer f.mu.Unlock()
	f.reg = reg
	f.met = fleetObs{
		ingestSec: reg.Histogram("dcert_fleet_ingest_seconds",
			"Time to advance the fleet's snapshot one block (validation when the fleet did it, drain, adopt, seal).", nil),
		drainSec: reg.Histogram("dcert_fleet_epoch_drain_seconds",
			"Time in-flight readers kept the block writer waiting at an epoch swap.", nil),
		height: reg.Gauge("dcert_fleet_snapshot_height",
			"Chain height the fleet's shards serve at."),
	}
	f.met.height.Set(int64(height))
	for _, name := range f.router.Members() { // sorted: a stable exposition order
		f.replicas[name].instrument(reg)
	}
}
