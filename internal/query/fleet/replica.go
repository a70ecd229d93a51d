package fleet

import (
	"runtime"
	"sync/atomic"
	"time"

	"dcert/internal/chain"
	"dcert/internal/obs"
	"dcert/internal/query"
)

// snapshot is the fleet's one SP (state replica and indexes) behind an
// epoch guard.
//
// The epoch discipline makes reads lock-free against an immutable
// per-height view: readers acquire the current epoch with an atomic
// load + refcount (no mutex on the read path), and the writer advances
// heights by first swapping in a new *unready* epoch — parking new readers
// on its ready channel — then draining the old epoch's readers to zero,
// mutating the SP, re-sealing it (pre-hashing every lazily-hashed
// structure so reads stay pure), and finally opening the new epoch. At any
// instant every active reader sees one fully-hashed height; a query never
// observes a half-applied block.
type snapshot struct {
	cur atomic.Pointer[epoch]
}

// epoch guards one sealed height of the snapshot's SP.
type epoch struct {
	sp      *query.ServiceProvider
	readers atomic.Int64
	ready   chan struct{} // closed once the height is sealed
}

func newSnapshot(sp *query.ServiceProvider) (*snapshot, error) {
	if err := sp.Seal(); err != nil {
		return nil, err
	}
	ep := &epoch{sp: sp, ready: make(chan struct{})}
	close(ep.ready)
	s := &snapshot{}
	s.cur.Store(ep)
	return s, nil
}

// acquire pins the current epoch for reading, waiting out an in-progress
// height advance. The increment-then-recheck loop closes the race with a
// concurrent writer swap: if the epoch pointer moved between load and
// increment, the refcount touched a retired epoch (harmless) and the reader
// retries on the fresh one.
func (s *snapshot) acquire() *epoch {
	for {
		ep := s.cur.Load()
		ep.readers.Add(1)
		if s.cur.Load() == ep {
			<-ep.ready
			return ep
		}
		ep.readers.Add(-1)
	}
}

func (ep *epoch) release() {
	ep.readers.Add(-1)
}

// advance adopts one block under exclusion: swap epochs, drain the old
// one's readers, adopt, re-seal, call swapped (the moment responses computed
// before the swap stop being current), open the new epoch. A failed adoption
// leaves the SP as it was, so the new epoch then serves the last good
// height and swapped is not called. It reports how long the readers kept
// the writer waiting. Callers serialize advance.
func (s *snapshot) advance(blk *chain.Block, writes map[string][]byte, swapped func()) (drain time.Duration, err error) {
	old := s.cur.Load()
	next := &epoch{sp: old.sp, ready: make(chan struct{})}
	s.cur.Store(next)
	defer close(next.ready)
	t0 := time.Now()
	for old.readers.Load() > 0 {
		runtime.Gosched()
	}
	drain = time.Since(t0)
	if err = old.sp.AdoptBlock(blk, writes); err != nil {
		return drain, err
	}
	err = old.sp.Seal()
	swapped()
	return drain, err
}

// Replica is one serving shard of the fleet: a router identity, a
// byte-bounded singleflight response cache for the slice of the key space
// the router assigns to it, and its serving instruments. It holds no state
// of its own — every shard reads the fleet's one sealed snapshot — so
// adding or removing one costs a cache, not a chain replay.
type Replica struct {
	name  string
	snap  *snapshot
	cache *query.ResponseCache
	met   replicaObs
}

// Name returns the shard's router identity.
func (r *Replica) Name() string {
	return r.name
}

// Cache exposes the shard's response cache.
func (r *Replica) Cache() *query.ResponseCache {
	return r.cache
}

// ExecuteRaw answers one request with its serialized response, collapsing
// concurrent identical questions (by semantic key, ignoring the per-attempt
// request ID) onto one computation. The cache holds the canonical answer
// (ID 0); a hit is served by copying it with the request's ID written over
// that zero, never by decoding and re-encoding it.
func (r *Replica) ExecuteRaw(req *query.Request) []byte {
	r.met.served.Inc()
	canon, _ := r.cache.Do(req.SemanticKey(), func() []byte {
		ep := r.snap.acquire()
		defer ep.release()
		c := *req
		c.ID = 0
		return query.Execute(ep.sp, &c).Marshal()
	})
	return query.WithResponseID(canon, req.ID)
}

// Tip returns the chain tip header this shard serves at, pinned to a sealed
// epoch.
func (r *Replica) Tip() *chain.Header {
	ep := r.snap.acquire()
	defer ep.release()
	hdr := ep.sp.Node().Tip().Header
	return &hdr
}

// replicaObs bundles per-shard serving instruments.
type replicaObs struct {
	served *obs.Counter
}

// instrument attaches the shard (and its cache) to a metrics registry.
func (r *Replica) instrument(reg *obs.Registry) {
	r.met = replicaObs{
		served: reg.Counter("dcert_fleet_requests_total",
			"Requests served by this replica.", obs.L("replica", r.name)),
	}
	r.cache.Instrument(reg, r.name)
}
