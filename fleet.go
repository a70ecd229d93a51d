package dcert

import (
	"fmt"

	"dcert/internal/query"
	"dcert/internal/query/fleet"
)

// The sharded serving plane (internal/query/fleet): a deployment can scale
// its query side from one SP to N cache shards behind a consistent-hash
// router. The shards read one sealed SP snapshot, which each mined block
// advances once — fed the write set the primary SP's validation has just
// produced, so the serving plane validates a block once — while queries
// split by key affinity: each shard owns a stable ~1/N slice of the key
// space and serves it from a warm byte-bounded cache with singleflight
// collapsing. Once the fleet is started, ServeWire's query route answers
// through it.

// Fleet types (package internal/query/fleet).
type (
	// QueryFleet is the sharded serving plane.
	QueryFleet = fleet.Fleet
	// QueryReplica is one cache shard of the fleet.
	QueryReplica = fleet.Replica
	// FleetRouter is the rendezvous-hashing consistent router.
	FleetRouter = fleet.Router
)

// StartFleet builds an n-shard serving fleet for the deployment: one full
// node with its own copy of every index registered via AddIndex, caught up
// to the current chain tip by validating the chain once, and n cache shards
// ("sp-0" … "sp-<n-1>") reading it. Once the fleet exists, every
// subsequently mined block feeds it, and ServeWire's query route answers
// through it. The fleet joins the deployment's metrics registry if
// observability is enabled.
//
// Call StartFleet after registering indexes; added indexes do not propagate
// to an already-started fleet.
func (d *Deployment) StartFleet(n int) (*QueryFleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("dcert: fleet needs at least 1 replica")
	}
	if d.fleet.Load() != nil {
		return nil, fmt.Errorf("dcert: fleet already started")
	}
	node, err := d.cfg.newFullNode(d.params)
	if err != nil {
		return nil, fmt.Errorf("dcert: fleet node: %w", err)
	}
	d.readBodiesFromDisk(node)
	sp := query.NewServiceProvider(node)
	for _, mk := range d.indexFactories {
		ix, err := mk()
		if err != nil {
			return nil, fmt.Errorf("dcert: fleet index: %w", err)
		}
		if err := sp.AddIndex(ix); err != nil {
			return nil, fmt.Errorf("dcert: fleet index: %w", err)
		}
	}
	f, err := fleet.New(sp)
	if err != nil {
		return nil, fmt.Errorf("dcert: fleet: %w", err)
	}
	for i := 0; i < n; i++ {
		if _, err := f.Add(fmt.Sprintf("sp-%d", i), query.DefaultCacheBytes); err != nil {
			return nil, err
		}
	}
	if d.reg != nil {
		f.Instrument(d.reg)
	}
	// Catch the snapshot up to the tip before it starts serving.
	store := d.miner.Store()
	for h, best := uint64(1), store.BestHeight(); h <= best; h++ {
		blk, err := store.AtHeight(h)
		if err != nil {
			return nil, fmt.Errorf("dcert: fleet catch-up: %w", err)
		}
		if err := f.ProcessBlock(blk); err != nil {
			return nil, fmt.Errorf("dcert: fleet catch-up: %w", err)
		}
	}
	d.fleet.Store(f)
	return f, nil
}

// Fleet returns the serving fleet (nil until StartFleet).
func (d *Deployment) Fleet() *QueryFleet {
	return d.fleet.Load()
}

// feedServing advances the serving plane one block. The primary SP executes
// it and adopts it, checking the committed root; the fleet's snapshot, once
// a fleet is started, adopts the same write set.
func (d *Deployment) feedServing(blk *Block) error {
	writes, err := d.sp.ExecuteBlock(blk)
	if err != nil {
		return err
	}
	if err := d.sp.AdoptBlock(blk, writes); err != nil {
		return err
	}
	if f := d.fleet.Load(); f != nil {
		return f.AdoptBlock(blk, writes)
	}
	return nil
}
