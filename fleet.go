package dcert

import (
	"fmt"
	"time"

	"dcert/internal/chain"
	"dcert/internal/query"
	"dcert/internal/query/fleet"
)

// The serving plane: the SP, and optionally a sharded fleet in front of it
// (internal/query/fleet). Blocks enter it only under a certificate: when a
// certificate lands, serveCertified checks it once as a superlight client
// would, binds the certified blocks' bodies to its header, executes them
// without a signature pass — the enclave checked every signature before it
// signed — and has the SP adopt each one, the adoption's root check against
// the certified header completing the validation. So the SP's tip is always
// a certified height, and serving is off the mining routine's path.
//
// The fleet scales the query side from one SP to N cache shards behind a
// consistent-hash router. The shards read one sealed SP snapshot, which each
// served block advances once — fed the write set the SP's execution has just
// produced — while queries split by key affinity: each shard owns a stable
// ~1/N slice of the key space and serves it from a warm byte-bounded cache
// with singleflight collapsing. Once the fleet is started, ServeWire's query
// route answers through it.

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
// to the SP's tip by validating the chain once, and n cache shards
// ("sp-0" … "sp-<n-1>") reading it. Once the fleet exists, every block the
// SP adopts feeds it, and ServeWire's query route answers through it. The
// fleet joins the deployment's metrics registry if observability is enabled.
//
// Call StartFleet after registering indexes; added indexes do not propagate
// to an already-started fleet.
func (d *Deployment) StartFleet(n int) (*QueryFleet, error) {
	if n < 1 {
		return nil, fmt.Errorf("dcert: fleet needs at least 1 replica")
	}
	// No block is served between the catch-up and the fleet's start.
	d.serveMu.Lock()
	defer d.serveMu.Unlock()
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
	// Catch the snapshot up to the SP's tip before it starts serving: the
	// miner's may hold blocks not yet certified, which the SP adopts later.
	store := d.sp.Node().Store()
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

// serveCertified advances the serving plane — the SP and, once started, the
// fleet's snapshot — to the tip of a landed segment certificate, reading the
// blocks above the SP's tip through body. A segment at or below the SP's tip
// is nothing to do: another issuer landed those heights first. Otherwise it
// checks, before anything executes:
//
//  1. the certificate, once for the segment (VerifySegment: the enclave
//     signature, the attestation report the first time the enclave is seen,
//     the covered headers);
//  2. that the bodies are the certified chain: each body's header hash is
//     the PrevHash of the one above it, and the highest is the certified tip.
//
// Then, a block at a time, the SP checks linkage, consensus proof and tx
// root and executes it without a signature pass (ExecuteBlockPreverified),
// adopts it — the post-commit root check against the certified header
// finishes the validation — and the fleet adopts the same write set. A block
// refused there leaves the plane at the block below it.
//
// Each adopted block is timed as dcert_mine_step_seconds{step="serve"} (the
// first one with the checks above) and sets dcert_serving_lag_blocks. With
// no fleet started, the SP is then sealed for the query route's concurrent
// reads.
func (d *Deployment) serveCertified(seg *SegmentCert, body func(height uint64) (*Block, error)) error {
	d.serveMu.Lock()
	defer d.serveMu.Unlock()
	from := d.sp.Node().Tip().Header.Height + 1
	if seg.End() < from {
		return nil
	}
	start := time.Now()
	if d.serveClient == nil {
		d.serveClient = d.NewSuperlightClient()
	}
	if err := d.serveClient.VerifySegment(seg); err != nil {
		return fmt.Errorf("dcert: SP: %w", err)
	}
	blks := make([]*Block, seg.End()-from+1)
	want := seg.Tip().Hash()
	for i := len(blks) - 1; i >= 0; i-- {
		h := from + uint64(i)
		blk, err := body(h)
		if err != nil {
			return fmt.Errorf("dcert: SP: body at height %d: %w", h, err)
		}
		if blk.Hash() != want {
			return fmt.Errorf("dcert: SP: %w: block at height %d is not on the certified chain", chain.ErrBadBlock, h)
		}
		blks[i], want = blk, blk.Header.PrevHash
	}
	f := d.fleet.Load()
	for _, blk := range blks {
		res, err := d.sp.Node().ExecuteBlockPreverified(blk)
		if err != nil {
			return fmt.Errorf("dcert: SP: %w", err)
		}
		if err := d.sp.AdoptBlock(blk, res.WriteSet); err != nil {
			return fmt.Errorf("dcert: SP: %w", err)
		}
		if f != nil {
			if err := f.AdoptBlock(blk, res.WriteSet); err != nil {
				return fmt.Errorf("dcert: fleet: %w", err)
			}
		}
		now := time.Now()
		d.serveStep.ObserveDuration(now.Sub(start))
		start = now
		d.servingLag.Set(int64(d.miner.Store().BestHeight() - blk.Header.Height))
	}
	if f == nil {
		// The SP answers the query route itself, from many RPC goroutines
		// at once: hash what its reads would otherwise hash lazily.
		if err := d.sp.Seal(); err != nil {
			return fmt.Errorf("dcert: SP: %w", err)
		}
	}
	return nil
}
