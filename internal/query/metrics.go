package query

import "dcert/internal/obs"

// Query-protocol instrumentation. Both sides stay uninstrumented (nil
// instruments, one branch per record) until Instrument attaches them to a
// registry.

// requesterObs bundles the client-side counters.
type requesterObs struct {
	requests *obs.Counter
	retries  *obs.Counter
	timeouts *obs.Counter
	failures *obs.Counter
	rttSec   *obs.Histogram
}

// Instrument attaches the requester to a metrics registry under a client
// identity label. Call before issuing requests.
func (r *Requester) Instrument(reg *obs.Registry, id string) {
	r.met = requesterObs{
		requests: reg.Counter("dcert_query_requests_total",
			"Query round trips started.", obs.L("client", id)),
		retries: reg.Counter("dcert_query_retries_total",
			"Attempts beyond each round trip's first.", obs.L("client", id)),
		timeouts: reg.Counter("dcert_query_timeouts_total",
			"Attempts that ran out their per-attempt timeout.", obs.L("client", id)),
		failures: reg.Counter("dcert_query_failures_total",
			"Round trips that exhausted retries or failed terminally.", obs.L("client", id)),
		rttSec: reg.Histogram("dcert_query_rtt_seconds",
			"Latency of successful query round trips.", nil, obs.L("client", id)),
	}
}

// serverObs bundles the SP-side cache counters.
type serverObs struct {
	computed *obs.Counter
	replayed *obs.Counter
}

// Instrument attaches the server to a metrics registry under an SP identity
// label, exposing idempotent-cache hit rates.
func (s *Server) Instrument(reg *obs.Registry, id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.met = serverObs{
		computed: reg.Counter("dcert_sp_responses_total",
			"Query responses by cache outcome.", obs.L("sp", id), obs.L("cache", "miss")),
		replayed: reg.Counter("dcert_sp_responses_total",
			"Query responses by cache outcome.", obs.L("sp", id), obs.L("cache", "hit")),
	}
	s.rcache.Instrument(reg, id)
}

// spObs counts an SP's ingest work: what the serving plane spends per block
// is these two numbers, whatever the number of shards reading the SP.
type spObs struct {
	validated    *obs.Counter
	indexApplies *obs.Counter
}

// Instrument attaches the SP's ingest counters to a metrics registry under
// an SP identity label.
func (sp *ServiceProvider) Instrument(reg *obs.Registry, id string) {
	sp.met = spObs{
		validated: reg.Counter("dcert_sp_blocks_validated_total",
			"Blocks this SP validated in full (signatures, re-execution, state root).", obs.L("sp", id)),
		indexApplies: reg.Counter("dcert_sp_index_applies_total",
			"Per-index block applications.", obs.L("sp", id)),
	}
}
