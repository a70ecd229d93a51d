package query

import "dcert/internal/obs"

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
