package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// perLayer lists every per-layer metric, in the order README.md explains
// them. A metric a workload does not exercise is still measured, on a probe
// deployment shaped like the workload's server.
var perLayer = []metricDef{
	{Name: "workload.gen_ms", Unit: "ms", Better: "lower"},
	{Name: "node.propose_ms", Unit: "ms", Better: "lower"},
	{Name: "chain.verify_txs_ms", Unit: "ms", Better: "lower"},
	{Name: "node.validate_block_ms", Unit: "ms", Better: "lower"},
	{Name: "core.outside_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "core.outside_proof_ms", Unit: "ms", Better: "lower"},
	{Name: "enclave.inside_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "enclave.overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "enclave.ecalls_per_block", Unit: "count", Better: "lower"},
	{Name: "enclave.bytes_in_per_block", Unit: "bytes", Better: "lower"},
	{Name: "core.pipeline_verify_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "core.pipeline_exec_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "core.pipeline_commit_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.apply_block_ms", Unit: "ms", Better: "lower"},
	{Name: "storage.bytes_per_block", Unit: "bytes", Better: "lower"},
	{Name: "query.sp_ingest_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.ingest_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.publish_deliver_ms", Unit: "ms", Better: "lower"},
	{Name: "core.cert_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.client_validate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.index_cert_ms", Unit: "ms", Better: "lower"},
	{Name: "core.segment_certify_ms_per_block", Unit: "ms", Better: "lower"},
	{Name: "transport.rpc_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "core.bootstrap_fetches_per_op", Unit: "count", Better: "lower"},
	{Name: "core.segment_bytes", Unit: "bytes", Better: "lower"},
	{Name: "core.segment_decode_ms", Unit: "ms", Better: "lower"},
	{Name: "core.segment_validate_ms", Unit: "ms", Better: "lower"},
	{Name: "core.segment_lookup_ms", Unit: "ms", Better: "lower"},
	{Name: "query.codec_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.route_ms", Unit: "ms", Better: "lower"},
	{Name: "query.cache_hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "query.cache_evictions_per_kop", Unit: "count", Better: "lower"},
	{Name: "fleet.handle_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "fleet.handle_miss_ms", Unit: "ms", Better: "lower"},
	{Name: "query.prove_state_ms", Unit: "ms", Better: "lower"},
	{Name: "query.prove_historical_ms", Unit: "ms", Better: "lower"},
	{Name: "query.prove_keyword_ms", Unit: "ms", Better: "lower"},
	{Name: "query.verify_state_ms", Unit: "ms", Better: "lower"},
	{Name: "query.verify_historical_ms", Unit: "ms", Better: "lower"},
	{Name: "query.verify_keyword_ms", Unit: "ms", Better: "lower"},
	{Name: "query.proof_bytes_state", Unit: "bytes", Better: "lower"},
	{Name: "query.proof_bytes_historical", Unit: "bytes", Better: "lower"},
	{Name: "query.proof_bytes_keyword", Unit: "bytes", Better: "lower"},
	{Name: "transport.query_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.stale_header_retries_per_kop", Unit: "count", Better: "lower"},
	{Name: "driver.lateness_ms", Unit: "ms", Better: "lower"},
	{Name: "budget.attributed_share", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "host.slice_spread", Unit: "ratio", Better: "lower"},
	{Name: "host.calib_ms", Unit: "ms", Better: "lower"},
}

// Query mix of the query workloads: state, historical, keyword.
var queryMix = map[string]float64{"state": 0.7, "historical": 0.2, "keyword": 0.1}

// tracedRun is the run behind the per-layer metrics. On one set-up server it
// measures the workload at a tenth of the length, with tracing off and then
// with every driver-side call into a layer recorded as a span; the
// difference is the tracing overhead. Then it probes each layer from
// outside (layers.go), works out how much of the end-to-end latency the
// layers on the blocking path account for, and writes the spans out.
func tracedRun(cfg *runConfig, spansPath string) (*report, error) {
	calib := []float64{calibMs()}
	short := *cfg
	short.setups = 1
	if short.maxOps == 0 {
		short.seconds = max(cfg.seconds/10, 1.5)
	}
	s, err := setUp(&short)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer s.close()
	// The first pass only warms both processes up, so that the two compared
	// passes start from the same state.
	plain := &outcome{cfg: &short, setups: []float64{s.setup.Seconds()}}
	for pass := 0; pass < 2; pass++ {
		if err := plain.measure(s); err != nil {
			return nil, fmt.Errorf("untraced run: %w", err)
		}
	}
	tr := newTracer()
	short.tr = tr
	traced := &outcome{cfg: &short, setups: plain.setups}
	if err := traced.measure(s); err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	short.tr = nil

	p := &prober{tr: tr, w: short.w, seed: cfg.seed, scratch: cfg.scratch, samples: map[string][]float64{}}
	end, err := s.serverStats()
	if err != nil {
		return nil, err
	}
	if err := p.probeSegments(); err != nil {
		return nil, fmt.Errorf("segment probes: %w", err)
	}
	if err := p.probeBlockPath(); err != nil {
		return nil, fmt.Errorf("block-path probes: %w", err)
	}
	if err := p.probeQueries(); err != nil {
		return nil, fmt.Errorf("query probes: %w", err)
	}
	if err := p.probeTransport(s); err != nil {
		return nil, fmt.Errorf("transport probes: %w", err)
	}
	calib = append(calib, calibMs())

	v := map[string]float64{}
	for _, def := range perLayer {
		v[def.Name] = p.med(def.Name)
	}
	mixed := func(prefix string) float64 {
		var sum float64
		for kind, share := range queryMix {
			sum += share * p.med(prefix+kind+"_ms")
		}
		return sum
	}
	v["fleet.handle_hit_ms"] = mixed("fleet.handle_hit_")
	v["fleet.handle_miss_ms"] = mixed("fleet.handle_miss_")
	// An index certificate costs what hierarchical certification costs beyond
	// certifying the block alone, shared between the two indexes.
	v["core.index_cert_ms"] = max(p.med("core.process_block_hierarchical_ms")-p.med("core.process_block_ms"), 0) / 2
	if short.w.Chain.Indexed {
		v["query.sp_ingest_ms"] = p.med("query.sp_ingest_indexed_ms")
		v["fleet.ingest_ms"] = p.med("fleet.ingest_indexed_ms")
	}
	if short.w.Chain.SegmentK > 0 {
		v["core.bootstrap_fetches_per_op"] = float64(s.bootFetches)
	}

	// Counters of the live server: the enclave over the whole chain, the
	// response caches over the traced run.
	blocks := float64(max(end.Height, 1))
	v["enclave.ecalls_per_block"] = float64(end.Counters.Ecalls) / blocks
	v["enclave.bytes_in_per_block"] = float64(end.Counters.EnclaveBytesIn) / blocks
	c0, c1 := traced.m.marks[0].stats.Counters, traced.m.end.Counters
	if lookups := float64(c1.CacheHits + c1.CacheMisses - c0.CacheHits - c0.CacheMisses); lookups > 0 {
		v["query.cache_hit_rate"] = float64(c1.CacheHits-c0.CacheHits) / lookups
		v["query.cache_evictions_per_kop"] = float64(c1.CacheEvictions-c0.CacheEvictions) / lookups * 1000
	}
	v["driver.stale_header_retries_per_kop"] = float64(traced.m.retries) / float64(max(traced.m.attempted, 1)) * 1000
	v["driver.lateness_ms"] = median(traced.m.lateMs)
	v["host.slice_spread"] = plain.sliceSpread
	v["host.calib_ms"] = (calib[0] + calib[1]) / 2
	if r := plain.values["verified_per_s"]; r > 0 {
		v["trace.overhead_share"] = 1 - traced.values["verified_per_s"]/r
	}
	path := blockingPath(short.w, v)
	if l := plain.values["latency_p50_ms"]; l > 0 {
		v["budget.attributed_share"] = path.total() / l
	}

	if spansPath == "" {
		spansPath = filepath.Join(cfg.scratch, "..", "spans-"+cfg.w.Name+".json")
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}

	m := traced.m
	rep := &report{Attempted: m.attempted + plain.m.attempted, Failed: m.failed + plain.m.failed, Metrics: map[string]metric{}}
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	for _, def := range perLayer {
		rep.Metrics[def.Name] = metric{Value: v[def.Name], Unit: def.Unit}
	}
	fmt.Fprintf(os.Stderr, "e2e: spans=%s calib_ms=%.1f,%.1f untraced p50=%.4f ms rate=%.1f/s, traced rate=%.1f/s\n",
		spansPath, calib[0], calib[1], plain.values["latency_p50_ms"], plain.values["verified_per_s"], traced.values["verified_per_s"])
	fmt.Fprintf(os.Stderr, "e2e: blocking path of %s, against latency_p50_ms=%.4f:\n", cfg.w.Name, plain.values["latency_p50_ms"])
	for _, st := range path {
		fmt.Fprintf(os.Stderr, "  %-34s %10.4f ms\n", st.name, st.ms)
	}
	fmt.Fprintf(os.Stderr, "  %-34s %10.4f ms  attributed_share=%.3f\n", "sum", path.total(), v["budget.attributed_share"])
	for _, def := range perLayer {
		fmt.Fprintf(os.Stderr, "  %-38s %14.4f %s\n", def.Name, v[def.Name], def.Unit)
	}
	fmt.Fprintln(os.Stderr, "e2e: median self time per span name (duration minus child spans):")
	self := tr.selfTimesMs()
	for _, name := range sortedKeys(self) {
		fmt.Fprintf(os.Stderr, "  %-38s %14.4f ms\n", name, self[name])
	}
	if m.firstErr != nil {
		fmt.Fprintf(os.Stderr, "e2e: first failure: %v\n", m.firstErr)
	}
	return rep, nil
}

// step is one layer's time on a workload's blocking path.
type step struct {
	name string
	ms   float64
}

type steps []step

func (ss steps) total() float64 {
	var sum float64
	for _, s := range ss {
		sum += s.ms
	}
	return sum
}

// blockingPath lists the layer times that add up to one operation's
// latency on the workload: the steps the client's result waits for, one
// after the other. What the sum leaves of latency_p50_ms is time no probe
// covers.
func blockingPath(w *workload, v map[string]float64) steps {
	pick := func(names ...string) steps {
		out := make(steps, len(names))
		for i, n := range names {
			out[i] = step{n, v[n]}
		}
		return out
	}
	verify := step{"query.verify_*_ms (mix)", 0}
	for kind, share := range queryMix {
		verify.ms += share * v["query.verify_"+kind+"_ms"]
	}
	switch {
	case w.Chain.Pipelined:
		// submit: generate, propose, journal (validate + append); pipeline:
		// verify signatures, execute, prove, Ecall; then publish and the
		// client's validation.
		return pick("workload.gen_ms", "node.propose_ms", "node.validate_block_ms", "storage.apply_block_ms",
			"chain.verify_txs_ms", "core.outside_exec_ms", "core.outside_proof_ms",
			"enclave.inside_exec_ms", "enclave.overhead_ms",
			"transport.publish_deliver_ms", "core.client_validate_ms")
	case w.Chain.SegmentK > 0:
		n := v["core.bootstrap_fetches_per_op"]
		return steps{
			{"transport.rpc_rtt_ms (anchors)", v["transport.rpc_rtt_ms"]},
			{"fetches x transport.rpc_rtt_ms", n * v["transport.rpc_rtt_ms"]},
			{"fetches x core.segment_lookup_ms", n * v["core.segment_lookup_ms"]},
			{"fetches x core.segment_decode_ms", n * v["core.segment_decode_ms"]},
			{"fetches x core.segment_validate_ms", n * v["core.segment_validate_ms"]},
			{"transport.query_rtt_ms", v["transport.query_rtt_ms"]},
			{"query.codec_ms", v["query.codec_ms"]},
			{"query.verify_state_ms", v["query.verify_state_ms"]},
		}
	case w.IngestEvery > 0:
		return append(pick("transport.rpc_rtt_ms", "fleet.handle_miss_ms", "query.codec_ms"), verify)
	default:
		return append(pick("transport.rpc_rtt_ms", "fleet.handle_hit_ms", "query.codec_ms"), verify)
	}
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](set map[string]V) []string {
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
