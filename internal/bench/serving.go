package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcert"
	"dcert/internal/query"
	"dcert/internal/workload"
)

// Serving-plane experiment. A closed-loop load generator simulates a large
// population of superlight clients issuing verifiable state reads, and
// compares two serving configurations over the same chain:
//
//   - single SP — the pre-fleet wire door: every request runs the full
//     uncached prove path on one ServiceProvider (query.HandleRaw);
//   - fleet — the sharded serving plane: a consistent-hash router spreads
//     keys over N replicas, each with a singleflight LRU response cache.
//
// Every response is parsed and verified against the certified tip header;
// an unverifiable response fails the experiment. As with the pipeline
// experiment, two throughput numbers are reported per side: the wall
// requests/s actually measured on this host, and a modeled requests/s for an
// N-core host — replicas own disjoint key shards and share nothing on the
// read path, so fleet throughput is N / (mean per-request service time),
// with the mean service time measured, not assumed.
//
// Two micro-measurements complete the picture:
//
//   - burst — a cold-key 100-way burst gauges singleflight: the whole burst
//     must collapse onto one proof computation;
//   - batch — one K=16 batched multiproof request against 16 sequential
//     single-key round trips, both on the uncached path (the merged witness
//     shares upper trie nodes, so the batch must cost well under half). The
//     gate is on what is counted — one request instead of K, and the bytes
//     of the one response against the K summed — because the two wall times
//     are ≈0.2 ms means that do not repeat on a busy 2-vCPU host; they stay
//     as reported columns.

// ServingSide is one serving configuration's measurement.
type ServingSide struct {
	// WallRPS is requests/s actually measured on this host.
	WallRPS float64 `json:"wall_rps"`
	// ModeledRPS is the N-core schedule model: replicas / mean service time
	// (N=1 for the single SP).
	ModeledRPS float64 `json:"modeled_rps"`
	// MeanServiceUS is the measured mean per-request service time (µs).
	MeanServiceUS float64 `json:"mean_service_us"`
	// P50US and P99US are per-request latency percentiles (µs).
	P50US float64 `json:"p50_us"`
	P99US float64 `json:"p99_us"`
	// HitRate is the response-cache hit fraction (hits+collapsed over
	// served; zero for the uncached single SP).
	HitRate float64 `json:"hit_rate"`
	// Modeled flags ModeledRPS as schedule-model output.
	Modeled bool `json:"modeled"`
}

// ServingResult is the full experiment output (and the BENCH_serving.json
// schema).
type ServingResult struct {
	Scale    string `json:"scale"`
	Replicas int    `json:"replicas"`
	// Clients is the simulated superlight-client population; each client
	// issues one verified request.
	Clients int `json:"clients"`
	// HotKeys is the distinct-key working set the population draws from.
	HotKeys int `json:"hot_keys"`
	// Verified counts responses that passed client-side verification
	// (every request, across both sides and the micro-measurements).
	Verified int `json:"verified_responses"`

	SingleSP ServingSide `json:"single_sp"`
	Fleet    ServingSide `json:"fleet"`
	// SpeedupModeled is Fleet.ModeledRPS / SingleSP.ModeledRPS — the
	// headline (gate: ≥3 at 4 replicas).
	SpeedupModeled float64 `json:"speedup_modeled"`
	// SpeedupWall is the same ratio on wall numbers.
	SpeedupWall float64 `json:"speedup_wall"`

	// BurstWaiters concurrent requests for one cold key produced
	// BurstComputations proof computations (gate: exactly 1) and
	// BurstCollapsed singleflight-collapsed waiters.
	BurstWaiters      int    `json:"burst_waiters"`
	BurstComputations uint64 `json:"burst_computations"`
	BurstCollapsed    uint64 `json:"burst_collapsed"`

	// BatchK-key batched multiproof vs BatchK sequential single-key round
	// trips, uncached path, averaged over reps. The wall times are reported,
	// not gated.
	BatchK       int     `json:"batch_k"`
	BatchMS      float64 `json:"batch_ms"`
	SequentialMS float64 `json:"sequential_ms"`
	// BatchRatio is BatchMS / SequentialMS.
	BatchRatio float64 `json:"batch_ratio"`
	// BatchRequests and SequentialRequests count the requests all reps
	// issued each way (gate: 1 against BatchK per rep); BatchBytes and
	// SequentialBytes are the response bytes they received, and
	// BatchBytesRatio their quotient (gate: < 0.5). Counts repeat exactly
	// under the seed.
	BatchRequests      int     `json:"batch_requests"`
	SequentialRequests int     `json:"sequential_requests"`
	BatchBytes         int     `json:"batch_bytes"`
	SequentialBytes    int     `json:"sequential_bytes"`
	BatchBytesRatio    float64 `json:"batch_bytes_ratio"`
}

// servingParams sizes the experiment.
type servingParams struct {
	clients  int
	hotKeys  int
	workers  int
	replicas int
	burst    int
	batchK   int
	reps     int
	blocks   int
}

func servingParamsFor(scale Scale) servingParams {
	p := servingParams{
		clients:  10_000,
		hotKeys:  64,
		workers:  32,
		replicas: 4,
		burst:    100,
		batchK:   16,
		reps:     8,
		blocks:   4,
	}
	if scale == Paper {
		p.clients = 50_000
		p.hotKeys = 256
		p.blocks = 8
	}
	return p
}

// servingLoop drives n closed-loop requests through handle with c workers,
// verifying every response against hdr; it returns the wall time and the
// sorted per-request latencies.
func servingLoop(n, c, hotKeys int, keys []string, hdr *dcert.Header,
	handle func(raw []byte) []byte) (time.Duration, []time.Duration, error) {
	lat := make([]time.Duration, n)
	var next atomic.Int64
	var firstErr atomic.Value
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < c; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || firstErr.Load() != nil {
					return
				}
				req := query.NewStateRequest(keys[i%hotKeys])
				req.ID = uint64(i + 1) // each simulated client is distinct
				raw := req.Marshal()
				t0 := time.Now()
				respRaw := handle(raw)
				lat[i] = time.Since(t0)
				resp, err := query.UnmarshalResponse(respRaw)
				if err == nil && resp.Err != "" {
					err = fmt.Errorf("remote: %s", resp.Err)
				}
				var res *query.StateResult
				if err == nil {
					res, err = query.UnmarshalStateResult(resp.Body)
				}
				if err == nil {
					err = query.VerifyState(hdr, res)
				}
				if err != nil {
					firstErr.CompareAndSwap(nil, fmt.Errorf("request %d (%s): %w", i, keys[i%hotKeys], err))
					return
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	if err := firstErr.Load(); err != nil {
		return 0, nil, err.(error)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	return wall, lat, nil
}

// pct reads a percentile from sorted latencies, in µs.
func pct(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i]) / float64(time.Microsecond)
}

// fleetCacheStats sums response-cache counters across the fleet.
func fleetCacheStats(f *dcert.QueryFleet) (hits, misses, collapsed uint64) {
	for _, name := range f.Router().Members() {
		rep, err := f.Replica(name)
		if err != nil {
			continue
		}
		h, m, c, _ := rep.Cache().Stats()
		hits += h
		misses += m
		collapsed += c
	}
	return
}

// RunServing measures the sharded serving plane against the single-SP
// baseline on one chain.
func RunServing(scale Scale) (*ServingResult, error) {
	sp := servingParamsFor(scale)
	p := ParamsFor(scale)
	dep, err := dcert.NewDeployment(dcert.Config{
		Workload:   dcert.KVStore,
		Contracts:  p.Contracts,
		Accounts:   p.Accounts,
		Difficulty: 2,
		Seed:       21,
		KeySpace:   sp.hotKeys,
	})
	if err != nil {
		return nil, err
	}
	var tip *dcert.Block
	for i := 0; i < sp.blocks; i++ {
		if tip, _, err = dep.MineAndCertify(p.DefaultBlockSize); err != nil {
			return nil, err
		}
	}
	fleet, err := dep.StartFleet(sp.replicas)
	if err != nil {
		return nil, err
	}
	hdr := &tip.Header

	// The working set: state keys the workload actually wrote.
	var keys []string
	for c := 0; c < p.Contracts && len(keys) < sp.hotKeys; c++ {
		for i := 0; i < sp.hotKeys && len(keys) < sp.hotKeys; i++ {
			probe := fmt.Sprintf("ct/%s/kv/user-key-%d", workload.ContractName(workload.KVStore, c), i)
			res, err := dep.SP().StateQuery(probe)
			if err != nil {
				return nil, err
			}
			if res.Value != nil {
				keys = append(keys, probe)
			}
		}
	}
	if len(keys) < sp.batchK {
		return nil, fmt.Errorf("bench: only %d written keys, need ≥%d", len(keys), sp.batchK)
	}
	hot := sp.hotKeys
	if hot > len(keys) {
		hot = len(keys)
	}

	res := &ServingResult{
		Scale:    scale.String(),
		Replicas: sp.replicas,
		Clients:  sp.clients,
		HotKeys:  hot,
	}

	// Side 1: single SP, the pre-fleet wire door (uncached prove path).
	singleSP := dep.SP()
	wall, lat, err := servingLoop(sp.clients, sp.workers, hot, keys, hdr,
		func(raw []byte) []byte { return query.HandleRaw(singleSP, raw) })
	if err != nil {
		return nil, fmt.Errorf("bench: single SP: %w", err)
	}
	res.Verified += sp.clients
	mean := wall.Seconds() / float64(sp.clients)
	res.SingleSP = ServingSide{
		WallRPS:       float64(sp.clients) / wall.Seconds(),
		ModeledRPS:    1 / mean,
		MeanServiceUS: mean * 1e6,
		P50US:         pct(lat, 0.50),
		P99US:         pct(lat, 0.99),
		Modeled:       true,
	}

	// Side 2: the fleet door (router + per-replica singleflight LRU).
	wall, lat, err = servingLoop(sp.clients, sp.workers, hot, keys, hdr, fleet.HandleRaw)
	if err != nil {
		return nil, fmt.Errorf("bench: fleet: %w", err)
	}
	res.Verified += sp.clients
	hits, misses, collapsed := fleetCacheStats(fleet)
	mean = wall.Seconds() / float64(sp.clients)
	res.Fleet = ServingSide{
		WallRPS:       float64(sp.clients) / wall.Seconds(),
		ModeledRPS:    float64(sp.replicas) / mean,
		MeanServiceUS: mean * 1e6,
		P50US:         pct(lat, 0.50),
		P99US:         pct(lat, 0.99),
		HitRate:       float64(hits+collapsed) / float64(hits+misses+collapsed),
		Modeled:       true,
	}
	res.SpeedupModeled = res.Fleet.ModeledRPS / res.SingleSP.ModeledRPS
	res.SpeedupWall = res.Fleet.WallRPS / res.SingleSP.WallRPS

	// Burst: mine one block (advancing every replica resets its cache, so
	// the key is cold again), then slam one key from all waiters at once.
	if tip, _, err = dep.MineAndCertify(p.DefaultBlockSize / 4); err != nil {
		return nil, err
	}
	hdr = &tip.Header
	_, m0, c0 := fleetCacheStats(fleet)
	var ready, done sync.WaitGroup
	gate := make(chan struct{})
	var burstErr atomic.Value
	for i := 0; i < sp.burst; i++ {
		ready.Add(1)
		done.Add(1)
		go func(id uint64) {
			defer done.Done()
			req := query.NewStateRequest(keys[0])
			req.ID = id
			ready.Done()
			<-gate
			resp, err := query.UnmarshalResponse(fleet.HandleRaw(req.Marshal()))
			if err == nil && resp.Err != "" {
				err = fmt.Errorf("remote: %s", resp.Err)
			}
			var r *query.StateResult
			if err == nil {
				r, err = query.UnmarshalStateResult(resp.Body)
			}
			if err == nil {
				err = query.VerifyState(hdr, r)
			}
			if err != nil {
				burstErr.CompareAndSwap(nil, fmt.Errorf("burst: %w", err))
			}
		}(uint64(i + 1))
	}
	ready.Wait()
	close(gate)
	done.Wait()
	if err := burstErr.Load(); err != nil {
		return nil, err.(error)
	}
	res.Verified += sp.burst
	_, m1, c1 := fleetCacheStats(fleet)
	res.BurstWaiters = sp.burst
	res.BurstComputations = m1 - m0
	res.BurstCollapsed = c1 - c0

	// Batch: K-key multiproof vs K sequential round trips, both on the
	// uncached single-SP path so the comparison isolates the merged witness.
	res.BatchK = sp.batchK
	var batchSec, seqSec float64
	for rep := 0; rep < sp.reps; rep++ {
		batch := make([]string, sp.batchK)
		for i := range batch {
			batch[i] = keys[(rep*sp.batchK+i)%len(keys)]
		}

		t0 := time.Now()
		breq := query.NewBatchStateRequest(batch)
		bresp := query.Execute(singleSP, breq)
		if bresp.Err != "" {
			return nil, fmt.Errorf("bench: batch: %s", bresp.Err)
		}
		br, err := query.UnmarshalBatchStateResult(bresp.Body)
		if err == nil {
			err = query.VerifyBatchState(hdr, br)
		}
		if err != nil {
			return nil, fmt.Errorf("bench: batch: %w", err)
		}
		batchSec += time.Since(t0).Seconds()
		res.Verified++
		res.BatchRequests++
		res.BatchBytes += len(bresp.Body)

		t0 = time.Now()
		for _, k := range batch {
			sresp := query.Execute(singleSP, query.NewStateRequest(k))
			if sresp.Err != "" {
				return nil, fmt.Errorf("bench: sequential: %s", sresp.Err)
			}
			sr, err := query.UnmarshalStateResult(sresp.Body)
			if err == nil {
				err = query.VerifyState(hdr, sr)
			}
			if err != nil {
				return nil, fmt.Errorf("bench: sequential: %w", err)
			}
			res.Verified++
			res.SequentialRequests++
			res.SequentialBytes += len(sresp.Body)
		}
		seqSec += time.Since(t0).Seconds()
	}
	res.BatchMS = batchSec / float64(sp.reps) * 1000
	res.SequentialMS = seqSec / float64(sp.reps) * 1000
	res.BatchRatio = batchSec / seqSec
	res.BatchBytesRatio = float64(res.BatchBytes) / float64(res.SequentialBytes)
	return res, nil
}

// WriteJSON persists the result (the make bench-json artifact).
func (r *ServingResult) WriteJSON(path string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// Table renders the result.
func (r *ServingResult) Table() *Table {
	t := &Table{
		Title: "Serving — sharded SP fleet vs single SP",
		Note: fmt.Sprintf("%d clients over %d hot keys, every response verified (%d total); modeled rps assumes one core per replica; burst: %d waiters → %d computation(s), %d collapsed; batch K=%d: %d request vs %d, %d response bytes vs %d (%.2fx), %.2f ms vs %.2f ms sequential (%.2fx)",
			r.Clients, r.HotKeys, r.Verified, r.BurstWaiters, r.BurstComputations, r.BurstCollapsed,
			r.BatchK, r.BatchRequests, r.SequentialRequests, r.BatchBytes, r.SequentialBytes, r.BatchBytesRatio,
			r.BatchMS, r.SequentialMS, r.BatchRatio),
		Columns: []string{"side", "replicas", "wall rps", "modeled rps", "mean µs", "p50 µs", "p99 µs", "hit rate"},
	}
	row := func(name string, n int, s ServingSide) []string {
		return []string{
			name, fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", s.WallRPS), fmt.Sprintf("%.0f", s.ModeledRPS),
			fmt.Sprintf("%.1f", s.MeanServiceUS),
			fmt.Sprintf("%.1f", s.P50US), fmt.Sprintf("%.1f", s.P99US),
			fmt.Sprintf("%.3f", s.HitRate),
		}
	}
	t.Rows = append(t.Rows, row("single-sp", 1, r.SingleSP))
	t.Rows = append(t.Rows, row("fleet", r.Replicas, r.Fleet))
	t.Rows = append(t.Rows, []string{"speedup", "", fmt.Sprintf("%.2fx", r.SpeedupWall),
		fmt.Sprintf("%.2fx", r.SpeedupModeled), "", "", "", ""})
	return t
}
