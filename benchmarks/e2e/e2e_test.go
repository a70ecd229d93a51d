package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// The tests re-exec the test binary as the server child.
func TestMain(m *testing.M) {
	if arg := os.Getenv(childEnv); arg != "" {
		if err := childMain(arg); err != nil {
			println("e2e server:", err.Error())
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

func smokeRun(t *testing.T, w *workload, seed int64) *outcome {
	t.Helper()
	cfg := &runConfig{w: w.smoke(), seed: seed, smoke: true, maxOps: int64(w.SmokeOps), setups: 1, scratch: t.TempDir()}
	out, err := run(cfg)
	if err != nil {
		t.Fatalf("%s seed %d: %v", w.Name, seed, err)
	}
	if out.m.failed != 0 || out.m.attempted == 0 {
		t.Fatalf("%s seed %d: %d of %d operations failed: %v", w.Name, seed, out.m.failed, out.m.attempted, out.m.firstErr)
	}
	if rep := out.report(); !rep.Correct {
		t.Fatalf("%s seed %d: run is not correct", w.Name, seed)
	}
	return out
}

// Every workload completes at smoke scale with every operation verified; the
// same seed gives the same inputs and the same byte and count metrics, and
// another seed gives other inputs.
func TestSmokeRunsRepeat(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			a, b, c := smokeRun(t, w, 1), smokeRun(t, w, 1), smokeRun(t, w, 2)
			if a.opsDigest != b.opsDigest {
				t.Errorf("same seed, inputs digest %s then %s", a.opsDigest, b.opsDigest)
			}
			if a.opsDigest == c.opsDigest {
				t.Errorf("seeds 1 and 2 gave the same inputs digest %s", a.opsDigest)
			}
			if a.m.attempted != b.m.attempted {
				t.Errorf("same seed, %d then %d operations", a.m.attempted, b.m.attempted)
			}
			// Transaction and certificate signatures come from keys the
			// deployment draws at random, and a DER signature's length moves
			// by a byte or two; everything else repeats exactly. Where blocks
			// are mined beside the reads, which reads see which block is a
			// race the workload is about, and proofs grow with the chain.
			slack := 4.0
			if w.IngestEvery > 0 {
				slack = 0.03 * a.values["proof_bytes_per_op"]
			}
			for _, name := range []string{"proof_bytes_per_op", "client_storage_bytes"} {
				if x, y := a.values[name], b.values[name]; math.Abs(x-y) > slack {
					t.Errorf("same seed, %s %v then %v", name, x, y)
				}
			}
			if a.storage == 0 || abs(a.storage-a.storageStart) > 4 {
				t.Errorf("client storage %d at the start, %d at the end", a.storageStart, a.storage)
			}
		})
	}
}

func TestSelfCheckRejectsTampering(t *testing.T) {
	if err := selfCheck(1, t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// The traced run reports every per-layer metric and writes spans that share
// an op_id per operation.
func TestTracedRunReportsEveryLayer(t *testing.T) {
	w := workloads[3] // query_cold_ingest drives every kind of span
	dir := t.TempDir()
	spansPath := filepath.Join(dir, "spans.json")
	cfg := &runConfig{w: w.smoke(), seed: 1, smoke: true, maxOps: int64(w.SmokeOps), setups: 1, scratch: dir}
	rep, err := tracedRun(cfg, spansPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("traced run failed %d of %d operations", rep.Failed, rep.Attempted)
	}
	for _, def := range perLayer {
		m, ok := rep.Metrics[def.Name]
		if !ok || m.Unit != def.Unit {
			t.Errorf("metric %s missing or in unit %q", def.Name, m.Unit)
		}
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("%d metrics reported, %d declared", len(rep.Metrics), len(perLayer))
	}
	for _, name := range []string{"chain.verify_txs_ms", "fleet.handle_miss_ms", "core.segment_validate_ms", "transport.rpc_rtt_ms", "budget.attributed_share"} {
		if rep.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v", name, rep.Metrics[name].Value)
		}
	}
	raw, err := os.ReadFile(spansPath)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(raw, &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int64]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	children := 0
	for _, s := range spans {
		if s.OpID == 0 || s.End < s.Start {
			t.Fatalf("span %+v has no operation or ends before it starts", s)
		}
		if s.Parent != 0 {
			children++
			if p, ok := byID[s.Parent]; !ok || p.OpID != s.OpID {
				t.Fatalf("span %+v and its parent %+v are of different operations", s, p)
			}
		}
	}
	if children == 0 {
		t.Error("no span has a parent")
	}
}

// BENCHMARK.json declares exactly the workloads and metrics this program
// measures.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d measured", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := decl.Workloads[i]; d.Name != w.Name || d.Why != w.Why {
			t.Errorf("workload %d declared as %q: %q", i, d.Name, d.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters", w.Name, len(w.Why))
		}
	}
	if len(decl.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d measured", len(decl.EndToEnd), len(endToEnd))
	}
	for i, def := range endToEnd {
		if d := decl.EndToEnd[i]; d.Name != def.Name || d.Unit != def.Unit || d.Better != def.Better || d.Bound != def.Bound {
			t.Errorf("end-to-end metric %d declared as %+v, measured as %+v", i, d, def)
		}
	}
	if len(decl.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics declared, %d measured", len(decl.PerLayer), len(perLayer))
	}
	for i, def := range perLayer {
		if d := decl.PerLayer[i]; d.Name != def.Name || d.Unit != def.Unit || d.Better != def.Better {
			t.Errorf("per-layer metric %d declared as %+v, measured as %+v", i, d, def)
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{3, 1, 4, 2, 5, 10, 9, 8, 7, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
	if got, want := quartileSpread([]float64{50, 10, 40, 20, 30}), 1.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
}

func TestSliceRates(t *testing.T) {
	// 20 operations, one per 10 ms, the first at 10 ms: 100/s in every slice.
	ops := make([]sample, 20)
	for i := range ops {
		ops[i].done = int64(i+1) * 10e6
	}
	rates := sliceRates(ops, 0, 10)
	if len(rates) != 10 {
		t.Fatalf("%d slices", len(rates))
	}
	for _, r := range rates {
		if math.Abs(r-100) > 1e-9 {
			t.Errorf("slice rate %v, want 100", r)
		}
	}
	if got := percentile([]float64{5, 1, 4, 2, 3}, 90); got != 5 {
		t.Errorf("p90 = %v", got)
	}
}
