package bench

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseScale(t *testing.T) {
	for in, want := range map[string]Scale{"small": Small, "": Small, "paper": Paper, "FULL": Paper} {
		got, err := ParseScale(in)
		if err != nil {
			t.Fatalf("ParseScale(%q): %v", in, err)
		}
		if got != want {
			t.Fatalf("ParseScale(%q) = %v", in, got)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("want error for unknown scale")
	}
	if Small.String() != "small" || Paper.String() != "paper" {
		t.Fatal("Scale.String mismatch")
	}
}

func TestTablePrint(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Note:    "note",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"demo", "note", "long-column", "333"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunParams(t *testing.T) {
	tab := RunParams(Small)
	if len(tab.Rows) < 5 {
		t.Fatalf("Table 1 has %d rows", len(tab.Rows))
	}
	pp := ParamsFor(Paper)
	if pp.DefaultBlockSize != 2000 || pp.Contracts != 500 {
		t.Fatalf("paper params must match Table 1: %+v", pp)
	}
	sp := ParamsFor(Small)
	if sp.QueryChainBlocks >= pp.QueryChainBlocks {
		t.Fatal("small scale must be smaller than paper scale")
	}
}

func TestRunFig7ShapeHolds(t *testing.T) {
	res, err := RunFig7(Small)
	if err != nil {
		t.Fatalf("RunFig7: %v", err)
	}
	if len(res.Points) < 4 {
		t.Fatalf("fig7 has %d points", len(res.Points))
	}
	var prevLight int
	var superSizes []int
	for _, pt := range res.Points {
		if pt.LightStorage <= prevLight {
			t.Fatalf("light storage must grow with chain length: %+v", pt)
		}
		prevLight = pt.LightStorage
		superSizes = append(superSizes, pt.SuperStorage)
	}
	for _, s := range superSizes[1:] {
		if s != superSizes[0] {
			t.Fatalf("superlight storage must be constant: %v", superSizes)
		}
	}
	// At the largest measured length, light validation must exceed
	// superlight validation.
	last := res.Points[len(res.Points)-1]
	if last.LightValidate <= last.SuperValidate {
		t.Fatalf("light validation (%v) should exceed superlight (%v) at length %d",
			last.LightValidate, last.SuperValidate, last.ChainLength)
	}
	res.Table().Fprint(&strings.Builder{})
}

func TestRunFig8ShapeHolds(t *testing.T) {
	res, err := RunFig8(Small)
	if err != nil {
		t.Fatalf("RunFig8: %v", err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("fig8 has %d points, want 5 workloads", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.Total() <= 0 {
			t.Fatalf("%s: zero total", pt.Workload)
		}
		if pt.EnclaveFactor < 1 {
			t.Fatalf("%s: enclave factor %v < 1", pt.Workload, pt.EnclaveFactor)
		}
		// The calibrated model keeps the factor in the paper's ballpark.
		if pt.EnclaveFactor > 3 {
			t.Fatalf("%s: enclave factor %v implausibly high", pt.Workload, pt.EnclaveFactor)
		}
	}
	res.Table().Fprint(&strings.Builder{})
}

func TestRunFig9ShapeHolds(t *testing.T) {
	res, err := RunFig9(Small)
	if err != nil {
		t.Fatalf("RunFig9: %v", err)
	}
	p := ParamsFor(Small)
	if len(res.Points) != 2*len(p.BlockSizes) {
		t.Fatalf("fig9 has %d points", len(res.Points))
	}
	// Within each workload, total time must grow from smallest to largest
	// block size.
	byWorkload := map[string][]Fig8Point{}
	for _, pt := range res.Points {
		byWorkload[pt.Workload.String()] = append(byWorkload[pt.Workload.String()], pt)
	}
	for w, pts := range byWorkload {
		first, last := pts[0], pts[len(pts)-1]
		if last.Total() <= first.Total() {
			t.Fatalf("%s: total did not grow with block size (%v → %v)", w, first.Total(), last.Total())
		}
	}
	res.Table().Fprint(&strings.Builder{})
}

func TestRunFig10ShapeHolds(t *testing.T) {
	res, err := RunFig10(Small)
	if err != nil {
		t.Fatalf("RunFig10: %v", err)
	}
	byScheme := map[string]map[int]Fig10Point{}
	for _, pt := range res.Points {
		if byScheme[pt.Scheme] == nil {
			byScheme[pt.Scheme] = map[int]Fig10Point{}
		}
		byScheme[pt.Scheme][pt.Indexes] = pt
	}
	p := ParamsFor(Small)
	maxIdx := p.IndexCounts[len(p.IndexCounts)-1]
	aug, hier := byScheme["augmented"], byScheme["hierarchical"]
	// At many indexes the hierarchical scheme must win decisively.
	if hier[maxIdx].Construction >= aug[maxIdx].Construction {
		t.Fatalf("hierarchical (%v) must beat augmented (%v) at %d indexes",
			hier[maxIdx].Construction, aug[maxIdx].Construction, maxIdx)
	}
	// Augmented grows steeply with index count; hierarchical only mildly.
	augGrowth := aug[maxIdx].Construction / aug[1].Construction
	hierGrowth := hier[maxIdx].Construction / hier[1].Construction
	if augGrowth <= hierGrowth {
		t.Fatalf("augmented growth (%.2fx) must exceed hierarchical growth (%.2fx)", augGrowth, hierGrowth)
	}
	// Ecall counts match the schemes' designs: augmented = N, hierarchical = N+1.
	if aug[4].Ecalls != 4 || hier[4].Ecalls != 5 {
		t.Fatalf("ecalls: augmented=%v hierarchical=%v, want 4 and 5", aug[4].Ecalls, hier[4].Ecalls)
	}
	res.Table().Fprint(&strings.Builder{})
}

func TestRunFig11ShapeHolds(t *testing.T) {
	res, err := RunFig11(Small)
	if err != nil {
		t.Fatalf("RunFig11: %v", err)
	}
	p := ParamsFor(Small)
	if len(res.Points) != 2*len(p.WindowBlocks) {
		t.Fatalf("fig11 has %d points", len(res.Points))
	}
	// For every window the DCert index must produce smaller proofs than the
	// skip-list baseline (the paper's headline for Fig. 11b).
	byWindow := map[int]map[string]Fig11Point{}
	for _, pt := range res.Points {
		if byWindow[pt.WindowBlocks] == nil {
			byWindow[pt.WindowBlocks] = map[string]Fig11Point{}
		}
		byWindow[pt.WindowBlocks][pt.Design] = pt
	}
	for w, m := range byWindow {
		if m["dcert"].ProofSize >= m["lineagechain"].ProofSize {
			t.Fatalf("window %d: dcert proof %d must be smaller than baseline %d",
				w, m["dcert"].ProofSize, m["lineagechain"].ProofSize)
		}
		if m["dcert"].Results != m["lineagechain"].Results {
			t.Fatalf("window %d: result sets differ between designs", w)
		}
	}
	res.Table().Fprint(&strings.Builder{})
}

func TestRunHeadline(t *testing.T) {
	res, err := RunHeadline(Small)
	if err != nil {
		t.Fatalf("RunHeadline: %v", err)
	}
	if res.StorageBytes < 1024 || res.StorageBytes > 8192 {
		t.Fatalf("storage %d bytes outside plausible range", res.StorageBytes)
	}
	if res.BootstrapWarm <= 0 || res.BootstrapWarm > 0.05 {
		t.Fatalf("warm bootstrap %v s implausible", res.BootstrapWarm)
	}
	// Cold includes the attestation path, so it should not be drastically
	// faster than warm; allow scheduler noise on loaded machines.
	if res.BootstrapCold < res.BootstrapWarm/2 {
		t.Fatalf("cold bootstrap (%v) should not beat warm (%v)", res.BootstrapCold, res.BootstrapWarm)
	}
	if res.Construction >= 15 {
		t.Fatalf("construction %v s exceeds the block interval", res.Construction)
	}
	res.Table().Fprint(&strings.Builder{})
}

func TestRunAblationShapeHolds(t *testing.T) {
	res, err := RunAblation(Small)
	if err != nil {
		t.Fatalf("RunAblation: %v", err)
	}
	byStudy := map[string][]AblationRow{}
	for _, row := range res.Rows {
		byStudy[row.Study] = append(byStudy[row.Study], row)
	}
	if len(byStudy) != 5 {
		t.Fatalf("expected 5 studies, got %d", len(byStudy))
	}
	// A1: a 100 ms per-ecall latency must visibly dominate the zero-latency
	// baseline (the signal is ~100 ms/block, far above scheduler noise even
	// when the whole suite runs in parallel).
	a1 := byStudy["A1 transition cost"]
	if parseMS(t, a1[len(a1)-1].Value) < parseMS(t, a1[0].Value)+50 {
		t.Fatalf("A1: higher ecall latency should not be cheaper: %v vs %v", a1[0].Value, a1[len(a1)-1].Value)
	}
	// A3: shrinking the EPC budget far below the witness size must cost more.
	a3 := byStudy["A3 EPC paging"]
	if parseMS(t, a3[len(a3)-1].Value) <= parseMS(t, a3[0].Value) {
		t.Fatalf("A3: tiny EPC budget should be slower: %v vs %v", a3[0].Value, a3[len(a3)-1].Value)
	}
	// A4: warm validation must beat cold validation.
	a4 := byStudy["A4 report caching"]
	if parseMS(t, a4[1].Value) >= parseMS(t, a4[0].Value) {
		t.Fatalf("A4: warm (%s) must beat cold (%s)", a4[1].Value, a4[0].Value)
	}
	// A5: both backends produce working measurements.
	if len(byStudy["A5 state backend"]) != 4 {
		t.Fatalf("A5: got %d rows", len(byStudy["A5 state backend"]))
	}
	res.Table().Fprint(&strings.Builder{})
}

func parseMS(t *testing.T, s string) float64 {
	t.Helper()
	var v float64
	if _, err := fmt.Sscanf(s, "%f", &v); err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestRunVendors(t *testing.T) {
	res, err := RunVendors(Small)
	if err != nil {
		t.Fatalf("RunVendors: %v", err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 vendors, got %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Construction <= 0 {
			t.Fatalf("%s: zero construction time", row.Vendor)
		}
		if row.InsideShare <= 0 || row.InsideShare >= 1 {
			t.Fatalf("%s: implausible trusted share %v", row.Vendor, row.InsideShare)
		}
	}
	res.Table().Fprint(&strings.Builder{})
}

func TestRunServingGatesHold(t *testing.T) {
	res, err := RunServing(Small)
	if err != nil {
		t.Fatalf("RunServing: %v", err)
	}
	// Every response the load generator received must have verified.
	wantVerified := res.Clients*2 + res.BurstWaiters + 8*(res.BatchK+1)
	if res.Verified != wantVerified {
		t.Fatalf("verified %d responses, want %d", res.Verified, wantVerified)
	}
	// Gate 1: the 4-replica fleet must model ≥3× the single SP.
	if res.Replicas != 4 {
		t.Fatalf("expected 4 replicas, got %d", res.Replicas)
	}
	if res.SpeedupModeled < 3 {
		t.Fatalf("modeled fleet speedup %.2fx < 3x (single %.0f rps, fleet %.0f rps)",
			res.SpeedupModeled, res.SingleSP.ModeledRPS, res.Fleet.ModeledRPS)
	}
	// Gate 2: a 100-way cold-key burst collapses to one computation.
	if res.BurstComputations != 1 {
		t.Fatalf("burst ran %d computations, want 1 (collapsed %d of %d)",
			res.BurstComputations, res.BurstCollapsed, res.BurstWaiters)
	}
	// Gate 3: one K-key multiproof replaces K round trips and carries under
	// half their response bytes. Counted, not timed: the wall-clock ratio of
	// two ≈0.2 ms means crossed a 0.5 bar about one run in five on a 2-vCPU
	// host; it stays in the result as a reported column.
	if res.BatchRequests == 0 || res.SequentialRequests != res.BatchK*res.BatchRequests {
		t.Fatalf("%d batch requests against %d sequential, want 1 against %d",
			res.BatchRequests, res.SequentialRequests, res.BatchK)
	}
	if res.BatchBytesRatio >= 0.5 {
		t.Fatalf("batch bytes ratio %.3f ≥ 0.5 (%d bytes vs %d for %d single responses)",
			res.BatchBytesRatio, res.BatchBytes, res.SequentialBytes, res.BatchK)
	}
	if res.BatchMS <= 0 || res.SequentialMS <= 0 {
		t.Fatalf("batch wall times not reported: %.3f ms vs %.3f ms", res.BatchMS, res.SequentialMS)
	}
	if res.Fleet.HitRate <= 0.5 {
		t.Fatalf("fleet hit rate %.3f implausibly low for a hot-key working set", res.Fleet.HitRate)
	}
	res.Table().Fprint(&strings.Builder{})
}
