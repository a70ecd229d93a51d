// Command e2e is DCert's end-to-end benchmark: it starts the system as a
// separate server process (durable storage, SGX cost model, certification
// plane, serving fleet, TCP wire), drives it over loopback TCP with clients
// that verify every response, and prints the metrics BENCHMARK.json names.
//
//	e2e -workload <name> [-seed N] [-seconds S] [-trace 0|1]
//	e2e -selfcheck            every tampered response must be rejected
//	e2e -repeat N             two interleaved sets of N runs per workload
//
// See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef is one metric as BENCHMARK.json declares it; a test holds the
// two together.
type metricDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse (0 for per-layer metrics, which have none).
	Bound float64
}

// endToEnd lists every end-to-end metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"verified_per_s", "1/s", "higher", 0.2},
	{"latency_p50_ms", "ms", "lower", 0.2},
	{"latency_tail_ms", "ms", "lower", 0.25},
	{"proof_bytes_per_op", "bytes", "lower", 0.01},
	{"client_storage_bytes", "bytes", "lower", 0.005},
	{"server_cpu_ms_per_op", "ms", "lower", 0.2},
	{"client_cpu_ms_per_op", "ms", "lower", 0.25},
	{"server_peak_rss_mb", "MiB", "lower", 0.25},
}

func main() {
	// Both processes run on the same number of threads, whatever the host.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	if arg := os.Getenv(childEnv); arg != "" {
		if err := childMain(arg); err != nil {
			fmt.Fprintln(os.Stderr, "e2e server:", err)
			os.Exit(1)
		}
		return
	}

	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of the chain contents and the operation list")
	seconds := flag.Float64("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1: traced run at a tenth of the length, printing the per-layer metrics")
	scale := flag.String("scale", "full", "full, or smoke: short chains and a fixed operation count")
	spans := flag.String("spans", "", "with -trace 1: write the spans to this file")
	scratch := flag.String("scratch", filepath.Join(".bench_build", "tmp"), "directory for the servers' data directories")
	selfcheck := flag.Bool("selfcheck", false, "tamper with one response of each kind; the client must reject each")
	repeat := flag.Int("repeat", 0, "run two interleaved sets of this many runs per workload and print how they compare")
	flag.Parse()

	if *selfcheck {
		exit(selfCheck(*seed, *scratch))
	}
	if *repeat > 0 {
		exit(repeatRuns(*repeat, *seconds, *name, *scratch))
	}
	w, err := workloadByName(*name)
	if err != nil {
		exit(err)
	}
	cfg := &runConfig{w: w, seed: *seed, seconds: *seconds, setups: 3, scratch: *scratch}
	if *scale == "smoke" {
		cfg.w, cfg.smoke = w.smoke(), true
		cfg.seconds, cfg.maxOps, cfg.setups = 0, int64(w.SmokeOps), 1
	}
	fmt.Fprintf(os.Stderr, "e2e: workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d conns=%d\n",
		w.Name, *seed, cfg.seconds, *trace, procs, w.Conns)

	var rep *report
	if *trace == 1 {
		rep, err = tracedRun(cfg, *spans)
	} else {
		var out *outcome
		if out, err = run(cfg); err == nil {
			rep = out.report()
		}
	}
	if err != nil {
		exit(err)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		exit(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func exit(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	os.Exit(0)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// outcome is one run, measured.
type outcome struct {
	cfg       *runConfig
	m         *measured
	setups    []float64 // seconds
	opsDigest string
	// storage is the client's footprint at the end of the run; storageStart
	// is the same right after the client was anchored.
	storage, storageStart int
	values                map[string]float64
	sliceSpread           float64
}

// run sets the server up cfg.setups times, measures on the last one and
// works the end-to-end metrics out.
func run(cfg *runConfig) (*outcome, error) {
	out := &outcome{cfg: cfg}
	var s *session
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			if err := s.close(); err != nil {
				return nil, fmt.Errorf("server exit: %w", err)
			}
		}
		var err error
		if s, err = setUp(cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.setups = append(out.setups, s.setup.Seconds())
	}
	defer s.close()
	if err := out.measure(s); err != nil {
		return nil, err
	}
	return out, nil
}

// measure runs the workload's measured phase on a set-up session.
func (out *outcome) measure(s *session) (err error) {
	out.opsDigest = inputsDigest(s.ops, s.keys)
	out.storageStart = s.storageAtStart
	if s.w.Chain.Pipelined {
		out.m, err = s.certStream()
	} else {
		out.m, err = s.closedLoop()
	}
	if err != nil {
		return err
	}
	out.storage = s.client.StorageSize()
	out.compute()
	return nil
}

// compute derives the end-to-end metrics from the raw measurements. The
// rate, the latencies and the CPU per operation are each a median over the
// run's slices, so that one stall from a noisy neighbour does not move them.
func (out *outcome) compute() {
	m := out.m
	rates := sliceRates(m.samples, m.marks[0].at, 10)
	out.sliceSpread = spread(rates)

	var p50s, tails, serverCPU, clientCPU []float64
	lo := 0
	for k := 1; k < len(m.marks); k++ {
		hi := lo
		for hi < len(m.samples) && (m.samples[hi].done <= m.marks[k].at || k == len(m.marks)-1) {
			hi++
		}
		n := hi - lo
		if n == 0 {
			continue
		}
		serverCPU = append(serverCPU, (m.marks[k].server-m.marks[k-1].server)*1e3/float64(n))
		clientCPU = append(clientCPU, (m.marks[k].client-m.marks[k-1].client)*1e3/float64(n))
		if len(m.latMs) == 0 {
			lat := make([]float64, 0, hi-lo)
			for _, sm := range m.samples[lo:hi] {
				lat = append(lat, float64(sm.lat)/1e6)
			}
			p50s = append(p50s, percentile(lat, 50))
			tails = append(tails, percentile(lat, out.cfg.w.TailPct))
		}
		lo = hi
	}
	if len(m.latMs) > 0 {
		p50s = []float64{percentile(m.latMs, 50)}
		tails = []float64{percentile(m.latMs, out.cfg.w.TailPct)}
	}
	out.values = map[string]float64{
		"setup_s":              median(out.setups),
		"verified_per_s":       median(rates),
		"latency_p50_ms":       median(p50s),
		"latency_tail_ms":      median(tails),
		"proof_bytes_per_op":   float64(m.bytes) / float64(max(m.verified, 1)),
		"client_storage_bytes": float64(out.storage),
		"server_cpu_ms_per_op": median(serverCPU),
		"client_cpu_ms_per_op": median(clientCPU),
		"server_peak_rss_mb":   float64(m.end.PeakRSSBytes) / (1 << 20),
	}
}

// report renders the outcome as the result line, and explains on stderr what
// the line cannot carry.
func (out *outcome) report() *report {
	m := out.m
	rep := &report{Attempted: m.attempted, Failed: m.failed, Metrics: map[string]metric{}}
	for _, def := range endToEnd {
		rep.Metrics[def.Name] = metric{Value: out.values[def.Name], Unit: def.Unit}
	}
	// A client keeps one header and one certificate whatever it validates;
	// the certificate's signature length may differ by a byte or two.
	storageSteady := abs(out.storage-out.storageStart) <= 4
	rep.Correct = m.failed == 0 && m.attempted > 0 && storageSteady
	fmt.Fprintf(os.Stderr, "e2e: inputs_digest=%s measured_ops=%d latency_samples=%d tail=p%g slice_spread=%.3f setups=%v client_storage=%d->%d\n",
		out.opsDigest, len(m.samples), max(len(m.latMs), len(m.samples)), out.cfg.w.TailPct, out.sliceSpread, out.setups, out.storageStart, out.storage)
	if m.firstErr != nil {
		fmt.Fprintf(os.Stderr, "e2e: %d of %d operations failed, first: %v\n", m.failed, m.attempted, m.firstErr)
	}
	if !storageSteady {
		fmt.Fprintf(os.Stderr, "e2e: client storage moved from %d to %d bytes\n", out.storageStart, out.storage)
	}
	for _, def := range endToEnd {
		fmt.Fprintf(os.Stderr, "  %-22s %14.4f %s\n", def.Name, out.values[def.Name], def.Unit)
	}
	return rep
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
