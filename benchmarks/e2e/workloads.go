package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
)

// Operation kinds.
const (
	opState byte = iota
	opHistorical
	opKeyword
	opBootstrap
	opBlock
)

// op is one unit of client work: a verified query, a verified bootstrap, or
// a block whose certificate the client validates. A and B index the server's
// sorted list of written state keys.
type op struct {
	Kind byte
	A, B int32
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json).
	Why string
	// Chain is the set-up chain and the block size used afterwards.
	Chain chainSpec
	// Conns is the number of closed-loop load connections.
	Conns int
	// TailPct is the tail percentile reported as latency_tail_ms: the
	// highest with at least ten samples beyond it at the run's sample count.
	TailPct float64
	// Zipf > 0 draws query keys from a Zipf distribution with that exponent
	// over the written keys; 0 draws uniformly.
	Zipf float64
	// IngestEvery > 0 mines one indexed block of IngestTxs transactions per
	// that many queries, beside the reads.
	IngestEvery, IngestTxs int
	// StreamRate is the open-loop block rate (blocks/s) of cert_stream's
	// latency phase; it is frozen at under half the saturation rate of the
	// seed code.
	StreamRate float64
	// SmokeOps is the fixed operation count of a smoke run (tests).
	SmokeOps int
}

// saturationShare is the share of cert_stream's measured time spent in the
// closed-loop saturation phase, before the open-loop latency phase.
const saturationShare = 0.35

// histWindow is the version window of a historical query: the last 16
// heights of the set-up chain, or all of a shorter one.
const histWindow = 16

// opListLen is the length of the operation list. A run cycles through it
// several times, so the mix of operations a run executes is the list's mix
// whatever the run's length.
const opListLen = 1 << 14

// datasetSeed makes the chain of the query workloads. Their chain is the same
// for every --seed, which orders the requests: with 256 hot keys the proof
// sizes of the few most popular keys would otherwise differ by 6 % from seed
// to seed and hide a change a hundred times smaller.
const datasetSeed = 1

// chainSeed is the seed the server builds the workload's chain from.
func (w *workload) chainSeed(seed int64) int64 {
	if w.Chain.Indexed {
		return datasetSeed
	}
	return seed
}

var workloads = []*workload{
	{
		Name: "cert_stream",
		Why:  "Certification path does all the work (verify, exec, proof, Ecall, journal, publish); queries idle. 1 submit conn: closed loop for the rate, then open loop at 16 blocks/s for latency (tail p90).",
		Chain: chainSpec{
			KeySpace: 1000, Contracts: 20,
			Blocks: 4, Txs: 25, StreamTxs: 25,
			Pipelined: true,
		},
		Conns:      1,
		TailPct:    90,
		StreamRate: 16,
		SmokeOps:   12,
	},
	{
		Name: "client_bootstrap",
		Why:  "K=16 segment certificates are verified, not issued: no Ecall, exec or storage write while measured; set-up is the segment-certification cost. 2 closed-loop conns, tail p99.",
		Chain: chainSpec{
			KeySpace: 1000, Contracts: 20,
			Blocks: 512, Txs: 4, SegmentK: 16,
		},
		Conns:    2,
		TailPct:  99,
		SmokeOps: 40,
	},
	{
		Name: "query_hot",
		Why:  "Zipf(1.1) over 256 keys fits the 2x4 MiB response caches: route, cache, socket and client verify dominate, prove is skipped. 2 closed-loop conns, 70/20/10 state/historical/keyword, tail p99.",
		Chain: chainSpec{
			KeySpace: 256, Contracts: 1,
			Blocks: 32, Txs: 40,
			Indexed: true,
		},
		Conns:    2,
		TailPct:  99,
		Zipf:     1.1,
		SmokeOps: 400,
	},
	{
		Name: "query_cold_ingest",
		Why:  "Uniform keys and one 50-tx block mined per 1000 queries (caches reset per block): prove, epoch swap and index Ecalls run; a cache-only gain predicts no change. 2 closed-loop conns, tail p99.",
		Chain: chainSpec{
			KeySpace: 5000, Contracts: 4,
			Blocks: 12, Txs: 160,
			Indexed: true,
		},
		Conns:       2,
		TailPct:     99,
		IngestEvery: 1000,
		IngestTxs:   50,
		SmokeOps:    400,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// smoke returns the workload at test scale: a short chain, same shape.
func (w *workload) smoke() *workload {
	s := *w
	switch {
	case s.Chain.SegmentK > 0:
		s.Chain.Blocks = 64
	case s.Chain.Indexed:
		s.Chain.Blocks, s.Chain.Txs = 8, 20
		s.Chain.KeySpace = min(s.Chain.KeySpace, 300)
		s.IngestEvery = min(s.IngestEvery, 100)
		s.IngestTxs = min(s.IngestTxs, 10)
	default:
		s.Chain.Blocks, s.Chain.Txs, s.Chain.StreamTxs = 2, 10, 10
		s.StreamRate = 20
	}
	return &s
}

// genOps makes the workload's operation list. nKeys is the number of written
// state keys the server reported. Which operations the list holds is fixed
// per workload; the seed decides their order.
func (w *workload) genOps(seed int64, nKeys int) []op {
	if w.Chain.Pipelined {
		return []op{{Kind: opBlock}}
	}
	rng := rand.New(rand.NewSource(datasetSeed))
	if nKeys < 2 {
		return nil
	}
	pick := func() int32 { return int32(rng.Intn(nKeys)) }
	if w.Zipf > 0 {
		// The Zipf rank goes through a permutation, so that which keys are
		// popular does not follow the sorted key order.
		z := rand.NewZipf(rng, w.Zipf, 1, uint64(nKeys-1))
		perm := rng.Perm(nKeys)
		pick = func() int32 { return int32(perm[z.Uint64()]) }
	}
	ops := make([]op, opListLen)
	for i := range ops {
		if w.Chain.SegmentK > 0 {
			ops[i] = op{Kind: opBootstrap, A: pick()}
			continue
		}
		switch r := rng.Intn(10); {
		case r < 7:
			ops[i] = op{Kind: opState, A: pick()}
		case r < 9:
			ops[i] = op{Kind: opHistorical, A: pick()}
		default:
			a, b := pick(), pick()
			for b == a {
				b = pick()
			}
			ops[i] = op{Kind: opKeyword, A: a, B: b}
		}
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	return ops
}

// inputsDigest identifies a run's inputs: the operation list and the state
// keys the server's chain wrote.
func inputsDigest(ops []op, keys []string) string {
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{0})
	}
	var buf [9]byte
	for _, o := range ops {
		buf[0] = o.Kind
		binary.BigEndian.PutUint32(buf[1:], uint32(o.A))
		binary.BigEndian.PutUint32(buf[5:], uint32(o.B))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
