# DCert reproduction — build and test tiers.
#
# tier1: the fast correctness gate (build + unit/integration tests).
# tier2: the robustness gate — formatting, vet, and the full suite under the
#        race detector, which is what arms the chaos tests (chaos_test.go
#        drives a multi-CI deployment through seeded fault plans and is only
#        considered "passed" when it survives -race).

GO ?= go

.PHONY: all tier1 tier2 bench-e2e-smoke bench-mine-path chaos chaos-obs chaos-disk chaos-net fmt vet bench bench-state bench-serving bench-certify bench-json fuzz-wire clean

all: tier1

tier1:
	$(GO) build ./...
	$(GO) test -shuffle=on ./...

# benchmarks/e2e is a module of its own (BENCHMARK.json's command builds it
# from the checkout), so `go build ./... && go test ./...` at the root neither
# compiles nor tests it. This target does (5 s): it is what notices API drift
# between the root package and the benchmark's sut.go / layers.go.
bench-e2e-smoke:
	$(GO) vet -C benchmarks/e2e ./...
	$(GO) test -C benchmarks/e2e ./...

# The serial mining path of the benchmark's cert_stream server, in one
# process: ms per block spent in gen / propose / journal / submit / serve,
# signature verifications per transaction (a count) and live heap per block.
# The number to size an ingest change with before paying for ten two-process
# pairs. CI runs it for one block (MINE_PATH_BLOCKS=1x) so it cannot rot.
MINE_PATH_BLOCKS ?= 400x
bench-mine-path:
	$(GO) test -run='^$$' -bench='^BenchmarkMinePath$$' -benchtime=$(MINE_PATH_BLOCKS) .

tier2: fmt vet
	$(GO) test -race ./...

# The chaos suite alone (subset of tier2), for iterating on fault plans.
# -count=1 defeats the test cache: fault plans are seeded but scheduling is
# not, so a cached pass proves nothing about the current build.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' -v .

# Chaos with the instrumentation plane attached: asserts the fault fabric's
# registry counters reconcile exactly with the seeded fault plan's injection
# ledger (injected drops == counted drops, delivered = published - dropped -
# partitioned + duplicated).
chaos-obs:
	$(GO) test -race -count=1 -run 'TestChaosFaultCounterReconciliation' -v .

# Disk-fault chaos: seeded fault plans (failed/short writes, failed/lying
# fsyncs, power cuts with corrupted torn tails) against the durable storage
# engine, asserting crash recovery always yields a gapless certified prefix
# and the resumed issuer never double-signs a recovered height.
chaos-disk:
	$(GO) test -race -count=1 -run 'TestChaosDisk' -v .

# Chaos over the wire transport: seeded fault plans constrain traffic that
# genuinely crossed TCP sockets (remote followers attached via DialWire),
# with registry counters reconciled against the fault ledger, plus the
# cross-process test that spawns real dcert-node/dcert-query subprocesses
# over loopback and SIGKILLs the node mid-run.
chaos-net:
	$(GO) test -race -count=1 -run 'TestChaosNet|TestCrossProcess' -v .

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# State-layer hashing microbenchmarks (allocs/op for the hashing core and the
# Merkle commit paths). Compare against the seed numbers in EXPERIMENTS.md.
bench-state:
	$(GO) test -run='^$$' -bench='Sum|Node|Leaf|Multiproof|TrieCommit|MHTBuild' \
		-benchmem ./internal/chash/ ./internal/smt/ ./internal/mpt/ ./internal/mht/

# Serving-plane experiment: 10k verifying clients against the sharded SP
# fleet vs the single SP, plus the singleflight-burst and batched-multiproof
# micro-measurements. Compare against EXPERIMENTS.md / BENCH_serving.json.
bench-serving:
	$(GO) run ./cmd/dcert-bench -exp serving -json BENCH_serving.json

# Segment-certification experiment: the K-block amortization curve
# (ecalls/block ≈ 1/K, modeled certified-blocks/s from the fitted per-Ecall
# cost) plus the sublinear-bootstrap fetch counts at 1k/10k/100k blocks.
# Compare against EXPERIMENTS.md / BENCH_certify.json; the ≥2×-at-K=8 and
# sublinearity gates live in internal/bench's TestRunCertifyGatesHold.
bench-certify:
	$(GO) run ./cmd/dcert-bench -exp certify -json BENCH_certify.json

# Throughput experiments with machine-readable artifacts.
bench-json:
	$(GO) run ./cmd/dcert-bench -exp pipeline -json BENCH_pipeline.json
	$(GO) run ./cmd/dcert-bench -exp state -json BENCH_state.json
	$(GO) run ./cmd/dcert-bench -exp serving -json BENCH_serving.json
	$(GO) run ./cmd/dcert-bench -exp certify -json BENCH_certify.json

# Fuzz smoke for the decoders of untrusted bytes: the query wire codecs (the
# batch multiproof decoder and the canonical request round trip), the segment
# certificate codec, and the state record the storage engine reads back from
# its WAL and snapshot. Short budgets: CI regression surface, not a campaign —
# run with a longer -fuzztime locally when touching the codecs.
fuzz-wire:
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalBatchStateResult$$' -fuzztime=10s ./internal/query/
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalRequest$$' -fuzztime=10s ./internal/query/
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalSegmentCert$$' -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeStateRecord$$' -fuzztime=10s ./internal/storage/

clean:
	$(GO) clean ./...
