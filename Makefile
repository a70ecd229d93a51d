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

# Fuzz smoke for the decoders of untrusted bytes: the record frame as the
# wire decodes it and as the storage log recovers it, the transport's
# handshake and protocol messages (the first bytes any TCP peer reaches) and
# its topic payload codec (the certificate stream), the query wire codecs (the batch
# multiproof decoder, the canonical request round trip, and every decoder a
# client runs on an SP's answer), the index update witness and the SMT
# multiproof the trusted program decodes from its host, the certificate and
# segment certificate codecs, the attestation report every bootstrap
# verifies on the tip certificate, the dcert/bootstrap response (a count of
# segments) and dcert/info response (the trust anchors), the MPT and
# MB-tree witnesses (state and range proofs in client answers and enclave
# update proofs, with allocation bounded per input byte), the header, block
# and transaction codecs (network bytes, and every block a durable node
# reads back from its chain log), and the state record the storage engine
# reads back from its WAL and snapshot. Past the decoders: the client's
# range-proof verifier and partial-trie reads over hostile witnesses (with
# the same allocation bound), and the enclave's pipeline proof input.
# Short budgets: CI regression surface, not a campaign — run with a longer
# -fuzztime locally when touching the codecs. FuzzVerifyRange caps input
# minimization at 1 s: at the default 60 s, minimizing one new input took
# the whole 10 s budget (about a hundred execs).
fuzz-wire:
	$(GO) test -run='^$$' -fuzz='^FuzzFrameDecode$$' -fuzztime=10s ./internal/transport/
	$(GO) test -run='^$$' -fuzz='^FuzzWireMessages$$' -fuzztime=10s ./internal/transport/
	$(GO) test -run='^$$' -fuzz='^FuzzPayload$$' -fuzztime=10s ./internal/transport/
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalBatchStateResult$$' -fuzztime=10s ./internal/query/
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalRequest$$' -fuzztime=10s ./internal/query/
	$(GO) test -run='^$$' -fuzz='^FuzzClientAnswerDecoders$$' -fuzztime=10s ./internal/query/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeUpdateWitness$$' -fuzztime=10s ./internal/query/
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalSegmentCert$$' -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeStateRecord$$' -fuzztime=10s ./internal/storage/
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalBlock$$' -fuzztime=10s ./internal/chain/
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalTransaction$$' -fuzztime=10s ./internal/chain/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeBootstrapPath$$' -fuzztime=10s .
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeNodeInfo$$' -fuzztime=10s .
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalMultiproof$$' -fuzztime=10s ./internal/smt/
	$(GO) test -run='^$$' -fuzz='^FuzzFrameRecovery$$' -fuzztime=10s ./internal/storage/
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalCertificate$$' -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalHeader$$' -fuzztime=10s ./internal/chain/
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalReport$$' -fuzztime=10s ./internal/attest/
	$(GO) test -run='^$$' -fuzz='^FuzzHandshake$$' -fuzztime=10s ./internal/transport/
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalWitness$$' -fuzztime=10s ./internal/mpt/
	$(GO) test -run='^$$' -fuzz='^FuzzUnmarshalWitness$$' -fuzztime=10s ./internal/mbtree/
	$(GO) test -run='^$$' -fuzz='^FuzzVerifyRange$$' -fuzztime=10s -fuzzminimizetime=1s ./internal/mbtree/
	$(GO) test -run='^$$' -fuzz='^FuzzPartialTrieOps$$' -fuzztime=10s ./internal/mpt/
	$(GO) test -run='^$$' -fuzz='^FuzzPipelineProof$$' -fuzztime=10s ./internal/core/

clean:
	$(GO) clean ./...
