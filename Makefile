# Build/test entry points. `make tier1` is the repo's tier-1 verification
# (referenced from ROADMAP.md); `make race` exercises the concurrent
# serving + dynamic-update paths under the race detector; `make vet` runs
# static checks.

GO ?= go

.PHONY: tier1 build test determinism harness race vet loc fuzz bench bench-drain bench-sample bench-ann bench-factorize bench-absorb bench-qr bench-spmm bench-cold bench-compress smoke-replication check all

all: tier1 vet

tier1: build test determinism harness

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The same-seed ⇒ same-bits tests of the packages on the embedding path
# (Test*Deterministic*, *BitIdentical*, *Golden*, including the
# cross-GOMAXPROCS sweeps and the root package's cmd/lightne artifact hashes),
# repeated on one core and on all of them: a schedule-dependent float
# reduction passes a single run by luck (core.TestEmbedDeterministic did for
# three re-anchors).
NPROC ?= $(shell nproc 2>/dev/null || echo 2)
DETERMINISM_PKGS = . ./internal/core ./internal/dense ./internal/par ./internal/sparse ./internal/prone ./internal/svd ./internal/netsmf ./internal/sampler ./internal/dynamic ./internal/hashtable
determinism:
	GOMAXPROCS=1 $(GO) test -count=3 -run 'Deterministic|BitIdentical|Golden' $(DETERMINISM_PKGS)
	GOMAXPROCS=$(NPROC) $(GO) test -count=3 -run 'Deterministic|BitIdentical|Golden' $(DETERMINISM_PKGS)

# The benchmark harness is a nested module that recomposes the pipeline from
# the internal packages' APIs; nothing else compiles it, so an API move that
# breaks it would otherwise surface only when the benchmark runs.
harness:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

# The packages with real concurrency: the lock-free serving store under
# query-during-hot-swap load, the incremental embedder feeding it, the
# paper's CAS + xadd table (internal/hashtable: batches split over the
# workers racing single-pair inserts, claims colliding at the full 7/8
# load) and the par primitives, the bucketed grouping (work-stolen buckets
# writing disjoint rows) with its sweep over GOMAXPROCS and the upper
# triangle's mirror, the sparsifier build (netsmf: the entry-balanced
# transform and the mirror, swept over GOMAXPROCS), the sampler's stress
# test of the incremental pass's pairs inserted into that table from all
# workers and drained, the per-arc and incremental passes' per-worker pair
# buffers and the batched pass's waves and grouping, the parallel
# compressed-adjacency builder (unsorted-input error reporting races the
# workers), and the fault-injection harness driving the supervised ingest
# loop and the leader→follower replication suite (mid-ship kills, corrupt
# payloads, leader-death degradation), the edge-list parser (graph: pieces
# of a block parsed on all workers, swept over GOMAXPROCS), plus the
# pipelined QR (dense: R on the caller, Q groups on the workers), the
# row-parallel SpMM with its row epilogue (sparse) and the propagation that
# rewrites shared buffers from that epilogue (prone). The second line runs
# the determinism and bit-identity tests of the full pipeline (core), so
# the sparsifier build inside EmbedTable runs under the detector end to
# end, the third the root package's crash-safe checkpoint, fault-injection,
# and end-to-end replication tests (kill-mid-write, CRC fallback, failover
# smoke, checkpoint-rewrite racing hot-swap) under the detector without
# dragging the full factorization test suite through -race, and the fourth
# E12's three aggregation strategies on one concurrent sample stream
# (experiments), the table's one concurrent user outside the tests, without
# the package's other experiments.
race:
	$(GO) test -race ./internal/serve ./internal/ann ./internal/dynamic ./internal/hashtable ./internal/par ./internal/netsmf ./internal/sampler ./internal/compress ./internal/faultinject ./internal/svd ./internal/dense ./internal/sparse ./internal/prone ./internal/graph
	$(GO) test -race -run 'Deterministic|BitIdentical' ./internal/core
	$(GO) test -race -run 'Checkpoint|Embedding|Replication' .
	$(GO) test -race -run 'AllStrategiesAgree|StreamDeterministic' ./internal/experiments

# Short runs of every fuzz target: the text/binary embedding readers and the
# public graph loader (root), the edge-list parser against its serial
# oracle in both forms, unweighted and weighted, the binary graph loader and
# the grouped CSR build against its comparison-sort oracle (graph),
# the COO builder (sparse), and the compressed-adjacency decoders
# (compress). Each target gets a few seconds — enough to replay the corpus
# and catch regressions in the checked decode paths; leave a target running
# longer with e.g. `go test -fuzz FuzzDecode -fuzztime 5m ./internal/compress`.
FUZZTIME ?= 5s
fuzz:
	$(GO) test -run xxx -fuzz FuzzReadEmbeddingText -fuzztime $(FUZZTIME) .
	$(GO) test -run xxx -fuzz FuzzReadEmbeddingBinary -fuzztime $(FUZZTIME) .
	$(GO) test -run xxx -fuzz 'FuzzReadEmbedding$$' -fuzztime $(FUZZTIME) .
	$(GO) test -run xxx -fuzz FuzzReadCheckpointFrom -fuzztime $(FUZZTIME) .
	$(GO) test -run xxx -fuzz FuzzLoadGraphPublic -fuzztime $(FUZZTIME) .
	$(GO) test -run xxx -fuzz FuzzLoadEdgeList -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run xxx -fuzz FuzzReadBinary -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run xxx -fuzz FuzzAliasBuild -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run xxx -fuzz FuzzFromEdges -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run xxx -fuzz FuzzFromCOO -fuzztime $(FUZZTIME) ./internal/sparse
	$(GO) test -run xxx -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/compress

# One verification entry point: build + tests + static checks + race.
check: tier1 vet race

# The second line vets the !amd64 build, whose dense kernels are the Go
# loops alone, so the fallback cannot stop compiling unnoticed; the third
# vets the !unix build, whose only Mmap is the stub in mmap_stub.go. The
# fourth fails when gofmt would reformat any Go file of the module (the
# nested benchmark/ module and dot-directories such as .bench_build/
# excluded).
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...
	GOOS=windows $(GO) vet ./...
	@unformatted=$$(find . -name '*.go' ! -path './benchmark/*' ! -path './.*' | xargs gofmt -l); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# Non-test Go line counts per package directory and for the module (the
# nested benchmark/ module excluded): run on parent and change to check that
# "net non-test LOC falls" is a number, not an estimate. The first column
# counts every line; the second drops blank and comment-only lines, so a
# fall that is only deleted comments shows as one.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' | xargs awk 'FNR == 1 { d = FILENAME; sub("/[^/]*$$", "", d) } { n[d]++; t++ } !/^[ \t]*(\/\/.*)?$$/ { c[d]++; ct++ } END { for (d in n) printf "%7d %7d %s\n", n[d], c[d], d; printf "%7d %7d total\n", t, ct }' | sort -k3

bench:
	$(GO) test -bench=. -benchmem ./...

# Aggregation benchmarks (benchstat-friendly: -count=5; pipe two runs into
# `benchstat old.txt new.txt`): GroupCSR, the sort every sampling pass
# groups with, beside the paper's table (a presized Table taking the batch,
# drained, its entries grouped) at the harness's embed-stream shape
# (BenchmarkGroupCSR, Mop/s of pairs); single-worker and contended inserts
# into the table; and its parallel Drain vs a sequential one. No sampling
# pass builds a table; these time the paper's aggregation design, which E12
# and the harness probe measure too.
bench-drain:
	$(GO) test -run xxx -bench 'BenchmarkGroupCSR$$|BenchmarkAdd|BenchmarkDrain$$|BenchmarkDrainSequential' -benchmem -count=5 ./internal/hashtable

# Sampler pipeline benchmarks: the per-arc sampler, the test-only
# serial-flush reference, the wave pipeline (grouping included), the
# pipeline walking the compressed and the weighted adjacency natively, and
# the per-arc vs batched pair at the harness's embed-stream shape (RMAT-13,
# compressed for the pipeline, raw for per-arc; heads/s and allocs
# reported); then the grouping alone, one orientation mirrored (one/)
# against both orientations sorted (two/), on the RMAT-12 per-arc and
# RMAT-13 wave pair sets; then one incremental round of the dynamic
# embedder (New on 90 % of RMAT-12, AddEdges of the rest, Embed; state_MB is
# the sample state it keeps between batches) and one AddEdges of 10 edges on
# an RMAT-14 embedder (the merge into the CSR plus the batch's sampling). On
# one core and on two.
bench-sample:
	$(GO) test -run xxx -bench 'BenchmarkSample$$|BenchmarkSampleSerialFlush|BenchmarkSampleBatched$$|BenchmarkSamplePipelined|BenchmarkSampleBatchedCompressed|BenchmarkSampleBatchedWeighted|RMAT13|BenchmarkGroupOrientation|BenchmarkDynamic|BenchmarkAddEdges' -benchmem -cpu 1,2 -count=3 ./internal/sampler ./internal/dynamic

# The compressed-adjacency read path: the block decoder sweeping every vertex
# of the compressed RMAT-13 graph into one reused buffer (BenchmarkNeighbors,
# Marc/s), one random i-th-neighbor fetch (BenchmarkNth: a partial block
# decode), and the wave sampler walking that graph natively at the harness's
# embed-stream shape, whose cursors read through both. On one core and on
# two. -count=5 for benchstat.
bench-compress:
	$(GO) test -run xxx -bench 'BenchmarkNeighbors|BenchmarkNth' -benchmem -cpu 1,2 -count=5 ./internal/compress
	$(GO) test -run xxx -bench 'BenchmarkSampleBatchedRMAT13' -benchmem -cpu 1,2 -count=5 ./internal/sampler

# The sketch's absorb at the harness's embed-stream shape (n = 8 192, d = 32,
# the trunc-logged RMAT-13 sparsifier, ~0.9 M entries, default sign density):
# the branch-free kernel beside the branching one it replaced, kept as the
# test oracle. On one core and on two. -count=5 for benchstat.
bench-absorb:
	$(GO) test -run xxx -bench 'BenchmarkSketchAbsorb' -benchmem -cpu 1,2 -count=5 ./internal/svd

# The rSVD's dense kernels at the harness shapes, each in every form the CPU
# runs (sub-benchmarks go/, avx/ and avx512/; the QR panels and the Jacobi
# rotations have no AVX-512 loop, so their avx512/ rows time the AVX loops):
# the panel QR (4096×64, 8192×32, 16384×64) and its fused update + dot sweep,
# C = Zᵀ·B (MatMulATB, 4096×64, on the row accumulate) and the k×k Jacobi
# SVD (64×64), each next to the loop it replaced, kept as the test oracle. On one core and on two,
# since the QR runs its R and Q phases concurrently. -count=5 for benchstat.
bench-qr:
	$(GO) test -run xxx -bench 'BenchmarkQRTallSkinny|BenchmarkQROracle|BenchmarkUpdateDotPanels|BenchmarkMatMulATB|BenchmarkSVD' -benchmem -cpu 1,2 -count=5 ./internal/dense

# The row-accumulate kernel at the harness shapes (RMAT-12 adjacency × 64,
# a ~250 k-entry matrix × 64, RMAT-13 adjacency × 32; Gflop/s reported) and
# one default-order propagation at RMAT-12 × 64 (its SpMMs and Chebyshev
# epilogue), each in every form the CPU runs (go/, avx/, avx512/; at d = 32
# the avx512/ rows run the AVX loop, which has no 64-column block to take)
# and next to the pre-rewrite code kept as the test oracle; the same kernel
# under MatMul (4096×64 · 64×64) in every form next to the one-entry loop.
# -count=5 for benchstat.
bench-spmm:
	$(GO) test -run xxx -bench 'BenchmarkSpMM|BenchmarkPropagate' -benchmem -count=5 ./internal/sparse ./internal/prone
	$(GO) test -run xxx -bench 'BenchmarkMatMulEmbed' -benchmem -count=5 ./internal/dense

# Cold-path kernels at the harness shapes, each next to the routine it
# replaced (kept as the test oracle): the streamed edge-list parser vs the
# serial Scanner one (200 000 lines, CSR build included), the grouped CSR
# build vs the comparison-sort build (RMAT-12/13 arc lists), the text writer
# vs one Fprintf per arc, the chunked artifact codec vs the per-element one
# (4096×64 and 8192×32), and the tiled IVF assignment vs the scalar kernel
# (4096×64). -count=5 for benchstat.
bench-cold:
	$(GO) test -run xxx -bench 'BenchmarkParseEdgeList|BenchmarkFromEdges|BenchmarkWriteEdgeList' -benchmem -count=5 ./internal/graph
	$(GO) test -run xxx -bench 'BenchmarkReadEmbeddingBinary|BenchmarkEncodeCheckpoint' -benchmem -count=5 .
	$(GO) test -run xxx -bench 'BenchmarkANNBuild' -benchmem -count=5 ./internal/ann

# Factorization benchmark: multi-pass rSVD vs the single-pass sketched
# range finder (sign and gaussian test matrices) on an RMAT graph — wall
# time, the planner's predicted peak, the measured heap high-water mark,
# and spectrum agreement, printed as the E14 table.
bench-factorize:
	$(GO) run ./cmd/lightne-bench -exp e14

# Failover drill: boot a leader and two followers on loopback, publish two
# generations, kill the leader, and assert both followers keep answering
# /v1/neighbors from their replicated snapshots (see TestReplicationSmoke).
smoke-replication:
	$(GO) test -race -run TestReplicationSmoke -v -count=1 .

# ANN benchmarks: exact scan vs IVF at several probe widths plus index
# build cost (internal/ann). Recall on real embeddings is the benchmark
# harness's ann.* rows (benchmark/README.md).
bench-ann:
	$(GO) test -run xxx -bench 'BenchmarkANN' -benchmem ./internal/ann
