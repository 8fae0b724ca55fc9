GO ?= go

.PHONY: build test check race bench bench-mont microbench experiments fuzz cover obs-smoke soak clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Formatting and vet first, then the full suite, the wire-format and ranking
# fuzz smokes, and the live observability surface — the pre-commit gate.
check:
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	@gob=$$(grep -rl --include='*.go' '"encoding/gob"' .); if [ -n "$$gob" ]; then echo "encoding/gob is banned; the protocol has one wire format. Imported by:"; echo "$$gob"; exit 1; fi
	@knob=$$(grep -rlE --include='*.go' 'PackAdaptive|[^a-zA-Z]Pack +bool|"pack(-adaptive)?"|ChunkBytes|SpeculateTA|SetMont|VFPS_MONT|VFPS_PARALLELISM|"chunk-bytes"|"speculate-ta"|"mont"|PoolSet|AttachPool|PoolWorkers|"pool-workers"|NewRandomizerContext|DeltaCache +bool|SimCache +bool|"delta-cache"|"deltaCache"|"simCache"|[^a-zA-Z]Delta +bool|PackHint|PackWidthHint|packWidthHint|Adaptive +bool|ShardWorkers|"shard-workers"|"shardWorkers"|MethodShardCollect|SimulatedSize' . | grep -v '_test\.go$$'); if [ -n "$$knob" ]; then echo "retired knobs stay retired (Pack/PackAdaptive, ChunkBytes, SpeculateTA, Mont, VFPS_MONT, VFPS_PARALLELISM, the shared PoolSet/AttachPool/PoolWorkers, NewRandomizerContext, the DeltaCache/SimCache switches, the Delta and Adaptive request flags, PackHint/PackWidthHint, ShardWorkers and the shard-collect RPC, the plain scheme's SimulatedSize padding, and their flags and JSON keys). Declared by:"; echo "$$knob"; exit 1; fi
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./internal/mont ./internal/paillier
	$(GO) test ./...
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzWire$$' -fuzztime=5s
	$(GO) test ./internal/vfl -run='^$$' -fuzz='^FuzzMessages$$' -fuzztime=5s
	$(GO) test ./internal/topk -run='^$$' -fuzz='^FuzzRankedPrefix$$' -fuzztime=5s
	$(GO) test -race ./...
	$(GO) test ./internal/paillier -run='^$$' -fuzz='^FuzzFixedBaseExp$$' -fuzztime=5s
	$(GO) test ./internal/mont -run='^$$' -fuzz='^FuzzMontMulExp$$' -fuzztime=5s
	$(MAKE) obs-smoke
	SOAK_ROUNDS=1 SOAK_QUERIES=6 SOAK_MT_ROUNDS=3 $(MAKE) soak

# Start vfpsserve, drive an encrypted selection, and assert the /metrics,
# /metrics.json, /v1/trace and /debug/vars endpoints expose every wired
# metric family (see scripts/obs_smoke.sh).
obs-smoke:
	./scripts/obs_smoke.sh

# Multi-process soak: key server + parties + aggregation server + a vfpsserve
# collector over real TCP, concurrent query
# rounds through the leader, gated on throughput (SOAK_MIN_QPS), tail
# latency (SOAK_P99_MS), a cross-process span forest with zero orphans, and
# the structured query log; then the multi-tenant load arm — an
# admission-controlled vfpsserve multiplexing consortiums — gated on
# the median speedup of alternated sequential/concurrent round pairs
# (SOAK_MIN_MT_SPEEDUP, scaled to the core count and refused below 0.9),
# concurrent p99 (SOAK_MT_P99_MS), and admission accounting (see
# scripts/soak.sh for all knobs).
soak:
	./scripts/soak.sh

race:
	$(GO) test ./... -race

# The end-to-end selection benchmark BENCHMARK.json declares: every workload,
# timed and traced (see bench/README.md).
bench:
	$(GO) run ./bench -out bench.json

# Go-test microbenchmarks of the Montgomery kernel alone, at 1024–4096 bits
# (4096 is n² of the default key) and once per kernel the CPU runs (cios,
# ifma): multiply and square vs big.Int Mul+Mod, windowed exponentiation vs
# big.Int.Exp, with allocation counts (the hot ops must report 0 allocs/op).
bench-mont:
	$(GO) test ./internal/mont -run='^$$' -bench=. -benchmem

# Go-test microbenchmarks across all packages.
microbench:
	$(GO) test -bench=. -benchmem ./...

# Regenerate every paper table/figure plus the extension studies.
experiments:
	$(GO) run ./cmd/vfpsbench -exp all -rows 2000 -queries 16 -epochs 20

cover:
	$(GO) test ./... -coverprofile=cover.out && $(GO) tool cover -func=cover.out | tail -1

fuzz:
	$(GO) test ./internal/dataset -run='^$$' -fuzz=FuzzLoadCSV -fuzztime=30s
	$(GO) test ./internal/transport -run='^$$' -fuzz=FuzzReadRequest -fuzztime=30s
	$(GO) test ./internal/wire -run='^$$' -fuzz='^FuzzWire$$' -fuzztime=30s
	$(GO) test ./internal/vfl -run='^$$' -fuzz='^FuzzMessages$$' -fuzztime=30s
	$(GO) test ./internal/topk -run='^$$' -fuzz='^FuzzRankedPrefix$$' -fuzztime=30s
	$(GO) test ./internal/paillier -run='^$$' -fuzz='^FuzzFixedBaseExp$$' -fuzztime=30s
	$(GO) test ./internal/mont -run='^$$' -fuzz='^FuzzMontMulExp$$' -fuzztime=30s

clean:
	rm -f cover.out bench.json vfpsbench vfpsnode vfpsselect vfpsserve SOAK_summary.json
