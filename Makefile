# Aire — asynchronous intrusion recovery for interconnected web services.
# CI (.github/workflows/ci.yml) runs exactly these targets; run `make ci`
# locally to reproduce the full gate.

GO ?= go

# Fault-injection simulation sweep (internal/simnet + cmd/airesim).
# SIM_SEEDS is "lo:hi" (inclusive) or "3,7,19"; SIM_PROFILE is one of
# `go run ./cmd/airesim -profiles` (drop, duplicate, delay, partition,
# crash, fsynclag, mixed, stale, dupcreate, lostwave, corrupt). Every crash
# recovers from the on-disk WAL; crash and fsynclag are the durability
# cells. CI runs a short fixed-seed matrix; longer local sweeps:
#   make sim SIM_PROFILE=mixed SIM_SEEDS=1:1000
# Watch the crash profile's teeth (fsync=none loses the unsynced tail):
#   go run ./cmd/airesim -profile crash -seeds 1:20 -fsync none
SIM_SEEDS ?= 1:20
SIM_PROFILE ?= mixed
# SIM_SHARDS splits every faulted service N ways (0 means 1); every
# service sits behind the same router at every N, and the convergence
# oracle is shard-count-invariant.
SIM_SHARDS ?= 0

.PHONY: all build test race bench bench-smoke bench-suite bench-obs fmt fmt-fix vet lint ci sim sim-sched fuzz-wal fuzz-frame fuzz-wire fuzz-log fuzz-route fuzz-vdb fuzz-checkpoint

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Rot check of the package micro-benchmarks (vdb, repairlog, warp,
# BenchmarkObsOverhead): compile and run each once. No timing fidelity —
# performance claims cite bench/ (see bench-suite), never these.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./...

# The benchmark under bench/ is a nested module (its own go.mod), so the
# root `go build ./...` / `go test ./...` never compile it. This is what
# proves it still builds and passes against the tree — run it whenever
# exported API of internal/* changes.
bench-smoke:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The repo benchmark (bench/, BENCHMARK.json): six seeded workloads, three
# repetitions each, then a comparison against the committed baseline
# (exit 1 on a regression beyond a metric's bound). CI runs this
# non-gating — shared runners are too noisy to fail a build on — and
# uploads the result file so the trajectory exists outside developers'
# laptops.
bench-suite:
	bash bench/run.sh -seed 1 -reps 3 -out bench/out/result.json
	bash bench/run.sh -compare bench/baseline.json bench/out/result.json

# Observability overhead gate (ISSUE 8): the allocation ceiling — with no
# registry configured every instrumentation site must make 0 allocs/op
# (asserted hard by TestObsDisabledZeroAlloc) — plus the
# disabled-vs-enabled overhead benchmark for the record.
bench-obs:
	$(GO) test -run TestObsDisabledZeroAlloc ./internal/core
	$(GO) test -run '^$$' -bench BenchmarkObsOverhead -benchmem ./internal/core

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

fmt-fix:
	gofmt -w .

sim:
	$(GO) run ./cmd/airesim -profile $(SIM_PROFILE) -seeds $(SIM_SEEDS) -shards $(SIM_SHARDS)

# WAL corruption + replay fuzzing smoke: deterministic corruption table
# (bit flips, truncations, zeroed CRCs, garbage appends) plus a short
# coverage-guided run over mutated bytes of version-2 segments, the only
# version the writer creates. Longer local runs:
#   go test -fuzz FuzzWALReplay -fuzztime 5m ./internal/wal
fuzz-wal:
	$(GO) test -run TestWALCorruption -fuzz FuzzWALReplay -fuzztime 30s ./internal/wal

# Repair-frame decoder fuzzing smoke: the binary frame codec's unit table
# plus a short coverage-guided run over mutated frame bodies (no panic,
# never more carriers than the bound, never more allocated than a small
# multiple of the input, re-encodes what it accepts byte for byte). Longer
# local runs:
#   go test -fuzz FuzzFrameDecode -fuzztime 5m ./internal/wire
fuzz-frame:
	$(GO) test -run 'TestFrame|TestDecodeFrame|TestPackFrames' -fuzz FuzzFrameDecode -fuzztime 30s ./internal/wire

# Request/response fuzzing smoke: the equality unit tests plus a short
# coverage-guided run checking Equal against a slow map-normalizing oracle
# (reflexive, symmetric, blind to Aire headers, stable across an
# Encode/Decode round trip), then a short run feeding arbitrary bytes to
# DecodeRequest and DecodeResponse (no panic; a decoded value re-encodes
# and decodes to the same value). Longer local runs:
#   go test -fuzz FuzzWireEqual -fuzztime 5m ./internal/wire
#   go test -run '^$$' -fuzz FuzzWireDecode -fuzztime 5m ./internal/wire
fuzz-wire:
	$(GO) test -run 'TestEqual|TestResponseEqual' -fuzz FuzzWireEqual -fuzztime 30s ./internal/wire
	$(GO) test -run '^$$' -fuzz FuzzWireDecode -fuzztime 30s ./internal/wire

# Storage-encoding fuzzing smoke: the repair log's record sizer must equal
# len(json.Marshal(record)) (its table, the every-field reflection check,
# then a coverage-guided run), and the WAL entry decoder (the wal envelope
# plus core's op codec) is checked by its every-field round trips and
# refusal table, then a coverage-guided run over arbitrary entry payloads:
# no panic, at most 1 KiB + 64x the input allocated, and whatever it
# accepts re-encodes byte for byte. Longer local runs:
#   go test -run '^$$' -fuzz FuzzEncodedLen -fuzztime 5m ./internal/repairlog
#   go test -run '^$$' -fuzz FuzzWALEntryDecode -fuzztime 5m ./internal/core
fuzz-log:
	$(GO) test -run 'TestEncodedLen' -fuzz FuzzEncodedLen -fuzztime 30s ./internal/repairlog
	$(GO) test -run 'TestWALCodecCoversEveryField|TestWALEntryRefusals' -fuzz FuzzWALEntryDecode -fuzztime 30s ./internal/core

# Shard-routing fuzzing smoke: the one routing rule's table (run through
# the sender and both router paths) plus a short coverage-guided run over
# arbitrary IDs and keys (no panic, always one of the service's shard
# names, a "svc#i-…" ID routes to shard i). Longer local runs:
#   go test -run '^$$' -fuzz FuzzShardRoute -fuzztime 5m ./internal/core
fuzz-route:
	$(GO) test -run 'TestShardRoute' -fuzz FuzzShardRoute -fuzztime 30s ./internal/core

# Member-index fuzzing smoke: the blocked sorted ID set's property test
# plus a short coverage-guided run of insert/remove sequences checked
# against a flat sorted-slice oracle (same contents, no empty or overfull
# block, global order). An input is a long operation sequence, so
# minimizing each new one is capped at 1s; the default 60s would spend the
# whole window minimizing. Longer local runs:
#   go test -run '^$$' -fuzz FuzzIDSet -fuzztime 5m -fuzzminimizetime 1s ./internal/vdb
fuzz-vdb:
	$(GO) test -run 'TestIDSet' -fuzz FuzzIDSet -fuzztime 30s -fuzzminimizetime 1s ./internal/vdb

# Checkpoint-load fuzzing smoke: the checkpoint restore and format-upgrade
# regressions plus a short coverage-guided run over arbitrary bytes as a
# service's latest checkpoint (LatestCheckpoint + Apply on a fresh
# controller): no panic, and either a refusal or a queue whose delivery
# IDs are unique and bear sequences the restored ID counter covers. Minimizing is capped at 1s, as
# for fuzz-vdb: a checkpoint is a long input. Longer local runs:
#   go test -run '^$$' -fuzz FuzzCheckpointLoad -fuzztime 5m -fuzzminimizetime 1s ./internal/persist
fuzz-checkpoint:
	$(GO) test -run 'TestCheckpointRestoreKeepsQueuedMessages|TestPreEpochStateLoadsOrIsRefused|TestLegacyQueueStateRecovers|TestUpgrade|TestOwnTombstoneReadUpgrades|TestApplyGuards' -fuzz FuzzCheckpointLoad -fuzztime 30s -fuzzminimizetime 1s ./internal/persist

# Same sweep with repair delivery on the background pump under the
# deterministic scheduler (internal/dsched): concurrent worker
# interleavings, seed-reproducible. A failing seed prints its step count;
# replay with: go run ./cmd/airesim -sched -profile <p> -seeds <seed> -v
sim-sched:
	$(GO) run ./cmd/airesim -sched -profile $(SIM_PROFILE) -seeds $(SIM_SEEDS) -shards $(SIM_SHARDS)

vet:
	$(GO) vet ./...

# Static analysis beyond vet. Both tools are optional locally (skipped
# with a notice when not installed — this repo adds no dependencies);
# CI installs pinned versions and runs them for real in the gate job.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (CI runs it)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (CI runs it)"; \
	fi

ci: fmt vet lint build test race bench bench-smoke fuzz-wal fuzz-frame fuzz-wire fuzz-log fuzz-route fuzz-vdb fuzz-checkpoint bench-obs
