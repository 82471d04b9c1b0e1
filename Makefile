# Verification gate. `make check` is the command CI runs: the tree must
# build, pass vet, satisfy the determinism contract (cmd/metalint), and
# pass the race-enabled test suite.

GO ?= go

.PHONY: check build vet metalint lint-inventory secretflow-test test dispatch-race soak fuzz-smoke hunt-smoke bench bench-layers bench-json bench-gate

check: vet metalint lint-inventory secretflow-test test dispatch-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

metalint:
	$(GO) run ./cmd/metalint -strict-directives ./...

# The leakage contract: regenerating the secret-taint inventory from
# the tree must reproduce the committed leakage-inventory.json byte for
# byte. A leak site appearing (new secret-dependent code) or vanishing
# (a gadget silently fixed or a directive gone stale) both fail here.
lint-inventory:
	$(GO) run ./cmd/metalint -inventory /tmp/metalint-inventory.json ./...
	diff leakage-inventory.json /tmp/metalint-inventory.json

# The secretflow golden tests, re-run uncached: the fixture diagnostics,
# the inventory golden, and the stale-directive scan are exercised on
# every check even when internal/analysis is unchanged.
secretflow-test:
	$(GO) test -count=1 -run 'Secretflow|Directive|Relativize|Golden' ./internal/analysis

test:
	$(GO) test -race ./...

# The distributed-dispatch and sweep-service property tests, re-run
# uncached so the byte-identity, revocation, supervision, and cache
# invariants are exercised on every check even when the surrounding
# packages are unchanged.
dispatch-race:
	$(GO) test -race -count=1 -run 'Dispatch|Serve|Supervis|DialRetry|ResultCache|CellFingerprint|Hunt|JobSession' \
		./internal/dispatch ./internal/experiments ./internal/serve ./cmd/metaleak

# The dispatcher, service and supervision tests, repeated SOAK_COUNT times
# under the race detector to shake out interleavings a single run misses.
# Too slow for check; run it by hand after touching those packages.
SOAK_COUNT ?= 20

soak:
	$(GO) test -race -count=$(SOAK_COUNT) -run 'Dispatch|Serve|Supervis' \
		./internal/dispatch ./internal/serve ./internal/experiments

# Ten seconds of coverage-guided fuzzing per parser-shaped surface:
# cheap enough for CI, long enough to catch a decoder regression.
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzTraceRoundTrip -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzTraceDiff -fuzztime=10s ./internal/trace
	$(GO) test -run='^$$' -fuzz=FuzzProtocolRoundTrip -fuzztime=10s ./internal/dispatch

# The differential-fuzzer smoke: a fixed 2-config x 4-program x 2-pair
# grid must reproduce the committed verdict CSV byte for byte, at any
# -par width, through the distributed dispatch path, and resumed from a
# checkpoint whose writer died mid-append (harness:trunc). Regenerate the
# golden (after auditing the diff) by copying /tmp/hunt-smoke.csv over
# internal/hunt/testdata/smoke.csv.
HUNT_SMOKE = hunt -configs sct,ht -programs 4 -pairs 2 -seed 42

hunt-smoke:
	$(GO) run ./cmd/metaleak $(HUNT_SMOKE) 2>/dev/null > /tmp/hunt-smoke.csv
	diff internal/hunt/testdata/smoke.csv /tmp/hunt-smoke.csv
	$(GO) run ./cmd/metaleak $(HUNT_SMOKE) -par 1 2>/dev/null | diff /tmp/hunt-smoke.csv -
	$(GO) run ./cmd/metaleak $(HUNT_SMOKE) -workers 2 2>/dev/null | diff /tmp/hunt-smoke.csv -
	rm -f /tmp/hunt-cp.jsonl
	-$(GO) run ./cmd/metaleak $(HUNT_SMOKE) -checkpoint /tmp/hunt-cp.jsonl -faults 'harness:trunc@3' >/dev/null 2>&1
	$(GO) run ./cmd/metaleak $(HUNT_SMOKE) -checkpoint /tmp/hunt-cp.jsonl 2>/dev/null | diff internal/hunt/testdata/smoke.csv -

# Sequential vs GOMAXPROCS-parallel wall-clock over the full experiment
# registry: the speedup the spec/trial/merge harness buys on this
# machine (the outputs are byte-identical either way).
bench:
	$(GO) test -run='^$$' -bench='^BenchmarkRunAll' -benchtime=1x .

# Per-layer host-time benchmarks for the paths the profile names: machine
# construction, eviction-set search, integrity-tree subtree reset, DRAM
# background bursts (per block and per run), and the crypto engine's MAC,
# node and counter-block hashes and block encryption. CI runs them once
# each (BENCHTIME=1x) so they keep compiling and running.
BENCHTIME ?= 1s

bench-layers:
	$(GO) test -run='^$$' -bench='^Benchmark(NewSystem|BuildEvictionSet|SubtreeReset|DRAMBackground|DRAMBackgroundRun|MAC|HashNode|HashCounterBlock|EncryptBlock)$$' \
		-benchmem -benchtime=$(BENCHTIME) ./internal/machine ./internal/core ./internal/itree ./internal/dram ./internal/crypto

# Substrate microbenchmarks + fixed-grid sweep throughput as a
# machine-readable record (DESIGN.md §11). bench-json refreshes the
# current PR's committed record; bench-gate re-measures and fails if any
# microbenchmark's ns/op regressed >10% against the newest committed
# BENCH_*.json. Host-time measurements: outside the determinism contract.
BENCH_LATEST = $(lastword $(sort $(wildcard BENCH_*.json)))

bench-json:
	$(GO) run ./cmd/metaleak bench -baseline -out BENCH_8.json

bench-gate:
	@test -n "$(BENCH_LATEST)" || { echo "bench-gate: no committed BENCH_*.json to compare against"; exit 1; }
	$(GO) run ./cmd/metaleak bench -gate $(BENCH_LATEST)
