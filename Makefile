GO ?= go

.PHONY: build test test-full test-sim-short test-sim-nondeterminism test-sim-import-export test-sim-multi-seed test-fuzz fleet-e2e loadgen-soak bench bench-json bench-check cover lint lint-docs lint-links lint-settings fmt

## build: compile every package and command
build:
	$(GO) build ./...

## test: fast verification — short mode with the race detector (what CI runs)
test:
	$(GO) test -short -race -timeout 10m ./...

## test-full: the full paper-scale test suite (tier-1 gate)
test-full:
	$(GO) test -timeout 30m ./...

## test-sim-short: the PR-sized randomized campaign suite — short campaign
## configs on both architecture profiles: worker-count determinism,
## export/restore round-trips, model-invariant gates and the injected-failure
## harness checks (a planted invariant violation and a planted map-order
## nondeterminism must both fail the run)
test-sim-short:
	$(GO) test -count=1 -timeout 10m ./internal/campaign

## test-sim-nondeterminism: just the determinism slice of the campaign suite
## (same seed must produce byte-identical reports at 1, 2 and 8 workers, and
## planted map-iteration ordering must be caught)
test-sim-nondeterminism:
	$(GO) test -count=1 -run 'Determinism|MapOrder' -timeout 10m ./internal/campaign

## test-sim-import-export: just the snapshot slice of the campaign suite
## (mid-campaign export, restore in a fresh runner, damaged-state rejection)
test-sim-import-export:
	$(GO) test -count=1 -run 'ImportExport|SnapshotFileRoundTrip|ResumeRejects' -timeout 10m ./internal/campaign

## test-sim-multi-seed: the nightly campaign sweep — 25 consecutive seeds of
## the full default campaign config with the per-measurement model-invariant
## checks armed, run as two separate processes whose per-seed digest lists
## must be byte-identical (cross-process determinism at scale) and equal to
## the committed list in internal/campaign/testdata/multi-seed-digests.txt
## (a change that means to alter the model regenerates that file and says so)
test-sim-multi-seed:
	$(GO) build -o /tmp/dataproxy-campaign ./cmd/campaign
	/tmp/dataproxy-campaign -seed 1 -seeds 25 -invariants > /tmp/dataproxy-sweep-a.txt
	/tmp/dataproxy-campaign -seed 1 -seeds 25 -invariants > /tmp/dataproxy-sweep-b.txt
	cmp /tmp/dataproxy-sweep-a.txt /tmp/dataproxy-sweep-b.txt
	cmp /tmp/dataproxy-sweep-a.txt internal/campaign/testdata/multi-seed-digests.txt
	@cat /tmp/dataproxy-sweep-a.txt
	@rm -f /tmp/dataproxy-campaign /tmp/dataproxy-sweep-a.txt /tmp/dataproxy-sweep-b.txt

## test-fuzz: a 10s native-fuzz smoke run per committed fuzz target (the
## corpora under testdata/fuzz replay in the ordinary test suite; this digs
## for new inputs)
test-fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzSnapshotDecode -fuzztime=10s ./internal/snapshot
	$(GO) test -run='^$$' -fuzz=FuzzSettingCanonical -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzRunRequest -fuzztime=10s ./internal/serve

## fleet-e2e: boot a real 3-replica gossiping fleet + proxyrouter as local
## processes, drive it through cmd/fleetcheck (typed pkg/client), kill -9 a
## replica and assert availability with zero duplicate simulations
fleet-e2e:
	sh scripts/fleet-e2e.sh

## loadgen-soak: boot a real proxyd and drive bursty zipfian traffic through
## cmd/loadgen — asserts cross-request coalescing engaged, p99 stayed under a
## generous bound, and no goroutines leaked (finishes inside a minute)
loadgen-soak:
	sh scripts/loadgen-soak.sh

## bench: run every benchmark once (tables/figures + kernel speedups)
bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./...

## bench-json: track the hot paths — the cache-engine CacheAccess/ExecLoad
## microbenchmarks, the sequential-vs-parallel auto-tuning pipeline
## (BenchmarkTune), and the two end-to-end steady-state benchmarks
## (BenchmarkProxyStep: a full AlexNet proxy step on a pooled session;
## BenchmarkServeRun: the in-process scheduler round-trip of a repeated
## /v1/run), plus BenchmarkServeConcurrentCold — eight concurrent cold
## requests spanning two trace groups, served request-per-sweep (solo)
## versus through one collection window (coalesced) — and two motif
## kernels (BenchmarkFullyConnected at the AI proxies' dense shapes,
## BenchmarkDistanceMotifs on one K-means task's input), and write the
## results to BENCH_cache.json.  Each benchmark runs -count=5 times;
## benchjson keeps the minimum ns/op (and the maximum allocs/op) so one
## noisy host run cannot skew the baseline.  ProxyStep (sequential) and
## ServeRun must report 0 allocs/op: the compare gate fails on any new
## allocation on a zero-alloc benchmark.
bench-json:
	rm -f BENCH_cache.tmp
	$(call tracked-benchmarks,-count=5 -json >> BENCH_cache.tmp)
	$(GO) run ./cmd/benchjson < BENCH_cache.tmp > BENCH_cache.json
	rm -f BENCH_cache.tmp

## bench-check: the bench regression gate — rerun the tracked hot-path
## benchmarks and diff them against the committed BENCH_cache.json baseline;
## fails on >25% ns/op regressions or new allocations on zero-alloc
## benchmarks.  BENCH_GATE=off falls back to a -benchtime=1x smoke run for
## hosts too noisy to hold the baseline (refresh the baseline itself with
## `make bench-json`, ideally from the nightly workflow's artifact).
bench-check:
ifeq ($(BENCH_GATE),off)
	@echo "bench-check: BENCH_GATE=off -- smoke run only (no baseline comparison)"
	$(call tracked-benchmarks,-benchtime=1x)
else
	rm -f BENCH_fresh.tmp
	$(call tracked-benchmarks,-count=5 -json >> BENCH_fresh.tmp)
	$(GO) run ./cmd/benchjson -compare BENCH_cache.json -tolerance 0.25 < BENCH_fresh.tmp; \
		status=$$?; rm -f BENCH_fresh.tmp; exit $$status
endif

# tracked-benchmarks is the one list of benchmarks BENCH_cache.json tracks,
# one go test call each; $(1) is appended to every call (a later -benchtime
# overrides the listed one, and a redirection collects the output).
define tracked-benchmarks
$(GO) test -run='^$$' -bench='CacheAccess|ExecLoad' -benchmem -benchtime=100000x ./internal/arch ./internal/sim $(1)
$(GO) test -run='^$$' -bench='Tune' -benchmem -benchtime=3x ./internal/tuner $(1)
$(GO) test -run='^$$' -bench='ServeRun' -benchmem -benchtime=100000x ./internal/serve $(1)
$(GO) test -run='^$$' -bench='ServeConcurrentCold' -benchmem -benchtime=2x ./internal/serve $(1)
$(GO) test -run='^$$' -bench='ProxyStep' -benchmem -benchtime=20x . $(1)
$(GO) test -run='^$$' -bench='FullyConnected' -benchmem -benchtime=20x ./internal/aimotif $(1)
$(GO) test -run='^$$' -bench='DistanceMotifs' -benchmem -benchtime=200x ./internal/motif $(1)
endef

## cover: coverage profile over the short suite + the coverage-floor gate
## (prints the per-package table; floor lives in scripts/coverage-gate.sh)
cover:
	$(GO) test -short -covermode=atomic -coverprofile=coverage.out ./...
	sh scripts/coverage-gate.sh coverage.out

## lint: gofmt cleanliness, go vet (the root module and the separate
## perfbench module, which ./... never reaches), godoc coverage, markdown
## links and Setting-literal parameter names
lint: lint-docs lint-links lint-settings
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) -C perfbench vet ./...

## lint-docs: every exported symbol of the audited packages (tuner, dtree,
## core, perf, serve, proxy, campaign, fleet, apihttp, pkg/client, motif,
## aimotif) has a doc comment
lint-docs:
	sh scripts/lint-docs.sh

## lint-links: relative links in README/ROADMAP/docs resolve
lint-links:
	sh scripts/lint-links.sh

## lint-settings: every core.Setting literal keys only core.ParameterNames
lint-settings:
	sh scripts/lint-settings.sh

## fmt: apply gofmt to the whole tree
fmt:
	gofmt -w .
