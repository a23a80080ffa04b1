# onocsim build targets. Everything is plain `go` — the Makefile only names
# the common invocations.

GO ?= go

.PHONY: all build vet fmt-check check loc sweep-smoke mutate test test-race loadtest bench bench-record bench-compare report report-csv experiments-md examples clean

all: build vet test test-race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt -l prints unformatted files; any output fails the target.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

# Static checks plus the golden-file rendering gate: the ASCII output of the
# pinned experiments must stay byte-identical (cmd/expreport/testdata). The
# four differential tests — the mesh router against the naive reference
# router, the event-driven crossbar against the hop-by-hop reference,
# whole-record trace decode against the byte-wise decoder, the replay engine
# against the sorted-order serial reference — run in their -short form (a few
# seconds together; plain `go test` runs the full ones).
# TestDocsResolve holds README, DESIGN, EXPERIMENTS and the verify skill to the
# tree: every path, pkg.Ident, command flag and make target they name exists;
# beside it run the four surface pins (options, flags, public API, fabric
# contract) and the file≡resident table (every operation that reads a trace,
# handed a trace file, answers as for the resident trace): the review gate
# for a new knob, entry point, or *Trace-only path.
# internal/fabric is the fabric contract suite (every variant fabric.Build
# returns × three traffic sources) plus FuzzConfig's seed corpus, well under 1 s.
# The merge property tests are why a sharded replay cannot change a result:
# statistics blocks recorded from any split of a delivery log, each part
# shuffled, merge in any order into the block of the whole log. Beside them,
# the calendar property test holds sim.Calendar — every fabric's delivery
# queue and the replay decoder's pending queue — to a sorted (cycle, push
# order) reference.
# TestParallelCachedOutputMatchesSequential holds the concurrent, cached
# (cold and warm disk) quick report to the sequential uncached one, byte for
# byte: no table cell holds host time.
# TestSelfCaptureFixpointIsTruth validates the correction loop against itself
# (~3 s): on a trace captured on its target, every kernel × {optical,
# electrical} has the captured latencies as a one-round fixpoint equal to the
# execution-driven truth, and the zero-load loop, makespan tolerance off,
# walks to it. TestPruneKeepsTrueFront is the sweep prefilter's recall gate:
# the quick default grid, pruned, keeps every arm of the Pareto front that
# simulating all of its arms finds (~1.5 s).
check: vet fmt-check sweep-smoke
	$(GO) test ./internal/sweep/ -run TestPruneKeepsTrueFront -count=1
	$(GO) test ./cmd/expreport/ -run TestGolden -count=1
	$(GO) test ./internal/experiments/ -run TestParallelCachedOutputMatchesSequential -count=1
	$(GO) test . -run 'TestDocsResolve|Surface|TestFileMatchesResident|TestSelfCaptureFixpointIsTruth' -count=1
	$(GO) test ./internal/fabric/ -count=1
	$(GO) test -short ./internal/enoc/ ./internal/onoc/ ./internal/trace/ ./internal/core/ -run 'DifferentialAgainstReference|BufferedDecodeMatchesBytewise|EngineAgainstReference' -count=1
	$(GO) test ./internal/noc/ ./internal/metrics/ ./internal/sim/ -run 'MergeIs|CalendarMatches' -count=1

# Non-test Go lines per package directory and in total, bench/ excluded (it is
# the measuring instrument, not the product): the count ROADMAP's "net negative
# line count is a success metric" is judged by.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | sort | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); if (!(d in n)) order[++k] = d; n[d] += $$1; t += $$1 } \
		END { for (i = 1; i <= k; i++) printf "%7d %s\n", n[order[i]], order[i]; printf "%7d total\n", t }'

# End-to-end sweep smoke: a committed micro-grid through the CLI pipeline
# (expand -> analytic prefilter -> prune -> simulate -> Pareto front). The
# tables are discarded; any pipeline regression fails the exit code.
sweep-smoke:
	$(GO) run ./cmd/expreport -sweep cmd/expreport/testdata/smoke_sweep.json > /dev/null

# The mutation catalog (internal/mutation/testdata/catalog.json): each entry
# is a deliberate bug, built through `go test -overlay` so the tree is never
# edited, and the test it names must fail. Prints the kill rate; any
# survivor fails the target. Kept out of plain `go test ./...` because every
# entry recompiles a package.
mutate:
	ONOCSIM_MUTATE=1 ONOCSIM_GO=$(GO) $(GO) test ./internal/mutation/ -count=1 -v -timeout 30m

# Tier-1 gate: vet runs first so static mistakes fail fast, before the
# (much slower) test sweep; the golden rendering tests run as part of the
# cmd/expreport package.
test: vet
	$(GO) test ./...

# The simulators are single-goroutine by design; the race detector guards the
# few places that are not. In the replay engine (internal/core) a K > 1 replay
# runs K goroutines that never synchronize until they finish: what must hold
# is that they write disjoint indices of the shared result vectors, append to
# their own checkpoint ladder and statistics block only (capture and restore
# run inside the shard goroutine), and each decode their own pass of the
# source (internal/trace sources hand out concurrent passes) — the reference,
# incremental and park/resume tests cover every fabric x preset x shard
# count. Also here: the one fan-out helper every study, study set, report and
# sweep runs on (internal/fanout) and its heaviest user, the experiment
# harness; the fault injector's lazily extended per-channel timelines under
# sharded replay; and the analytic estimator, whose concurrent calls must
# share nothing. The service packages run here too: the daemon's whole job is
# concurrent clients sharing one session (single-flight dedup, the admission
# scheduler, the SSE hub), and the job and sweep packages fan hundreds of
# admission-scheduled arms out of one session. The root package holds the
# flight-healing tests: a waiter retrying a flight that its computing caller's
# cancellation killed.
test-race:
	$(GO) test -race ./internal/fanout/ ./internal/analytic/ ./internal/experiments/ ./internal/sim/ ./internal/core/ ./internal/fault/ ./internal/trace/ ./internal/service/ ./internal/job/ ./internal/sweep/ ./cmd/onocsimd/ .

# Service load harness: a burst of mixed cost-class requests against an
# in-process daemon, asserting the cache absorbs the burst (flight count,
# not latency — meaningful on noisy hosts) and that drain stays clean.
# Scale the burst with ONOCSIMD_LOAD_CLIENTS.
loadtest:
	ONOCSIMD_LOAD_CLIENTS=$${ONOCSIMD_LOAD_CLIENTS:-64} $(GO) test -race ./internal/service/ -run TestLoadBurst -count=1 -v

# Micro-benchmarks (bench_test.go, rss_bench_test.go, internal/*): a look at
# one layer on one host. No gate hangs off them — performance claims are made
# with bench-record/bench-compare below.
bench:
	$(GO) test -bench=. -benchmem ./...

# The benchmark of record (BENCHMARK.json, bench/README.md): record one result
# set per commit, then judge set B against set A by the bounds. A performance
# claim is made on paired sets — `make bench-record OUT=parent.json` in a
# checkout of the parent commit, `make bench-record OUT=change.json` in the
# change, `make bench-compare A=parent.json B=change.json` — never on one run:
# the host drifts by more than most changes gain.
RUNS ?= 10
OUT ?= bench/out/results.json
bench-record:
	$(GO) run ./bench -runs $(RUNS) -o $(OUT)

bench-compare:
	$(GO) run ./bench -compare $(A) $(B)

# Regenerate the full evaluation (R1–R20) at paper scale.
report:
	$(GO) run ./cmd/expreport -exp all | tee results_full.txt

report-csv:
	$(GO) run ./cmd/expreport -exp all -format csv

# Markdown rendering of the evaluation: how EXPERIMENTS.md's measured tables
# are regenerated.
experiments-md:
	$(GO) run ./cmd/expreport -exp all -format md

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tracefile

clean:
	$(GO) clean ./...
