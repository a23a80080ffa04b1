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
# seconds together; plain `go test` runs the full ones). Beside them,
# TestAllocatorBidsMostlyMove bounds the share of the mesh allocator's bids
# that move no flit, a deterministic count on a fixed seeded burst; the
# mesh's KeepsInvariants tests tick seeded bursts under the conservation
# checker, which also holds every router's bidding-port mask to its request
# rows and every wake-ring entry to its head's ready cycle; and
# TestWakeRingOrder holds the wake ring to a sorted (cycle, push order)
# reference across many wraps.
# TestDocsResolve holds README, DESIGN, EXPERIMENTS and the verify skill to the
# tree: every path, pkg.Ident, command flag and make target they name exists;
# beside it run the five surface pins (options, flags, public API, fabric
# contract, and TestInternalExportSurface: every exported name in internal/
# has a caller outside its package that is neither a test nor bench/, or an
# allowlist entry with a reason) and the file≡resident table (every operation
# that reads a trace, handed a trace file, answers as for the resident
# trace): the review gate for a new knob, entry point, export, or *Trace-only
# path. TestReplayMetamorphicRelations (~2 s) holds coupled replay to three
# relations the replay rule implies, exactly, for every kernel × the five
# fixpoint variants: delaying every root event by C delays every arrival by C
# (on MWSR and the hybrid only for C a multiple of the token's revolution), and
# every round of an overlapped zero-load correction by C too; an edge an
# event already implies transitively changes neither the coupled replay nor a
# zero-load-seeded correction; and on the ideal fabric neither does renaming
# every node by a permutation.
# internal/fabric is the fabric contract suite (every variant fabric.Build
# returns × three traffic sources) plus FuzzConfig's seed corpus, well under 1 s.
# The merge property test is why the hybrid's merged counters are exact:
# counter blocks counted from any split of an event log, each part shuffled,
# merge in any order into the block of the whole log. Beside it,
# the latency histogram's power-of-two bucket rule is held to the binary
# search over its bounds it replaced, and the calendar property test holds
# sim.Calendar — every fabric's delivery queue and the replay decoder's
# pending queue — to a sorted (cycle, push order) reference.
# The replay's own schedule derivation and the file passes run under the
# race detector (a file source recycles a closed pass's Reader): every
# derived schedule equals ScheduleStream over the run's latencies, a
# correction reads its source 1 + rounds times (one more seeded coupled), and
# a file pass yields a Reader's events and errors, refuses a file whose header
# changed, ignores a second Close and leaves no goroutine once closed. So do
# the overlapped correction rounds (~45 s under -race): a correction whose
# rounds overlap on a forced spare slot equals the serial one, DeepEqual, on
# every kernel × seven fabric variants × both seeds × tolerance 0 and default,
# parked at every round boundary and resumed, with no goroutine left after
# any case and every spare released once; the follower's bound is walked
# through a hand-fed delivery log, its clock guard panics, a panicking or
# swallowing fabric ahead or behind leaves no goroutine, and an extra
# overlapped round allocates no per-event vector. Beside
# them, a cached capture is one shared trace while any caller holds it, under
# concurrent hits too, and an equal re-decode once the collector dropped it.
# TestParallelCachedOutputMatchesSequential holds the concurrent, cached
# (cold and warm disk) quick report to the sequential uncached one, byte for
# byte: no table cell holds host time.
# TestSelfCaptureFixpointIsTruth validates the correction loop against itself
# (~5 s): on a trace captured on its target, every kernel × {MWSR, SWMR,
# electrical, ideal, hybrid} has the captured latencies as a one-round
# fixpoint equal to the execution-driven truth, coupled replay reproduces the
# truth's makespan, and on {optical, electrical} the zero-load loop, makespan
# tolerance off, walks to it. TestCoupledIsTheFixpoint (~2 s) holds coupled
# replay to the loop's exact fixpoint through a Session: seeded "coupled", the
# loop stops in round 0 at a Final equal to it with the coupled pass charged,
# every kernel × those five variants × {ideal, self} capture, plus light and
# heavy faults and both dependency ablations. TestLoopAttractsWithoutCausalEdges
# (~0.1 s) pins where the zero-load loop does reach that fixpoint: causal
# edges off, MWSR and ideal, every kernel within 40 rounds.
# The streamed correction's residency gates (~1 s): its peak live heap grows
# by at most 32 B per event (three time vectors; the arrivals are the marks), and
# an extra round allocates at most 64 KiB, no per-event vector. Beside them,
# every fabric stamps each scheduled message with exactly its scheduled cycle
# (what lets a replay's Inject be its schedule), a resume leaves the parked
# result's vectors as they were, and a correction parked once or twice and
# resumed equals the uninterrupted one: every round replays in full, so a
# resume from plain park data is the only resume path. The capture cache's residency gate
# (~0.1 s): 24 cached 16-core captures, every trace dropped, retain at most
# 32 B per event after a GC, because an entry keeps the capture's binary
# encoding and not the decoded trace. The capture gates (~1.5 s): every
# captured event with dependencies is injected Gap cycles after the last of
# them arrived (every kernel × ideal, mesh and crossbar × 16 and 64 cores),
# which a send citing a dependency list its caller reused breaks, and a
# longer capture costs at most 0.25 allocations per added event: a message
# allocates nothing of its own. A longer coupled replay costs at most 0.05
# per added event: its reverse-dependency index is one flat array. TestReceiverLatencySummaries (~0.1 s) pins,
# float bit for float bit, the latency summaries receivers build from their
# delivery streams — the ground truth's mean and per-class latency and the
# synthetic run's mean and p99 — on all six fabric kinds.
# TestPruneKeepsTrueFront is the sweep prefilter's recall gate: the quick
# default grid, pruned, keeps every arm of the Pareto front that simulating
# all of its arms finds (~1.5 s). The daemon's reply-memo tests
# (~1.3 s) hold a hit to its miss's bytes on both wire forms and to its
# allocation count (TestMemoHitAllocs). Last, the mutation catalog
# (~1 min): every deliberate bug it lists must still be caught.
check: vet fmt-check sweep-smoke
	$(GO) test ./internal/sweep/ -run TestPruneKeepsTrueFront -count=1
	$(GO) test ./cmd/expreport/ -run TestGolden -count=1
	$(GO) test ./internal/experiments/ -run TestParallelCachedOutputMatchesSequential -count=1
	$(GO) test . -run 'TestDocsResolve|Surface|TestFileMatchesResident|TestSelfCaptureFixpointIsTruth|TestCoupledIsTheFixpoint|TestLoopAttractsWithoutCausalEdges|TestReplayMetamorphicRelations' -count=1
	$(GO) test . -run 'TestStreamCorrectionResidency|TestCorrectionRoundAllocatesNoEventVectors|TestCachedCaptureResidency' -count=1
	$(GO) test . -run 'TestCaptureGapStartsAtLastDependency|TestCaptureAllocationsIndependentOfLength|TestCoupledReplayAllocationsIndependentOfLength|TestReceiverLatencySummaries' -count=1
	$(GO) test ./internal/core/ -run 'TestScheduledReplayInjectsOnSchedule|TestParkedResultSurvivesResume|TestResumeCompletesIdenticalToUninterrupted|TestResumeCanParkAgain' -count=1
	$(GO) test ./internal/fabric/ -count=1
	$(GO) test -short ./internal/enoc/ ./internal/onoc/ ./internal/trace/ ./internal/core/ -run 'DifferentialAgainstReference|AllocatorBidsMostlyMove|KeepsInvariants|WakeRingOrder|BufferedDecodeMatchesBytewise|EngineAgainstReference' -count=1
	$(GO) test ./internal/noc/ ./internal/metrics/ ./internal/sim/ -run 'MergeIs|LatencyBucketMatchesSearch|CalendarMatches' -count=1
	$(GO) test -race ./internal/trace/ ./internal/core/ ./internal/simcache/ . -run 'DecodeAhead|FilePass|ReplayDerivesNextSchedule|CorrectionPassCount|DoTraceSharesWhileHeld|PipelinedCorrectionMatchesSerial|Overlap' -count=1
	$(GO) test ./internal/service/ -run TestMemo -count=1
	$(MAKE) --no-print-directory mutate

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
# entry recompiles a package; `make check` runs it.
mutate:
	ONOCSIM_MUTATE=1 ONOCSIM_GO=$(GO) $(GO) test ./internal/mutation/ -count=1 -v -timeout 30m

# Tier-1 gate: vet runs first so static mistakes fail fast, before the
# (much slower) test sweep; the golden rendering tests run as part of the
# cmd/expreport package.
test: vet
	$(GO) test ./...

# Each fabric stays single-goroutine by design; the race detector guards the
# few places where simulations share state across goroutines. A correction on
# a resident trace with a spare simulation slot overlaps two rounds, each on
# its own fabric in its own goroutine: the round ahead reads the other's
# arrivals only below its delivery log's atomically published length, and
# stops reading them once its schedule is derived, before the round after
# reuses that storage. Every other replay runs in its caller's goroutine, on
# one fabric; concurrent jobs may still open passes over one trace source at
# once (internal/trace). Also here: the one fan-out helper every study, study
# set, report and sweep runs on (internal/fanout) and its heaviest user, the
# experiment harness; the fault injector, whose per-channel timelines each
# fabric extends lazily on its own; and the analytic estimator, whose
# concurrent calls must share nothing. The service packages run here too: the daemon's whole job is
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
