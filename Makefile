# The ci target is the gate: a missing go.mod (or any build/vet/race
# regression) fails it before anything else runs.
GO ?= go

.PHONY: all ci vet lint build test race chaos chaos-faults mutants fuzz bench-check bench-micro bench bench-compare profile experiments

all: ci

ci: lint build test race chaos-faults bench-check

vet:
	$(GO) vet ./...

# lint is the static gate: gofmt, go vet, the layering that keeps the
# static bound derived once (internal/core derives it, internal/analyze
# admits it and words it on demand, internal/predict prices it and
# imports neither)
# and statements bound once (internal/engine names no expression type of
# the AST: internal/core binds, the engine runs what it bound), one
# experiment rig (no non-test file of internal/harness but rig.go calls
# kvstore.New or engine.New), one branch runner (no non-test code of
# internal/kvstore but (*Client).branches calls proc.Parallel or
# proc.Fork), one issue point (non-test code of internal/exec names
# Client. at exactly one site, (*executor).issue's Client.Issue), one
# call per set (no non-test code calls .Parallel(: a read of a set is one
# Client.Issue, a write one Client.Apply, and Client.Parallel and
# sim.Proc.Parallel exist only for the frozen bench), one set of item
# writers (no non-test function of internal/btree but
# insertAt, setAt, deleteAt, splitChild and mergeChildren assigns, copies
# into or clears a node's items, a .Value = aside: they keep the heads in
# step), one
# write protocol (no non-test function of internal/index but
# (*Maintainer).write calls .Put(rkey, .TestAndSet(rkey or .Delete(rkey:
# Insert, Update and Delete are thin entry points over it), one
# fault driver (no non-test code but internal/harness/chaos.go calls
# Kill, Restart, Partition or Heal on a cluster), one package that
# imports unsafe (internal/value, whose decoder points strings into the
# record bytes: no other non-test code imports it), and piql-vet (the project's own analyzers, each package analyzed on its
# own — releasepath one block at a time: each acquire released in its
# own block, no exit in between) — see "Static
# analysis" in README.md; `make mutants` shows what the analyzers catch,
# and which tests catch what no analyzer checks (lock order, a park under
# a lock: a simulated test wedges).
VETTOOL = bin/piql-vet

lint:
	@out=$$(gofmt -l cmd internal examples *.go); if [ -n "$$out" ]; then \
		echo "gofmt -l flagged:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	@if $(GO) list -deps ./internal/predict | grep -xE 'piql/internal/(core|analyze)'; then \
		echo "layering: predict prices operator lists; it may not import the packages listed above"; exit 1; fi
	@if $(GO) list -deps ./internal/core | grep -xE 'piql/internal/(analyze|predict)'; then \
		echo "layering: core derives the bound; it may not import the packages listed above"; exit 1; fi
	@if grep -nE 'parser\.(Expr|Literal|Param|Predicate|Assignment)\b' $$(ls internal/engine/*.go | grep -v _test.go); then \
		echo "layering: engine runs bound statements (core.BindWrite, core.Compile); it reads the AST only to tell DDL from DML from SELECT"; exit 1; fi
	@if grep -nE '\b(kvstore|engine)\.New\(' $$(ls internal/harness/*.go | grep -v _test.go | grep -v '/rig.go$$'); then \
		echo "layering: every experiment builds its cluster and engine with newRig (internal/harness/rig.go)"; exit 1; fi
	@if awk '/^func /{fn=$$0} /^[^\/]*proc\.(Parallel|Fork)\(/ && fn !~ /\) branches\(/ {print FILENAME ":" FNR ": " $$0; bad=1} END{exit !bad}' \
			$$(ls internal/kvstore/*.go | grep -v _test.go); then \
		echo "layering: the store runs requests concurrently only in its branch runner, (*Client).branches"; exit 1; fi
	@sites=$$(grep -nE '^[^/]*Client\.' $$(ls internal/exec/*.go | grep -v _test.go)); \
	if [ $$(printf '%s\n' "$$sites" | grep -c .) -ne 1 ]; then \
		echo "layering: internal/exec reaches the store from one site, (*executor).issue; found:"; echo "$$sites"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' '^[^/]*\.Parallel\(' cmd internal examples *.go; then \
		echo "layering: Client.Parallel and sim.Proc.Parallel exist only for the frozen bench; read a set with Client.Issue, write one with Client.Apply"; exit 1; fi
	@if awk '/^func /{fn=$$0} /^[^\/]*(\.items(\[[^]]*\])?( *, *[^=]*)? *=[^=]|(copy|clear)\([a-z]+\.items)/ && !/\.Value *=/ && \
			fn !~ /\) (insertAt|setAt|deleteAt|splitChild|mergeChildren)\(/ {print FILENAME ":" FNR ": " $$0; bad=1} END{exit !bad}' \
			$$(ls internal/btree/*.go | grep -v _test.go); then \
		echo "layering: a btree node's items change only in insertAt, setAt, deleteAt, splitChild and mergeChildren, which keep its heads in step"; exit 1; fi
	@if awk '/^func /{fn=$$0} /^[^\/]*\.(Put|TestAndSet|Delete)\(rkey/ && fn !~ /\) write\(/ {print FILENAME ":" FNR ": " $$0; bad=1} END{exit !bad}' \
			$$(ls internal/index/*.go | grep -v _test.go); then \
		echo "layering: internal/index writes a record only in its write protocol, (*Maintainer).write, so Insert, Update and Delete cannot fork it"; exit 1; fi
	@if grep -rnE --include='*.go' --exclude='*_test.go' '^[^/]*\.(Kill|Restart|Partition|Heal)\(' cmd internal examples *.go | \
			grep -v '^internal/harness/chaos.go:'; then \
		echo "layering: faults are injected by one driver, the chaos storm (internal/harness/chaos.go)"; exit 1; fi
	@if $(GO) list -f '{{.ImportPath}}:{{range .Imports}} {{.}}{{end}}' ./... | grep -E ' unsafe( |$$)' | grep -v '^piql/internal/value:'; then \
		echo "layering: only internal/value imports unsafe, for the decoder's strings that point into record bytes"; exit 1; fi
	$(GO) build -o $(VETTOOL) ./cmd/piql-vet
	$(VETTOOL) ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the full suite under the race detector. Its real-concurrency
# input is the kvstore and engine tests that run goroutines: the
# concurrent sessions (TestConcurrentSessions, TestPublicAPIConcurrentUse),
# the scatter-gather range reads (TestScanParallel*,
# TestScatterConcurrentClients), and the online-maintenance tests
# (TestRebalanceUnderTraffic, TestCreateIndexUnderConcurrentWrites,
# TestInsertRollbackRacingDelete, TestKillRacingRebalanceUnderTraffic)
# that gate index backfill, rebalance and a crash under live writes. The
# RunChaos storms run on the virtual clock — one process at a time — so
# they are not a real-goroutine gate.
race:
	$(GO) test -race ./...

# raced-gate runs the tests named in $(1), and only those, under the
# race detector. It first lists every test in ./internal/... and fails
# naming any listed name that matches none: `go test -run 'A|B'` passes
# when B no longer exists, so a renamed or deleted test would otherwise
# drop out of the gate without a sound.
define raced-gate
	@defined=$$($(GO) test -list . ./internal/...) || { echo "$$defined"; exit 1; }; \
	for name in $(1); do echo "$$defined" | grep -qx "$$name" || \
		{ echo "$@: no test in ./internal/... is named $$name"; exit 1; }; done
	$(GO) test -race -run '^($(subst $(space),|,$(strip $(1))))$$' ./internal/...
endef
space := $(subst ,, )

# chaos runs just the online-maintenance gate, raced — the quick check
# after touching the index lifecycle, write path, or routing table. Its
# concurrency comes from the kvstore and engine goroutine tests:
# TestTestAndSetLinearizableAcrossRebalance model-checks every TestAndSet
# outcome of a racing fleet across repeated chunked rebalances,
# TestReplicasConvergeUnderRacingWrites races unordered Put/Delete
# across rebalances, plus the chunked-copy regressions and the index
# build tests. TestChaosOnlineOperations runs the same model check and
# RunChaos's byte-for-byte per-key replica audit on the virtual clock;
# TestRejoinPurgesRangesMovedWhileDown and
# TestAsyncCatchUpRespectsOwnership cover the ranges a node lost while it
# was down.
CHAOS_TESTS = TestChaosOnlineOperations TestRebalanceUnderTraffic \
	TestRebalanceRangeReadsUnderTraffic TestCreateIndexUnderConcurrentWrites \
	TestInsertRollbackRacingDelete TestTestAndSetLinearizableAcrossRebalance \
	TestRebalanceChunkedCopy TestRebalanceDeleteInEarlierChunkNoResurrect \
	TestCreateIndexRacingDeletesNoDangling TestSimulatedCreateIndexDrainsWriters \
	TestReplicasConvergeUnderRacingWrites TestRejoinPurgesRangesMovedWhileDown \
	TestAsyncCatchUpRespectsOwnership TestBackfillStampLosesToRacingDelete

chaos:
	$(call raced-gate,$(CHAOS_TESTS))

# chaos-faults is the failure-injection gate, raced and explicit in ci.
# Its real-goroutine input is TestKillRacingRebalanceUnderTraffic (a
# replica killed while a rebalance copies under writer goroutines, and
# restarted a rebalance later). The rest: the simulated chaos storms with
# a node crashed or partitioned mid-rebalance, each on several seeds,
# every storm's counters pinned by chaos.golden, read failover and
# catch-up replay at unit level, lease-expiry fencing recovery,
# ownership at rejoin (also across two crashes on the virtual clock),
# the kill-during-write table (every write with a partition
# unreachable ends in a Retryable error or its full effect), and the
# error taxonomy: TestErrorChainsRoundTrip (every transient error
# unwraps to kvstore.ErrTransient through any wrapping) and
# TestApplyRetryBudgetExhaustsUnderRoutingFlips (a write whose routing
# table flips under every attempt ends in a typed *ErrFenceExhausted).
# That failover, replay and the lease check are load-bearing is shown by
# `make mutants`: their ledger rows (failover-off*, replay-off*,
# lease-check) take each one out and name the test above that fails.
CHAOS_FAULTS_TESTS = TestChaosSurvivesKillRestartMidRebalance \
	TestChaosSurvivesPartitionedReplica TestChaosStormsRepeatFromOneSeed \
	TestCatchUpReplayAndFailoverAreLoadBearing \
	TestKillRacingRebalanceUnderTraffic \
	TestLeaseExpiryUnwedgesTestAndSet TestRejoinPurgesRangesMovedWhileDown \
	TestErrorChainsRoundTrip TestApplyRetryBudgetExhaustsUnderRoutingFlips \
	TestRetryableClassification \
	TestDegradedReadSurfacesRetryable TestKillDuringWrite \
	TestAsyncCatchUpKillRestartInterleaving

chaos-faults:
	$(call raced-gate,$(CHAOS_FAULTS_TESTS))

# mutants applies each row of cmd/piql-vet/testdata/mutants.ledger — a
# seeded bug and the gate that must catch it: piql-vet:<analyzer>,
# test:<pkg>:<Test> or race:<pkg>:<Test> — alone to a `git archive HEAD`
# copy of the tree, runs only that gate, and fails any row whose old
# text does not occur exactly once or whose gate passes. A test gate
# runs with -timeout 20s, and one that hangs with its test still running
# has caught its mutant. It mutates HEAD, so commit first. Plain
# `go test` checks only the old texts and that each gate names a
# registered analyzer or a test its package declares.
# `make mutants ROW=<name>` runs the one row named <name> (the comment
# line above it names it); with no ROW, every row runs.
mutants:
	$(GO) test -count=1 -timeout 30m -run '^TestMutantLedger$$$(if $(ROW),/^$(ROW)$$)' ./cmd/piql-vet -mutants

# fuzz runs every fuzz target of ./internal/... for FUZZTIME each and
# fails on the first finding, which go test writes under the target's
# testdata/fuzz/ (plain `go test` replays the checked-in corpora, and
# nothing more). `go test -list` finds the targets, so a new one joins
# without an edit here. Not in ci: what a fuzzer finds in a given time is
# not deterministic.
#   make fuzz [FUZZTIME=10s]
FUZZTIME ?= 10s

fuzz:
	@targets=$$($(GO) test -list '^Fuzz' ./internal/...) || { echo "$$targets"; exit 1; }; \
	echo "$$targets" | awk '/^Fuzz/ { names = names " " $$1; next } /^ok/ { if (names != "") print $$2 names; names = "" }' | \
	while read pkg names; do for name in $$names; do \
		echo "fuzz: $$pkg $$name for $(FUZZTIME)"; \
		$(GO) test -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
	done; done

# bench-check vets and tests the benchmark harness. bench/ is its own
# module (replace piql => ../, so this runs offline) and is frozen, so
# nothing above compiles it: a PR that renames or deletes something the
# harness calls would otherwise only find out in the pipeline. It then
# runs every micro-benchmark once (bench-micro at BENCHTIME=1x), so one
# that panics or no longer compiles fails ci too.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .
	@$(MAKE) --no-print-directory bench-micro BENCHTIME=1x

# bench-micro runs the per-package micro-benchmarks of ./internal/...
# (the layer-by-layer side of the repo benchmark), with allocations.
#   make bench-micro [BENCHTIME=1s]
BENCHTIME ?= 1s

bench-micro:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./internal/...

# bench records the repo benchmark (BENCHMARK.json, bench/) as the
# perf-trajectory artifacts BENCH_$(N).parent.json and BENCH_$(N).json,
# N being the PR number: PAIRS alternating pairs of runs of each of the
# four workloads, one side the commit PARENT (copied by `git archive`
# into .bench_build/parent), the other the working tree, each built by
# its own bench/run.sh from its own directory, the order flipped every
# pair so neither side always runs on the warmer machine. One JSON report
# per line — the "set" format bench-compare reads — carrying GOMAXPROCS,
# the go version, the seed and the digest of its inputs. It ends with
# bench-compare and, per workload, the number of pairs in which the
# change's throughput_ips was higher (bench-compare judges medians; a
# claim also has to win nearly every pair). Takes PAIRS × about four
# minutes.
#   make bench N=17 [PARENT=HEAD] [PAIRS=10]
BENCH_WORKLOADS = scadr_home tpcw_order prepare_cold scadr_sim
PARENT ?= HEAD
PAIRS ?= 10

bench:
	@test -n "$(N)" || { echo "usage: make bench N=<PR number>   (writes BENCH_<N>.parent.json and BENCH_<N>.json)"; exit 2; }
	rm -rf .bench_build/parent BENCH_$(N).parent.json BENCH_$(N).json
	mkdir -p .bench_build/parent
	git archive $(PARENT) | tar -x -C .bench_build/parent
	@for pair in $$(seq $(PAIRS)); do for w in $(BENCH_WORKLOADS); do \
		sides="parent change"; if [ $$((pair % 2)) -eq 0 ]; then sides="change parent"; fi; \
		for side in $$sides; do \
			echo "pair $$pair/$(PAIRS): $$w ($$side)"; \
			if [ $$side = parent ]; then \
				(cd .bench_build/parent && bash bench/run.sh --workload $$w --json $(CURDIR)/BENCH_$(N).parent.json) > /dev/null || exit 1; \
			else \
				bash bench/run.sh --workload $$w --json BENCH_$(N).json > /dev/null || exit 1; \
			fi; \
		done; \
	done; done
	@$(MAKE) --no-print-directory bench-compare A=BENCH_$(N).parent.json B=BENCH_$(N).json; status=$$?; \
	for w in $(BENCH_WORKLOADS); do awk -v w=$$w 'index($$0, "\"workload\":\"" w "\"") && match($$0, /"throughput_ips":\{"value":[^,]*/) { \
			v = substr($$0, RSTART + 26, RLENGTH - 26) + 0; \
			if (FNR == NR) parent[++n] = v; else { m++; hi += v > parent[m]; lo += v < parent[m] } } \
		END { printf "%s throughput_ips: change higher in %d, lower in %d of %d pairs\n", w, hi, lo, m }' \
		BENCH_$(N).parent.json BENCH_$(N).json; done; \
	exit $$status

# bench-compare prints, per workload and metric, both sets' medians and
# quartiles, the gap, the bound from BENCHMARK.json and a verdict; it
# fails if anything regressed beyond its bound.
bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=<set.json> B=<set.json>"; exit 2; }
	bash bench/run.sh -compare $(A) $(B)

# profile runs one workload with both profiles on (into .bench_build/)
# and prints what lies under the workload's interactions, under the
# simulator's scheduler loop (sim.(*Env).Run, which runs scadr_sim's
# events on the main goroutine, outside any interaction), and under the
# entry frame of every pooled process goroutine (sim.(*Proc).loop, where
# a fan-out's branches run, off the interaction's stack): CPU by
# cumulative time, then objects and bytes allocated. TOP is the number of
# lines of each.
#   make profile W=tpcw_order [TOP=40]
TOP ?= 40
PPROF = $(GO) tool pprof -top -cum -focus '[iI]nteraction|sim\.\(\*Env\)\.Run|sim\.\(\*Proc\)\.loop' -nodecount $(TOP)

profile:
	@test -n "$(W)" || { echo "usage: make profile W=<workload>   (one of: $(BENCH_WORKLOADS))"; exit 2; }
	bash bench/run.sh --workload $(W) --cpuprofile .bench_build/$(W).cpu.prof --memprofile .bench_build/$(W).mem.prof | grep -v '^{'
	$(PPROF) .bench_build/piql-bench .bench_build/$(W).cpu.prof
	$(PPROF) -sample_index=alloc_objects .bench_build/piql-bench .bench_build/$(W).mem.prof
	$(PPROF) -sample_index=alloc_space .bench_build/piql-bench .bench_build/$(W).mem.prof

# experiments regenerates the paper's tables and figures in full.
experiments:
	$(GO) run ./cmd/piql-figures -experiment all
