.PHONY: test race bench bench-baseline bench-module cover lint fuzz torture soak router-diff port-diff replay-diff view-diff pipeline-diff facade-diff alloc-diff surfaces

test:
	go build ./... && go test ./...

race:
	go test -race ./...

# Mirrors the CI crash- and fault-torture steps (keep the -run patterns in
# sync with .github/workflows/ci.yml): journaled crash/recovery at every
# boundary, a recovered system routing its next load like its never-crashed
# twin (TestRecoverRoutesNextLoadLikeTwin), a checked-in journal with the
# retired "nets" and "pads" keys recovering clean
# (TestRecoverReadsRetiredStateKeys), then the transport fault-tolerance
# properties under race.
torture:
	go test -race -run 'TestCrashConsistency|TestRecover|TestCompressedDelivery|TestCompressionFig7' repro
	go test -race -run 'TestChaosRetry|TestPersistentFault|TestScrub|TestBackgroundScrubber|TestCrashDuringRetry' repro

# Mirrors the CI "Router differential (race)" step (keep the -run pattern in
# sync with .github/workflows/ci.yml): routes node-for-node equal to the
# reference router's, the bucketed open set popping what a binary heap pops,
# the fanout tables equal to FanoutOf, a search that queues no dead end, and
# a session's blocked set read from its base in place with Block and Unblock
# stamped on top.
router-diff:
	go test -race -run 'TestRouterMatchesReference|TestOpenSet|TestFanoutTemplate|TestSearchQueuesNoDeadEnds|TestResetReadsBaseInPlace' ./internal/route ./internal/fabric

# Mirrors the CI "Port differential (race)" step (keep the -run pattern in
# sync with .github/workflows/ci.yml): the word-stepping Boundary-Scan port
# equal to the bit-serial TAP model, and the table-driven CRC equal to the
# bit-serial fold.
port-diff:
	go test -race -run 'TestWordShiftMatchesBitSerial|TestWordStepAppliesOnlyOnConfigWords|TestCRCTableMatchesBitSerial' ./internal/jtag ./internal/bitstream

# Mirrors the CI "Journal replay differential (race)" step (keep the -run
# pattern in sync with .github/workflows/ci.yml): Replay equal to the eager
# reference replay at every record boundary of seeded histories, its
# allocations independent of the sealed history, and the seq-first record
# contract with its fallback.
replay-diff:
	go test -race -run 'TestReplayMatchesEager|TestReplayAllocsIndependentOfHistory|TestRecordSeq' ./internal/journal

# Mirrors the CI "View differential (race)" step (keep the -run pattern in
# sync with .github/workflows/ci.yml): every frame bit decoded to the
# resource it configures, and the engine's occupancy view equal to a rescan
# of the configuration memory, with no change undeclared, after every facade
# operation, every engine-level write, a failed partial recovery and a pad
# OutMask clear; after every engine-level write, FreeRouter blocks exactly
# the nodes the rescan shows in use.
view-diff:
	go test -race -run 'TestViewMatchesRescan|TestViewAfterFailedPartialRecovery|TestViewAfterPadOutMaskClear|TestAuditView|TestOwnerOfBit' repro ./internal/relocate ./internal/fabric

# Mirrors the CI "Pipeline differential (race)" step (keep the -run pattern
# in sync with .github/workflows/ci.yml): pipelined facade operations leave
# configuration memory and cycle counts bit-identical to a serial-commit
# twin and roll back a mid-stream port failure, and on a port that retires
# bursts only at a harvest the frame tool's stage gate alone keeps every
# relocation off the frames still streaming, with the engine's overlap and
# serial-fallback counters reporting what it did. On a port whose completed
# bursts the test steps by hand, the gate follows bursts that complete one
# at a time, hands the Retry delegate the frames enqueued since the last
# clean harvest, and keeps counting right after the stall watchdog abandons
# a harvest.
pipeline-diff:
	go test -race -run 'TestPipelined|TestStageGateIsTheOnlyStreamGate|TestStageGateTracksPartialCompletion|TestBurstCompletionAfterAbandonedHarvest' repro ./internal/relocate

# Mirrors the CI "Facade paths (race)" step (keep the -run pattern in sync
# with .github/workflows/ci.yml): every mutating facade entry point checks
# its operation with one dry run and executes it with one runner, so a
# target on condemned logic space is refused with ErrQuarantined by all
# nine entry points and leaves the system unchanged, and a one-op Plan
# leaves what the single call leaves, with the template cache off and on;
# plans, staged moves, defragmentation and the persistent-fault ladder run
# the same path.
facade-diff:
	go test -race -run 'TestEveryEntryPointRefusesQuarantine|TestOneOpPlanMatchesCall|TestPlan|TestMoveStaged|TestDefragment|TestPersistentFault' repro

# Mirrors the CI "Allocation gates" step (keep the -run pattern in
# sync with .github/workflows/ci.yml): the relocation cone walks range the
# fabric's fanout without building it, so ranging Device.Fanout over every
# node of an interior and a corner tile and over every pad allocates nothing
# and yields FanoutOf's edges; the repacking planner's scans allocate per
# plan, not per candidate window; and no planner proposes a target or a move
# on quarantined space.
alloc-diff:
	go test -race -run 'TestFanoutAllocatesNothing|TestLocalRepackingAllocatesPerPlan|TestPlannersAvoidQuarantine' ./internal/fabric ./internal/rearrange

# The self-healing chaos soak at full length (CI runs the short-mode variant
# inside the fault-torture step): background scrubber + fault plan +
# defragmentation + mid-soak crash recovery, converging to a state
# bit-identical to a fault-free twin, under race.
soak:
	go test -race -run 'TestChaosSoakSelfHealing|TestChaosSoakCompressed|TestScrubPreemptiveQuarantine|TestStallWatchdog|TestDegradedAdmission|TestCloseUnderLoad' repro

# Mirrors the CI "Documented surfaces" step: every command the verify notes
# list under "Surfaces to drive" (keep the two lists in sync) and every
# fratool doc-comment example must exit 0. The trace examples ingest traces
# schedsim records first; fratool's journal and health subcommands are left
# out, as no command-line tool writes a journal. The binaries and traces go
# to a temporary directory, never the repo root.
surfaces:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go build -o "$$tmp/" ./cmd/fratool ./cmd/schedsim ./examples/...; \
	cd "$$tmp"; \
	run() { echo "+ $$*"; "./$$@" > log 2>&1 || { cat log; exit 1; }; }; \
	run quickstart; run gatedclock; run defrag; run videoswap; \
	run fratool -device XCV50 -design b01 -from R0C3 -to R9C9; \
	run fratool -device XCV50 -design b02 -move-region 8,2 -max-step 2; \
	run schedsim -experiment defrag -tasks 100; \
	run schedsim -experiment defrag -fabric -tasks 12; \
	run fratool -device XCV200 -design b03 -from R3C4 -to R10C12; \
	run fratool -device XCV50 -design b02 -move-region 8,8; \
	run fratool -device XCV50 -design b02 -move-region 8,8 -port selectmap -width 32 -compress; \
	run fratool -list-benchmarks; \
	run schedsim -experiment defrag -record night1.trace; \
	run schedsim -experiment defrag -seed 2 -record night2.trace; \
	run fratool trace night1.trace night2.trace; \
	run fratool trace -o merged.trace night1.trace night2.trace; \
	run schedsim -experiment defrag -replay merged.trace

# The exact command the CI bench lane runs (keep the two in sync: the
# regression gate compares like against like).
BENCH_CMD = go test -run '^$$' -bench . -benchmem -benchtime=100ms -timeout 30m ./...

bench:
	$(BENCH_CMD)

# Mirrors the CI "Benchmark module" step: rlmbench (bench/, its own module)
# compiles against the facade and port accounting APIs, so build, vet and
# self-test it with them.
bench-module:
	go -C bench vet ./... && go -C bench test ./...

# Refresh the checked-in baseline after a PR that intentionally shifts
# performance. Run on an otherwise idle machine.
bench-baseline:
	$(BENCH_CMD) | tee bench.txt
	go run ./cmd/benchdiff parse bench.txt > BENCH_baseline.json
	rm -f bench.txt

# Mirrors the CI fuzz lane (keep the budgets in sync with
# .github/workflows/ci.yml): the checked-in seed corpus first as plain
# tests, then a budgeted fuzz of the facade-op driver and the journal
# scanner.
fuzz:
	go test -run 'Fuzz' repro repro/internal/journal repro/internal/bitstream
	go test -run '^$$' -fuzz 'FuzzFacadeOps' -fuzztime 60s -fuzzminimizetime 10s repro
	go test -run '^$$' -fuzz 'FuzzJournalScan' -fuzztime 30s -fuzzminimizetime 10s repro/internal/journal
	go test -run '^$$' -fuzz 'FuzzDeltaStream' -fuzztime 30s -fuzzminimizetime 10s repro/internal/bitstream

# Mirrors the CI lint lane; falls back to go vet when staticcheck is not on
# PATH (install: go install honnef.co/go/tools/cmd/staticcheck@2025.1.1).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not found, running go vet (see Makefile for install)"; \
		go vet ./...; \
	fi

# Enforces the same 75% floor as the CI coverage lane (keep in sync with
# .github/workflows/ci.yml).
cover:
	go test -coverprofile=cover.out ./...
	@go tool cover -func=cover.out | tail -1
	@total=$$(go tool cover -func=cover.out | tail -1 | awk '{print substr($$3, 1, length($$3)-1)}'); \
	awk -v t="$$total" 'BEGIN { if (t + 0 < 75.0) { print "coverage " t "% is below the 75% floor"; exit 1 } }'
