.PHONY: test race bench bench-baseline bench-module cover lint fuzz fuzz-seeds fuzz-facade fuzz-journal fuzz-delta gate-check scenarios torture crash-torture fault-torture soak router-diff port-diff replay-diff view-diff pipeline-diff facade-diff alloc-diff surfaces

test:
	go build ./... && go test ./...

race:
	go test -race ./...

# The test gates. CI runs each as its own step, by running its target here:
# the -run pattern of a gate and the prose of what it pins live in this file
# only. SHORT=-short runs the short mode of the scenario matrix and the soak,
# as CI does.
GATES = scenarios crash-torture fault-torture soak router-diff port-diff replay-diff view-diff pipeline-diff facade-diff alloc-diff

# Every alternative of every gate's -run pattern must match at least one test
# of that gate's packages (go test -list), so a renamed test cannot drop out
# of its gate unseen.
gate-check:
	@sh scripts/gatecheck.sh $(GATES)

# The scenario-diversity surface: every named scenario runs its profiled
# stream on a live fabric with lock-step verification, against the
# book-keeping twin, and every scenario netlist must place and route in its
# own footprint.
scenarios:
	go test -race $(SHORT) -run 'TestScenarioMatrixDivergence|TestScenarioNetlistsSoundAndPlaceable' repro repro/internal/sched

torture: crash-torture fault-torture

# The journal/recovery property tests: a journaled system is crashed at every
# journal/flush boundary and recovered against the device readback, and the
# result must be bit-identical to a never-crashed twin, also with compressed
# delivery. A recovered system must route its next load like its
# never-crashed twin (TestRecoverRoutesNextLoadLikeTwin), and a checked-in
# journal whose Posts still carry the retired "nets" and "pads" keys must
# recover clean (TestRecoverReadsRetiredStateKeys). Recover decodes the
# journal while a helper goroutine builds the system, so the second line runs
# concurrent recoveries ten times over: each must equal a sequential one,
# and no goroutine may outlive Recover (TestRecoverConcurrently).
crash-torture:
	go test -race -run 'TestCrashConsistency|TestRecover|TestCompressedDelivery|TestCompressionFig7' repro
	go test -race -count=10 -run 'TestRecoverConcurrently' repro

# The transport fault-tolerance property tests: chaos-injected transient
# faults retried to a state bit-identical to a fault-free twin, pipelined and
# under serial commit (TestChaosRetryBitIdenticalToFaultFree's serial/budget-N
# rows, where each Flush harvests its own burst and the fault must still
# reach the retry ladder), persistent faults quarantined with design
# evacuation (after a failed Move, a MoveStaged failing in a hop, and a
# failed Defragment candidate followed by a successful one; what a failed
# evacuation condemns waits for the next operation's sweep), SEUs repaired
# by the scrubber (foreground and background), and a crash inside the retry
# loop recovered from the journal.
fault-torture:
	go test -race -run 'TestChaosRetry|TestPersistentFault|TestScrub|TestBackgroundScrubber|TestCrashDuringRetry' repro

# The frame-health lifecycle chaos soak: scrub-driven preemptive quarantine,
# probe/release and degraded-mode admission, with a mid-soak crash recovery
# running concurrently; the soaked system must converge back to full healthy
# capacity, bit-identical to a fault-free twin. Close, with the scrubber
# running and a stream in flight, must leave no goroutine behind
# (TestCloseUnderLoad). Full length by default; CI runs it with
# SHORT=-short.
soak:
	go test -race $(SHORT) -run 'TestChaosSoakSelfHealing|TestChaosSoakCompressed|TestScrubPreemptiveQuarantine|TestDegradedAdmission|TestCloseUnderLoad' repro

# The router's exactness gate: over a seeded corpus it must return
# node-for-node the routes of the reference router kept verbatim in
# internal/route/reference_test.go, also past the open set's last bucket
# (TestRouterMatchesReferencePastLastBucket), and the fanout tables it walks
# must enumerate exactly the fabric's FanoutOf. The bucketed open set must
# pop what the reference's binary heap pops (TestOpenSetMatchesBinaryHeap).
# Routes cannot show the search's dead-end pruning, so
# TestSearchQueuesNoDeadEnds pins it, and TestFanoutTemplateOneTilePerLocal
# the invariant it rests on. A session's blocked set is the base Reset reads
# in place plus the session's Block and Unblock stamps
# (TestResetReadsBaseInPlace).
router-diff:
	go test -race -run 'TestRouterMatchesReference|TestOpenSet|TestFanoutTemplate|TestSearchQueuesNoDeadEnds|TestResetReadsBaseInPlace' ./internal/route ./internal/fabric

# The configuration port's exactness gate: over a seeded corpus the
# Boundary-Scan port, which shifts whole words where the TAP allows, must
# match a twin stepping every DR bit through Chain.Step (the bit-serial loops
# kept in internal/jtag/wordshift_test.go) on TAP state, controller state,
# device frames, TDO words and TCK counts, and the word step must apply only
# on configuration-register words. The table-driven CRC must equal the
# bit-serial fold.
port-diff:
	go test -race -run 'TestWordShiftMatchesBitSerial|TestWordStepAppliesOnlyOnConfigWords|TestCRCTableMatchesBitSerial' ./internal/jtag ./internal/bitstream

# The journal replay's exactness gate: over seeded histories written by the
# journal writer, cut at every record boundary, Replay (which decodes only
# Init, the last committed Post and the open tail) must return exactly what
# the eager replay kept verbatim in internal/journal/replay_reference_test.go
# returns, and refuse what it refuses. Its two steps run apart, with the
# scanned image cleared between Prepare and Decode, must replay exactly as
# Replay does on an intact copy (TestPreparedOutlivesLog). Its allocations
# must not grow with the sealed history, and every record the writer
# marshals must start with {"seq":.
replay-diff:
	go test -race -run 'TestReplayMatchesEager|TestPreparedOutlivesLog|TestReplayAllocsIndependentOfHistory|TestRecordSeq' ./internal/journal

# The occupancy view's exactness gate: the view re-derives what each bit of
# an adopted frame configures (Device.OwnerOfBit, checked against the frame
# layout for every bit), and after every facade operation (cold and warm
# loads, moves, unloads, refused operations that roll back) and after every
# engine-level write it must equal a rescan of the configuration memory, with
# no change left undeclared (Engine.AuditView). After every engine-level
# write, Engine.FreeRouter, which reads the view in place, must block exactly
# the nodes the rescan shows in use. A failed partial recovery and a pad
# OutMask clear are pinned on their own.
view-diff:
	go test -race -run 'TestViewMatchesRescan|TestViewAfterFailedPartialRecovery|TestViewAfterPadOutMaskClear|TestAuditView|TestOwnerOfBit' repro ./internal/relocate ./internal/fabric

# The commit pipeline's exactness gate: a randomized mix of facade operations
# on a pipelined Boundary-Scan system must leave configuration memory and TCK
# cycles bit-identical to a serial-commit twin after every operation, and a
# port failure in mid-stream must roll the transaction back (TestPipelined).
# On a port that retires bursts only when they are harvested, the frame
# tool's stage gate is the only thing that keeps a relocation off the frames
# still streaming; the relocations must match a serial twin, and
# Stats.SerialFallbacks and OverlappedOps must count the calls that waited on
# the port and overlapped a stream (TestStageGateIsTheOnlyStreamGate). On a
# port whose completed bursts the test steps by hand, the gate must drain for
# a frame exactly while its burst is still shifting, and hand the Retry
# delegate the distinct frames enqueued since the last clean harvest in
# first-enqueued order (TestStageGateTracksPartialCompletion).
pipeline-diff:
	go test -race -run 'TestPipelined|TestStageGateIsTheOnlyStreamGate|TestStageGateTracksPartialCompletion' repro ./internal/relocate

# The facade's one-path gate: Load, Unload, Move, MoveStaged, Plan.Validate,
# Plan.Commit and Defragment all check their operations with one dry run on
# the live area book-keeping and run them with one runner. A target on
# columns the retry ladder condemned must be refused with ErrQuarantined by
# every entry point (plans also wrap ErrPlanInvalid) and change nothing
# (TestEveryEntryPointRefusesQuarantine); a one-op Plan must leave the
# frames, design tables, area map and template statistics the single call
# leaves, with the template cache off and on (TestOneOpPlanMatchesCall);
# plans, staged moves, defragmentation and the persistent-fault ladder run
# the same path.
facade-diff:
	go test -race -run 'TestEveryEntryPointRefusesQuarantine|TestOneOpPlanMatchesCall|TestPlan|TestMoveStaged|TestDefragment|TestPersistentFault' repro

# The hot walks' and the planners' gate: the relocation engine's cone walks
# (forwardCone, exclusiveSuffix, releaseCone) range Device.Fanout, which must
# allocate nothing and yield exactly FanoutOf's edges in order, also when a
# loop breaks early (TestFanoutAllocatesNothing, every local id of an
# interior and a corner XCV50 tile and every pad). LocalRepacking.Plans on
# an XCV800-sized grid must allocate per plan it returns, not per candidate
# window or target it tests (TestLocalRepackingAllocatesPerPlan), and no
# planner may target or move a task onto quarantined space
# (TestPlannersAvoidQuarantine). The repacking planner finds each evicted
# task's target by a ring search around the task; over seeded layouts,
# quarantined ones included, every lookup and every plan of Plans and Plan
# must equal what the full grid scan kept in
# internal/rearrange/reference_test.go gives (TestRingSearchMatchesFullScan).
# The counts are the same under the race runtime, so the gate runs with
# -race like the others.
alloc-diff:
	go test -race -run 'TestFanoutAllocatesNothing|TestLocalRepackingAllocatesPerPlan|TestPlannersAvoidQuarantine|TestRingSearchMatchesFullScan' ./internal/fabric ./internal/rearrange

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

# The benchmark run the CI bench lane gates against BENCH_baseline.json
# (make -s bench | tee bench.txt), and the one bench-baseline records, so the
# regression gate compares like against like.
BENCH_CMD = go test -run '^$$' -bench . -benchmem -benchtime=100ms -timeout 30m ./...

bench:
	$(BENCH_CMD)

# rlmbench (bench/, its own module) compiles against the facade and port
# accounting APIs, so build, vet and self-test it with them.
bench-module:
	go -C bench vet ./... && go -C bench test ./...

# Refresh the checked-in baseline after a PR that intentionally shifts
# performance. Run on an otherwise idle machine.
bench-baseline:
	$(BENCH_CMD) | tee bench.txt
	go run ./cmd/benchdiff parse bench.txt > BENCH_baseline.json
	rm -f bench.txt

# The fuzz lane, one target per step: the checked-in seed corpus under
# testdata/fuzz/ first, as plain tests, then a budgeted fuzz of each fuzzer.
fuzz: fuzz-seeds fuzz-facade fuzz-journal fuzz-delta

fuzz-seeds:
	go test -run 'Fuzz' repro repro/internal/journal repro/internal/bitstream

# Random facade op sequences with injected port failures and simulated crash
# points; every crash capture must recover.
fuzz-facade:
	go test -run '^$$' -fuzz 'FuzzFacadeOps' -fuzztime 60s -fuzzminimizetime 10s repro

fuzz-journal:
	go test -run '^$$' -fuzz 'FuzzJournalScan' -fuzztime 30s -fuzzminimizetime 10s repro/internal/journal

# Arbitrary shadow/staged-frame plans must round-trip through the delta/MFWR
# encoder-decoder to exact frame images; mutated streams must fail typed,
# never panic.
fuzz-delta:
	go test -run '^$$' -fuzz 'FuzzDeltaStream' -fuzztime 30s -fuzzminimizetime 10s repro/internal/bitstream

# Runs staticcheck; falls back to go vet when staticcheck is not on PATH
# (install: go install honnef.co/go/tools/cmd/staticcheck@2025.1.1).
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not found, running go vet (see Makefile for install)"; \
		go vet ./...; \
	fi

# The coverage floor. It tracks measured coverage minus a small noise margin
# (75.8% when the scenario suite landed). Raise it as coverage grows; never
# lower it to make a change pass.
cover:
	go test -coverprofile=cover.out ./...
	@go tool cover -func=cover.out | tail -1
	@total=$$(go tool cover -func=cover.out | tail -1 | awk '{print substr($$3, 1, length($$3)-1)}'); \
	awk -v t="$$total" 'BEGIN { if (t + 0 < 75.0) { print "coverage " t "% is below the 75% floor"; exit 1 } }'
