# Convenience targets for the distfdk reproduction. Everything is plain
# `go` underneath; these just name the common workflows.

GO ?= go

.PHONY: all build test check doc-check fuse-lint fuzz-smoke chaos chaos-recover trace-smoke status-smoke transport-smoke slo-gate bench bench-compare experiments examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full static + race-detector gate: the kernel's and the filter's worker
# goroutines and the pipelined executor's stage goroutines must stay
# race-clean everywhere. The trace smoke-run keeps the telemetry artifacts
# loadable end to end.
check: doc-check fuse-lint
	$(GO) vet ./...
	$(GO) test -race ./...
	$(MAKE) trace-smoke
	$(MAKE) status-smoke
	$(MAKE) chaos-recover
	$(MAKE) transport-smoke

# Documentation gate: every Test*/Benchmark*/Fuzz* identifier DESIGN.md or
# README.md names must be a function in some _test.go file, every
# |-alternative of every -run '...' selector in this Makefile (anchors
# stripped; '^$$' selects nothing on purpose) must be a prefix of a Test
# function in some _test.go file, and every scenarios/<name>.yaml path
# DESIGN.md, README.md or EXPERIMENTS.md cites must be a file — so neither
# the docs nor a make target can go on citing a test or a scenario a PR
# deleted or renamed (go test -run matches a stale name to nothing, silently).
doc-check:
	@stale=0; \
	for n in $$(grep -ohE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' DESIGN.md README.md | sort -u); do \
		grep -rqE "^func $$n\(" --include='*_test.go' . || \
			{ echo "doc-check: DESIGN.md/README.md name $$n, which no _test.go file defines"; stale=1; }; \
	done; \
	for n in $$(grep -oE -- "-run '[A-Za-z0-9_|^$$]+'" Makefile | cut -d"'" -f2 | tr '|' '\n' | sed -E 's/^\^//; s/\$$+$$//' | sort -u); do \
		grep -rqE "^func $$n" --include='*_test.go' . || \
			{ echo "doc-check: a Makefile -run selector names $$n, which prefixes no Test function in a _test.go file"; stale=1; }; \
	done; \
	for f in $$(grep -ohE '\bscenarios/[a-z0-9-]+\.ya?ml' DESIGN.md EXPERIMENTS.md README.md | sort -u); do \
		test -f "$$f" || { echo "doc-check: the docs cite $$f, which does not exist"; stale=1; }; \
	done; exit $$stale

# Arithmetic-contract gate: the Go functions that compute what the assembly
# computes (the back-projection coordinate contract of
# internal/backproject/simd.go, the row FFT's Go passes), and the test oracle
# the back-projection is held to byte for byte, must not be compiled to fused
# multiply-adds on a target that has them, or their bytes would depend on the
# architecture. The same holds for the synthetic inputs: the analytic
# projector and the Poisson noise (internal/forward), the voxeliser that
# scores a reconstruction (internal/phantom) and their test oracles. The Go specification makes
# float32(a*b) / float64(a*b) round, which is how the sources prevent it;
# this cross-compiles them for arm64 (the toolchain alone, nothing
# downloaded) — the back-projection, the projector and the voxeliser as their
# test builds, whose listings hold the package and its oracle — and fails,
# naming the function, if an FMADD/FMSUB/FNMADD/FNMSUB appears inside one of
# FUSE_LINT_FUNCS or if one of them is missing from the listing. The float64
# span solves (the kernel's rowSpans and clipRow, the voxeliser's sub-row
# solve phantom.(*slabTerm).span and phantom.indexRange), the tests' input
# generators, the numeric volume projector (forward.march, forward.trilinear)
# and phantom.Foam's placement are not in the list: none of them decides a
# byte of the benchmark's inputs or its reference. A span solve only decides
# where the exact arithmetic need not run, with a margin that its doc comment
# states.
FUSE_LINT_FUNCS = \
	backproject.laneAt backproject.simdCoords backproject.footprint \
	backproject.(*projAccess).tileRec backproject.(*projAccess).fusedTileGo \
	backproject.(*projAccess).fastCols backproject.(*projAccess).guardedCols \
	backproject.(*projAccess).subPixel backproject.(*projAccess).perColumn \
	backproject.projAccess.reference \
	fft.twiddleGo fft.untwiddleGo fft.difStagesGo fft.ditStagesGo \
	fft.difRadix4Go fft.ditRadix4Go fft.pairBlock fft.(*RealPlan).pairs \
	forward.vec3.dot forward.newRayFrame forward.(*rayFrame).pixel \
	forward.(*rayFrame).shadow forward.newChordFrame forward.(*chordFrame).chord \
	forward.projectAngle forward.AddPoissonNoise forward.poisson \
	forward.sourcePos forward.pixelPos forward.ellipsoidChord forward.projectOracle \
	phantom.(*Ellipsoid).Contains phantom.(*prepared).zTerm phantom.(*prepared).row \
	phantom.(*prepared).inside phantom.(*Phantom).Voxelize phantom.subSamples \
	phantom.containsOracle phantom.densityOracle phantom.voxelizeOracle

fuse-lint:
	@{ GOOS=linux GOARCH=arm64 $(GO) test -c -o /dev/null -gcflags=-S ./internal/backproject && \
		GOOS=linux GOARCH=arm64 $(GO) test -c -o /dev/null -gcflags=-S ./internal/forward && \
		GOOS=linux GOARCH=arm64 $(GO) test -c -o /dev/null -gcflags=-S ./internal/phantom && \
		GOOS=linux GOARCH=arm64 $(GO) build -gcflags=-S ./internal/fft; } 2>&1 | \
	awk -v want='$(FUSE_LINT_FUNCS)' ' \
		BEGIN { n = split(want, w, " "); for (i = 1; i <= n; i++) contract["distfdk/internal/" w[i]] = 1 } \
		/ STEXT / { fn = $$1; if (fn in contract) seen[fn] = 1 } \
		/F(N?)M(ADD|SUB)[SD]/ { if (fn in contract) { bad[fn]++ } } \
		END { \
			for (f in contract) if (!(f in seen)) { print "fuse-lint: " f " is not in the arm64 listing (renamed? update FUSE_LINT_FUNCS)"; fail = 1 } \
			for (f in bad) { print "fuse-lint: " bad[f] " fused multiply-add(s) in " f " on arm64: write the product as float32(a*b) or float64(a*b)"; fail = 1 } \
			exit fail \
		}'

# Parser fuzz smoke: 10 s of mutation per target on the parsers of bytes
# this process did not write — wire frames and payloads, projection stacks,
# raw volumes, the checkpoint journal, the hand-written scenario files (go
# test -fuzz takes one target at a time). The targets' seed corpora run in every plain `go test`; this is the
# part that looks past them. A finding lands in testdata/fuzz/ as a
# regression seed.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 10s ./internal/mpi/nettrans/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodePayload$$' -fuzztime 10s ./internal/mpi/nettrans/
	$(GO) test -run '^$$' -fuzz '^FuzzOpenStack$$' -fuzztime 10s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzJournal$$' -fuzztime 10s ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzReadRaw$$' -fuzztime 10s ./internal/volume/
	$(GO) test -run '^$$' -fuzz '^FuzzParseScenario$$' -fuzztime 10s ./internal/scenario/

# Telemetry artifact gate: a tiny distributed reconstruction with tracing
# and metrics on, then the artifact validators. Catches any drift in the
# Chrome-trace / metrics JSON shape that the unit tests' synthetic
# snapshots wouldn't exercise. -require-matched-flows makes the validator
# insist every mpi send links to its recv via a flow arrow, so a telemetry
# change that silently drops the causal edges fails here.
trace-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/fdkrecon -div 16 -n 32 -batches 4 -groups 2 -ranks 2 \
		-o artifacts/trace_smoke_vol.bin \
		-trace-out artifacts/trace_smoke.json \
		-metrics-json artifacts/metrics_smoke.json
	$(GO) run ./cmd/fdkbench \
		-check-trace artifacts/trace_smoke.json \
		-check-metrics artifacts/metrics_smoke.json \
		-require-matched-flows
	rm -f artifacts/trace_smoke_vol.bin

# Live introspection gate: the same tiny world with -pprof on and the
# -status-poll loop hitting the live /metrics and /statusz endpoints
# while back-projection is in flight. fdkrecon exits non-zero unless at
# least one poll validated both endpoints AND observed in-flight work.
status-smoke:
	mkdir -p artifacts
	$(GO) run ./cmd/fdkrecon -div 16 -n 32 -batches 8 -groups 2 -ranks 2 \
		-o artifacts/status_smoke_vol.bin \
		-pprof 127.0.0.1:6161 -status-poll 5ms
	rm -f artifacts/status_smoke_vol.bin

# Fault-tolerance gate: the seeded chaos matrix (transient recovery must be
# bit-identical, permanent faults must surface typed and bounded with zero
# leaked goroutines — the goroutine-settle check is part of the matrix),
# kill-and-resume, the deadline/teardown suite, the send window in both
# worlds (a full window blocks to the deadline, a pop's credit frees a slot
# and releases the frames, forged credits free nothing), the pipeline's
# drain on a stage failure (a failed batch hands its slab back, so a
# pipelined rank returns instead of waiting for it) and the
# journal/atomic-write storage tests, all under the race detector. -count=1 defeats the test cache so
# the schedules actually re-run.
chaos:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestReconstructSingleRetryAndResume|TestPipelinedFailure|TestRecvDeadline|TestWorldTeardown|TestSplitInherits|TestInterceptor|TestSendDeadline|TestTeardownLeavesNoGoroutines|TestErrorPropagationKeepsLiveness|TestFailedStageStopsUpstream|TestJournal|TestWriteStackIsAtomic|TestOpenStackRejects|TestSlabWriterPartial|TestResumeSlabWriter|TestReplayResendsOwnedBuffers|TestSendWindowReleasesPromptly|TestForgedCreditsCannotWidenWindow' \
		./internal/core/ ./internal/mpi/ ./internal/mpi/nettrans/ ./internal/fault/ ./internal/storage/ ./internal/pipeline/
	$(GO) test -race -count=1 ./internal/fault/

# Recovery gate: the supervised shrink-and-resume suite under the race
# detector (the rank-kill matrix asserts bit-identical recovery from every
# single-rank loss at every batch boundary), then an end-to-end recovery
# drill of the CLI — rank 1 killed at batch 1, world replanned onto the
# survivors, volume promoted — whose trace and metrics artifacts are
# validated and kept in artifacts/ for the CI run to upload.
chaos-recover:
	$(GO) test -race -count=1 \
		-run 'TestSupervise|TestShrinkPlan|TestClusterReportSkippedBatches|TestTeardownAttributes|TestDeadlineExpiryCarriesNoAttribution|TestLostRanks|TestScheduleKill|TestBatchStartNilInjector|TestJournal' \
		./internal/core/ ./internal/mpi/ ./internal/fault/ ./internal/storage/
	mkdir -p artifacts
	rm -f artifacts/recover_drill.fbk artifacts/recover_drill.fbk.partial artifacts/recover_drill.journal
	$(GO) run ./cmd/fdkrecon -div 16 -n 32 -batches 4 -groups 2 -ranks 2 \
		-o artifacts/recover_drill.fbk \
		-journal artifacts/recover_drill.journal \
		-max-restarts 2 -restart-backoff 50ms -kill 1@1 \
		-trace-out artifacts/recover_trace.json \
		-metrics-json artifacts/recover_metrics.json
	$(GO) run ./cmd/fdkbench \
		-check-trace artifacts/recover_trace.json \
		-check-metrics artifacts/recover_metrics.json
	rm -f artifacts/recover_drill.fbk

# Real-transport gate: the same reconstruction twice — once in-process,
# once as a 4-process loopback TCP world (coordinator + 3 re-exec'd
# workers over internal/mpi/nettrans) with a wire sever at rank 1's 2nd
# frame and a rank-1 kill at batch 1. The sever must be absorbed by the
# link's reconnect + replay (fdkrecon itself asserts that every -sever
# rule cut a connection: transport.severs, counted where the cut is made
# and reported by the workers, equals the number of -sever entries, with
# at least as many reconnects at the hub), the kill must shrink-and-resume through the
# journal across OS processes, and the recovered volume must be
# byte-identical to the fault-free in-process one. The metrics artifact
# (with the transport.* counters under the shared rank) is validated and
# kept in artifacts/ for CI to upload. The binary is built once — the
# workers are the coordinator re-exec'd, so `go run`'s temp binary works
# too, but an explicit build keeps the spawn path obvious.
transport-smoke:
	mkdir -p artifacts
	rm -f artifacts/transport_ref.fbk artifacts/transport_world.fbk \
		artifacts/transport_ref.journal artifacts/transport_world.journal
	$(GO) build -o artifacts/fdkrecon.bin ./cmd/fdkrecon
	artifacts/fdkrecon.bin -div 16 -n 32 -batches 4 -groups 2 -ranks 2 \
		-journal artifacts/transport_ref.journal \
		-o artifacts/transport_ref.fbk
	artifacts/fdkrecon.bin -div 16 -n 32 -batches 4 -groups 2 -ranks 2 \
		-world 4 -sever 1@2 -kill 1@1 \
		-journal artifacts/transport_world.journal \
		-max-restarts 2 -restart-backoff 50ms \
		-metrics-json artifacts/transport_metrics.json \
		-o artifacts/transport_world.fbk
	$(GO) run ./cmd/fdkbench -check-metrics artifacts/transport_metrics.json
	cmp artifacts/transport_ref.fbk artifacts/transport_world.fbk
	# The fault-free world again on one P and one CPU, the schedule the
	# benchmark runs: the same bytes, and no link cycled or frame resent.
	GOMAXPROCS=1 taskset -c 0 artifacts/fdkrecon.bin -div 16 -n 32 -batches 4 -groups 2 -ranks 2 \
		-world 2 -metrics-json artifacts/transport_onep.json -o artifacts/transport_onep.fbk
	cmp artifacts/transport_ref.fbk artifacts/transport_onep.fbk
	! grep -E '"transport\.(reconnects|retransmits)": *[1-9]' artifacts/transport_onep.json
	rm -f artifacts/fdkrecon.bin artifacts/transport_ref.fbk artifacts/transport_world.fbk artifacts/transport_onep.fbk

# Robustness release wall: replay every scenario under scenarios/ — one
# fault-free reference run, then the file's seeded injected runs — and fail
# the build when any injected run ends other than the file expects,
# reconstructs other bytes than the reference, or breaches an event-count
# gate (`go test ./internal/scenario -run TestCommittedScenarios` is the
# same replay in tier-1; nothing here is timed). The analysis artifacts
# land in artifacts/slo/ and the JSON is immediately re-validated, so CI
# uploads a checked artifact.
slo-gate:
	$(GO) run ./cmd/slogate -scenarios scenarios -out artifacts/slo
	$(GO) run ./cmd/slogate -check artifacts/slo/analysis.json

# Every testing.B micro-benchmark in the tree (after the tests), for
# profiling while working on a layer. Performance is recorded and compared
# by `make bench-compare`.
bench:
	$(GO) test -bench=. -benchmem -timeout 45m ./...

# A perf PR's ledger row in one command: the repository benchmark
# (BENCHMARK.json) at BASE — a git ref, extracted into a temporary tree —
# and at the working tree, then the per-metric verdict table of
# `bench -compare`, which exits non-zero on a regression beyond a bound.
# BENCH_ARGS goes to both runs, e.g. BENCH_ARGS="--seconds 8 --trace 0".
# OUT=<dir> keeps both result directories ($(OUT)/base-out, $(OUT)/head-out)
# instead of leaving them in the temporary tree that is removed on exit.
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<git ref> [OUT=<dir>] [BENCH_ARGS=...]"; exit 2; }
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	out="$$tmp"; if test -n "$(OUT)"; then mkdir -p "$(OUT)"; out=$$(cd "$(OUT)" && pwd); fi; \
	mkdir "$$tmp/base"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	(cd "$$tmp/base" && $(GO) run ./bench $(BENCH_ARGS) --out "$$out/base-out"); \
	$(GO) run ./bench $(BENCH_ARGS) --out "$$out/head-out"; \
	$(GO) run ./bench -compare "$$out/base-out/results.json" "$$out/head-out/results.json"

# Regenerate every table/figure of the paper's evaluation into artifacts/.
experiments:
	$(GO) run ./cmd/fdkbench -exp all -out artifacts | tee artifacts/fdkbench_all.txt

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/outofcore
	$(GO) run ./examples/distributed
	$(GO) run ./examples/microct
	$(GO) run ./examples/iterative

clean:
	rm -f quickstart_slice.pgm iterative_slice.pgm microct_bean_slice.pgm
