# Convenience targets for the distfdk reproduction. Everything is plain
# `go` underneath; these just name the common workflows.

GO ?= go

.PHONY: all build test check doc-check fuse-lint fuzz-smoke chaos chaos-recover trace-smoke transport-smoke slo-gate bench bench-compare bench-pairs experiments examples clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

# Full static + race-detector gate: every Go file must be as gofmt writes
# it, and the kernel's and the filter's worker goroutines and the executor's
# stage goroutines must stay race-clean everywhere. The peak-RSS tests run
# again without -race, whose shadow memory moves a process's peak: a race
# build compares their bytes only.
# The trace smoke-run keeps the telemetry artifacts loadable end to end, and
# the examples, which no test runs, must still run.
check: doc-check fuse-lint
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt: not formatted (run gofmt -w):"; echo "$$unformatted"; exit 1; fi
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -count=1 -run '^TestPeakRSS' ./cmd/fdkrecon/
	$(MAKE) examples
	$(MAKE) trace-smoke
	$(MAKE) chaos-recover
	$(MAKE) transport-smoke

# Documentation gate: every Test*/Benchmark*/Fuzz* identifier DESIGN.md or
# README.md names must be a function in some _test.go file, every
# |-alternative of every -run '...' selector in this Makefile (anchors
# stripped; '^$$' selects nothing on purpose) and every Test*/Benchmark*/
# Fuzz* identifier the verify skill (.claude/skills/verify/SKILL.md, which
# quotes -run selectors) names must be a prefix of a function in some
# _test.go file, every scenarios/<name>.yaml path
# DESIGN.md, README.md or EXPERIMENTS.md cites must be a file, and every
# `-exp <id>` those three or the verify skill cite must be `all` or a key of
# internal/experiments/registry.go — so neither the docs nor a make target
# can go on citing a test, a scenario or an experiment a PR deleted or
# renamed (go test -run matches a stale name to nothing, silently). No
# non-test Go file outside internal/core and bench/ may name
# ReconstructSingle, RunDistributed or ReconstructXYTile: every other caller
# runs the one entry point, core.Supervise. Last, the export gate: every
# exported top-level function of a package under internal/ must be named
# package-qualified (pkg.Name) on a line of code, not a whole-line //
# comment, of some non-test Go file outside the package's own directory (a
# subpackage's directory counts as outside), or be on EXPORT_ALLOW. A
# function no such file names is test-only API in production code: delete
# it with the path it gates, move it into a _test.go file, or unexport it.
# An EXPORT_ALLOW entry that some outside file does name, or that no longer
# exists, fails the gate too, so the list stays exact. Methods and types are
# out of the gate's scope.
#
# EXPORT_ALLOW: one entry a line, the qualified name and then why it stays
# exported without a production caller.
define EXPORT_ALLOW
cpufeat.SetAVX2ForTest    other packages' tests mask AVX2 to run the Go spellings on an AVX2 host
cpufeat.SetAVX512ForTest  other packages' tests mask AVX-512 to run the 8-lane spellings on an AVX-512 host
alloctest.AllocatedBy     alloctest is test support: only other packages' tests and fuzz targets import it
endef
export EXPORT_ALLOW

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
	for n in $$(grep -ohE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' .claude/skills/verify/SKILL.md | sort -u); do \
		grep -rqE "^func $$n" --include='*_test.go' . || \
			{ echo "doc-check: .claude/skills/verify/SKILL.md names $$n, which prefixes no function in a _test.go file"; stale=1; }; \
	done; \
	for f in $$(grep -ohE '\bscenarios/[a-z0-9-]+\.ya?ml' DESIGN.md EXPERIMENTS.md README.md | sort -u); do \
		test -f "$$f" || { echo "doc-check: the docs cite $$f, which does not exist"; stale=1; }; \
	done; \
	ids=" all $$(sed -nE 's/^[[:space:]]+"([a-z0-9]+)":[[:space:]]+func.*/\1/p' internal/experiments/registry.go | tr '\n' ' ')"; \
	for id in $$(grep -ohE -- '-exp [a-z0-9]+' DESIGN.md EXPERIMENTS.md README.md .claude/skills/verify/SKILL.md | cut -d' ' -f2 | sort -u); do \
		case "$$ids" in *" $$id "*) ;; *) echo "doc-check: the docs cite -exp $$id, which internal/experiments/registry.go does not register"; stale=1;; esac; \
	done; \
	if git grep -nE 'ReconstructSingle|RunDistributed|ReconstructXYTile' -- '*.go' ':!internal/core' ':!bench' ':!*_test.go'; then \
		echo "doc-check: the lines above run a reconstruction outside core.Supervise"; stale=1; \
	fi; \
	unused=" "; \
	for d in $$(find internal -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do \
		for n in $$(sed -nE 's/^func ([A-Z][A-Za-z0-9_]*)[[(].*/\1/p' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go') | sort -u); do \
			git grep --untracked -qE "^[[:space:]]*([^/[:space:]].*)?\b$${d##*/}\.$$n\b" -- '*.go' ':!*_test.go' ":(exclude,glob)$$d/*.go" || \
				unused="$$unused$${d##*/}.$$n "; \
		done; \
	done; \
	allowed=" $$(printf '%s\n' "$$EXPORT_ALLOW" | awk 'NF { printf "%s ", $$1 }')"; \
	for n in $$unused; do \
		case "$$allowed" in *" $$n "*) ;; *) echo "doc-check: $$n is exported, but no non-test file outside its package names it: delete it, move it into a _test.go file, or unexport it"; stale=1;; esac; \
	done; \
	for n in $$allowed; do \
		case "$$unused" in *" $$n "*) ;; *) echo "doc-check: EXPORT_ALLOW lists $$n, which is not an exported function that no outside non-test file names"; stale=1;; esac; \
	done; exit $$stale

# Arithmetic-contract gate: the Go functions that compute what the assembly
# computes (the back-projection coordinate contract of
# internal/backproject/simd.go, the row FFT's lane-form Go passes), and the
# test oracles the back-projection and the row FFT (the per-row transform of
# internal/fft/roworacle_test.go) are held to byte for byte, must not be compiled to fused
# multiply-adds on a target that has them, or their bytes would depend on the
# architecture. The same holds for the synthetic inputs: the analytic
# projector and the Poisson noise (internal/forward), the voxeliser that
# scores a reconstruction (internal/phantom) and their test oracles. The Go specification makes
# float32(a*b) / float64(a*b) round, which is how the sources prevent it;
# this cross-compiles them for arm64 (the toolchain alone, nothing
# downloaded) — the back-projection, the row FFT, the projector and the
# voxeliser as their test builds, whose listings hold the package and its
# oracle — and fails,
# naming the function, if an FMADD/FMSUB/FNMADD/FNMSUB appears inside one of
# FUSE_LINT_FUNCS or if one of them is missing from the listing. The
# kernel's float64 span solve (rowSpans and clipRow) is listed because the
# AVX-512 span solve (spans512_amd64.s) must equal it bit for bit. The
# voxeliser's sub-row solve (phantom.(*slabTerm).span and
# phantom.indexRange), the tests' input generators, the numeric volume
# projector (forward.march, forward.trilinear) and phantom.Foam's placement
# are not in the list: none of them decides a byte of the benchmark's inputs
# or its reference, and the voxeliser's span only decides where the exact
# arithmetic need not run, with a margin that its doc comment states. Last,
# the same rule for the assembly spellings: a test scans every .s file of
# the module for an FMA3 mnemonic.
FUSE_LINT_FUNCS = \
	backproject.laneAt backproject.simdCoords backproject.footprint backproject.tileFootprint \
	backproject.(*projAccess).rowRec backproject.(*projAccess).rowSpans backproject.clipRow \
	backproject.(*projAccess).fusedTileGo \
	backproject.(*projAccess).fastCols backproject.(*projAccess).guardedCols \
	backproject.(*projAccess).subPixel backproject.(*projAccess).perColumn \
	backproject.projAccess.reference \
	fft.twiddleLanes fft.untwiddleLanes fft.difStagesLanes fft.ditStagesLanes \
	fft.difRadix4Lanes fft.ditRadix4Lanes fft.pairBlocksLanes fft.(*RealPlan).pairs \
	fft.twiddleGo fft.untwiddleGo fft.difStagesGo fft.ditStagesGo \
	fft.difRadix4Go fft.ditRadix4Go fft.pairBlock fft.(*RealPlan).pairsRow \
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
		GOOS=linux GOARCH=arm64 $(GO) test -c -o /dev/null -gcflags=-S ./internal/fft; } 2>&1 | \
	awk -v want='$(FUSE_LINT_FUNCS)' ' \
		BEGIN { n = split(want, w, " "); for (i = 1; i <= n; i++) contract["distfdk/internal/" w[i]] = 1 } \
		/ STEXT / { fn = $$1; if (fn in contract) seen[fn] = 1 } \
		/F(N?)M(ADD|SUB)[SD]/ { if (fn in contract) { bad[fn]++ } } \
		END { \
			for (f in contract) if (!(f in seen)) { print "fuse-lint: " f " is not in the arm64 listing (renamed? update FUSE_LINT_FUNCS)"; fail = 1 } \
			for (f in bad) { print "fuse-lint: " bad[f] " fused multiply-add(s) in " f " on arm64: write the product as float32(a*b) or float64(a*b)"; fail = 1 } \
			exit fail \
		}'
	$(GO) test ./internal/backproject -run '^TestAssemblyHasNoFusedMultiplyAdd$$'

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

# Fault-tolerance gate: the seeded chaos matrix (transient recovery must be
# bit-identical, permanent faults must surface typed and bounded with zero
# leaked goroutines — the goroutine-settle check is part of the matrix),
# kill-and-resume, the deadline/teardown suite, the send window in both
# worlds (a full window blocks to the deadline, a pop's credit frees a slot
# and releases the frames, forged credits free nothing), the socket world's
# two rendezvous (formation refused or failed by a no-show, and the
# end-of-attempt verdict on the wire before the hub returns), the pipeline's
# drain on a stage failure (a failed batch hands its slab back, so a rank
# returns instead of waiting for it, and no batch behind it reaches reduce
# or store without a slab), the interceptor's world ranks and the
# journal/atomic-write storage tests, all under the race detector. -count=1
# defeats the test cache so the schedules actually re-run.
chaos:
	$(GO) test -race -count=1 \
		-run 'TestChaos|TestReconstructSingleRetryAndResume|TestPipelinedFailure|TestRecvDeadline|TestWorldTeardown|TestSplitInherits|TestInterceptor|TestSendDeadline|TestTeardownLeavesNoGoroutines|TestErrorPropagationKeepsLiveness|TestFailedStageStopsUpstream|TestJournal|TestWriteStackIsAtomic|TestOpenStackRejects|TestSlabWriterPartial|TestResumeSlabWriter|TestReplayResendsOwnedBuffers|TestSendWindowReleasesPromptly|TestForgedCreditsCannotWidenWindow|TestFleetFormation|TestVerdictOnWireBeforeHubReturns' \
		./internal/core/ ./internal/mpi/ ./internal/mpi/nettrans/ ./internal/fault/ ./internal/storage/ ./internal/pipeline/
	$(GO) test -race -count=1 ./internal/fault/

# Recovery gate: the supervised shrink-and-resume suite under the race
# detector (the rank-kill matrix asserts bit-identical recovery from every
# single-rank loss at every batch boundary), then an end-to-end recovery
# drill of the CLI — rank 1 killed at batch 1, world replanned onto the
# survivors, volume promoted — whose trace and metrics artifacts are
# validated and kept in artifacts/ for the CI run to upload. The same drill
# on a Z window (slices [8, 24)) must recover the bytes of the window's
# uninterrupted run. Last, give-up-then-resume: with a budget of 0 the kill
# fails the run, which must exit non-zero and keep volume.partial and the
# journal; the same command without -kill must resume them, remove the
# journal and promote the bytes of an uninterrupted run — on 2×2 ranks, then
# on one rank, a world of one.
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
	rm -f artifacts/recover_roi.fbk artifacts/recover_roi.fbk.partial artifacts/recover_roi.journal artifacts/recover_roi_ref.fbk
	$(GO) run ./cmd/fdkrecon -div 16 -n 32 -zlo 8 -znz 16 -groups 2 -ranks 2 -batches 4 \
		-o artifacts/recover_roi_ref.fbk
	$(GO) run ./cmd/fdkrecon -div 16 -n 32 -zlo 8 -znz 16 -groups 2 -ranks 2 -batches 4 \
		-o artifacts/recover_roi.fbk \
		-journal artifacts/recover_roi.journal \
		-max-restarts 2 -restart-backoff 50ms -kill 1@1
	cmp artifacts/recover_roi_ref.fbk artifacts/recover_roi.fbk
	rm -f artifacts/recover_roi.fbk artifacts/recover_roi_ref.fbk
	rm -f artifacts/recover_giveup.fbk artifacts/recover_giveup.fbk.partial artifacts/recover_giveup.journal artifacts/recover_giveup_ref.fbk
	$(GO) run ./cmd/fdkrecon -div 16 -n 32 -groups 2 -ranks 2 -batches 4 \
		-o artifacts/recover_giveup_ref.fbk
	! $(GO) run ./cmd/fdkrecon -div 16 -n 32 -groups 2 -ranks 2 -batches 4 \
		-o artifacts/recover_giveup.fbk \
		-journal artifacts/recover_giveup.journal -max-restarts 0 -kill 1@1
	test -f artifacts/recover_giveup.fbk.partial
	test -f artifacts/recover_giveup.journal
	$(GO) run ./cmd/fdkrecon -div 16 -n 32 -groups 2 -ranks 2 -batches 4 \
		-o artifacts/recover_giveup.fbk \
		-journal artifacts/recover_giveup.journal -max-restarts 0
	test ! -e artifacts/recover_giveup.journal
	cmp artifacts/recover_giveup_ref.fbk artifacts/recover_giveup.fbk
	rm -f artifacts/recover_giveup.fbk artifacts/recover_giveup_ref.fbk
	rm -f artifacts/recover_one.fbk artifacts/recover_one.fbk.partial artifacts/recover_one.journal artifacts/recover_one_ref.fbk
	$(GO) run ./cmd/fdkrecon -div 16 -n 32 -batches 4 -o artifacts/recover_one_ref.fbk
	! $(GO) run ./cmd/fdkrecon -div 16 -n 32 -batches 4 \
		-o artifacts/recover_one.fbk \
		-journal artifacts/recover_one.journal -max-restarts 0 -kill 0@2
	test -f artifacts/recover_one.fbk.partial
	test -f artifacts/recover_one.journal
	$(GO) run ./cmd/fdkrecon -div 16 -n 32 -batches 4 \
		-o artifacts/recover_one.fbk \
		-journal artifacts/recover_one.journal -max-restarts 0
	test ! -e artifacts/recover_one.journal
	cmp artifacts/recover_one_ref.fbk artifacts/recover_one.fbk
	rm -f artifacts/recover_one.fbk artifacts/recover_one_ref.fbk

# Real-transport gate: the same reconstruction twice — once in-process,
# once as a 3-process loopback TCP world (coordinator + 2 re-exec'd
# workers over internal/mpi/nettrans, one per rank that leads no group) with a wire sever at rank 1's 2nd
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
		-world 3 -sever 1@2 -kill 1@1 \
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

# A claimed gain's evidence in one command: PAIRS pairs of single-workload
# benchmark invocations, BASE (a git ref, extracted into a temporary tree as
# bench-compare does) against the working tree (its tracked and unignored
# files copied into another, so that both arms build alike outside a git
# checkout), back to back, the arm that goes first swapped from pair to
# pair. WORKLOAD is one workload, a space-separated list of them, or `all`
# (every workload BENCHMARK.json declares), run one after the other over
# the same two trees, each into its own directory $(OUT)/<workload>
# (OUT defaults to artifacts/bench-pairs). There each invocation's last line
# (the driver's JSON) is appended to base.jsonl or head.jsonl — both
# emptied first — and its results.json kept as <arm>-<pair>.results.json;
# provenance.json records both commits, the CPU model and its avx2/avx512f
# flags, the Go version, GOMAXPROCS and the time. `fdkbench -pairs` then
# prints per metric each arm's median and quartiles, in how many pairs the
# head read better and a verdict (improved, unchanged, unresolved or
# regressed; fewer than 10 pairs read unresolved), and each arm's median calibration loop: after each
# workload's pairs, and once more for every workload at the end, so that
# "no end-to-end metric reads regressed on any workload" is read off one
# command's tail. SEED is the benchmark's --seed (its default when unset);
# BENCH_ARGS goes to every invocation, e.g. BENCH_ARGS="--seconds 8".
PAIRS ?= 10
bench-pairs:
	@test -n "$(BASE)" -a -n "$(WORKLOAD)" || { echo "usage: make bench-pairs BASE=<git ref> WORKLOAD=<workload ...|all> [PAIRS=10] [SEED=<s>] [OUT=<dir>] [BENCH_ARGS=...]"; exit 2; }
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	workloads="$(WORKLOAD)"; \
	if [ "$$workloads" = all ]; then \
		workloads=$$(awk '/"workloads"/ { in_w = 1 } in_w && /"name"/ { gsub(/.*"name": *"|".*/, ""); print } in_w && /^ *\]/ { exit }' BENCHMARK.json); \
	fi; \
	root="$(or $(OUT),artifacts/bench-pairs)"; mkdir -p "$$root"; root=$$(cd "$$root" && pwd); \
	head=$$(git rev-parse HEAD); if [ -n "$$(git status --porcelain --untracked-files=no)" ]; then head="$$head+uncommitted"; fi; \
	flags=" $$(grep -m1 '^flags' /proc/cpuinfo 2>/dev/null | cut -d: -f2) "; \
	has() { case "$$flags" in *" $$1 "*) echo true;; *) echo false;; esac; }; \
	mkdir "$$tmp/base" "$$tmp/head"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	git ls-files -co --exclude-standard | tar -cf - -T - | tar -x -C "$$tmp/head"; \
	for w in $$workloads; do \
		out="$$root/$$w"; mkdir -p "$$out"; \
		: > "$$out/base.jsonl"; : > "$$out/head.jsonl"; rm -f "$$out"/*.results.json; \
		printf '{"workload": "%s", "pairs": %s, "seed": "%s", "bench_args": "%s", "base": "%s", "head": "%s", "cpu_model": "%s", "avx2": %s, "avx512f": %s, "go_version": "%s", "gomaxprocs": "%s", "time": "%s"}\n' \
			"$$w" "$(PAIRS)" "$(SEED)" "$(BENCH_ARGS)" "$$(git rev-parse $(BASE))" "$$head" \
			"$$(grep -m1 '^model name' /proc/cpuinfo 2>/dev/null | cut -d: -f2- | sed 's/^ *//')" "$$(has avx2)" "$$(has avx512f)" \
			"$$($(GO) env GOVERSION)" "$${GOMAXPROCS:-unset}" "$$(date -u +%Y-%m-%dT%H:%M:%SZ)" > "$$out/provenance.json"; \
		for i in $$(seq 1 $(PAIRS)); do \
			if [ $$((i % 2)) -eq 1 ]; then order="base head"; else order="head base"; fi; \
			for arm in $$order; do \
				(cd "$$tmp/$$arm" && $(GO) run ./bench --workload $$w $(if $(SEED),--seed $(SEED)) --trace 0 $(BENCH_ARGS) --out "$$tmp/out-$$arm") > "$$tmp/log"; \
				tail -n 1 "$$tmp/log" >> "$$out/$$arm.jsonl"; \
				cp "$$tmp/out-$$arm/results.json" "$$out/$$arm-$$i.results.json"; \
				echo "$$w: pair $$i/$(PAIRS) $$arm done"; \
			done; \
		done; \
		cat "$$out/provenance.json"; \
		$(GO) run ./cmd/fdkbench -pairs "$$out"; \
	done; \
	for w in $$workloads; do echo; echo "== $$w"; $(GO) run ./cmd/fdkbench -pairs "$$root/$$w"; done

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
