# CI entry points for the reproduction. `make ci` is the gate: it vets,
# builds, runs the test suite twice (plain and -race), and enforces that
# every internal/* package carries a godoc package comment.

GO ?= go

.PHONY: ci vet fmtcheck build test race doccheck deadpkgcheck bench benchdiff benchpaper benchsmoke fuzzseed covercheck apicheck apiupdate guidelines servecheck perfbenchcheck

ci: vet fmtcheck build test race perfbenchcheck benchsmoke fuzzseed guidelines servecheck covercheck doccheck deadpkgcheck apicheck

vet:
	$(GO) vet ./...

# Formatting gate: fails when gofmt would rewrite any Go file in the tree.
fmtcheck:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then echo "fmtcheck: gofmt -l lists:"; echo "$$out"; exit 1; fi; \
	echo "fmtcheck: all Go files gofmt-clean"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The end-to-end benchmark harness is a separate module (perfbench/), so
# the root's ./... skips it; it calls internal APIs, so a change to one
# must be caught here rather than by the benchmark run.
perfbenchcheck:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Hot-path and sweep-engine benchmarks, recorded twice: BENCH_sched.json
# forces the scheduler engine (SWEEP_ENGINE=scheduler) and covers the
# scheduler micro-benchmarks (its BenchmarkSweep rows run three
# iterations each, here and in benchdiff: one scheduler-engine sweep
# takes seconds, and a single iteration's spread crosses the 20% gate); BENCH_replay.json runs the same sweep
# benchmarks under the default auto engine (plan compile + replay) plus
# the replay micro-benchmarks. The sweep benchmark names are identical in
# both files, so `benchjson -baseline` can diff them directly. The same
# replay-engine sweep run also yields BENCH_sweepscale.json, the
# workers=1-relative scaling curve (`benchjson -scaling`; threshold -1 =
# record only, the gate lives in benchdiff). The raw text goes through a
# temp file, not a pipe, so a benchmark failure fails the target.
bench:
	$(GO) test -bench=Scheduler -benchmem -run='^$$' ./internal/mpi/ > .bench_sched.txt
	SWEEP_ENGINE=scheduler $(GO) test -bench='^BenchmarkSweep$$' -benchtime=3x -benchmem -run='^$$' ./internal/experiment/ >> .bench_sched.txt
	SWEEP_ENGINE=scheduler $(GO) test -bench=SweepCached -benchmem -run='^$$' ./internal/experiment/ >> .bench_sched.txt
	$(GO) run ./cmd/benchjson < .bench_sched.txt > BENCH_sched.json
	@rm -f .bench_sched.txt
	$(GO) test -bench=Replay -benchmem -run='^$$' ./internal/mpi/ > .bench_replay.txt
	$(GO) test -bench=Sweep -benchmem -run='^$$' ./internal/experiment/ > .bench_sweep.txt
	cat .bench_sweep.txt >> .bench_replay.txt
	$(GO) run ./cmd/benchjson < .bench_replay.txt > BENCH_replay.json
	@rm -f .bench_replay.txt
	$(GO) run ./cmd/benchjson -scaling -scaling-out BENCH_sweepscale.json -threshold -1 < .bench_sweep.txt
	@rm -f .bench_sweep.txt
	$(GO) test -bench=PlanCache -benchmem -run='^$$' ./internal/experiment/ > .bench_plancache.txt
	$(GO) test -bench=AlphaBetaFamily -benchmem -run='^$$' ./internal/estimate/ >> .bench_plancache.txt
	$(GO) run ./cmd/benchjson < .bench_plancache.txt > BENCH_plancache.json
	@rm -f .bench_plancache.txt
	@echo "wrote BENCH_sched.json, BENCH_replay.json, BENCH_sweepscale.json and BENCH_plancache.json"

# Regression gate: re-run the sweep benchmarks once per engine and
# compare each run against the record made with the same engine: the
# scheduler-engine run (SWEEP_ENGINE=scheduler) against BASELINE, the
# default auto-engine run against REPLAY_BASELINE. Fails when any
# benchmark's ns/op regresses by more than 20%, and — via the -scaling
# pass over the auto-engine run — when the worker-scaling curve fails
# either bound:
#
#   * SCALING_THRESHOLD (anti-regression): no workers>1 line may be more
#     than 50% slower than its workers=1 sibling.
#   * SCALING_MIN_SPEEDUP (speedup requirement): every workers=N line
#     must reach min(SCALING_MIN_SPEEDUP, 0.8·min(N, cpus))× the
#     workers=1 speed, with cpus read from the benchmark name's
#     GOMAXPROCS suffix. On a multi-core box workers=8 must therefore be
#     ≥2.0× faster than workers=1; on a single-core box — where every
#     worker count runs the same clamped serial sweep — the requirement
#     degrades to the 0.8× anti-regression floor, because no amount of
#     scheduling can conjure parallel speedup out of one core.
#
# The plan-cache breakdown (scheduler vs verify vs compile per point, and
# one extended family's calibration) is gated against its own record, so
# a compile-path slowdown cannot hide inside the sweep aggregate; so are
# the wide replay benchmarks, whose calib cases compile and replay the
# calibration's largest plan (a layout regression shows there first).
BASELINE ?= BENCH_sched.json
PLANCACHE_BASELINE ?= BENCH_plancache.json
REPLAY_BASELINE ?= BENCH_replay.json
SCALING_THRESHOLD ?= 0.5
SCALING_MIN_SPEEDUP ?= 2.0
benchdiff:
	SWEEP_ENGINE=scheduler $(GO) test -bench='^BenchmarkSweep$$' -benchtime=3x -benchmem -run='^$$' ./internal/experiment/ > .bench_diff.txt
	SWEEP_ENGINE=scheduler $(GO) test -bench=SweepCached -benchmem -run='^$$' ./internal/experiment/ >> .bench_diff.txt
	$(GO) run ./cmd/benchjson -baseline $(BASELINE) < .bench_diff.txt
	$(GO) test -bench=Sweep -benchmem -run='^$$' ./internal/experiment/ > .bench_diff.txt
	$(GO) run ./cmd/benchjson -baseline $(REPLAY_BASELINE) < .bench_diff.txt
	$(GO) run ./cmd/benchjson -scaling -threshold $(SCALING_THRESHOLD) -min-speedup $(SCALING_MIN_SPEEDUP) < .bench_diff.txt
	@rm -f .bench_diff.txt
	$(GO) test -bench=PlanCache -benchmem -run='^$$' ./internal/experiment/ > .bench_pc_diff.txt
	$(GO) test -bench=AlphaBetaFamily -benchmem -run='^$$' ./internal/estimate/ >> .bench_pc_diff.txt
	$(GO) run ./cmd/benchjson -baseline $(PLANCACHE_BASELINE) < .bench_pc_diff.txt
	@rm -f .bench_pc_diff.txt
	$(GO) test -bench=ReplayWide -benchmem -run='^$$' ./internal/mpi/ > .bench_rw_diff.txt
	$(GO) run ./cmd/benchjson -baseline $(REPLAY_BASELINE) < .bench_rw_diff.txt
	@rm -f .bench_rw_diff.txt

# The per-artifact paper benchmarks (tables and figures at reduced scale).
benchpaper:
	$(GO) test -bench=. -benchmem .

# One iteration of every scheduler/replay/sweep/estimation benchmark: catches
# benchmarks that no longer compile or crash without paying for stable
# timings.
benchsmoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run='^$$' ./internal/mpi/ ./internal/experiment/ ./internal/estimate/

# Run the fuzz targets over their seed corpus only (no fuzzing time):
# each f.Add seed must keep the replay, compile and scheduler engines
# bit-identical (experiment), both selectors total (selection), the
# guideline verdicts stable (guideline), the select parser's accept set
# inside encoding/json's (wire), and the replay frontier's pop order the
# scheduler's (key, rank) order (mpi).
fuzzseed:
	$(GO) test -run='^Fuzz' ./internal/experiment/ ./internal/selection/ ./internal/guideline/ ./internal/serve/wire/ ./internal/mpi/

# Performance-guideline smoke gate: verify the self-consistency registry
# on a reduced grid (one cluster, one random perturbation, small P × m
# grid). Zero violations tolerated — the command exits non-zero on any.
guidelines:
	$(GO) run ./cmd/mpicollperf verify-guidelines -quick -out ""

# Daemon smoke gate: boot mpicollperfd on an ephemeral port and drive a
# full client cycle — submit a calibration, poll to completion, query
# selections (broadcast + one extended family), cancel a full-scale job,
# and drain the daemon with SIGTERM. See scripts/servecheck.sh.
servecheck:
	GO="$(GO)" sh scripts/servecheck.sh

# Coverage regression gate: total statement coverage of internal/... must
# not drop below the recorded baseline (in percent, measured with a
# shuffled, uncached run when the gate was introduced).
COVER_BASELINE = 92.2
covercheck:
	$(GO) test -count=1 -shuffle=on -coverprofile=.cover.out ./internal/...
	@total=$$($(GO) tool cover -func=.cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	rm -f .cover.out; \
	echo "covercheck: total internal coverage $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit (t+0 < b+0) ? 1 : 0 }' || \
		{ echo "covercheck: coverage dropped below baseline"; exit 1; }

# Dead-package gate: every internal/* package must have a non-test
# importer in the module. See scripts/deadpkgcheck.sh.
deadpkgcheck:
	GO="$(GO)" sh scripts/deadpkgcheck.sh

# API surface gate: the facade's exported surface (everything `go doc
# -all` prints for the root package, declarations and doc comments) is
# recorded in api/mpicollperf.txt. apicheck fails when the surface drifts
# from the record, so facade changes show up as a reviewable diff; after
# an intentional change, regenerate the record with `make apiupdate`.
apicheck:
	@$(GO) doc -all . > .api_current.txt
	@if ! diff -u api/mpicollperf.txt .api_current.txt; then \
		rm -f .api_current.txt; \
		echo "apicheck: facade surface drifted from api/mpicollperf.txt; run 'make apiupdate' and review the diff"; \
		exit 1; \
	fi
	@rm -f .api_current.txt
	@echo "apicheck: facade surface matches api/mpicollperf.txt"

apiupdate:
	@mkdir -p api
	$(GO) doc -all . > api/mpicollperf.txt
	@echo "apiupdate: wrote api/mpicollperf.txt"

# Every internal/* package must have a package comment: `go doc` prints
# the comment starting on line 3 (line 1 is the package clause, line 2 is
# blank) and package comments conventionally start with "Package <name>";
# when the comment is missing, line 3 is the first symbol summary instead.
doccheck:
	@fail=0; \
	for d in internal/*/; do \
		case "$$($(GO) doc ./$$d 2>/dev/null | sed -n 3p)" in \
			Package*) ;; \
			*) echo "doccheck: $$d has no package comment"; fail=1 ;; \
		esac; \
	done; \
	if [ $$fail -ne 0 ]; then exit 1; fi; \
	echo "doccheck: all internal packages documented"
