# Developer entry points. `make check` is the tier-1 gate (build + vet +
# tests); `make bench` refreshes the current BENCH_*.json performance
# snapshot at the repo root and `make bench-compare` diffs it against the
# previous one; `make race` exercises the parallel experiment engine and
# the pooled run contexts under the race detector.

GO ?= go
BENCH_OLD ?= BENCH_7.json
BENCH_NEW ?= BENCH_8.json

.PHONY: check perfbench-check vet race fuzz-smoke bench bench-compare bench-smoke bench-smoke-refresh benchmem e12-smoke e12-xl incident-replay incident-regen tables-regen livenet-soak recovery-soak serve-soak

check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

# perfbench-check builds, vets and tests the benchmark module. perfbench/
# is a nested Go module (it imports this one through a replace), so
# `make check` never compiles it, and a sim or harness API change could
# break the benchmark unseen. -mod=mod lets the go command resolve the
# replace without a committed go.sum; nothing is downloaded.
perfbench-check:
	GOFLAGS=-mod=mod $(GO) -C perfbench vet ./...
	GOFLAGS=-mod=mod $(GO) -C perfbench test ./...

race:
	$(GO) test -race -run 'TestEngine|TestMapOrdered|TestRunAll|TestSetParallelism|TestSmoke|TestCoreEquivalenceTraces|TestRunContext' ./internal/harness/

# bench regenerates the committed benchmark snapshot. Seeds are kept small
# so the refresh stays in the tens of seconds; the snapshot records the
# seed count so trajectories compare like with like.
bench:
	$(GO) run ./cmd/aabench -seeds 2 -json $(BENCH_NEW)

# bench-compare prints the per-experiment and per-micro delta table between
# the previous snapshot and the current one, regressions highlighted.
bench-compare:
	$(GO) run ./cmd/aabench -compare $(BENCH_OLD) $(BENCH_NEW)

# bench-smoke is the CI regression gate: a reduced-seed snapshot (no micro
# benches, which need a quiet machine) compared against the committed
# BENCH_SMOKE.json. Wall-clock deltas are advisory; any msgs/bytes-per-run
# drift makes the compare exit non-zero — correctness regressions surface
# on the PR, not after merge. Refresh the committed file with
# `make bench-smoke-refresh` after an intentional behavior change.
bench-smoke:
	$(GO) run ./cmd/aabench -seeds 1 -micro=false -json /tmp/bench-smoke.json
	$(GO) run ./cmd/aabench -compare BENCH_SMOKE.json /tmp/bench-smoke.json

bench-smoke-refresh:
	$(GO) run ./cmd/aabench -seeds 1 -micro=false -json BENCH_SMOKE.json

# e12-smoke exercises the n=512 scale axis (per-envelope tick delivery over
# the calendar queue and SoA party state) on every PR: a reduced scenario
# slice at n=512 on the crash protocol, ~3M messages per run, asserting
# full invariant success.
e12-smoke:
	E12_LARGE_SMOKE=1 $(GO) test -run TestE12LargeN512Smoke -v -timeout 20m ./internal/harness/

# e12-xl exercises the n=1024 scale axis: the reduced E12-XL slice
# (E12XLSizes([]int{1024})), ~10M messages per fault-free run, asserting
# full invariant success.
# The full n=4096 sweep lives in the committed BENCH snapshot (aabench -xl).
e12-xl:
	E12_XL_SMOKE=1 $(GO) test -run TestE12XL1024Smoke -v -timeout 30m ./internal/harness/

# fuzz-smoke runs each decoder fuzz target for 10 s: the wire messages,
# checkpoint snapshots and incident bundles must never panic on hostile
# bytes. -fuzzminimizetime 1x stops the engine from spending up to 60 s
# minimizing each new-coverage input, which for the 9-105 KB incident
# bundle seeds would leave the 10 s budget about 15 executions.
FUZZ = $(GO) test -run '^$$' -fuzztime 10s -fuzzminimizetime 1x
fuzz-smoke:
	$(FUZZ) -fuzz '^FuzzWireDecode$$' ./internal/wire/
	$(FUZZ) -fuzz '^FuzzCheckpointOpen$$' ./internal/checkpoint/
	$(FUZZ) -fuzz '^FuzzIncidentDecode$$' ./internal/incident/

# incident-replay replays every committed incident bundle in
# testdata/incidents/ at 1 and 8 engine workers and diffs each run against
# the recorded digest. Any divergence reports the episode, the worker
# count, and the first divergent send sequence. Runs in well under a
# second; wired into CI.
incident-replay:
	$(GO) test -run 'TestIncidentCorpusReplayMatrix|TestCorpusMutationDetected' -count=1 -v ./internal/incident/

# incident-regen re-captures the corpus from the episode definitions in
# internal/incident/corpus.go. Use when adding an episode or after an
# *intentional* schedule-affecting change — never to paper over an
# unexplained divergence.
incident-regen:
	INCIDENT_REGEN=1 $(GO) test -run TestIncidentCorpusReplayMatrix -count=1 -v ./internal/incident/

# tables-regen rewrites the harness golden digests
# (internal/harness/testdata/tables.golden and traces.golden) from the
# current code. Like incident-regen, use it only after an *intentional*
# behaviour change, never to paper over an unexplained diff.
tables-regen:
	TABLES_REGEN=1 $(GO) test -run 'TestTablesGolden|TestCoreEquivalenceTraces' -count=1 -v ./internal/harness/

# livenet-soak runs the real-goroutine transport under the race detector
# with injected loss, duplication, jitter, and flapping parties, reliable
# transport on: the run must converge with no hung senders. Seeded and
# wall-clock-bounded (completes in a few seconds); gated behind
# LIVENET_SOAK=1 so default test runs stay fast.
livenet-soak:
	LIVENET_SOAK=1 $(GO) test -race -run TestLivenetSoak -count=1 -v ./internal/livenet/

# recovery-soak runs the crash-recovery supervisor under the race detector:
# two parties checkpointed, killed, and rejoined mid-run under 10% injected
# loss on the reliable transport. The run must reconverge to eps-agreement
# with both restarts attributed. Seeded and wall-clock-bounded; gated
# behind RECOVERY_SOAK=1 so default test runs stay fast.
recovery-soak:
	RECOVERY_SOAK=1 $(GO) test -race -run TestRecoverySoak -count=1 -v ./internal/livenet/

# serve-soak runs the serving layer against wall-clock agreement instances
# under the race detector: heavy-tailed arrivals at 2x saturation pushed
# through the admission envelope onto the live transport with 10% loss and
# one flapping party, reliable transport on. Every request must be
# accounted (decided/shed/deadline/breaker/degraded — no silent drops) and
# goodput must stay above the floor. Seeded and wall-clock-bounded; gated
# behind SERVE_SOAK=1 so default test runs stay fast.
serve-soak:
	SERVE_SOAK=1 $(GO) test -race -run TestServeSoak -count=1 -v -timeout 5m ./internal/serve/

# benchmem runs the substrate micro-benchmarks with allocation accounting,
# the numbers PERF.md tracks.
benchmem:
	$(GO) test -run '^$$' -bench 'BenchmarkApproxFuncs|BenchmarkContractionSearch|BenchmarkWire|BenchmarkSimLoop|BenchmarkScenarioE12|BenchmarkRunReused' -benchmem .
