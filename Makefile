GO ?= go

.PHONY: all fmt-check vet build test race check chaos chaos-ingest bench bench-contention bench-vm bench-ingest bench-obs bench-ledger-test bench-ledger-quick fused-smoke trace-smoke obs-smoke fuzz-smoke hot-sizes

all: check

# fmt-check fails when any Go file in the tree, the nested benchmark/
# module included, is not gofmt-formatted.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l reports:"; echo "$$out"; exit 1; fi

# vet covers the nested benchmark/ module too, which ./... does not reach.
vet:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

check: fmt-check vet build test race

# fuzz-smoke runs every native fuzz target for 10 s: long enough to
# replay the seed corpus and any checked-in crashers and to mutate a few
# hundred thousand inputs, short enough for every CI run. go test -fuzz
# takes one target and one package at a time. A new crasher is written
# under the package's testdata/fuzz/ — commit it with the fix.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeVerifyRun$$' -fuzztime 10s ./internal/vm
	$(GO) test -run '^$$' -fuzz '^FuzzParseExposition$$' -fuzztime 10s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzCompile$$' -fuzztime 10s ./internal/spl
	$(GO) test -run '^$$' -fuzz '^FuzzServeConn$$' -fuzztime 10s ./internal/ingest
	$(GO) test -run '^$$' -fuzz '^FuzzLinkReaders$$' -fuzztime 10s ./internal/xport

# chaos runs the deterministic fault-injection soak under the race
# detector: seeded panics, slowdowns and queue stalls inside the
# scheduler, and connection drops across PE boundaries. The seeds are
# fixed in the tests, so failures reproduce exactly.
chaos:
	FLIGHTREC_DIR=$(CURDIR) $(GO) test -race -count=1 -run Chaos -v ./internal/exec ./internal/sched ./internal/pe ./internal/fuse ./internal/xport ./internal/obs

# chaos-ingest soaks the network front door under the race detector:
# concurrent two-class clients overdrive the admission layer while
# seeded client-flood, wedged-reader and connection-reset faults fire,
# with the scheduler watchdog armed. Passing means the run drained
# cleanly, the watchdog stayed quiet, and the admission boundary
# conserved exactly (sink count == admitted count). The ingest property
# tests (Block loss-freedom, shed FIFO + punctuation survival) ride
# along under the same -race run.
chaos-ingest:
	FLIGHTREC_DIR=$(CURDIR) $(GO) test -race -count=1 -v \
		-run 'TestChaosIngest|TestBlockNoAdmittedTupleDropped|TestShedOldestFIFOAndPunctSurvival|TestShedNewestKeepsBacklog' \
		./internal/ingest

# trace-smoke proves the observability path end to end: run the real
# runtime on a mixed topology with the scheduler tracer, latency
# histogram, elasticity and chaos armed; validate the emitted Chrome
# trace_event file (structure plus the event kinds the run must
# produce); and run the tracer and endpoint tests under the race
# detector. The chaos seed is fixed, so the required kinds are
# deterministic. The second, chaos-free run validates the vm-fuse and
# vm-vec instants separately: an armed injector makes every fused run
# decline (faults must flow through the per-operator seams), so fusion
# — and the vectorized batches riding on it — can only be observed
# without chaos.
trace-smoke:
	$(GO) run ./cmd/streamsim -native -w 10 -d 100 -cost 200 -threads 8 \
		-elastic -adapt 100ms -chaos panic=0.0005 -quarantine 1 \
		-latency -obs -trace trace-smoke.json -dur 3s
	$(GO) run ./cmd/tracecheck -strict -require steal,park,quarantine,elastic-level,chain,chain-stop,bp-sample trace-smoke.json
	$(GO) run ./cmd/streamsim -native -w 1 -d 12 -cost 50 -threads 2 \
		-vm -trace trace-vm-smoke.json -dur 2s
	$(GO) run ./cmd/tracecheck -strict -require chain,vm-fuse,vm-vec trace-vm-smoke.json
	$(GO) test -race -count=1 ./internal/trace ./internal/debugz ./internal/obs ./cmd/tracecheck
	@rm -f trace-smoke.json trace-vm-smoke.json

# bench-ledger-test runs the performance ledger's own unit, oracle and
# smoke tests. benchmark/ is a nested module, so the root `go test ./...`
# (and therefore `make test`) does not see them.
bench-ledger-test:
	cd benchmark && $(GO) test ./...

# bench-ledger-quick runs every ledger workload in its ~1 s smoke mode,
# untraced. The numbers are not comparable; the point is the exit status:
# run.sh exits non-zero when a workload's oracle finds a lost, duplicated,
# reordered or wrong tuple, or the run cannot be made.
bench-ledger-quick:
	set -e; for w in spl_logins spl_chain fanout_hop ingest_paced ingest_overload; do \
		bash benchmark/run.sh --workload $$w --quick --trace 0; \
	done

# fused-smoke keeps the fused program the path the runtime takes, not
# the exception it was before fusion also committed at the dequeue: one
# quick traced pass of the ledger workload built to be a single fused
# chain must execute at least nine in ten programmed-operator executions
# fused and take at most two executions per tuple off a queue (quick
# runs read 0.996-0.9998 and 0.81-0.85; 0.04 and 4.5 before).
fused-smoke:
	@bash benchmark/run.sh --workload spl_chain --quick --trace 1 | tail -n 1 | awk '\
		function metric(name,  v) { \
			if (!match($$0, "\"" name "\":\\{\"value\":[0-9.e+-]+")) return -1; \
			v = substr($$0, RSTART, RLENGTH); sub(/.*:/, "", v); return v + 0 } \
		BEGIN { f = q = -1 } \
		{ f = metric("vm\\.fused_frac"); q = metric("sched\\.queue_exec_per_tuple") } \
		END { printf "fused-smoke: vm.fused_frac %s (want >= 0.9), sched.queue_exec_per_tuple %s (want <= 2)\n", f, q; \
		      exit !(f >= 0.9 && q >= 0 && q <= 2) }'

bench:
	$(GO) test -bench . -benchmem -run '^$$' .

# bench-contention sweeps the free-list contention benchmark (global vs
# sharded × threads × ports) and archives the results as JSON.
bench-contention:
	$(GO) test -bench BenchmarkFreeListContention -run '^$$' ./internal/sched \
		| $(GO) run ./cmd/benchjson > contention.json
	@echo wrote contention.json

# bench-vm compares the three operator dispatch forms on identical
# logic — one Custom through the closure evaluator vs its bytecode
# program, and a three-operator chain executed Process-to-Process vs as
# one fused superinstruction program — plus the scalar-vs-vectorized
# batch sweep (ns/op is per batch there) — and archives the results as
# JSON. Iterations are fixed so paired cells run the same workload and
# the closure/vm, chain/fused and scalar/vec ratios are like-for-like.
bench-vm:
	( $(GO) test -bench BenchmarkVMDispatch -benchtime=2000000x -run '^$$' ./internal/spl ; \
	  $(GO) test -bench BenchmarkVMVectorized -benchtime=20000x -run '^$$' ./internal/spl ) \
		| $(GO) run ./cmd/benchjson > BENCH_vm.json
	@echo wrote BENCH_vm.json

# bench-ingest runs the overload SLO experiment (EXPERIMENTS.md): a
# gold/bronze tenant mix offered 1x and 2x the contracted capacity by
# open-loop generators over real TCP connections. The archived metrics
# are the acceptance criteria — admitted_tps within ~10% of the
# contract at 2x, shed_frac accounting for the excess, and gold's p99
# flat across loads while bronze absorbs the shedding. -benchtime=1x:
# each cell is one fixed-duration offered-load sweep, not an op to be
# iterated.
bench-ingest:
	$(GO) test -bench BenchmarkIngestOverload -benchtime=1x -run '^$$' ./internal/ingest \
		| $(GO) run ./cmd/benchjson > BENCH_ingest.json
	@echo wrote BENCH_ingest.json

# bench-obs measures what flow observability costs the data path: the
# same pipeline with no collector, with the collector idle, and
# sampling at the default (100ms) and an adversarial (5ms) rate. The
# acceptance budget (EXPERIMENTS.md) is <=2% throughput loss enabled
# and no measurable regression disabled; iterations are fixed so every
# cell runs the identical workload.
bench-obs:
	$(GO) test -bench BenchmarkObsOverhead -benchtime=2000000x -run '^$$' ./internal/obs \
		| $(GO) run ./cmd/benchjson > BENCH_obs.json
	@echo wrote BENCH_obs.json

# obs-smoke proves the metrics-export path end to end: run the real
# runtime with the flow sampler and debug endpoint up, scrape /metricz
# mid-run and validate the exposition with the strict OpenMetrics
# parser (required families pinned), fetch the /debugz/flows panel and
# a forced flight-recorder dump, and check the post-run attribution
# report names a bottleneck on a deliberately skewed pipeline.
obs-smoke:
	$(GO) build -o /tmp/streamsim-smoke ./cmd/streamsim
	/tmp/streamsim-smoke -native -w 1 -d 4 -cost 2000 -threads 2 -dur 6s \
		-obs -latency -debug-addr 127.0.0.1:6099 -flightrec /tmp/flightrec-smoke.json \
		> /tmp/obs-smoke.out 2>&1 & \
	SIM=$$!; sleep 3; \
	curl -sf http://127.0.0.1:6099/metricz | $(GO) run ./cmd/metriczcheck \
		-require streams_executed,streams_edge_depth,streams_edge_blocked_seconds,streams_backlog || { kill $$SIM; cat /tmp/obs-smoke.out; exit 1; }; \
	curl -sf http://127.0.0.1:6099/debugz/flows | grep -q "bottleneck:" || { kill $$SIM; cat /tmp/obs-smoke.out; exit 1; }; \
	curl -sf "http://127.0.0.1:6099/debugz/flightrec?dump=now" | grep -q '"reason"' || { kill $$SIM; cat /tmp/obs-smoke.out; exit 1; }; \
	wait $$SIM
	grep -q "bottleneck:" /tmp/obs-smoke.out
	$(GO) test -race -count=1 ./internal/obs ./cmd/metriczcheck
	@rm -f /tmp/streamsim-smoke /tmp/obs-smoke.out /tmp/flightrec-smoke.json
	@echo obs-smoke ok

# hot-sizes prints the machine-code size of the scheduler's and the
# VM's hot loops as linked into cmd/streamsim. A refactor or deletion
# that claims "the hot path did not move" runs it on the parent and on
# the change and diffs the two tables: byte-identical symbols compiled
# to the same code.
HOT_SYMS = sched\.\(\*Scheduler\)\.(schedule|reSchedule|push|tryChain|tryFused|lockFusedRun|runFusedTuple|vecCompute|findWorkSharded|popLocal|steal|pollGlobal|makePortFree|drainShard)|sched\.\(\*ctx\)\.deliver|exec\.\(\*Core\)\.executeSpan|vm\.\(\*Machine\)\.runSeg
hot-sizes:
	@mkdir -p .bench_build
	@$(GO) build -o .bench_build/streamsim-sizes ./cmd/streamsim
	@$(GO) tool nm -size .bench_build/streamsim-sizes | awk '$$4 ~ /($(HOT_SYMS))$$/ { printf "%6d  %s\n", $$2, $$4 }' | sort -k2
	@rm -f .bench_build/streamsim-sizes
