GO ?= go

.PHONY: check lint vet build test race bench-api bench bench-pair overhead server-smoke crash chaos-repl chaos-cluster bench-wal bench-obs fuzz-smoke bench-prepared

## check: everything CI runs except server-smoke — lint, build, full tests, race, telemetry-overhead smoke, benchmark-module API check
check: lint build test race overhead bench-api

## lint: go vet and gofmt -l (any file it lists fails the target) always; staticcheck when installed (CI pins and installs it; locally it is optional)
lint: vet
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists unformatted files:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## race: the concurrent subsystems — planner (shared plan-cache templates), executor, the expression compiler and column buffers (per-evaluator and per-operator reused buffers), analytics kernels and their λ metrics (E9 at 1 and 8 workers), CSV loader, CSR build, engine, storage, the image writer (a physical image cut while commits continue), network server and client, WAL, replication, cluster, telemetry, plan cache — under the race detector
race:
	$(GO) test -race ./internal/plan/ ./internal/exec/ ./internal/expr/ ./internal/types/ ./internal/analytics/ ./internal/bench/ ./internal/load/ ./internal/graph/ ./internal/engine/ ./internal/faultinject/ ./internal/storage/ ./internal/persist/ ./internal/server/ ./internal/server/client/ ./internal/wal/ ./internal/repl/ ./internal/cluster/ ./internal/retry/ ./internal/obs/ ./internal/telemetry/ ./internal/plancache/

## bench-api: vet and test the benchmark module (cmd/lambdabench, its own go.mod, outside ./...) so a refactor that breaks a name it imports fails here, not in the benchmark run (~9 s)
bench-api:
	cd cmd/lambdabench && $(GO) vet ./... && $(GO) test ./...

## overhead: assert the disarmed operator-stats path AND the armed histogram path each add <2% to the vectorized filter+agg workload (median ratio of 501 alternating pairs of single executions each)
overhead:
	LAMBDADB_OVERHEAD_SMOKE=1 $(GO) test ./internal/exec/ -run TestTelemetryOverheadSmoke -v
	LAMBDADB_OVERHEAD_SMOKE=1 $(GO) test ./internal/engine/ -run TestObsOverheadSmoke -count=1 -v

## server-smoke: build lambdaserver + sqlshell, stress over TCP, scrape /metrics + /healthz + /readyz (incl. replica gating), SIGTERM drain must exit 0
server-smoke:
	LAMBDADB_SERVER_SMOKE=1 $(GO) test ./internal/server/ -run 'TestServerBinarySmoke|TestReplicaReadyzSmoke' -count=1 -v

## bench-obs: print the observability cost micro-benchmarks (histogram record/snapshot and a full /metrics render); the recorded number is lambdabench's trace.overhead_ratio (cmd/lambdabench/BASELINE.json)
bench-obs:
	$(GO) test ./internal/telemetry/ -run xxx -bench 'BenchmarkHistogram' -benchtime 2s
	$(GO) test ./internal/obs/ -run xxx -bench 'BenchmarkRenderMetrics' -benchtime 2s

## bench: print the parallel-operator scaling micro-benchmarks, the hash operators' ns/row in both key-table modes (BenchmarkHashAgg int-key and BenchmarkHashJoin build: dense keys, addressed directly; sparse-int-key and build-sparse: hashed), the join as a pipeline stage (BenchmarkJoinPipelineAgg: ns/probe-row and B/op; BenchmarkBroadcastCross: the k-Means n x k shape) the expression kernels (BenchmarkVectorizedFilterAgg: a filter under an aggregate; BenchmarkProjectArith: scan_agg's GROUP BY key and the k-Means distance, ns/row), the k-Means operator per E9 variant, default metric and each distance λ (BenchmarkLambdaVariants, ns per query) and PageRank's CSR build over 400k edges in both relabel modes (BenchmarkCSRBuild dense: ids 0…19999, addressed directly; sparse: the same ids × 1,000,003, through a map; ns/op and B/op); print-only — the recorded numbers are lambdabench's exec.speedup_workers, exec.agg_ms, exec.join_ms, exec.filter_ms and graph.csr_build_ms (cmd/lambdabench/BASELINE.json)
bench:
	$(GO) test ./internal/exec/ -run xxx -bench 'BenchmarkParallel(Join|Sort|TopK|Agg)Scaling|BenchmarkHash(Agg|Join)|BenchmarkJoinPipelineAgg|BenchmarkBroadcastCross|BenchmarkVectorizedFilterAgg|BenchmarkProjectArith' -benchtime 3x
	$(GO) test . -run xxx -bench 'BenchmarkLambdaVariants|BenchmarkCSRBuild' -benchtime 5x

## bench-pair: PAIRS (default 10) alternating runs of revision BASE against the working tree on WORKLOAD (a BENCHMARK.json workload, or all), then lambdabench -compare; e.g. make bench-pair WORKLOAD=scan_agg BASE=HEAD~1
PAIRS ?= 10
bench-pair:
	bash scripts/bench-pair.sh "$(WORKLOAD)" "$(BASE)" "$(PAIRS)"

## crash: kill -9 a durable engine repeatedly, verify zero acked-commit loss and no phantom effects
crash:
	LAMBDADB_CRASH=1 $(GO) test ./internal/wal/ -run TestCrashRecovery -count=1 -v

## chaos-repl: kill -9 primary/replica and sever streams repeatedly; verify zero acked-commit loss, convergence, resume vs resync, and promotion
chaos-repl:
	LAMBDADB_CHAOS_REPL=1 $(GO) test ./internal/repl/ -run TestReplChaos -count=1 -timeout 5m -v

## chaos-cluster: 3-node cluster behind the router; kill -9 and SIGSTOP the primary under write load, verify automatic failover with epoch fencing, zero acked-commit loss, single writer per epoch, and continuous reads
chaos-cluster:
	LAMBDADB_CHAOS_CLUSTER=1 $(GO) test ./internal/cluster/ -run TestClusterChaos -count=1 -timeout 5m -v

## bench-wal: assert < 1 fsync per commit under concurrency and print the group-commit numbers; the recorded number is lambdabench's wal.fsyncs_per_commit (cmd/lambdabench/BASELINE.json)
bench-wal:
	LAMBDADB_WAL_BENCH=1 $(GO) test ./internal/wal/ -run TestGroupCommitBench -count=1 -v

## fuzz-smoke: 30s of native Go fuzzing against each decoder of outside bytes — the SQL front end and its statement splitter, the wire protocol's frame and payload decoders, the replication control payloads, the WAL frame reader, the WAL record decoder, the snapshot-image loader (go test allows one -fuzz per invocation)
fuzz-smoke:
	$(GO) test ./internal/sql/ -run xxx -fuzz FuzzParse -fuzztime 30s
	$(GO) test ./internal/sql/ -run xxx -fuzz FuzzSplitStatements -fuzztime 30s
	$(GO) test ./internal/server/wire/ -run xxx -fuzz FuzzDecoders -fuzztime 30s
	$(GO) test ./internal/repl/ -run xxx -fuzz FuzzControlPayloads -fuzztime 30s
	$(GO) test ./internal/wal/ -run xxx -fuzz FuzzSegmentFrames -fuzztime 30s
	$(GO) test ./internal/wal/ -run xxx -fuzz FuzzDecodeRecord -fuzztime 30s
	$(GO) test ./internal/persist/ -run xxx -fuzz FuzzLoadImage -fuzztime 30s

## bench-prepared: assert the plan-cached point-query path is >= 2x faster than lex+parse+plan per statement and print the numbers; the recorded numbers are lambdabench's plancache.adhoc_miss_read_us vs engine.point_read_us (cmd/lambdabench/BASELINE.json)
bench-prepared:
	LAMBDADB_PREPARED_BENCH=1 $(GO) test ./internal/engine/ -run TestPreparedBench -count=1 -v
