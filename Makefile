GO ?= go

## GOVULNCHECK_VERSION pins the govulncheck build installed by the CI
## lint job; `make lint` uses whatever is on PATH and skips when absent
## (the container has no module proxy access).
GOVULNCHECK_VERSION ?= golang.org/x/vuln/cmd/govulncheck@v1.1.4

.PHONY: ci fmt vet lint doc-check build benchmark-check test flatness restart-repeat vulture-repeat test-race conformance bench-smoke fuzz-smoke bench-micro bench-cluster bench-fault bench-shard bench-wan bench-reconfig soak soak-short FORCE

## ci: the main CI job, in order (the race and bench-smoke jobs run in
## parallel in the workflow)
ci: fmt vet lint build benchmark-check test restart-repeat vulture-repeat

## lint: the invariant analyzer suite (lockcheck, wirecheck, noalloc,
## ctxcheck, doccheck + curated standard passes) over the whole tree,
## then govulncheck when installed. Required in CI; see
## docs/ARCHITECTURE.md "Checked invariants" for the annotation syntax.
lint: bin/analyze
	$(GO) vet -vettool=bin/analyze ./...
	@if command -v govulncheck >/dev/null 2>&1; then 		govulncheck ./...; 	else 		echo "lint: govulncheck not on PATH; skipping (CI installs $(GOVULNCHECK_VERSION))"; 	fi

## bin/analyze: the unitchecker-based multichecker binary driven via
## `go vet -vettool` (rebuilt every run; the go build cache makes a
## no-change rebuild near-instant)
bin/analyze: FORCE
	$(GO) build -o bin/analyze ./tools/analyze

FORCE:

## doc-check: fail on packages or exported identifiers without doc
## comments (alias for the doccheck pass of the analyzer suite)
doc-check: bin/analyze
	$(GO) vet -vettool=bin/analyze -doccheck ./...

## fmt: fail if any file is not gofmt-clean
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

## benchmark-check: vet and test the nested tempo/benchmark module. It
## compiles against internal/cluster's exported API, and `go build ./...`
## at the root never builds it.
benchmark-check:
	cd benchmark && $(GO) vet . && $(GO) test .

## test: every package's tests, the memory-flatness test included (only
## `go test -short` skips it), so `make ci` fails when per-command state
## outlives the in-flight window again
test:
	$(GO) test ./...

## flatness: the memory-flatness test alone — a 3-node loopback cluster
## serves N then 2N commands and must hold the same heap and zero live
## commands after each; on failure it leaves a heap profile and prints
## its path
flatness:
	$(GO) test -run 'TestMemoryFlat' -count=1 -v ./internal/cluster/

## restart-repeat: the in-process site restart, twenty times over. A
## message lost to a link the restarted site had closed (see
## Group.writer) hangs the test in some runs only, so one run proves
## little. The coordinator-loss stall runs twenty times beside it: its
## bound is a wall-clock gap on a loaded loopback cluster.
restart-repeat:
	$(GO) test -run 'TestGroupDurableRestart' -count=20 ./internal/psmr/
	$(GO) test -run 'TestCoordinatorLossStall' -count=20 ./internal/cluster/

## vulture-repeat: the vulture's socket tests twenty times over (about
## 80s): the partition run judges reads against writes that timed out
## while their replica was cut off, a rule one run rarely exercises.
vulture-repeat:
	$(GO) test -run 'TestVulture' -count=20 ./internal/vulture/

## test-race: the full suite under the race detector (the client demux
## loop and the server completion path are concurrency-heavy)
test-race:
	$(GO) test -race ./...

## conformance: the conformance suite under the race detector — Tempo
## through every scenario (linearizability, batching, deadlines,
## partition+heal, durable restart, reconfiguration), plus the negative
## controls proving the suite catches broken replicas
conformance:
	$(GO) test -race -run 'TestConformance' -count=1 ./internal/cluster/

## bench-smoke: one iteration of every benchmark plus a short run of the
## micro, cluster, fault, shard and reconfig experiments —
## catches perf-path regressions that compile but deadlock or stall, not
## perf itself. The fault run is a real kill-restart of subprocess
## replicas with durable directories; the shard run is a real 2-shard
## partial-replication deployment of psmr groups; the reconfig run
## replaces every site of a live durable cluster (drain + two SIGKILLs)
## with the vulture attached and fails on any consistency violation.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	$(GO) run ./cmd/bench -exp micro -microout /tmp/bench_micro_smoke.json
	$(GO) run ./cmd/bench -exp cluster -clusterdur 300ms -clusterwarm 200ms \
		-clusterout /tmp/bench_cluster_smoke.json
	$(GO) run ./cmd/bench -exp fault -faultphase 800ms \
		-faultout /tmp/bench_fault_smoke.json
	$(GO) run ./cmd/bench -exp shard -sharddur 400ms -shardwarm 200ms -shardmax 2 \
		-shardout /tmp/bench_shard_smoke.json
	$(GO) run ./cmd/bench -exp reconfig -reconfigphase 1500ms -reconfigavail -1 \
		-reconfigout /tmp/bench_reconfig_smoke.json
	$(MAKE) soak-short

## fuzz-smoke: a short run of each fuzz target
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzIntervalSet -fuzztime 10s ./internal/promise
	$(GO) test -run '^$$' -fuzz FuzzCodecRoundTrip -fuzztime 10s ./internal/tempo
	$(GO) test -run '^$$' -fuzz FuzzShardMsgRoundTrip -fuzztime 10s ./internal/cluster

## bench-micro: regenerate BENCH_micro.json (commit it when a PR moves a hot path)
bench-micro:
	$(GO) run ./cmd/bench -exp micro

## bench-cluster: regenerate BENCH_cluster.json (loaded TCP cluster sweep)
bench-cluster:
	$(GO) run ./cmd/bench -exp cluster

## bench-fault: regenerate BENCH_fault.json (kill-restart a durable
## replica under load; real subprocesses)
bench-fault:
	$(GO) run ./cmd/bench -exp fault

## bench-shard: regenerate BENCH_shard.json (real sharded TCP clusters,
## 1..4 shards, cross-shard ratios 0/5/50%)
bench-shard:
	$(GO) run ./cmd/bench -exp shard

## bench-wan: regenerate BENCH_wan.json (durable 3-region deployments
## link-shaped by the named chaos profiles)
bench-wan:
	$(GO) run ./cmd/bench -exp wan

## bench-reconfig: regenerate BENCH_reconfig.json (rolling replacement
## of every site of a live durable cluster — graceful drain plus two
## SIGKILL crash-replaces — under closed-loop load with the consistency
## vulture attached; fails on any violation or on availability below
## 0.75x steady outside the takeover windows)
bench-reconfig:
	$(GO) run ./cmd/bench -exp reconfig

## soak: the full chaos soak — the consistency vulture probing a shaped
## durable cluster for 10 minutes through a partition, a SIGKILL+restart
## and a slow-fsync replica. Exits non-zero on ANY consistency
## violation; the report lands in BENCH_chaos.json.
soak:
	$(GO) run ./cmd/bench -exp chaos -chaosdur 10m

## soak-short: the same soak compressed to 72s (12s per schedule slice)
## so CI exercises the whole fault sequence on every run; still fails on
## any violation.
soak-short:
	$(GO) run ./cmd/bench -exp chaos -chaosdur 72s -chaosout /tmp/bench_chaos_smoke.json
