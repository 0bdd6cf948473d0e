# groupkey — build, test and paper-reproduction targets.

GO ?= go

.PHONY: all build vet loc test test-race test-short replay-check cache-check seal-check dgram-check bench bench-epoch repro charts examples soak benchgate dst dst-nightly fuzz chaos-bins chaos-smoke chaos-nightly clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Non-test Go lines per package (bench/ excluded) and in total: "lines
# removed" is a ROADMAP-reported metric, read off two runs of this target.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.*' \
		| xargs wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d total\n", t }'

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# Replay and replica apply advance the key state without sealing it or
# drawing a wrap nonce, and a member that is behind is answered with its
# key path: the advance/seal equivalence, the refused seal of a replica's
# rekey, replay's entropy count, a rekey after Recover, the refusal of
# state written under older replay rules (create records and snapshots),
# recovery, failover, the resume and pull tests (missed epochs, the crash
# window, a missed S→L migration, the pull reply) three times under the
# race detector, then one pass of the store's recovery benchmarks.
replay-check:
	$(GO) test -race -count=3 -run 'Advance|RefusesSeal|DrawsOnlyKeyMaterial|AfterRecoverRekeys|PreRuleCreateRecord|RejectsPrePlannerRecord|UnsupportedSnapshot|RestartedPrimary|Failover|Resume|Pull|MissedMigration|KeyPath|PathItems|ApplyPath' ./internal/core ./internal/member ./internal/store ./internal/cluster ./internal/server
	$(GO) test -run '^$$' -bench 'Recover|ReplicaApply' -benchtime=1x ./internal/store

# Key-schedule caches hold only live keys: the tree's and the Naive/QT
# schemes' caches drop what their owners retire, a seal right after
# Advance on the tree's cache matches ProcessBatch byte for byte, a
# member expands each wrapping key once per payload, and a version bump
# at the cap evicts nothing.
cache-check:
	$(GO) test -race -count=5 -run 'CacheHoldsOnlyLive|DropDeparted|ApplyExpands|VersionBumpAtCap|AdvanceMatches' ./internal/keycrypt ./internal/keytree ./internal/core ./internal/member

# The epoch seal's two halves stay byte-identical to their references:
# the item tree over real nodes only against the padded construction, the
# batch wrap pool against serial wraps (cache state included), the
# zero-alloc inline seal and its nonce draw, a seal right after Advance,
# a tree left coherent and its wraps pending by a failed nonce draw and
# the golden payload digests, five times under -race; then one pass of
# the seal and churn100k benchmarks.
seal-check:
	$(GO) test -race -count=5 -run 'ItemTreeMatches|WrapBatch|PendingWrapsSeal|AdvanceMatches|FailedRekey|Golden' ./internal/wire ./internal/keycrypt ./internal/keytree ./internal/core
	$(GO) test -run '^$$' -bench 'SealEpoch|RekeyChurn100k' -benchtime=1x ./internal/server ./internal/keytree

# One signature per epoch of datagrams and one proactive-FEC core: the
# shard-tree verifier rejects every single-byte mutation cold and warm,
# binds epoch and group, checks a warm packet without allocating, every
# packet fits the MTU up to the largest epoch, a subscribed client counts
# injected forgeries and still converges, each block goes only to the
# subscribers whose positions it carries (wire.NeededBlocks) with parity
# sized from their losses, the plane packs only its subscribers' items, a
# subscriber's loss estimate counts only its own blocks and decays after a
# NACK, and the core's geometry (FECPlan), completion rule (FECComplete),
# repair cursor (FECRepair), loss estimate (LossEstimate) and the
# simulator running it (ProactiveFEC) hold — three times under -race;
# then 20 s of FuzzDecodeDgram and 10 s of FuzzNeededBlocks.
dgram-check:
	$(GO) test -race -count=3 -run 'Dgram|Datagram|ShardDgrams|NeededBlocks|Audience|FECPlan|FECComplete|FECRepair|LossEstimate|ProactiveFEC' ./internal/wire ./internal/server ./internal/transport
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeDgram$$' -fuzztime=20s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzNeededBlocks$$' -fuzztime=10s ./internal/wire/

# Benchmark harness: one bench per paper table/figure plus ablations.
bench:
	$(GO) test -bench=. -benchmem ./...

# One untraced run of the epoch ledger benchmark's N=100k workload (see
# bench/README.md): batch-to-member rekey latency over the real wire path.
bench-epoch:
	bash bench/run.sh --workload churn100k --seed 1 --seconds 15 --trace 0

# Regenerate every table and figure of the paper (analytic, as the paper
# did) plus the extension experiments, and the model-vs-implementation
# cross-validation.
repro:
	$(GO) run ./cmd/lkhbench -exp all
	$(GO) run ./cmd/lkhbench -exp sim -n 2048 -periods 80

# The paper's figures as ASCII charts.
charts:
	$(GO) run ./cmd/lkhbench -exp fig3 -format chart
	$(GO) run ./cmd/lkhbench -exp fig4 -format chart
	$(GO) run ./cmd/lkhbench -exp fig6 -format chart
	$(GO) run ./cmd/lkhbench -exp fig7 -format chart

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/oft
	$(GO) run ./examples/netgroup
	$(GO) run ./examples/payperview
	$(GO) run ./examples/lossaware
	$(GO) run ./examples/adaptive
	$(GO) run ./examples/stateless

# 30-second local soak: keyserverd under churn from cmd/loadgen, failing
# on any protocol error; report lands in SOAK_report.json.
soak:
	$(GO) build -o /tmp/groupkey-keyserverd ./cmd/keyserverd
	$(GO) build -o /tmp/groupkey-loadgen ./cmd/loadgen
	/tmp/groupkey-keyserverd -listen 127.0.0.1:7800 -period 250ms \
		-join-rate 500 -max-pending-joins 512 & \
	SERVER_PID=$$!; sleep 1; \
	/tmp/groupkey-loadgen -server 127.0.0.1:7800 -members 200 -duration 30s \
		-compress 500 -ramp 100 -report SOAK_report.json -fail-on-errors; \
	STATUS=$$?; kill $$SERVER_PID; exit $$STATUS

# Compare a fresh perf run against the committed baseline (CI gate),
# including the sparse fan-out bytes/member floor and the placement
# planner's wraps/batch reduction floor.
benchgate:
	$(GO) run ./cmd/lkhbench -exp perf -bench-out BENCH_rekey.new.json
	$(GO) run ./cmd/benchgate -baseline BENCH_rekey.json \
		-candidate BENCH_rekey.new.json -max-regress 0.25 \
		-min-sparse-reduction 5 -min-planner-reduction 5

# Deterministic full-system simulation: a 20-seed smoke across every
# fault profile, a 60-seed crash sweep (its fsync-never plans restart
# primaries that lost log suffixes), the planted-bug regressions proving
# the harness still finds, shrinks and replays a real fencing race in the
# cluster's own lease code and a TT migrant left in S, and the restart
# and failover tests under the race detector.
dst:
	$(GO) vet -tags dst_plantedbug ./internal/cluster/ ./internal/core/ ./internal/dst/
	$(GO) run ./cmd/dstrun -seeds 20 -profile all -out /tmp/dst_failure.json
	$(GO) run ./cmd/dstrun -seeds 60 -profile crash -out /tmp/dst_failure_crash.json
	$(GO) test -tags dst_plantedbug -run Planted ./internal/dst/
	$(GO) test -race -count=5 -run 'TestRestartedPrimaryResyncsFollower|TestClusterFailover' ./internal/cluster

# The nightly-depth sweep (~30s): 200 seeds per profile.
dst-nightly:
	$(GO) run ./cmd/dstrun -seeds 200 -profile all -out /tmp/dst_failure.json

# Real binaries for the chaos harness. chaosrun shells out to
# keyserverd and loadgen, so they must exist as files, not `go run`s.
chaos-bins:
	mkdir -p bin
	$(GO) build -o bin/keyserverd ./cmd/keyserverd
	$(GO) build -o bin/loadgen ./cmd/loadgen
	$(GO) build -o bin/chaosrun ./cmd/chaosrun
	$(GO) build -o bin/dstrun ./cmd/dstrun

# Per-PR WAN chaos gate (~1 min): the two smoke scenarios — transcon
# with UDP and a link flap, mobile-3g against a 3-node cluster with a
# primary SIGKILL — behind userspace WAN-shaping proxies, SLO-gated,
# then a deterministic dst replay of each scenario's fault plan. Each
# scenario starts from an empty directory (chaosrun refuses a used one);
# chaos_summary.json records the servers' counters.
chaos-smoke: chaos-bins
	rm -rf chaos_out/smoke-transcon chaos_out/smoke-mobile-3g
	./bin/chaosrun -scenario smoke -out chaos_out
	./bin/dstrun -replay chaos_out/smoke-transcon/fault_plan.json
	./bin/dstrun -replay chaos_out/smoke-mobile-3g/fault_plan.json

# The full nightly chaos matrix (~4 min): every builtin scenario,
# including satellite links, flash crowds, bandwidth squeezes and
# multi-region failover, plus a replay of every archived fault plan.
chaos-nightly: chaos-bins
	for s in $$(./bin/chaosrun -list | awk '{print $$1}'); do rm -rf chaos_out/$$s; done
	./bin/chaosrun -scenario nightly -out chaos_out
	for f in chaos_out/*/fault_plan.json; do \
		./bin/dstrun -replay $$f || exit 1; \
	done

# Short fuzzing pass over the wire protocol and durability decoders, and
# over the placement planner (its dry runs must leave the tree as found).
# Patterns are anchored: -fuzz must match exactly one target.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzReadFrame$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzReadFrameGroup$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeWelcome$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeResumeRequest$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeMembershipBatch$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSparseRekey$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeDgram$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzNeededBlocks$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzScopedIndex$$' -fuzztime=10s ./internal/wire/
	$(GO) test -run='^$$' -fuzz='^FuzzWALRecord$$' -fuzztime=10s ./internal/store/
	$(GO) test -run='^$$' -fuzz='^FuzzRestore$$' -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeClientState$$' -fuzztime=10s ./internal/server/
	$(GO) test -run='^$$' -fuzz='^FuzzPlanBatch$$' -fuzztime=10s ./internal/keytree/
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeReport$$' -fuzztime=10s ./internal/loadgen/

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
