# groupkey — build, test and paper-reproduction targets.

GO ?= go

.PHONY: all build vet loc test test-race test-short bench bench-epoch repro charts examples soak benchgate dst dst-nightly fuzz chaos-bins chaos-smoke chaos-nightly clean

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
# fault profile, plus the planted-bug regression proving the harness
# still finds, shrinks and replays a real fencing race.
dst:
	$(GO) run ./cmd/dstrun -seeds 20 -profile all -out /tmp/dst_failure.json
	$(GO) test -tags dst_plantedbug -run PlantedFencing ./internal/dst/

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
# then a deterministic dst replay of each scenario's fault plan.
chaos-smoke: chaos-bins
	./bin/chaosrun -scenario smoke -out chaos_out
	./bin/dstrun -replay chaos_out/smoke-transcon/fault_plan.json
	./bin/dstrun -replay chaos_out/smoke-mobile-3g/fault_plan.json

# The full nightly chaos matrix (~4 min): every builtin scenario,
# including satellite links, flash crowds, bandwidth squeezes and
# multi-region failover, plus a replay of every archived fault plan.
chaos-nightly: chaos-bins
	./bin/chaosrun -scenario nightly -out chaos_out
	for f in chaos_out/*/fault_plan.json; do \
		./bin/dstrun -replay $$f || exit 1; \
	done

# Short fuzzing pass over the wire protocol and durability decoders, and
# over the placement planner (its dry runs must leave the tree as found).
fuzz:
	$(GO) test -fuzz=FuzzReadFrame -fuzztime=10s ./internal/wire/
	$(GO) test -fuzz=FuzzDecodeRekey -fuzztime=10s ./internal/wire/
	$(GO) test -fuzz=FuzzDecodeWelcome -fuzztime=10s ./internal/wire/
	$(GO) test -fuzz=FuzzDecodeMembershipBatch -fuzztime=10s ./internal/wire/
	$(GO) test -fuzz=FuzzDecodeSparseRekey -fuzztime=10s ./internal/wire/
	$(GO) test -fuzz=FuzzDecodeDgram -fuzztime=10s ./internal/wire/
	$(GO) test -fuzz=FuzzScopedIndex -fuzztime=10s ./internal/wire/
	$(GO) test -fuzz=FuzzWALRecord -fuzztime=10s ./internal/store/
	$(GO) test -fuzz=FuzzRestore -fuzztime=10s ./internal/core/
	$(GO) test -run='^$$' -fuzz=FuzzPlanBatch -fuzztime=10s ./internal/keytree/
	$(GO) test -fuzz=FuzzDecodeReport -fuzztime=10s ./internal/loadgen/

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt
