# Development targets for the insitu reproduction. `make check` is the
# pre-commit gate: vet, build, the full test suite under the race
# detector, and a benchmark smoke run of the compute-kernel hot path.

GO ?= go

.PHONY: check vet build test race race-short ingest-stress bench-smoke bench-kernels bench-kernels-json bench-json bench-diff bench-fleet bench-fleet-diff trace-smoke fault-smoke crash-smoke fleet-smoke health-smoke wire-smoke churn-smoke scale-smoke loop-digest clean

check: vet build race bench-smoke

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The experiments package runs full learning loops; under the race
# detector it exceeds go test's default 10m per-package timeout.
race:
	$(GO) test -race -timeout 30m ./...

# The CI race gate: -short trims the long learning loops (fleet
# crash-resume, experiments) to keep the job well under ten minutes
# while still driving every concurrent code path.
race-short:
	$(GO) test -race -short -timeout 20m ./...

# The node-to-round-loop hand-off blocks by design (backpressure, the
# Close-time release of abandoned stragglers), and one pass of a
# blocking protocol proves little: repeat its tests under the race
# detector. One P because the determinism tests still fail on more
# (ROADMAP item 1). The tests train real models, so under -race the
# three passes outlast go test's default 10m timeout on a slow core.
ingest-stress:
	GOMAXPROCS=1 $(GO) test -race -count=3 -timeout 45m \
		-run 'TestFleetBackpressure|TestFleetOutageNode|TestFleetDeterministicAcrossShardTopologies|TestClose' \
		./internal/fleet

# Quick proof that the blocked kernels still run fast and allocation-free:
# a short -benchtime keeps this under a minute.
bench-smoke:
	$(GO) test -run NONE -bench 'MatMul|Conv|Dense|TrainStep' -benchmem -benchtime 200ms \
		./internal/tensor/ ./internal/nn/ .

# Full kernel/layer benchmark sweep at the default benchtime, then
# regenerate the machine-readable kernel record (GEMM at GOMAXPROCS
# 1/2/4/8 plus the int8-vs-float32 layer rows; prior rounds are kept).
bench-kernels:
	$(GO) test -run NONE -bench 'MatMul|Im2Col|Col2Im|Conv|Dense' -benchmem \
		./internal/tensor/ ./internal/nn/
	$(GO) run ./cmd/insitu-kernelbench -out BENCH_kernels.json

# Regenerate only BENCH_kernels.json (no go-test sweep).
bench-kernels-json:
	$(GO) run ./cmd/insitu-kernelbench -out BENCH_kernels.json

# Perf-regression gate: measure fresh at a short benchtime and compare
# against the committed record. The tolerance is generous (3 = fail past
# 4x) because CI runners are noisy and share cores; the gate exists to
# catch order-of-magnitude kernel regressions, not 10% drift.
bench-diff:
	$(GO) run ./cmd/insitu-kernelbench -out bench-diff-fresh.json -benchtime 100ms
	$(GO) run ./cmd/insitu-benchdiff -tolerance 3 BENCH_kernels.json bench-diff-fresh.json
	rm -f bench-diff-fresh.json

# Regenerate BENCH_fleet.json, the committed record of the fleet-scale
# sweep (N=1000 across 8 ingestion shards): p99 admission latency, peak
# heap, and deterministic bytes-per-upload. Takes a few minutes on one
# core.
bench-fleet:
	$(GO) run ./cmd/insitu-fleetbench -out BENCH_fleet.json

# Fleet perf-regression gate: measure fresh and compare against the
# committed record. Wall-clock (p99 admission) gets a very generous
# tolerance — it scales with runner speed — while bytes_per_upload is
# deterministic and gated tight by -bytes-tolerance's default.
bench-fleet-diff:
	$(GO) run ./cmd/insitu-fleetbench -out bench-fleet-fresh.json
	$(GO) run ./cmd/insitu-benchdiff -tolerance 9 BENCH_fleet.json bench-fleet-fresh.json
	rm -f bench-fleet-fresh.json

# Machine-readable record of the paper-artifact generators.
bench-json:
	$(GO) run ./cmd/insitu-bench -exp all -scale small -json BENCH_insitu.json >/dev/null

# End-to-end observability proof: run a small closed-loop node simulation
# with tracing on, then validate the JSONL (dense seq, monotonic ts) and
# assert the stage/upload/deploy/planner events all fired.
trace-smoke:
	$(GO) run ./cmd/insitu-node -variant d -bootstrap 24 -stages 16,16 -classes 4 \
		-trace-out trace-smoke.jsonl >/dev/null
	$(GO) run ./cmd/insitu-tracecheck \
		-require core.stage,core.upload,core.deploy,planner.plan trace-smoke.jsonl
	rm -f trace-smoke.jsonl

# Resilience proof: fuzz the CRC-framed bundle decoder and the wire
# frame decoder briefly, then run a closed-loop node simulation over a
# lossy downlink with an outage window — retries, rollback and graceful
# degradation must not panic.
fault-smoke:
	$(GO) test -run Fuzz -fuzz FuzzFrame -fuzztime 10s ./internal/wire
	$(GO) test -run Fuzz -fuzz FuzzDecode -fuzztime 10s ./internal/deploy
	$(GO) run ./cmd/insitu-node -variant d -bootstrap 24 -stages 16,16 -classes 4 \
		-fault-rate 0.4 -outage 1:2 >/dev/null

# Durability proof: run a node simulation to completion, run it again
# with checkpointing and a self-SIGKILL after stage 1 (exit 137 is the
# point, hence the leading -), resume from the on-disk snapshot, and
# demand a byte-identical report. Uses a prebuilt binary — `go run`
# would report the child's SIGKILL as its own failure.
crash-smoke:
	$(GO) build -o crash-smoke-node ./cmd/insitu-node
	./crash-smoke-node -variant d -bootstrap 24 -stages 16,16 -classes 4 \
		-fault-rate 0.3 > crash-smoke-base.txt
	-./crash-smoke-node -variant d -bootstrap 24 -stages 16,16 -classes 4 \
		-fault-rate 0.3 -state-dir crash-smoke-state -kill-after-stage 1 \
		> /dev/null 2>&1
	./crash-smoke-node -variant d -bootstrap 24 -stages 16,16 -classes 4 \
		-fault-rate 0.3 -state-dir crash-smoke-state -resume > crash-smoke-resumed.txt
	diff crash-smoke-base.txt crash-smoke-resumed.txt
	rm -rf crash-smoke-node crash-smoke-base.txt crash-smoke-resumed.txt crash-smoke-state

# Fleet proof: a 4-node concurrent run with one node in permanent
# blackout and a lossy downlink, traced end to end; the trace must be
# well-formed and carry the fleet round/upload/deploy events.
fleet-smoke:
	$(GO) run ./cmd/insitu-fleet -nodes 4 -bootstrap 24 -rounds 16,16 -classes 4 \
		-outage-nodes 3 -fault-rate 0.3 -max-round-samples 64 \
		-trace-out fleet-smoke.jsonl >/dev/null
	$(GO) run ./cmd/insitu-tracecheck \
		-require fleet.round,fleet.upload,fleet.deploy fleet-smoke.jsonl
	rm -f fleet-smoke.jsonl

# Health-plane proof: an 8-node fleet with one node in permanent
# blackout, traced; every node must end with a verdict (insitu-top
# -require-verdicts), the blackout node must read unhealthy, and the
# fleet.health events must validate alongside the round events.
health-smoke:
	$(GO) run ./cmd/insitu-fleet -nodes 8 -bootstrap 24 -rounds 16,16 -classes 4 \
		-outage-nodes 5 -health-out health-smoke.json \
		-trace-out health-smoke.jsonl >/dev/null
	$(GO) run ./cmd/insitu-tracecheck -stats \
		-require fleet.round,fleet.health health-smoke.jsonl
	$(GO) run ./cmd/insitu-top -once -snapshot health-smoke.json -require-verdicts
	grep -q '"unhealthy": 1' health-smoke.json
	rm -f health-smoke.json health-smoke.jsonl

# Wire proof: the fleet across real process boundaries. Four legs (all
# race-built): in-process baseline, insitu-fleet -listen + 2 insitu-node
# processes over TCP, the same through a lossy insitu-proxy, and a
# crash/resume of the cloud process — every leg's stdout must be
# byte-identical.
wire-smoke:
	./scripts/wire_smoke.sh

# Churn proof: node processes SIGKILLed and restarted mid-round (through
# a lossy proxy) must leave the fleet's stdout byte-identical to an
# undisturbed run, and a node left dead past its lease must be parked at
# MinQuorum with the health plane reporting it DISCONNECTED/unhealthy.
# Scratch lives in a tmpdir; CI sets CHURN_SMOKE_WORK to collect it.
churn-smoke:
	./scripts/churn_smoke.sh

# Scale proof: a race-built N=1000 fleet across 8 ingestion shards with
# the scale valves open; the health plane must verdict every node with
# zero unhealthy. Scratch lives in a tmpdir; CI sets SCALE_SMOKE_WORK.
scale-smoke:
	./scripts/scale_smoke.sh

# Refactoring proof: one SHA-256 over the stdout of both closed-loop
# drivers (insitu-node for variants a-d with and without downlink
# faults, then a faulty 3-node insitu-fleet) at GOMAXPROCS=1. A change
# that must not move reports prints the same digest as its parent commit
# on the same host: `scripts/loop_digest.sh <parent checkout>` digests
# another tree with the same commands.
loop-digest:
	./scripts/loop_digest.sh

clean:
	rm -f trace-smoke.jsonl fleet-smoke.jsonl health-smoke.json health-smoke.jsonl bench-diff-fresh.json bench-fleet-fresh.json
	rm -rf crash-smoke-node crash-smoke-base.txt crash-smoke-resumed.txt crash-smoke-state churn-smoke-work
	$(GO) clean ./...
