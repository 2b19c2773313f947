# Development targets for the insitu reproduction. `make check` is the
# pre-commit gate: vet, the dead-export check, build, the full test
# suite under the race detector, and a benchmark smoke run of the
# compute-kernel hot path.

GO ?= go

.PHONY: check vet deadcode build test race race-short ingest-stress bench-smoke bench-compare trace-smoke fault-smoke crash-smoke train-smoke fleet-smoke health-smoke wire-smoke churn-smoke scale-smoke loop-digest clean

check: vet deadcode build race bench-smoke

vet:
	$(GO) vet ./...

# Dead-export check: every exported function, method and type must be
# reachable from a main package's non-test code, or be listed with a
# reason in scripts/deadcode.allow.
deadcode:
	$(GO) run ./scripts/deadcode

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
# detector, at every P the host has. The tests train real models, so
# under -race the three passes outlast go test's default 10m timeout
# (about 15 minutes on a 2-vCPU host).
ingest-stress:
	$(GO) test -race -count=3 -timeout 45m \
		-run 'TestFleetBackpressure|TestFleetOutageNode|TestFleetDeterministicAcrossShardTopologies|TestClose' \
		./internal/fleet

# Smoke run of the kernel, layer and train-step benchmarks (go test
# -bench): they still build, run and report allocations. A short
# -benchtime keeps this under a minute; it compares against no record.
bench-smoke:
	$(GO) test -run NONE -bench 'MatMul|Conv|Dense|TrainStep' -benchmem -benchtime 200ms \
		./internal/tensor/ ./internal/nn/ ./internal/models/

# The benchmark gate: three alternating pairs of untraced benchmark runs
# (all four workloads, seeds 1-3) of PARENT and of the work tree on this
# host, judged by `benchmark -compare`. Exits 1 when an end-to-end metric
# regressed past its bound or failed operations rose. Takes about seven
# minutes on a 2-vCPU host.
bench-compare:
	@test -n "$(PARENT)" || { echo "usage: make bench-compare PARENT=<rev>" >&2; exit 2; }
	./scripts/bench_compare.sh $(PARENT)

# End-to-end observability proof: run a small one-node closed loop with
# tracing on, then validate the JSONL (dense seq, monotonic ts) and
# assert the round/upload/deploy events all fired.
trace-smoke:
	$(GO) run ./cmd/insitu-fleet -nodes 1 -variant d -bootstrap 24 -rounds 16,16 -classes 4 \
		-trace-out trace-smoke.jsonl >/dev/null
	$(GO) run ./cmd/insitu-tracecheck \
		-require fleet.round,fleet.upload,fleet.deploy trace-smoke.jsonl
	rm -f trace-smoke.jsonl

# Resilience proof: fuzz the CRC-framed bundle decoder and the wire
# frame decoder briefly, then run a one-node closed loop over a lossy
# downlink with an outage window — retries, rollback and graceful
# degradation must not panic.
fault-smoke:
	$(GO) test -run Fuzz -fuzz FuzzFrame -fuzztime 10s ./internal/wire
	$(GO) test -run Fuzz -fuzz FuzzDecode -fuzztime 10s ./internal/deploy
	$(GO) run ./cmd/insitu-fleet -nodes 1 -variant d -bootstrap 24 -rounds 16,16 -classes 4 \
		-fault-rate 0.4 -outage 1:2 >/dev/null

# Durability proof: run a one-node closed loop to completion, run it
# again with checkpointing and a self-SIGKILL after round 1 (exit 137 is
# the point, hence the leading -), resume from the on-disk snapshot, and
# demand a byte-identical report. Uses a prebuilt binary — `go run`
# would report the child's SIGKILL as its own failure.
crash-smoke:
	$(GO) build -o crash-smoke-fleet ./cmd/insitu-fleet
	./crash-smoke-fleet -nodes 1 -variant d -bootstrap 24 -rounds 16,16 -classes 4 \
		-fault-rate 0.3 > crash-smoke-base.txt
	-./crash-smoke-fleet -nodes 1 -variant d -bootstrap 24 -rounds 16,16 -classes 4 \
		-fault-rate 0.3 -state-dir crash-smoke-state -kill-after-round 1 \
		> /dev/null 2>&1
	./crash-smoke-fleet -nodes 1 -variant d -bootstrap 24 -rounds 16,16 -classes 4 \
		-fault-rate 0.3 -state-dir crash-smoke-state -resume > crash-smoke-resumed.txt
	diff crash-smoke-base.txt crash-smoke-resumed.txt
	rm -rf crash-smoke-fleet crash-smoke-base.txt crash-smoke-resumed.txt crash-smoke-state

# Offline-bootstrap proof: insitu-train writes a bundle through the
# loop's own Cloud bootstrap, -check applies it to fresh nets, and a
# flag that cannot describe a model is a usage error (exit 2), not a
# panic. Uses a prebuilt binary so the exit code is the command's own.
train-smoke:
	$(GO) build -o train-smoke-bin ./cmd/insitu-train
	./train-smoke-bin -out train-smoke.isdp -images 64 -classes 4
	./train-smoke-bin -check train-smoke.isdp -classes 4
	./train-smoke-bin -images 0; test $$? -eq 2
	rm -f train-smoke-bin train-smoke.isdp

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

# Refactoring proof: one SHA-256 over the stdout of the closed loop
# (one-node insitu-fleet runs of variants a-d with and without downlink
# faults, then a faulty 3-node insitu-fleet) at GOMAXPROCS=1. A change
# that must not move reports prints the same digest as its parent commit
# on the same host: `scripts/loop_digest.sh <parent checkout>` digests
# another tree with the same commands.
loop-digest:
	./scripts/loop_digest.sh

clean:
	rm -f trace-smoke.jsonl fleet-smoke.jsonl health-smoke.json health-smoke.jsonl
	rm -f train-smoke-bin train-smoke.isdp
	rm -rf crash-smoke-fleet crash-smoke-base.txt crash-smoke-resumed.txt crash-smoke-state churn-smoke-work
	$(GO) clean ./...
