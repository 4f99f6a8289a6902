GO ?= go

.PHONY: all build test race vet check fuzz-smoke bench bench-fleet bench-content bench-edge bench-learn edge-smoke sweep-smoke learn-smoke telemetry-smoke examples clean

all: vet check build test

# check runs the qarvcheck analyzer suite (cmd/qarvcheck) over the
# whole module: nondeterminism (no wall clock, math/rand, or
# map-iteration-ordered output in deterministic packages), ctxloop
# (slot/shard loops must thread cancellation), reseedclone (types
# holding *geom.RNG implement the full Reseed/Clone run-isolation
# contract), errstyle (sentinels wrapped with %w, no discarded
# errors), and doccheck (exported identifiers documented). The tree
# must stay finding-free; deliberate exceptions carry a reasoned
# //qarv:allow directive.
check:
	$(GO) run ./cmd/qarvcheck ./...

# fuzz-smoke runs each fuzz target briefly — enough to replay the
# checked-in corpora and catch regressions in the parsers' and name
# grammars' error paths without a long fuzzing campaign.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzPLYDecode -fuzztime 10s ./internal/ply
	$(GO) test -run '^$$' -fuzz FuzzHeaderParse -fuzztime 10s ./internal/ply
	$(GO) test -run '^$$' -fuzz FuzzReadTraceCSV -fuzztime 10s ./internal/netem
	$(GO) test -run '^$$' -fuzz FuzzReadTraceJSON -fuzztime 10s ./internal/netem
	$(GO) test -run '^$$' -fuzz FuzzReadMessage -fuzztime 10s ./internal/stream
	$(GO) test -run '^$$' -fuzz FuzzAllocatorByName -fuzztime 10s ./internal/alloc
	$(GO) test -run '^$$' -fuzz FuzzPolicyByName -fuzztime 10s ./internal/experiments

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench: bench-fleet
	$(GO) test -bench=. -benchtime=1x -run=^$$ .
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./internal/fleet

# bench-fleet records the fleet engine's headline capacity number
# (device-slots/sec, plus the full streaming report) into the bench
# history artifact BENCH_fleet.json.
bench-fleet:
	$(GO) run ./cmd/qarvfleet -n 20000 -slots 500 -churn 0.001 -json > BENCH_fleet.json

# bench-content records the content pipeline's timings (octree build,
# PLY decode, stream-size ladder, full profile build) into the bench
# history artifact BENCH_content.json. BENCHTIME=1x makes it a smoke.
BENCHTIME ?= 1s
bench-content:
	$(GO) run ./cmd/qarvbench -benchtime $(BENCHTIME) > BENCH_content.json

# bench-edge records the live edge service's capacity numbers
# (sessions/sec, frames/sec, p50/p99/max end-to-end frame latency) from
# EDGE_SESSIONS concurrent loopback TCP sessions against one
# stream.Server, into the bench history artifact BENCH_edge.json.
# EDGE_SESSIONS=64 makes it a CI smoke; history runs use the default.
EDGE_SESSIONS ?= 1000
EDGE_FRAMES ?= 20
bench-edge:
	$(GO) run ./cmd/qarvbench -edge -sessions $(EDGE_SESSIONS) \
		-frames $(EDGE_FRAMES) -payload 4096 > BENCH_edge.json

# bench-learn records the learning layer's per-slot overhead (every
# ByName-reachable allocator's Allocate+Learn cycle, the display-policy
# wrappers' Decide) into the bench history artifact BENCH_learn.json.
# BENCHTIME=1x makes it a smoke.
bench-learn:
	$(GO) run ./cmd/qarvbench -learn -benchtime $(BENCHTIME) > BENCH_learn.json

# edge-smoke runs the socket-level edge suite: the soak/conservation,
# drain, shed, idle-timeout, and ack-failure tests under the race
# detector, then the end-to-end two-binary CLI test.
edge-smoke:
	$(GO) test -race -count=1 ./internal/stream
	$(GO) test -count=1 -run 'TestEndToEnd|TestMultiDevice' ./cmd/qarvedge ./cmd/qarvdevice

# sweep-smoke drives a tiny 2×2 grid end to end through cmd/qarvsweep
# (fleet backend, JSON report) — the sweep engine's CLI smoke test.
sweep-smoke:
	$(GO) run ./cmd/qarvsweep -samples 60000 -slots 200 -seed 1 \
		-axis v=0.5,2 -axis net=static,markov:0.5 \
		-backend fleet -sessions 8 -json > /dev/null

# learn-smoke runs the learning layer end to end through cmd/qarvsweep:
# a small learned-allocator × network grid must produce byte-identical
# JSON at -workers 1 and -workers 4, a learned-policy axis must run
# through the fleet-shaped grid, and the learn bench must execute at 1x.
learn-smoke:
	$(GO) run ./cmd/qarvsweep -samples 60000 -slots 200 -seed 1 \
		-axis alloc=equal,bandit:4,gradient:0.2 -axis net=static,markov:0.8:64 \
		-workers 1 -json > learn_smoke_w1.json
	$(GO) run ./cmd/qarvsweep -samples 60000 -slots 200 -seed 1 \
		-axis alloc=equal,bandit:4,gradient:0.2 -axis net=static,markov:0.8:64 \
		-workers 4 -json > learn_smoke_w4.json
	cmp learn_smoke_w1.json learn_smoke_w4.json
	rm -f learn_smoke_w1.json learn_smoke_w4.json
	$(GO) run ./cmd/qarvsweep -samples 60000 -slots 200 -seed 1 \
		-axis policy=proposed,predictive-delayed:6 -axis net=static \
		-json > /dev/null
	$(GO) run ./cmd/qarvbench -learn -benchtime 1x > /dev/null

# telemetry-smoke runs the observability layer end to end: the pin
# tests proving metric snapshots are byte-identical per seed at any
# shard/worker count and that telemetry never changes report bytes,
# the CLI sink tests, then a real qarvfleet run that must emit a
# non-empty snapshot and trace_event file.
telemetry-smoke:
	$(GO) test -run 'Telemetry' . ./cmd/qarvfleet
	$(GO) test ./internal/obs ./cmd/internal/telemetry
	$(GO) run ./cmd/qarvfleet -samples 30000 -n 64 -slots 200 -json \
		-metrics telemetry_smoke_metrics.json -trace telemetry_smoke_trace.json > /dev/null
	test -s telemetry_smoke_metrics.json && test -s telemetry_smoke_trace.json
	rm -f telemetry_smoke_metrics.json telemetry_smoke_trace.json

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/vsweep
	$(GO) run ./examples/multidevice
	$(GO) run ./examples/offload
	$(GO) run ./examples/streaming
	$(GO) run ./examples/allocators
	$(GO) run ./examples/fleet
	$(GO) run ./examples/networks
	$(GO) run ./examples/sweep
	$(GO) run ./examples/content
	$(GO) run ./examples/learn

clean:
	$(GO) clean ./...
	rm -rf results data
