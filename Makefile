# Verification tiers. tier1 is the gate every change must keep green; it
# includes the static gates (import DAG, dead code, flag/doc drift,
# gofmt), which `make gates` runs alone. tier2 adds static analysis (go
# vet, also cross-compiled for arm64, where Go fuses x*y + z into an FMA),
# the race detector over every package, every native fuzzer for 5s, and
# the benchmark's own smoke test.
# DESIGN.md, "Verification tiers", says what the gates check and what the
# race run is there to catch, package by package.

.PHONY: tier1 tier2 gates fuzz bench soak profile pairs loc

tier1:
	go build ./... && go test ./...

tier2:
	go vet ./... && GOARCH=arm64 go vet ./... && go test -race -timeout 30m ./... && \
		$(MAKE) fuzz FUZZTIME=5s && go -C benchmark test ./...

# fuzz runs every native fuzzer in the module (`go test -list '^Fuzz'`
# finds them: the bencode and metainfo decoders, the solve-entry decoder,
# the fabric's batched completion body and the sim-replica spec parser)
# for FUZZTIME each, one at a time, offline; their seed corpora already
# run in tier1. A failing input lands in the package's testdata/fuzz/.
FUZZTIME ?= 10s
fuzz:
	go test -list '^Fuzz' ./... | \
		awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }' | \
		while read pkg fn; do \
			echo "fuzz $$pkg $$fn for $(FUZZTIME)"; \
			go test -run '^$$' -fuzz "^$$fn$$" -fuzztime $(FUZZTIME) $$pkg || exit 1; \
		done

# gates runs only the static gates (gates_test.go): the import DAG, the
# dead-code scan, README's flag reference against every command's -h and
# gofmt over every .go file, plus their seeded-violation checks. -v prints the tier
# table and the dead-code allowlist with each entry's reason — the queue
# for the next deletion.
gates:
	go test -count=1 -run Gate -v .

# soak runs the chaos soak (part of tier2's race run) on its own: a
# distributed sim-replica sweep with four workers plus one killed
# mid-run, seeded drop/delay/5xx/corrupt chaos on every worker's
# transport, server-side injected errors and an early coordinator
# blackout — the run must produce payloads byte-identical to the clean
# local run, with every surviving worker riding the blackout out parked
# instead of failing. The chaos seed is fixed in the test, so the fault
# schedule it survives is the same one every time (and is pinned
# byte-for-byte by the chaos package's golden schedule test). With it run
# the two tests that guard the coordinator's locking: the exhaustive
# lease/renew/complete/reap/restart interleavings over a three-cell job,
# and the stalled-store test (a completion parked inside a store write must
# not hold up a lease, a renewal, a status read or another cell's
# completion).
soak:
	go test -race -count=1 -run 'TestChaosSoak|TestHostileSchedules|TestStalledStore' -v ./internal/fabric/

# bench runs the repository's one benchmark (BENCHMARK.json, benchmark/):
# five workloads, end-to-end metrics, and with -trace 1 the per-layer table.
bench:
	go -C benchmark run . -seed 1

# pairs measures the working tree against a parent commit: per workload, N
# alternating pairs of `go -C benchmark run . -workload W -seed S`, then one
# closing table, a row per (workload, end-to-end metric): each side's median
# and quartiles, the pairs won, and the verdict — improved / within bound /
# unresolved / worse — against the metric's bound in BENCHMARK.json
# (choosing-metrics §6.5, §8). WORKLOAD is a name, a comma list or `all`.
# ~30 s per pair.
#	make pairs WORKLOAD=chunk_sim PARENT=HEAD^ N=10 SEED=1
#	make pairs WORKLOAD=all PARENT=HEAD
PARENT ?= HEAD^
N ?= 10
SEED ?= 1
pairs:
	go run ./scripts/pairs -workload $(WORKLOAD) -parent $(PARENT) -n $(N) -seed $(SEED)

# loc prints the non-test Go lines of every package directory and their
# total, leaving out benchmark/ and scripts/. Run it on two trees to get a
# change's per-package before/after line counts.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './scripts/*' -exec wc -l {} + | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d); n[d == "" ? "." : d] += $$1; t += $$1 } \
		END { for (d in n) printf "%6d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%6d  total\n", t }'

# profile writes two kinds of profile into ./prof/. First a small
# instrumented sweep with every observability sink attached: a JSON metrics
# snapshot, a Chrome trace and the table, with /debug/pprof + /metrics
# served on localhost:6060 while it runs — about a second now that an Eq. (5)
# evaluation is sub-microsecond, too short to attach a pprof client from
# another shell. Then a CPU profile of the Eq. (5) kernel benchmarks
# (BenchmarkRHS, cmfsd's Model and Mixed) and of whole solves at
# fluid_cold's shape (BenchmarkColdSurface, a 9 × 9 p × ρ grid at K = 10):
# inspect it with `go tool pprof prof/cmfsd.test prof/fluid-cpu.pprof`. Last a CPU profile
# of the flow-level simulator: one event (BenchmarkEventsimStep, every
# scheme at 10^3 and 10^4 peers) and whole runs of the benchmark's flow_sim
# configurations (BenchmarkEventsimFlowMix): `go tool pprof
# prof/eventsim.test prof/eventsim-cpu.pprof`. Then the fabric at
# fabric_fine's shape (BenchmarkFabricSimReplica: sub-millisecond
# sim-replica cells, two in-process workers, one shared sample store):
# `go tool pprof prof/fabric.test prof/fabric-cpu.pprof`. Last the
# chunk-level swarm at chunk_sim's two sizes (BenchmarkSwarmRun: whole
# MFCD and CMFSD runs at ~250 and at 3-6k peers, arrivals included):
# `go tool pprof prof/swarm.test prof/swarm-cpu.pprof`.
profile:
	mkdir -p prof
	go run ./cmd/sweep -dim p,rho -steps 30,30 -scheme CMFSD \
		-metrics-out prof/sweep-metrics.json -trace-out prof/sweep-trace.json \
		-pprof localhost:6060 -stats > prof/sweep-table.txt
	go test -run '^$$' -bench 'RHS|ColdSurface' -benchtime 2s -cpuprofile prof/fluid-cpu.pprof -o prof/cmfsd.test ./internal/cmfsd
	go test -short -run '^$$' -bench 'EventsimStep|EventsimFlowMix' -benchtime 1s -cpuprofile prof/eventsim-cpu.pprof -o prof/eventsim.test ./internal/eventsim
	go test -run '^$$' -bench FabricSimReplica -benchtime 2s -cpuprofile prof/fabric-cpu.pprof -o prof/fabric.test ./internal/fabric
	go test -run '^$$' -bench SwarmRun -benchtime 2x -cpuprofile prof/swarm-cpu.pprof -o prof/swarm.test ./internal/swarm
	@echo "wrote prof/sweep-metrics.json prof/sweep-trace.json prof/sweep-table.txt prof/fluid-cpu.pprof prof/eventsim-cpu.pprof prof/fabric-cpu.pprof prof/swarm-cpu.pprof"
