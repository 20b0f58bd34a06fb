# Developer entry points. CI runs the same targets (see
# .github/workflows/ci.yml), so a green `make check bench-smoke` locally
# predicts a green pipeline.

# pipefail: wire-bench pipes the benchmark into grep, and a benchmark
# failure must fail the target, not vanish behind the pipe's last exit
# status.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

.PHONY: build test race race-net wire-bench vet fmt check bench-smoke bigcell-smoke heap-growth-check fingerprint-check alloc-check cache-grid-smoke socket-smoke invariants-smoke trace-smoke fuzz-smoke dist-smoke docs-check staticcheck loc cover-report

build:
	go build ./...

# test shuffles the order of tests within each package, so that no test
# depends on another having run first (internal/harness shares one run
# per cell between its tests).
test:
	go test -shuffle=on ./...

# race runs the suite under the race detector — the sweep fan-out, the
# wall-clock run loops and the socket reader goroutines are the
# concurrency that matters. The raised -timeout covers the harness
# package's simulation suite, which can exceed go test's 10-minute
# per-package default under the race detector on slow machines.
race:
	go test -race -timeout 40m ./...

# race-net is the slice of `race` that covers the wall-clock run loop
# and the socket transport — the run loop against reader and writer
# goroutines, Cancel against Run, and simnet's network, which the
# socket backend shares between its run loop and its readers and whose
# own tests run it on the wall clock alone, the reference for a socket
# process's same-process legs — repeated, because those races are
# timing-dependent. The wire-rpc smoke test is
# the one caller that joins and polls Alive from outside a running loop.
# Minutes, not the 40 of `race`.
race-net:
	go test -race -count=20 ./internal/wallclock ./internal/simnet ./internal/socknet
	go test -race -count=10 -run TestWireWorkloadSmoke ./benchmark

# wire-bench runs the repo benchmark's wire-rpc workload once untraced
# (the seven end-to-end metrics) and once traced (round-trip latency
# and the request/handler/response legs). For a claim, run parent/change
# pairs as docs/OPERATIONS.md describes; this is the quick look.
wire-bench:
	bash benchmark/run.sh --workload wire-rpc --seed 1 --seconds 10 --trace 0 | grep -E '^[a-z_]+ +[0-9]'
	bash benchmark/run.sh --workload wire-rpc --seed 1 --seconds 10 --trace 1 | grep -E '^(rtt_|socknet\.[a-z]+_leg_)'

vet:
	go vet ./...

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

check: fmt vet build test

# bench-smoke is the CI-sized slice of the `go test` benchmarks: one
# iteration of the cheap ones, just enough to catch rot in the bench
# harness itself. (The performance trajectory is the benchmark/ suite —
# see wire-bench and docs/OPERATIONS.md.)
bench-smoke:
	go test -run '^$$' -bench 'BenchmarkSchedule|BenchmarkPeriodic|BenchmarkTable1|BenchmarkStabilizeRound|BenchmarkClientLookup' -benchtime 1x -benchmem ./...

# bigcell-smoke exercises the big-cell scale path at CI size: one
# process hosting a 50k-node cell for one simulated hour on the sim
# backend — petal-structured flower (every peer in a locality petal,
# ~100 directory nodes on the ring) and koorde-global (every peer in
# one global overlay, the memory-hostile extreme). Each run prints
# live-heap bytes/node and the MiB allocated over the run, the join
# storm's allocation volume; the 4 KiB/node budget itself is enforced at
# P=100k by BenchmarkBigCell (`go test -run '^$' -bench BigCell .`),
# which `make race` excludes via a build tag.
bigcell-smoke:
	go run ./cmd/flowersim -p 50000 -hours 1 -protocol flower -measure-mem
	go run ./cmd/flowersim -p 50000 -hours 1 -protocol koorde-global -measure-mem

# heap-growth-check holds live heap per node flat in simulated time:
# under the paper's churn model every re-join is a fresh network
# identity, so a run spawns ~one session per population slot per hour,
# and a dead session that stays reachable (a roster that only appends, a
# ticker nobody cancelled, a kept kill closure) shows as B/node growing
# linearly with -hours. For one protocol of each deployment family the
# 16 h figure must stay within 2x the 4 h one (a deployment that keeps
# its dead reachable reads 3.5x to 4.1x). ~10 s.
heap-growth-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go build -o "$$tmp/flowersim" ./cmd/flowersim; \
	bytes_per_node() { "$$tmp/flowersim" -p 400 -hours $$2 -protocol $$1 -measure-mem | sed -n 's/^memory: \([0-9]*\) B\/node.*/\1/p'; }; \
	for p in flower squirrel koorde-global; do \
		b4=$$(bytes_per_node $$p 4); b16=$$(bytes_per_node $$p 16); \
		printf '%-14s 4 h: %6d B/node  16 h: %6d B/node\n' "$$p" "$$b4" "$$b16"; \
		if [ "$$b16" -gt $$((2 * b4)) ]; then \
			echo "HEAP GROWS WITH SIMULATED TIME ($$p): dead peers are staying reachable" >&2; exit 1; \
		fi; \
	done; echo "live heap per node is flat in simulated time"

# fingerprint-check runs the same simulation cell in two separate
# processes for every listed protocol and compares the run
# fingerprints (FNV-1a over per-window query/transfer/message counts)
# with each other and with the table committed here: map-order
# nondeterminism feeding the event stream shows up as a mismatch between
# the processes, and an engine or driver edit that reorders events or
# random draws as a mismatch with the pin, mechanically. The second
# process is given only the cell line the first command line prints
# (-print-params, which runs nothing), so a cell that does not replay
# its run fails too. A listed protocol without a pin fails too, so
# a new driver cannot slip past. Last, petalup with a load limit no
# petal reaches must print flower's pin: the harness mints one
# population for every protocol and keys the protocol stream by seed
# and group alone, so the two run the same code on the same draws.
# When a protocol or workload change is meant to move a fingerprint,
# re-pin: set its entry to what both processes print and say why in
# CHANGES.md. All six moved together when the harness began minting
# the population outside the protocols, which gave every protocol of
# one seed the same individuals and the same protocol stream. Flower
# and petalup moved again when a flower directory began handing joiners
# a snapshot of a member's key set instead of the live set.
# All six moved when the harness took over every individual's query clock.
FINGERPRINTS := \
	flower=ae6a1cae4a6282f3 \
	petalup=ae6a1cae4a6282f3 \
	squirrel=8dcac063a02938ab \
	chord-global=2eb361602e5a1a98 \
	koorde-global=ba8ddc222b2c5ba9 \
	origin-only=b8125c5efb770337
fingerprint-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	go build -o "$$tmp/flowersim" ./cmd/flowersim; \
	for p in $$("$$tmp/flowersim" -protocols | cut -d' ' -f1); do \
		want=; for kv in $(FINGERPRINTS); do \
			if [ "$${kv%%=*}" = "$$p" ]; then want=$${kv#*=}; fi; done; \
		if [ -z "$$want" ]; then \
			echo "NO FINGERPRINT PIN for listed protocol $$p: add it to FINGERPRINTS" >&2; exit 1; \
		fi; \
		cell=$$("$$tmp/flowersim" -p 200 -hours 4 -protocol $$p -print-params | sed -n 's/^cell://p'); \
		fp1=$$("$$tmp/flowersim" -p 200 -hours 4 -protocol $$p -print-fingerprint); \
		fp2=$$("$$tmp/flowersim" $$cell -print-fingerprint); \
		printf '%-14s process 1: %s  process 2: %s  (cell:%s)\n' "$$p" "$$fp1" "$$fp2" "$$cell"; \
		if [ "$$fp1" != "$$fp2" ]; then \
			echo "FINGERPRINT MISMATCH ($$p): runs are not deterministic across processes, or the printed cell does not replay the run" >&2; exit 1; \
		fi; \
		if [ "$$fp1" != "$$want" ]; then \
			echo "FINGERPRINT MOVED ($$p): want the pinned $$want; simulated behaviour changed" >&2; exit 1; \
		fi; \
	done; \
	for kv in $(FINGERPRINTS); do if [ "$${kv%%=*}" = flower ]; then flower=$${kv#*=}; fi; done; \
	unreached=$$("$$tmp/flowersim" -p 200 -hours 4 -protocol petalup -load-limit 100000 -print-fingerprint); \
	printf '%-14s load limit 100000: %s  (flower pin: %s)\n' petalup "$$unreached" "$$flower"; \
	if [ "$$unreached" != "$$flower" ]; then \
		echo "PETALUP DIVERGES FROM FLOWER: with a load limit no petal reaches it must run flower's draws" >&2; exit 1; \
	fi; \
	echo "fingerprints match each other and the pins"

# alloc-check runs the allocation pins: the tests that hold a hot path
# to an exact object count with testing.AllocsPerRun — the engine's
# one-shot timers and its tickers (a new ticker: one object, the
# PeriodicTimer; a firing: zero), simnet's pooled deliveries, chord's steady-state
# maintenance over one deployment-wide record pool (a resolved lookup, a
# ping round, a notify, a stabilize round answered with a pooled reply —
# also right after the successor's list changed, which cost the list's
# copy and a boxed reply before — a routed payload, and a non-member
# client's lookup and routed payload through a gateway: zero),
# the harness's query tick (the draws, the question, an unjoined
# count, the timer re-armed: zero), flower's query path on a frozen
# petal (a query while one is in flight and a gossip-path hit: zero; a
# directory-path hit: the request, plus the directory's reply, one
# record with its providers inline), a content peer's keepalive and
# push round trips (each its request box: the directory records a known
# member and its keys in place, the answer is a pooled step record), a
# directory's sibling list (zero while its ring neighbourhood stands;
# the rebuilt list alone once the successor list changes), a push
# delta (one object, made at the last push's length), a joining
# client's view seed
# (the same count at 50 and 2 000 members) and a member's pushed key
# (zero; on a set a view seed's box holds, the copied bitmap, one
# object; a member record stays 40 B), gossip's view (a shuffle
# sample: its slice only, past 64 entries too; a 9-contact seed into an
# empty view, which adopts it: zero; a lookup, removal or merge of a
# known peer: zero), the LRU policy (an admission
# with its eviction, a touch: zero; filling a fresh capacity-40 slab
# from empty: what building it costs, nothing more) and the bounded
# content store over it, the run's metrics collector (10 000 queries
# whose lookup latencies and transfer distances it has counted before:
# zero, so its state follows the values seen, not the queries served),
# an RNG's New and Split (one object each; SplitInto, which seeds a
# stream its owner embeds: zero), a churn arrival (its lifetime
# closure, one object), one session from its churn arrival through its
# join, everything every peer allocates on the way (a flower session
# through its first petal join: 22 objects; a squirrel session through
# its Chord join: 21), and the binary codec's
# budget per wire message (the packages whose
# wire tests call wiretest.BinaryAllocs) — or to a byte count, a
# TotalAlloc delta over thousands of rounds, where the thing pinned is a
# timer: 48 bytes of a 512-timer slab, which an object count rounds to
# nothing. Released timers cost zero bytes on the engine and on the wall
# clock (schedule-release-fire, schedule-cancel-release, a ticker), a
# simnet Send or Request zero bytes all told — on the socket backend too,
# for the legs that stay in one process — a successful simnet Request on
# the engine one pending timer, its deadline never filed, and a socknet
# Request round trip over loopback TCP under one object; and a join
# storm of 19 599 nodes into simnet, whose paged node table allocates
# within 2x the nodes' entries (one slice grown by append read 5.5x),
# and a page of 256 dead ids, which keeps its 24 B places and no
# handler storage. A count repeats exactly, so unlike a timing these
# gate on one run.
alloc-check:
	go test -count=1 -run Alloc ./internal/sim ./internal/wallclock ./internal/simnet ./internal/socknet ./internal/chord ./internal/proto ./internal/flower ./internal/gossip ./internal/cache ./internal/content ./internal/metrics ./internal/workload ./internal/rnd ./internal/churn ./internal/harness

# socket-smoke runs one population across three cooperating OS
# processes on the socket backend: real TCP between peer groups — every
# payload through the binary codec's per-type marshallers and
# the write-side batching path — live queries answered in every
# process, clean shutdown. Each child exits
# non-zero unless its queries were answered, and the parent propagates
# any failure, so this is the full distributed-deployment assertion in
# one command.
socket-smoke:
	go run ./cmd/flowersim -backend socket -spawn-local 3 -population 50 -horizon 6s

# staticcheck runs the pinned version through `go run`, so CI and local
# invocations cannot drift (CI calls this same target). Needs network
# on first run to fetch the tool.
STATICCHECK_VERSION := 2025.1.1
staticcheck:
	go run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...

# invariants-smoke runs the ring-correctness oracle: every ring-based
# protocol (flower, squirrel, chord-global, koorde-global) checked
# against Zave's structural invariants — ordered ring, one ring,
# connected appendages, valid de Bruijn pointers — at checkpoints
# through four adversarial churn schedules on the deterministic
# backend. This is the gate that keeps the latency numbers honest: a
# lookup can "succeed" off a malformed ring, but not past this target.
invariants-smoke:
	go test ./internal/harness/ -run 'TestRingInvariantsUnderChurn|TestChurnScheduleActuallyChurns' -count=1 -v

# trace-smoke exercises the per-query tracing surfaces end to end: a
# traced quick sim cell written as hop-level CSV; a socket run whose
# CSV must hold records spanning at least two hop localities (followers
# stamp localities where they emit, so a missing locator shows here as
# one value); then a one-process socket run (a group of one) serving
# the live observability endpoint, probed over HTTP (/metrics and
# /traces) while the run is still in flight.
TRACE_OBS_ADDR ?= 127.0.0.1:7946
trace-smoke:
	go run ./cmd/flowersim -p 200 -hours 2 -trace-csv /tmp/trace-smoke.csv
	@test -s /tmp/trace-smoke.csv && head -3 /tmp/trace-smoke.csv
	go run ./cmd/flowersim -backend socket -spawn-local 3 -population 50 -horizon 6s \
		-trace-csv /tmp/trace-smoke-socket.csv
	@locs=$$(tail -n +2 /tmp/trace-smoke-socket.csv | cut -d, -f10 | sort -u | wc -l); \
	echo "socket trace: $$(tail -n +2 /tmp/trace-smoke-socket.csv | wc -l) hop rows, $$locs distinct hop_loc"; \
	test $$locs -ge 2 || { echo "socket trace has no records or one hop locality"; exit 1; }
	go run ./cmd/flowersim -backend socket -population 50 -horizon 5s \
		-trace-csv /dev/null -obs $(TRACE_OBS_ADDR) & pid=$$!; \
	sleep 3; \
	curl -sf http://$(TRACE_OBS_ADDR)/metrics; \
	curl -sf "http://$(TRACE_OBS_ADDR)/traces?n=2" > /dev/null; \
	wait $$pid
	@echo "trace-smoke OK"

# fuzz-smoke gives each fuzz target a short budget — enough for CI to
# catch a decoder panic or packing regression without open-ended fuzz
# time. Local deep fuzzing: raise -fuzztime on the same commands.
# -fuzzminimizetime bounds the time a worker spends shrinking each new
# interesting input (go test's default is 60 s). A FuzzEngineOrder exec
# costs time linear in the script, about 40 ms at 4 KiB, so shrinking
# one long input kept a worker busy past the whole budget, and both
# workers' execs/s fell to 0 within seconds. A crasher is still reported
# and saved; it is shrunk under the same bound.
FUZZTIME ?= 10s
FUZZFLAGS := -fuzztime $(FUZZTIME) -fuzzminimizetime 1s
fuzz-smoke:
	go test ./internal/socknet/ -run '^$$' -fuzz FuzzFrameRoundTrip $(FUZZFLAGS)
	go test ./internal/socknet/ -run '^$$' -fuzz FuzzBinaryFrameRoundTrip $(FUZZFLAGS)
	go test ./internal/socknet/ -run '^$$' -fuzz FuzzBinaryDecode $(FUZZFLAGS)
	go test ./internal/socknet/ -run '^$$' -fuzz FuzzFrameReadPrefix $(FUZZFLAGS)
	go test ./internal/dring/ -run '^$$' -fuzz FuzzPositionRoundTrip $(FUZZFLAGS)
	go test ./internal/trace/ -run '^$$' -fuzz FuzzRecordWire $(FUZZFLAGS)
	go test ./internal/sim/ -run '^$$' -fuzz FuzzEngineOrder $(FUZZFLAGS)
	go test ./internal/flower/ -run '^$$' -fuzz FuzzKeySet $(FUZZFLAGS)

# dist-smoke is the distributed-sweep equality gate: the same CI-sized
# grid runs once in-process, once sharded across a coordinator plus two
# spawned worker processes (starting from a fresh out-dir), and once
# more as a coordinator restarted on that out-dir with no worker at all
# — every job is already complete, so it finishes from the record files
# alone, which is the decode path end to end. All three passes'
# aggregate and per-window series CSVs must match byte for byte:
# distribution changes scheduling, never results.
DIST_TMP := /tmp/flowercdn-dist-smoke
dist-smoke:
	go build -o $(DIST_TMP)-bench ./cmd/flowerbench
	rm -rf $(DIST_TMP)-out
	$(DIST_TMP)-bench -grid compare -seeds 2 -p 100 \
		-csv $(DIST_TMP)-a.csv -series-csv $(DIST_TMP)-as.csv
	$(DIST_TMP)-bench -grid compare -seeds 2 -p 100 \
		-dist-coordinator 127.0.0.1:0 -spawn-workers 2 -out-dir $(DIST_TMP)-out \
		-csv $(DIST_TMP)-b.csv -series-csv $(DIST_TMP)-bs.csv
	cmp $(DIST_TMP)-a.csv $(DIST_TMP)-b.csv
	cmp $(DIST_TMP)-as.csv $(DIST_TMP)-bs.csv
	$(DIST_TMP)-bench -grid compare -seeds 2 -p 100 \
		-dist-coordinator 127.0.0.1:0 -out-dir $(DIST_TMP)-out \
		-csv $(DIST_TMP)-c.csv -series-csv $(DIST_TMP)-cs.csv
	cmp $(DIST_TMP)-a.csv $(DIST_TMP)-c.csv
	cmp $(DIST_TMP)-as.csv $(DIST_TMP)-cs.csv
	@echo "dist-smoke OK: distributed and resumed aggregates byte-identical to in-process"

# docs-check keeps the documentation surfaces honest: every internal
# package must open with a real godoc package comment, the files the
# operator's manual links to must exist, and every make target that
# README.md, docs/*.md or the CI workflow names — `make x y`, `$ make x`,
# `run: make x`, `= make x`, or an entry of the CI smoke matrix — must
# be a target of this Makefile.
docs-check:
	@missing=0; for d in internal/*/; do \
		pkg=$$(basename $$d); \
		if ! grep -rlq "^// Package $$pkg" $$d*.go 2>/dev/null; then \
			echo "missing package comment: $$pkg" >&2; missing=1; fi; \
	done; [ $$missing -eq 0 ]
	@for f in docs/OPERATIONS.md docs/PAPER.md README.md ROADMAP.md; do \
		test -s $$f || { echo "missing doc: $$f" >&2; exit 1; }; done
	@have=$$(sed -n 's/^\([a-z][a-z0-9-]*\):.*/\1/p' Makefile); \
	named=$$( { grep -ohE '(`|\$$ |run: |= )make( +[a-z][a-z0-9-]*)+' README.md docs/*.md .github/workflows/ci.yml | \
			sed -E 's/^.*make +//' | tr ' ' '\n'; \
		sed -n '/^ *target:$$/,/^ *steps:$$/s/^ *- *\([a-z][a-z0-9-]*\)$$/\1/p' .github/workflows/ci.yml; } | sort -u); \
	stale=0; for t in $$named; do \
		if ! printf '%s\n' $$have | grep -qx "$$t"; then \
			echo "docs name make target '$$t', which the Makefile lacks" >&2; stale=1; fi; \
	done; [ $$stale -eq 0 ]
	go vet ./...
	@echo "docs-check OK"

# loc prints the Go lines of every package, non-test and test, as go
# list sees the package (files a build tag excludes do not count), and
# the totals: the measure a simplification quotes before and after.
loc:
	@printf '%-36s %8s %8s\n' package non-test test
	@go list -f '{{.ImportPath}}|{{.Dir}}|{{join .GoFiles " "}}|{{join .TestGoFiles " "}} {{join .XTestGoFiles " "}}' ./... | \
	while IFS='|' read -r pkg dir src tests; do \
		printf '%-36s %8d %8d\n' "$${pkg#flowercdn/}" \
			"$$(cd "$$dir" && cat $$src /dev/null | wc -l)" "$$(cd "$$dir" && cat $$tests /dev/null | wc -l)"; \
	done | awk '{ print; src += $$2; tests += $$3 } END { printf "%-36s %8d %8d\n", "total", src, tests }'

# cover-report runs every test once with coverage of every package of
# the module and prints, per package, the statements no test reaches and
# the statements it has, then the totals. It has no bound and gates
# nothing: it shows where code runs untested. A failing test fails it,
# after the report.
cover-report:
	@prof=$$(mktemp); status=0; go test -count=1 -coverpkg=flowercdn/... -coverprofile=$$prof ./... >/dev/null || status=$$?; \
	printf '%-36s %9s %10s\n' package unreached statements; \
	awk 'NR > 1 { n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
		END { for (b in n) { p = b; sub(/\/[^\/]*:.*/, "", p); if (p != "flowercdn") sub(/^flowercdn\//, "", p); \
				all[p] += n[b]; if (!(b in hit)) un[p] += n[b] } \
			for (p in all) { printf "%-36s %9d %10d\n", p, un[p], all[p] | "sort"; u += un[p]; a += all[p] } \
			close("sort"); printf "%-36s %9d %10d\n", "total", u, a }' $$prof; \
	rm -f $$prof; exit $$status

# cache-grid-smoke runs the CI-sized capacity grid under cache
# pressure: LRU-bounded peer stores swept over per-peer capacities with
# the unbounded reference cell — the hit-ratio knee the bounded model
# adds on top of the paper (see README "Cache policies").
cache-grid-smoke:
	go run ./cmd/flowerbench -grid capacity -scenario cache-pressure -seeds 1 -p 250
