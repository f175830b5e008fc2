# Tier-1 verification plus the MHP soundness cross-check. The cross-check
# is part of the test suite: the fuzz/e2e properties run dynrace over
# instrumented programs (zero races allowed) and assert that statically
# pruned pairs are never observed racing dynamically. The suite also pins
# the trace streams, the analysis cache and stage sink, and record ==
# replay of every benchmark under every schedule strategy.
#
# J controls the domain count of the parallel targets (bench -j flag /
# the sharded test runner); it defaults to all cores.
.PHONY: all build test test-par check no-catchall loc bench-json bench-wall bench-regress \
	par-check lockopt-check stress-check gates refine-check log-check \
	bench-sustained perf-ab clean

J ?= 0
# wall-clock harness knobs: repetitions per phase, regression tolerance,
# domain count for the analyze phase (the committed baseline was measured
# at -j 4, so the gate re-measures at the same parallelism), and minimum
# aggregate warm-cache speedup over cold analysis
REPS ?= 3
TOL ?= 2.0
WALLJ ?= 4
WARMX ?= 10
SCHEDSHARE ?= 0.35

# expands to "-j $(J)" only when J was overridden
JFLAG = $(if $(filter-out 0,$(J)),-j $(J),)

all: build

build:
	dune build

test:
	dune runtest

# just the domain-sharded runner (dune runtest already includes it)
test-par:
	dune exec test/par_runner.exe -- $(JFLAG)

check:
	dune build && dune runtest

# lib/ holds no catch-all handler: a `with _ ->` or `| exception _` also
# swallows Out_of_memory, Stack_overflow and the analyses' own bugs, so
# each handler names the exceptions it expects
no-catchall:
	@if grep -rnE 'with +_ *->|exception +_' lib --include='*.ml'; then \
		echo "no-catchall: catch-all handlers above; name the exceptions"; \
		exit 1; \
	else echo "no-catchall: lib/ holds no catch-all handler"; fi

# the .ml/.mli line count of lib/, bin/ and test/, the size figure
# ROADMAP.md tracks next to wall time
loc:
	@printf '%s lines of .ml/.mli in lib/ bin/ test/\n' \
		"$$(find lib bin test \( -name '*.ml' -o -name '*.mli' \) -print0 \
		| xargs -0 cat | wc -l)"

# machine-readable pruning counters (static_pairs / pruned_pairs /
# runtime_acquisitions per benchmark); J=4 fans it across 4 domains
bench-json:
	dune exec bench/main.exe -- json $(JFLAG)

# parallel == serial smoke check: the bench JSON must be byte-identical
# at -j 1 and -j $(J) (defaults to -j 2 when J is unset)
par-check:
	dune build bench/main.exe
	./_build/default/bench/main.exe json -j 1 > /tmp/chimera-json-j1.out
	./_build/default/bench/main.exe json $(if $(filter-out 0,$(J)),-j $(J),-j 2) > /tmp/chimera-json-jN.out
	cmp /tmp/chimera-json-j1.out /tmp/chimera-json-jN.out
	@echo "parallel output is byte-identical to serial"

# wall-clock phase timings of the pipeline (analyze cold + warm-cache /
# instrument / record / replay) per benchmark, JSON on stdout
# (schema chimera-wall-bench/5, methodology in EXPERIMENTS.md)
bench-wall:
	dune exec bench/main.exe -- wall --reps $(REPS) -j $(WALLJ)

# wall-clock regression gate: re-measure and fail if any benchmark's
# record+replay or analyze mean exceeds TOL x the committed baseline,
# the aggregate warm-cache analyze speedup drops below WARMX, or the
# scheduler+weak-lock share of attributed record time exceeds SCHEDSHARE;
# also writes the record-phase flamegraph (Chrome trace) of the same run
bench-regress:
	dune build bench/main.exe
	./_build/default/bench/main.exe wall --reps $(REPS) -j $(WALLJ) \
		--flame /tmp/chimera-wall-flame.json > /tmp/chimera-wall-fresh.json
	./_build/default/bench/main.exe wallcmp --max-ratio $(TOL) \
		--min-warm-speedup $(WARMX) --max-sched-share $(SCHEDSHARE) \
		bench/wall_baseline.json /tmp/chimera-wall-fresh.json

# must-lockset elision gate: every benchmark records and replays
# identically with the pass on and off, and elision strictly reduces
# runtime weak-lock acquisitions wherever it removed a static one
lockopt-check:
	dune exec bench/main.exe -- lockopt $(JFLAG)

# adversarial stress gate: batch-record the pfscan/fft/ocean x seeds
# 1..8 x {default,pct,storm} matrix across domains, dedup the logs by
# content address, replay every distinct recording (record == replay,
# served claims == recorded claims), pin default-strategy seed-1 ticks
# to the golden counters, and fault-inject the encoded logs (truncation
# at every record boundary + byte corruption) asserting typed rejection
# or a clean divergence report — never a crash. JSON report lands in
# /tmp/chimera-stress.json.
stress-check:
	dune build bin/chimera_cli.exe
	./_build/default/bin/chimera_cli.exe stress \
		pfscan fft ocean --seeds 1..8 \
		--golden test/golden/golden_counters.expected \
		--json /tmp/chimera-stress.json $(JFLAG)

# the heavy end-to-end gates, one executable (test/gates.ml) and one JSON
# report, /tmp/chimera-gates.json (schema chimera-gates/1):
# - log: record knot's sustained load (20k requests) through the
#   spilling recorder with a small segment threshold, measure that the
#   peak resident segment stays a fraction of the raw log total, stream
#   the segments back (full replay == recording, windowed replay halts
#   on the full replay's digest), check checkpoint digests are pinned at
#   exactly every 4th seal, and drive the CLI --segment-dir loop (a /2
#   manifest, one ckpt-NNNN.bin per pin, and a corrupted segment or a /1
#   manifest exits with the typed status 3);
# - refine: stress-corpus the pfscan/fft/ocean trio, refine the lockopt
#   plan on its evidence, require the safety valve clean, record ==
#   replay under both plans with strict runtime-acquisition drops on
#   >= 2 apps, and drive the stress --corpus / refine CLI loop (a
#   hand-corrupted plan digest exits with the typed issue status 2).
GATES = dune build bin/chimera_cli.exe test/gates.exe && \
	CHIMERA_CLI=./_build/default/bin/chimera_cli.exe ./_build/default/test/gates.exe

gates:
	$(GATES)

log-check:
	$(GATES) log

refine-check:
	$(GATES) refine

# sustained-load segmented recording experiment: serve 20k requests
# through each server benchmark under the spilling recorder, verify
# streamed + windowed replay, and emit the chimera-sustained-log JSON
# (residency ratios) on stdout
bench-sustained:
	dune exec bench/main.exe -- sustained

# A/B of the repository benchmark (perfbench/run.py) on workload W:
# revision BASE, extracted with git archive into a temporary directory,
# against the working tree, one pair of SECS-second runs per seed of
# SEEDS (A..B or A,B,C), the side that runs first alternating by pair;
# prints per-metric medians, quartiles, pairs won and every pair
BASE ?= HEAD
W ?= analyze
SEEDS ?= 1..5
SECS ?= 10

perf-ab:
	python3 tools/perf_ab.py --base $(BASE) --workload $(W) --seeds $(SEEDS) \
		--seconds $(SECS)

clean:
	dune clean
