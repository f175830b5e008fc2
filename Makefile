# Tier-1 verification plus the MHP soundness cross-check. The cross-check
# is part of the test suite: the fuzz/e2e properties run dynrace over
# instrumented programs (zero races allowed) and assert that statically
# pruned pairs are never observed racing dynamically.
#
# J controls the domain count of the parallel targets (bench -j flag /
# the sharded test runner); it defaults to all cores.
.PHONY: all build test test-par check bench-json bench-wall bench-regress \
	par-check lockopt-check trace-check analyze-check stress-check \
	refine-check log-check sched-check bench-sustained clean

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
# (schema chimera-wall-bench/2, methodology in EXPERIMENTS.md)
bench-wall:
	dune exec bench/main.exe -- wall --reps $(REPS) -j $(WALLJ)

# wall-clock regression gate: re-measure and fail if any benchmark's
# record+replay or analyze mean exceeds TOL x the committed baseline,
# the aggregate warm-cache analyze speedup drops below WARMX, or the
# scheduler+weak-lock share of attributed record time exceeds SCHEDSHARE
bench-regress:
	dune build bench/main.exe
	./_build/default/bench/main.exe wall --reps $(REPS) -j $(WALLJ) > /tmp/chimera-wall-fresh.json
	./_build/default/bench/main.exe wallcmp --max-ratio $(TOL) \
		--min-warm-speedup $(WARMX) --max-sched-share $(SCHEDSHARE) \
		bench/wall_baseline.json /tmp/chimera-wall-fresh.json

# scheduler gate: record every benchmark under all three schedule
# strategies, pin the default-strategy ticks to the golden counters, and
# require record == replay under each strategy. JSON report (parsed back
# by the gate) lands in /tmp/chimera-sched.json.
sched-check:
	dune build test/sched_check.exe
	./_build/default/test/sched_check.exe \
		--golden test/golden/golden_counters.expected \
		--json /tmp/chimera-sched.json

# must-lockset elision gate: every benchmark records and replays
# identically with the pass on and off, and elision strictly reduces
# runtime weak-lock acquisitions wherever it removed a static one
lockopt-check:
	dune exec bench/main.exe -- lockopt $(JFLAG)

# observability gate: traced record/replay stable event streams are
# byte-identical, tracing never perturbs the run, the Chrome export is
# well-formed JSON, corrupt logs fail typed, and the divergence
# diagnostic pinpoints a first diverging event on a damaged log
trace-check:
	dune exec test/trace_check.exe

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

# refinement gate: stress-corpus the pfscan/fft/ocean trio, refine the
# lockopt plan on its evidence, require the safety valve clean (every
# cell re-recorded with the detector attached, zero violations), pin
# record == replay under both the lockopt and refined plans with strict
# runtime-acquisition drops on >= 2 apps, and drive the CLI loop end to
# end: stress --corpus materialises a manifest, refine emits deployment
# JSON, a hand-corrupted plan digest exits with the typed issue status.
# JSON report lands in /tmp/chimera-refine.json.
refine-check:
	dune build bin/chimera_cli.exe test/refine_check.exe
	CHIMERA_CLI=./_build/default/bin/chimera_cli.exe \
		./_build/default/test/refine_check.exe

# segmented-log gate: record knot's sustained load (20k requests)
# through the spilling recorder with a small segment threshold, measure
# that the peak resident segment stays a fraction of the raw log total,
# stream the segments back (full replay == recording, windowed replay
# halts on the digest the full replay computed), check the checkpoint
# digests are pinned at exactly every 4th seal, and drive the CLI
# --segment-dir loop end to end — the directory must hold a /2 manifest
# and, per seal, a ckpt-NNNN.bin holding that seal's manifest pin, and a
# hand-corrupted segment checksum or a /1
# manifest header must exit with the typed status 3.
# JSON report lands in /tmp/chimera-log.json.
log-check:
	dune build bin/chimera_cli.exe test/log_check.exe
	CHIMERA_CLI=./_build/default/bin/chimera_cli.exe \
		./_build/default/test/log_check.exe

# sustained-load segmented recording experiment: serve 20k requests
# through each server benchmark under the spilling recorder, verify
# streamed + windowed replay, and emit the chimera-sustained-log JSON
# (residency ratios) on stdout
bench-sustained:
	dune exec bench/main.exe -- sustained

# analysis gate: a -j 4 analyze digest is byte-identical to serial, a
# warm cache hit reproduces the cold analysis, every damaged-entry shape
# falls back to recomputation with a diagnostic, and the per-stage
# timing sink covers the whole pipeline
analyze-check:
	dune exec test/analyze_check.exe

clean:
	dune clean
