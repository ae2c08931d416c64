#!/bin/sh
# Rebuilds the library and regenerates every table and figure of the paper
# (plus the ablations and the future-work extension), leaving outputs in
# reproduction_output/.
set -e
cd "$(dirname "$0")/.."

# /bin/sh may lack pipefail, so `cmd | tee file` would let a failing cmd
# (a missed speedup gate, say) pass under set -e. Every stage instead writes
# its file first, shows it, and then returns the stage's own exit status.
run_to() {
  out="$1"
  shift
  rc=0
  "$@" > "$out" || rc=$?
  cat "$out"
  return "$rc"
}

# The default generator, so a build/ configured by the tier-1 command
# (`cmake -B build -S .`) is reused rather than rejected; -j keeps the
# Makefile build parallel.
JOBS="$(nproc 2> /dev/null || echo 2)"
cmake -B build
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure

OUT=reproduction_output
mkdir -p "$OUT"
for bench in build/bench/*; do
  # build/bench also holds the generator's files (CMakeFiles, Makefile,
  # cmake_install.cmake); only the bench executables are stages.
  [ -f "$bench" ] && [ -x "$bench" ] || continue
  name="$(basename "$bench")"
  echo "== $name =="
  case "$name" in
    bench_micro|bench_scaling)
      # google-benchmark harnesses also emit machine-readable JSON (the
      # thread-sweep benchmarks tag each measurement with a "threads"
      # counter) so later PRs can track parallel speedup over time.
      run_to "$OUT/$name.txt" "$bench" --benchmark_out="$OUT/$name.json" \
        --benchmark_out_format=json
      ;;
    bench_update)
      # Dynamic-interactome perf gate: one incremental UpdateEngine::Apply
      # must beat a full re-mine+relabel+repack by 10x; BENCH_update.json
      # archives the measured ratio so the incremental path is tracked
      # across PRs like the mining and routing throughput numbers.
      run_to "$OUT/$name.txt" \
        "$bench" --json "$OUT/BENCH_update.json" --min-speedup 10
      ;;
    bench_fig9_precision_recall)
      # Also archives the registered-backend comparison (LabeledMotif vs
      # GDS vs RoleSimilarity leave-one-out P/R, the same backends `lamo
      # serve --predictor` offers) as BENCH_predictors.json.
      run_to "$OUT/$name.txt" "$bench" --json "$OUT/BENCH_predictors.json"
      ;;
    *)
      run_to "$OUT/$name.txt" "$bench"
      ;;
  esac
done

# Mining perf-regression gate: archive the ESU thread sweep on its own
# (BENCH_mine.json) with the headline esu.subgraphs/sec rate, the shared
# canonicalization-table hit rate and the p99 chunk time, so the enumeration
# engine's throughput is tracked across PRs exactly like the serving and
# routing benchmarks (EXPERIMENTS.md records the baseline).
echo "== mining perf gate (BENCH_mine.json) =="
run_to "$OUT/mine_bench.txt" build/bench/bench_scaling \
  --benchmark_filter=BM_EsuEnumerationThreads \
  --benchmark_out="$OUT/BENCH_mine.json" --benchmark_out_format=json

# Observability artifacts: run the ESU pipeline with --report/--stats over
# a pinned synthetic dataset, validate the JSON against the documented
# schema, and keep both documents with the other outputs so instrumentation
# (phase times, counter totals, per-worker load) can be tracked across PRs.
echo "== run reports (lamo mine/label --report) =="
build/tools/lamo generate --proteins 500 --copies 40 --seed 11 \
  --out "$OUT/obs_ds" > /dev/null
build/tools/lamo mine --graph "$OUT/obs_ds.graph.txt" --algo esu \
  --min-size 3 --max-size 4 --min-freq 20 --networks 5 --uniqueness 0.8 \
  --report "$OUT/mine_report.json" --stats \
  --trace "$OUT/mine_trace.json" \
  --out "$OUT/obs_motifs.txt" > /dev/null 2> "$OUT/mine_stats.txt"
build/tools/lamo_report_check "$OUT/mine_report.json" \
  esu.subgraphs esu.canon_shared_lookups parallel.chunks \
  uniqueness.replicates hist:esu.chunk_us hist:uniqueness.replicate_us
build/tools/lamo label --graph "$OUT/obs_ds.graph.txt" \
  --obo "$OUT/obs_ds.obo" --annotations "$OUT/obs_ds.annotations.tsv" \
  --motifs "$OUT/obs_motifs.txt" --sigma 6 \
  --report "$OUT/label_report.json" --stats \
  --trace "$OUT/label_trace.json" \
  --out "$OUT/obs_labeled.txt" > /dev/null 2> "$OUT/label_stats.txt"
build/tools/lamo_report_check "$OUT/label_report.json" \
  hist:lamofinder.so_cell_us

# Span-trace artifacts: the Chrome traces archived above load directly in
# chrome://tracing or ui.perfetto.dev; keep their terminal digests next to
# them so span coverage can be compared across PRs without a browser.
echo "== span traces (lamo mine/label --trace) =="
run_to "$OUT/mine_trace_summary.txt" \
  build/tools/lamo_trace_summary "$OUT/mine_trace.json"
run_to "$OUT/label_trace_summary.txt" \
  build/tools/lamo_trace_summary "$OUT/label_trace.json"

# Serve and router latency: perfbench is the one harness that measures
# them (open-loop reads on one lamo serve, routed reads beside an update
# trickle on a 2-shard lamo router, plus the offline build), checking every
# answer and validating each daemon's --report with lamo_report_check on the
# traced runs. Its table of end-to-end and per-layer metrics is archived
# here; perfbench/README.md defines each metric.
echo "== serve + router latency (perfbench) =="
run_to "$OUT/perfbench.txt" python3 perfbench/run.py --all --seed 1 --trace 1

# ThreadSanitizer smoke run of the parallel runtime, the tracer and the
# serving stack: rebuilds those tests under -fsanitize=thread and fails on
# any reported race (serve_tests hammers the sharded cache and the stream
# server from multiple threads, plus the live-update writer applying
# ADDEDGE/DELEDGE against concurrent PREDICT readers in update_test; router_tests exercises the monitor/reload
# threads against live backend processes; motif_tests drives the shared
# canonicalization table — lock-free CAS inserts on the dense path, mutex
# shards past k=6 — from concurrent enumeration chunks; obs_tests hammers
# the metric-window ring with concurrent observers vs METRICS scrapes;
# predict_tests runs the per-vertex parallel GDS orbit counter, whose
# relaxed-atomic signature cells TSan must see as race-free; core_tests and
# ontology_tests label motifs in parallel over one shared, lock-free
# TermSimilarity).
echo "== tsan smoke (parallel runtime + tracer + serve + router + motif" \
  "+ predict + labeling) =="
cmake -B build-tsan -DLAMO_SANITIZE=thread
cmake --build build-tsan -j "$JOBS" --target parallel_tests obs_tests \
  serve_tests router_tests motif_tests predict_tests core_tests \
  ontology_tests
LAMO_THREADS=4 ./build-tsan/tests/parallel_tests
LAMO_THREADS=4 ./build-tsan/tests/obs_tests
LAMO_THREADS=4 ./build-tsan/tests/serve_tests
LAMO_THREADS=4 ./build-tsan/tests/router_tests
LAMO_THREADS=4 ./build-tsan/tests/motif_tests
LAMO_THREADS=4 ./build-tsan/tests/predict_tests
LAMO_THREADS=4 ./build-tsan/tests/core_tests
LAMO_THREADS=4 ./build-tsan/tests/ontology_tests

# AddressSanitizer smoke run alongside it: the motif + obs tests cover the
# enumeration hot paths and the metrics layer's thread-local blocks,
# graph_tests runs the GraphIndex property battery (bitset kernels, CSR
# round trips), serve_tests replays the snapshot corruption matrix and the
# incremental-update differential (update_test's in-place occurrence/site
# patches are the overwrite-prone path) under ASan, and io_tests runs the parser fuzz matrix (every reader x 500
# deterministic mutations) plus the GraphIndex build fuzz (500 mutated edge
# lists through ReadEdgeList -> index build -> Validate) where ASan turns
# silent overreads into hard failures; predict_tests runs the GDS
# brute-force differential, where the orbit lookup tables and the ESU
# extension buffers are the overread-prone hot path. util_tests drives the
# shared binary reader (util/bytes.h) through truncations and huge counts
# and the checkpoint corruption matrix; core_tests covers lamo_core, home of
# the labeled-motif codec (its round trips run in motif_tests).
echo "== asan smoke (util + core + motif + graph + obs + serve + router" \
  "+ predict + fuzz) =="
cmake -B build-asan -DLAMO_SANITIZE=address
cmake --build build-asan -j "$JOBS" --target util_tests core_tests motif_tests \
  graph_tests obs_tests serve_tests io_tests router_tests predict_tests
LAMO_THREADS=4 ./build-asan/tests/util_tests
LAMO_THREADS=4 ./build-asan/tests/core_tests
LAMO_THREADS=4 ./build-asan/tests/motif_tests
LAMO_THREADS=4 ./build-asan/tests/graph_tests
LAMO_THREADS=4 ./build-asan/tests/obs_tests
LAMO_THREADS=4 ./build-asan/tests/serve_tests
LAMO_THREADS=4 ./build-asan/tests/io_tests
LAMO_THREADS=4 ./build-asan/tests/router_tests
LAMO_THREADS=4 ./build-asan/tests/predict_tests

# Fault-injection smoke: crash the level-wise miner mid-run with LAMO_FAULT,
# resume from the checkpoint, and require byte-identical output — the full
# crash matrix over every registered fault point runs in ctest
# (`ctest -L fault`), this is the one-command sanity check.
echo "== fault smoke (crash + resume, byte-identical) =="
rm -rf "$OUT/fault_ck"
rc=0
LAMO_FAULT="mine.level:2" build/tools/lamo mine \
  --graph "$OUT/obs_ds.graph.txt" --min-size 3 --max-size 4 --min-freq 20 \
  --checkpoint "$OUT/fault_ck" --out "$OUT/fault_motifs.txt" \
  > /dev/null 2>&1 || rc=$?
test "$rc" -eq 42  # the injected crash, not an ordinary failure
build/tools/lamo mine \
  --graph "$OUT/obs_ds.graph.txt" --min-size 3 --max-size 4 --min-freq 20 \
  --checkpoint "$OUT/fault_ck" --resume --out "$OUT/fault_motifs.txt" \
  > /dev/null
build/tools/lamo mine \
  --graph "$OUT/obs_ds.graph.txt" --min-size 3 --max-size 4 --min-freq 20 \
  --out "$OUT/fault_baseline.txt" > /dev/null
cmp "$OUT/fault_motifs.txt" "$OUT/fault_baseline.txt"
echo "crash/resume reproduced the uninterrupted run byte-for-byte"

echo "All outputs in $OUT/; compare against EXPERIMENTS.md."
